"""Exact integrality decisions for the spectra of Cayley graphs."""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup, closure
from .polys import IntPolynomial


@dataclass(frozen=True)
class SpectrumReport:
    """Integer part of a spectrum, the leftover factor, and component data."""

    n: int
    degree: int
    integral: bool
    eigenvalues: tuple[tuple[int, int], ...]
    residual: IntPolynomial
    components: int
    subgroup_order: int
    index: int


def validate_connection_set(g: FiniteGroup, s) -> tuple[int, ...]:
    out = tuple(sorted(s))
    members = set(out)
    if len(members) != len(out):
        raise ValueError("connection set has repeated elements")
    for x in out:
        if not 0 <= x < g.order:
            raise ValueError(f"element index {x} out of range")
        if x == g.identity:
            raise ValueError("connection set contains the identity")
        if g.inv[x] not in members:
            raise ValueError(f"connection set is not symmetric: missing inverse of {x}")
    return out


def is_integral(g: FiniteGroup, s) -> bool:
    """Whether Cay(G,S) has an integral spectrum, by 2k+1 walk steps.

    The adjacency matrix is the regular image of sigma = sum of S in Z[G]
    (vertex x joined to s*x), and that image is faithful. The matrix is
    symmetric with every eigenvalue in [-k, k], so its spectrum is integral
    exactly when prod_{lam=-k..k} (sigma - lam) = 0 in Z[G]. The product is
    read off by applying each factor in turn to the identity's indicator.
    """
    sset = validate_connection_set(g, s)
    rows = [g.table[a] for a in sset]
    k = len(sset)
    v = [0] * g.order
    v[g.identity] = 1
    for lam in range(-k, k + 1):
        w = [-lam * c for c in v]
        for x, c in enumerate(v):
            if c:
                for row in rows:
                    w[row[x]] += c
        v = w
    return not any(v)


def char_poly(g: FiniteGroup, s) -> IntPolynomial:
    """det(xI - A) for the component of Cay(G,S) that holds the identity.

    That component is Cay(<S>, S), vertex x joined to s*x for each s in S;
    when S generates G it is the whole graph. The vertices are the members of
    <S> in closure order, and the Faddeev-LeVerrier recurrence runs on the
    neighbour lists. Every division in it is exact over the integers, and
    each matrix product reduces to row sums over those lists.
    """
    sset = validate_connection_set(g, s)
    t = g.table
    verts = closure(g, sset)
    pos = {x: i for i, x in enumerate(verts)}
    nbrs = [[pos[t[a][x]] for a in sset] for x in verts]
    n = len(verts)
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    desc = [1]
    for k in range(1, n + 1):
        am = []
        for i in range(n):
            lst = nbrs[i]
            if not lst:
                am.append([0] * n)
                continue
            acc = list(m[lst[0]])
            for j in lst[1:]:
                mj = m[j]
                acc = [x + y for x, y in zip(acc, mj)]
            am.append(acc)
        tr = sum(am[i][i] for i in range(n))
        if tr % k:
            raise AssertionError("inexact trace division in char poly recurrence")
        ck = -(tr // k)
        desc.append(ck)
        if k < n:
            for i in range(n):
                am[i][i] += ck
            m = am
    return IntPolynomial(tuple(reversed(desc)))


def is_integral_cayley(g: FiniteGroup, s) -> tuple[bool, SpectrumReport]:
    """Verdict and spectrum report for Cay(G,S).

    Cay(G,S) is [G:H] disjoint copies of Cay(H,S) for H the subgroup S
    generates, so the characteristic polynomial is the H-graph's raised to the
    index and multiplicities scale by the index. Every eigenvalue of a
    k-regular graph lies in [-k, k], so dividing out x - lam while lam is a
    root, for each integer lam in that range, leaves a residual of degree 0
    exactly when the spectrum is integral. The value at lam, by Horner's rule,
    is the remainder of that division, so only roots are divided out.
    """
    res = char_poly(g, s)
    deg, k = res.degree, len(s)
    index = g.order // deg
    mults: dict[int, int] = {}
    for lam in range(k, -k - 1, -1):
        m = 0
        while res(lam) == 0:
            res, m = res.divmod_by(IntPolynomial((-lam, 1)))[0], m + 1
        if m:
            mults[lam] = m * index
    rep = SpectrumReport(
        n=g.order,
        degree=k,
        integral=res.degree == 0,
        eigenvalues=tuple(sorted(mults.items(), reverse=True)),
        residual=res**index,
        components=mults.get(k, 0),
        subgroup_order=deg,
        index=index,
    )
    return rep.integral, rep
