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


def _sigma_step(rows, v: list[int], lam: int = 0) -> list[int]:
    """(sigma - lam) * v in Z[G], where rows are the table rows of the members of S."""
    w = [-lam * c for c in v]
    for x, c in enumerate(v):
        if c:
            for row in rows:
                w[row[x]] += c
    return w


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
        v = _sigma_step(rows, v, lam)
    return not any(v)


def _walk_multiplicities(g: FiniteGroup, sset: tuple[int, ...]) -> dict[int, int]:
    """Multiplicity of each eigenvalue of an integral Cay(G,S), from closed walks.

    tr(A^j) = n * w_j with w_j = (sigma^j)[e], the closed walks of length j at
    any vertex. With every eigenvalue in [-k, k], the multiplicities solve
    sum_lam m_lam * lam^j = n * w_j for j = 0..2k, a Vandermonde system whose
    solution is read through the Lagrange basis: with P_lam the product of
    (x - mu) over mu != lam, m_lam = n * sum_j [x^j]P_lam * w_j / P_lam(lam).

    k steps suffice: S = S^-1 gives sigma^b[x^-1] = sigma^b[x], so
    w_(a+b) = sum_x sigma^a[x] * sigma^b[x], and w_2a, w_2a+1 are the inner
    products of sigma^a * e with itself and with sigma^(a+1) * e.
    """
    rows = [g.table[a] for a in sset]
    k = len(sset)
    v = [0] * g.order
    v[g.identity] = 1
    walks = []
    for _ in range(k):
        w = _sigma_step(rows, v)
        walks += [sum(c * c for c in v), sum(c * d for c, d in zip(v, w))]
        v = w
    walks.append(sum(c * c for c in v))
    lams = range(k, -k - 1, -1)
    full = IntPolynomial((1,))
    for mu in lams:
        full = full * IntPolynomial((-mu, 1))
    mults: dict[int, int] = {}
    for lam in lams:
        basis = full.divmod_by(IntPolynomial((-lam, 1)))[0]
        total = g.order * sum(c * walk for c, walk in zip(basis.coeffs, walks))
        m, rem = divmod(total, basis(lam))
        if rem or m < 0:
            raise AssertionError(f"closed walks give no multiplicity for eigenvalue {lam}")
        if m:
            mults[lam] = m
    return mults


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

    The verdict comes from is_integral, and the report takes one of two routes.

    Integral: the multiplicities come from the counts of closed walks of
    length 0..2k (_walk_multiplicities), in k steps of sigma on Z[G]. Those
    walks run over the whole graph, so the multiplicities already count every
    component, and the residual is 1. The multiplicity of k is the number of
    components, which is the index [G:H] of the subgroup H that S generates.
    No characteristic polynomial is formed.

    Otherwise: Cay(G,S) is [G:H] disjoint copies of Cay(H,S), so the
    characteristic polynomial (char_poly, on H) is raised to the index and
    multiplicities scale by the index. Every eigenvalue of a k-regular graph
    lies in [-k, k]; x - lam is divided out while lam is a root, for each
    integer lam in that range, and what is left is the residual. The value at
    lam, by Horner's rule, is the remainder of that division, so only roots
    are divided out.
    """
    sset = validate_connection_set(g, s)
    k = len(sset)
    ok = is_integral(g, sset)
    if ok:
        mults = _walk_multiplicities(g, sset)
        index = mults[k]
        residual = IntPolynomial((1,))
    else:
        res = char_poly(g, sset)
        index = g.order // res.degree
        mults = {}
        for lam in range(k, -k - 1, -1):
            m = 0
            while res(lam) == 0:
                res, m = res.divmod_by(IntPolynomial((-lam, 1)))[0], m + 1
            if m:
                mults[lam] = m * index
        residual = res**index
    rep = SpectrumReport(
        n=g.order,
        degree=k,
        integral=ok,
        eigenvalues=tuple(sorted(mults.items(), reverse=True)),
        residual=residual,
        components=mults.get(k, 0),
        subgroup_order=g.order // index,
        index=index,
    )
    return ok, rep
