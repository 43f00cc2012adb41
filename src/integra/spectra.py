"""Cayley adjacency matrices and exact integrality decisions for their spectra."""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup, closure
from .polys import IntPolynomial


@dataclass(frozen=True)
class AdjMatrix:
    n: int
    rows: tuple[tuple[int, ...], ...]
    degree: int


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
    sub: "SpectrumReport | None" = None


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


def cayley_adjacency(g: FiniteGroup, s) -> AdjMatrix:
    """Adjacency of Cay(G,S): vertex x joined to s*x for each s in S."""
    sset = validate_connection_set(g, s)
    n = g.order
    rows = []
    for x in range(n):
        row = [0] * n
        for t in sset:
            row[g.table[t][x]] = 1
        rows.append(tuple(row))
    return AdjMatrix(n, tuple(rows), len(sset))


def char_poly(a: AdjMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - A) via the Faddeev-LeVerrier recurrence.

    Every division in the recurrence is exact over the integers; the 0/1
    structure of A lets each matrix product reduce to row sums over neighbor
    lists.
    """
    n = a.n
    nbrs = [[j for j, v in enumerate(row) if v] for row in a.rows]
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


def integral_spectrum(a: AdjMatrix) -> SpectrumReport:
    """Decide integrality by factoring the characteristic polynomial exactly.

    Every eigenvalue of a k-regular graph lies in [-k, k], so dividing out
    x - lam for each integer root in that range leaves a residual of degree 0
    exactly when the spectrum is integral.
    """
    n, k = a.n, a.degree
    res = char_poly(a)
    mults: dict[int, int] = {}
    for lam in range(k, -k - 1, -1):
        m = 0
        factor = IntPolynomial.linear_root(lam)
        while res(lam) == 0:
            res, rem = res.divmod_by(factor)
            if not rem.is_zero():
                raise AssertionError("inexact division by confirmed root")
            m += 1
        if m:
            mults[lam] = m
    return SpectrumReport(
        n=n,
        degree=k,
        integral=res.degree == 0,
        eigenvalues=tuple(sorted(mults.items(), reverse=True)),
        residual=res,
        components=mults.get(k, 0),
        subgroup_order=n,
        index=1,
    )


def is_integral_cayley(g: FiniteGroup, s) -> tuple[bool, SpectrumReport]:
    """Verdict for Cay(G,S), computed on the generated subgroup and lifted.

    Cay(G,S) is [G:H] disjoint copies of Cay(H,S) for H the subgroup S
    generates, so the characteristic polynomial is the H-graph's raised to the
    index and multiplicities scale by the index.
    """
    sset = validate_connection_set(g, s)
    sub = closure(g, sset)
    pos = {parent: i for i, parent in enumerate(sub.embed)}
    s_h = sorted(pos[x] for x in sset)
    rep_h = integral_spectrum(cayley_adjacency(sub.group, s_h))
    index = g.order // sub.group.order
    if index == 1:
        return rep_h.integral, rep_h
    lifted = SpectrumReport(
        n=g.order,
        degree=rep_h.degree,
        integral=rep_h.integral,
        eigenvalues=tuple((lam, m * index) for lam, m in rep_h.eigenvalues),
        residual=rep_h.residual**index,
        components=rep_h.components * index,
        subgroup_order=sub.group.order,
        index=index,
        sub=rep_h,
    )
    return lifted.integral, lifted


def report_to_dict(rep: SpectrumReport) -> dict:
    return {
        "n": rep.n,
        "degree": rep.degree,
        "integral": rep.integral,
        "eigenvalues": [[lam, m] for lam, m in rep.eigenvalues],
        "residual": list(rep.residual.coeffs),
        "components": rep.components,
        "subgroup_order": rep.subgroup_order,
        "index": rep.index,
    }
