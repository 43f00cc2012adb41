"""Oracles independent of the library's shortcuts.

An exact whole-graph reference that works for every group: it builds the
dense adjacency of all of Cay(G,S), takes the multiplicity of each candidate
eigenvalue lam of the k-regular graph as n - rank(A - lam*I), by
fraction-free elimination, for every lam in [-k, k], and the characteristic
polynomial from the traces of the powers of A by Newton's identities. A
verdict from the Faddeev-LeVerrier characteristic polynomial, with no walk in
Z[G]. A floating-point character-sum oracle for abelian groups, and the
exact atom criterion for them, which reaches order 500. A plain
membership scan that decides every connection set, with no automorphism
orbits. An associativity check of a table over every triple. And a random
relabelling of a group table, as an imported document would carry it.
"""

from __future__ import annotations

import cmath
from itertools import product
from math import gcd

from integra.classify import MembershipReport
from integra.groups import FiniteGroup, closure, from_table, is_abelian
from integra.polys import IntPolynomial
from integra.spectra import SpectrumReport, char_poly
from integra.symsets import enumerate_symmetric_sets

IMAG_TOL = 1e-9
INT_TOL = 1e-6


def _bareiss_rank(rows: list[list[int]], n: int) -> int:
    """Rank by fraction-free elimination, pivoting on the first nonzero in row order."""
    rank = 0
    prev = 1
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, n):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        rr = rows[r]
        for i in range(r + 1, n):
            row = rows[i]
            f = row[c]
            if f == 0 and p == prev:
                continue
            row[c + 1 :] = [
                (p * x - f * y) // prev for x, y in zip(row[c + 1 :], rr[c + 1 :])
            ]
            row[c] = 0
        prev = p
        r += 1
        rank += 1
        if r == n:
            break
    return rank


def cayley_rows(g: FiniteGroup, s) -> list[list[int]]:
    """Dense 0/1 adjacency of all of Cay(G,S): row x has a 1 at s*x for each s in S."""
    rows = [[0] * g.order for _ in range(g.order)]
    for x in range(g.order):
        for a in s:
            rows[x][g.table[a][x]] = 1
    return rows


def eigen_multiplicity(rows: list[list[int]], lam: int) -> int:
    """Multiplicity of lam as an eigenvalue: n - rank(A - lam*I), exactly."""
    n = len(rows)
    shifted = [list(r) for r in rows]
    for i in range(n):
        shifted[i][i] -= lam
    return n - _bareiss_rank(shifted, n)


def newton_char_poly(rows: list[list[int]]) -> IntPolynomial:
    """det(xI - A) from the power sums p_j = tr(A^j) by Newton's identities,
    j * e_j = sum_{i=1..j} (-1)^(i-1) e_(j-i) p_i."""
    n = len(rows)
    nbrs = [[c for c, v in enumerate(r) if v] for r in rows]
    power = [list(r) for r in rows]
    sums = [0]
    for j in range(1, n + 1):
        sums.append(sum(power[i][i] for i in range(n)))
        if j < n:
            power = [
                [sum(col) for col in zip(*(power[c] for c in nbrs[i]))] if nbrs[i] else [0] * n
                for i in range(n)
            ]
    e = [1]
    for j in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * e[j - i] * sums[i] for i in range(1, j + 1))
        if acc % j:
            raise AssertionError("inexact division in Newton's identities")
        e.append(acc // j)
    return IntPolynomial(tuple((-1) ** j * e[j] for j in range(n, -1, -1)))


def rank_spectrum(g: FiniteGroup, s) -> SpectrumReport:
    """The library's report for Cay(G,S), rebuilt on the whole graph.

    Multiplicities come from exact ranks at every lam in [-k, k], and the
    residual is the Newton's-identity characteristic polynomial with the
    rank-confirmed factors divided out; an inexact division means the ranks
    and the polynomial disagree. The graph has one component per unit of
    multiplicity of k.
    """
    rows = cayley_rows(g, s)
    n, k = g.order, len(s)
    mults = {}
    for lam in range(k, -k - 1, -1):
        m = eigen_multiplicity(rows, lam)
        if m:
            mults[lam] = m
    residual = newton_char_poly(rows)
    for lam, m in mults.items():
        residual, rem = residual.divmod_by(IntPolynomial((-lam, 1)) ** m)
        if rem.coeffs:
            raise AssertionError(f"rank multiplicity {m} of {lam} does not divide the char poly")
    components = mults[k]
    return SpectrumReport(
        n=n,
        degree=k,
        integral=sum(mults.values()) == n,
        eigenvalues=tuple(sorted(mults.items(), reverse=True)),
        residual=residual,
        components=components,
        subgroup_order=n // components,
        index=components,
    )


def abelian_basis(g: FiniteGroup) -> list[int]:
    """Element indices b1..br with g the internal direct product of the <bi>."""
    if not is_abelian(g):
        raise ValueError("basis extraction needs an abelian group")
    if g.order == 1:
        return []
    orders = [g.element_order(i) for i in range(g.order)]
    g1 = max(range(g.order), key=lambda i: orders[i])
    m = orders[g1]
    cyc = []
    x = g.identity
    for _ in range(m):
        cyc.append(x)
        x = g.mul(x, g1)
    if len(cyc) == g.order:
        return [g1]
    reps_of: dict[int, int] = {}
    for e in range(g.order):
        reps_of[e] = min(g.mul(e, c) for c in cyc)
    reps = sorted(set(reps_of.values()))
    idx = {r: i for i, r in enumerate(reps)}
    table = [
        [idx[reps_of[g.mul(a, b)]] for b in reps]
        for a in reps
    ]
    doc = {
        "format": "ftg-1",
        "order": len(reps),
        "identity": 0,
        "table": table,
        "names": [g.names[r] for r in reps],
    }
    quotient = from_table(doc, label="quotient")
    basis = [g1]
    for bq in abelian_basis(quotient):
        h = reps[bq]
        q = quotient.element_order(bq)
        t = cyc.index(g.power(h, q))
        if t % q != 0:
            raise AssertionError("lift correction is not divisible")
        lifted = g.mul(h, g.power(g1, (m - t // q) % m))
        if g.element_order(lifted) != q:
            raise AssertionError("lifted basis element has the wrong order")
        basis.append(lifted)
    return basis


def coordinates(g: FiniteGroup, basis: list[int]) -> tuple[dict[int, tuple[int, ...]], list[int]]:
    """Map each element to its exponent vector over the basis."""
    orders = [g.element_order(b) for b in basis]
    coords: dict[int, tuple[int, ...]] = {}
    for vec in product(*[range(d) for d in orders]):
        e = g.identity
        for b, x in zip(basis, vec):
            e = g.mul(e, g.power(b, x))
        coords[e] = vec
    if len(coords) != g.order:
        raise AssertionError("basis does not span the group")
    return coords, orders


def character_eigenvalues(g: FiniteGroup, s) -> list[float]:
    """All n eigenvalues of Cay(g, s) as character sums; asserts they are real."""
    basis = abelian_basis(g)
    coords, orders = coordinates(g, basis)
    eigs: list[float] = []
    for y in product(*[range(d) for d in orders]):
        total = 0j
        for t in s:
            phase = sum(x * w / d for x, w, d in zip(coords[t], y, orders))
            total += cmath.exp(2j * cmath.pi * phase)
        if abs(total.imag) >= IMAG_TOL:
            raise AssertionError(f"character sum not real: {total}")
        eigs.append(total.real)
    return eigs


def oracle_integral(g: FiniteGroup, s) -> bool:
    """True when every character-sum eigenvalue is within INT_TOL of an integer."""
    return all(abs(v - round(v)) < INT_TOL for v in character_eigenvalues(g, s))


def oracle_spectrum(g: FiniteGroup, s) -> dict[int, int]:
    """Rounded eigenvalue multiset; only meaningful when oracle_integral holds."""
    counts: dict[int, int] = {}
    for v in character_eigenvalues(g, s):
        counts[round(v)] = counts.get(round(v), 0) + 1
    return counts


def atom_integral(g: FiniteGroup, s) -> bool:
    """Whether Cay(G,S) is integral for abelian G: exactly when S is a union
    of atoms [x] = {x^j : gcd(j, ord x) = 1} (Bridges-Mena 1982 for cyclic
    groups, Alperin-Peterson 2012 for abelian ones)."""
    if not is_abelian(g):
        raise ValueError("the atom criterion needs an abelian group")
    members = set(s)
    for x in members:
        d = g.element_order(x)
        acc = x
        for j in range(2, d):
            acc = g.mul(acc, x)
            if gcd(j, d) == 1 and acc not in members:
                return False
    return True


def fl_integral(g: FiniteGroup, s) -> bool:
    """Whether Cay(G,S) is integral, by deflating the Faddeev-LeVerrier
    polynomial of the identity's component by x - lam for every root lam in
    [-k, k]: the spectrum is integral when nothing is left."""
    res = char_poly(g, s)
    for lam in range(-len(s), len(s) + 1):
        while res(lam) == 0:
            res = res.divmod_by(IntPolynomial((-lam, 1)))[0]
    return res.degree == 0


def _plain_verdict(g: FiniteGroup):
    """An integrality test for g that shares nothing with the library's walk:
    the atom criterion when g is abelian, fl_integral otherwise."""
    return atom_integral if is_abelian(g) else fl_integral


# On _plain_verdict, so tests/test_orbits.py checks the walk verdict against
# atoms on abelian groups and against FL on the rest.
def plain_scan(g: FiniteGroup, k: int, cls: str) -> MembershipReport:
    """A_k ("A") or G_k ("G") membership by deciding every set in enumeration order."""
    integral = _plain_verdict(g)
    checked = 0
    for s in enumerate_symmetric_sets(g, k, "exact" if cls == "A" else "at_most"):
        checked += 1
        if not integral(g, s):
            names = tuple(g.names[x] for x in s)
            return MembershipReport(g.label, cls, k, False, False, s, names, checked)
    return MembershipReport(g.label, cls, k, True, checked == 0, None, None, checked)


def plain_cubic_census(g: FiniteGroup) -> tuple[dict[str, int], list[tuple[int, ...]]]:
    """C17's row for g, counted over every cubic set, and its integral connected sets."""
    integral = _plain_verdict(g)
    integral_sets = []
    connected = 0
    for s in enumerate_symmetric_sets(g, 3):
        if len(closure(g, s)) == g.order:
            connected += 1
            if integral(g, s):
                integral_sets.append(s)
    row = {"connected_cubic": connected, "integral": len(integral_sets)}
    return row, integral_sets


def is_associative(rows) -> bool:
    """Whether (i*j)*k == i*(j*k) for every triple of indices: the O(n^3)
    route that from_table's Light's test is checked against."""
    n = len(rows)
    for i in range(n):
        ri = rows[i]
        for j in range(n):
            rij = rows[ri[j]]
            rj = rows[j]
            for k in range(n):
                if rij[k] != ri[rj[k]]:
                    return False
    return True


def relabelled_document(g: FiniteGroup, rng) -> tuple[dict, list[int]]:
    """g's ftg-1 document under a random relabelling that moves the identity
    off index 0, with the map old index -> new index."""
    n = g.order
    new = list(range(n))
    while new[g.identity] == 0 and n > 1:
        rng.shuffle(new)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[new[i]][new[j]] = new[g.table[i][j]]
    names = [""] * n
    for i in range(n):
        names[new[i]] = g.names[i]
    doc = {"format": "ftg-1", "order": n, "identity": new[g.identity],
           "table": table, "names": names}
    return doc, new
