"""Oracles independent of the library's shortcuts.

An exact whole-graph reference that works for every group: it builds the
dense adjacency of all of Cay(G,S), takes the multiplicity of each candidate
eigenvalue lam of the k-regular graph as n - rank(A - lam*I), by
fraction-free elimination, for every lam in [-k, k], and the characteristic
polynomial from the traces of the powers of A by Newton's identities. A
verdict from the Faddeev-LeVerrier characteristic polynomial, with no walk in
Z[G] and no code from integra.spectra. A floating-point character-sum
oracle for abelian groups, and the exact atom criterion for them, which
reaches order 500. The normal-set criterion for unions of conjugacy
classes in any group. The A_3 criterion and nilpotency as subgroup
closures: each <x, y> told by its element-order counts against groups
built from specs, and the lower central series. Every automorphism of a
small group, each map of a generating set to elements of equal orders
checked on the whole table. A plain membership
scan that decides every connection set, with no automorphism orbits. An associativity check of a table over every triple,
and the checks of an imported table in their documented order with no
shortcut. And a random relabelling of a group table, as an imported
document would carry it.
"""

from __future__ import annotations

import cmath
from collections import Counter
from itertools import chain, product
from math import gcd
from operator import add

from integra.classify import MembershipReport
from integra.groups import (
    FiniteGroup,
    closure,
    construct,
    element_orders,
    from_table,
    is_abelian,
)
from integra.polys import IntPolynomial
from integra.spectra import SpectrumReport
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


def normal_integral(g: FiniteGroup, s) -> bool:
    """Whether Cay(G,S) is integral for S a union of conjugacy classes:
    exactly when S is a union of classes of the relation x ~ y, <x> and <y>
    conjugate (Alperin-Peterson 2012; Godsil-Spiga). The class of x holds
    the conjugates of every generator x^j of <x>."""
    t, inv = g.table, g.inv
    members = set(s)

    def conjugates(x):
        return {t[t[inv[c]][x]][c] for c in range(g.order)}

    if any(not conjugates(x) <= members for x in members):
        raise ValueError("the normal-set rule needs a union of conjugacy classes")
    for x in members:
        d = g.element_order(x)
        for j in range(2, d):
            if gcd(j, d) == 1 and not conjugates(g.power(x, j)) <= members:
                return False
    return True


# A group of each isomorphism type the tests name, built from a spec.
NAMED_SPECS = {
    "Z2": "cyclic:2",
    "Z4": "cyclic:4",
    "Z6": "cyclic:6",
    "Z2xZ2": "cyclic:2 x cyclic:2",
    "Z2xZ4": "cyclic:2 x cyclic:4",
    "Z2xZ6": "cyclic:2 x cyclic:6",
    "S3": "sym:3",
    "D8": "dihedral:8",
    "D12": "dihedral:12",
    "Q8": "quaternion",
    "A4": "alt:4",
}


def order_counts(g: FiniteGroup, members=None) -> Counter:
    """How many of the members, all of g by default, have each element order.

    Below order 16 these counts decide a group up to isomorphism (Z4xZ4 and
    Q8xZ2 are the first pair sharing them), so comparing them with a group
    built from a spec tells which group it is."""
    return Counter(g.element_order(x) for x in (range(g.order) if members is None else members))


def a3_by_subgroups(g: FiniteGroup) -> bool:
    """The A_3 criterion as the paper words it: g is S3, or every subgroup
    generated by an involution and one further element is Z2, Z2xZ2, Z4, Z6,
    Z2xZ4, Z2xZ6 or A4. Each <x, y> is closed and told by its element-order
    counts against those of the allowed groups, built from their specs."""
    if order_counts(g) == order_counts(construct(NAMED_SPECS["S3"])):
        return True
    allowed = [
        order_counts(construct(NAMED_SPECS[nm]))
        for nm in ("Z2", "Z4", "Z2xZ2", "Z6", "Z2xZ4", "Z2xZ6", "A4")
    ]
    orders = element_orders(g)
    return all(
        order_counts(g, closure(g, (x, y))) in allowed
        for x in range(g.order)
        if orders[x] == 2
        for y in range(g.order)
    )


def nilpotent_by_series(g: FiniteGroup) -> bool:
    """Whether the lower central series G, [G, G], [G, [G, G]], ... reaches
    the trivial group. Each term is closed from the commutators a^-1 h^-1 a h
    of every a in G with every h in the term before; [G, H] lies inside H,
    so an equal size means the series has stopped."""
    t, inv = g.table, g.inv
    cur = tuple(range(g.order))
    while True:
        comms = {t[t[inv[a]][inv[h]]][t[a][h]] for a in range(g.order) for h in cur}
        nxt = closure(g, comms)
        if len(nxt) == 1:
            return True
        if len(nxt) == len(cur):
            return False
        cur = nxt


def fl_integral(g: FiniteGroup, s) -> bool:
    """Whether Cay(G,S) is integral, from the characteristic polynomial of
    the identity's component, of which every component is a copy.

    The Faddeev-LeVerrier recurrence M_j = A M_(j-1) + c_j I, with
    c_j = -tr(A M_(j-1)) / j, gives its coefficients; row x of A M is the sum
    of the rows of M at x's neighbours s*x. The polynomial is deflated by
    x - lam for every root lam in [-k, k], and the spectrum is integral when
    nothing is left.
    """
    t = g.table
    verts = closure(g, s)
    pos = {x: i for i, x in enumerate(verts)}
    nbrs = [[pos[t[a][x]] for a in s] for x in verts]
    m = len(verts)
    mat = [[int(i == j) for j in range(m)] for i in range(m)]
    coeffs = [1]
    for j in range(1, m + 1):
        product = []
        for lst in nbrs:
            # With S empty, A is zero.
            row = mat[lst[0]] if lst else [0] * m
            for c in lst[1:]:
                row = map(add, row, mat[c])
            product.append(list(row))
        mat = product
        c, rem = divmod(-sum(mat[i][i] for i in range(m)), j)
        if rem:
            raise AssertionError("inexact trace division in Faddeev-LeVerrier")
        coeffs.append(c)
        for i in range(m):
            mat[i][i] += c
    res = IntPolynomial(tuple(reversed(coeffs)))
    for lam in range(-len(s), len(s) + 1):
        while res(lam) == 0:
            res = res.divmod_by(IntPolynomial((-lam, 1)))[0]
    return res.degree == 0


def automorphisms(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Every automorphism of g, as the tuple of images of 0..order-1.

    Each choice of images of equal orders for a generating set taken in
    index order is extended along the breadth-first words of the elements,
    and kept when it is a bijection that preserves every product. The work
    is the product of the generators' pools times order^2, so only small
    groups are listed.
    """
    n, t, e = g.order, g.table, g.identity
    orders = element_orders(g)
    gens: list[int] = []
    reached = {e}
    for x in range(n):
        if x not in reached:
            gens.append(x)
            reached = set(closure(g, gens))
    # parent[b] = (a, j) with b = a * gens[j], breadth-first from e.
    parent: dict[int, tuple[int, int]] = {}
    walk = [e]
    for a in walk:
        for j, x in enumerate(gens):
            b = t[a][x]
            if b != e and b not in parent:
                parent[b] = (a, j)
                walk.append(b)
    pools = [[y for y in range(n) if orders[y] == orders[x]] for x in gens]
    autos = []
    for images in product(*pools):
        phi = [e] * n
        for b in walk[1:]:
            a, j = parent[b]
            phi[b] = t[phi[a]][images[j]]
        if len(set(phi)) == n and all(
            phi[t[a][b]] == t[phi[a]][phi[b]] for a in range(n) for b in range(n)
        ):
            autos.append(tuple(phi))
    return autos


def _plain_verdict(g: FiniteGroup):
    """An integrality test for g that shares nothing with the library's walk:
    the atom criterion when g is abelian, fl_integral otherwise."""
    return atom_integral if is_abelian(g) else fl_integral


# On _plain_verdict, so tests/test_orbits.py checks the walk verdict against
# atoms on abelian groups and against FL on the rest.
def plain_scan(g: FiniteGroup, k: int, cls: str) -> MembershipReport:
    """A_k ("A") or G_k ("G") membership by deciding every set in enumeration
    order: size k for A_k, and sizes 1..k, up to n - 1, in turn for G_k."""
    integral = _plain_verdict(g)
    sizes = [k] if cls == "A" else range(1, min(k, g.order - 1) + 1)
    checked = 0
    for s in chain.from_iterable(enumerate_symmetric_sets(g, j) for j in sizes):
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


def table_fault(doc: dict) -> str | None:
    """The message from_table gives for the table and identity of doc, an
    ftg-1 document with a valid order and names, or None when they make a
    group. Every check runs in its documented order, with no shortcut: each
    row's size, then the type and range of its entries; the rows and then
    the columns as lines of a Latin square; a designated identity's type and
    range, then a two-sided identity; then every triple by is_associative."""
    n, table = doc["order"], doc["table"]
    if len(table) != n:
        return "table size does not match order"
    for row in table:
        if len(row) != n:
            return "table size does not match order"
        if any(type(x) is not int or not 0 <= x < n for x in row):
            return "table entry out of range"
    full = list(range(n))
    for line in table + [[row[j] for row in table] for j in range(n)]:
        if sorted(line) != full:
            return "not a Latin square"
    ident = doc.get("identity")
    if ident is not None and (type(ident) is not int or not 0 <= ident < n):
        return "bad identity index"
    candidates = full if ident is None else [ident]
    if not any(table[e] == full and [row[e] for row in table] == full for e in candidates):
        return "no identity"
    if not is_associative(table):
        return "not associative"
    return None


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
