"""Exact reference route for the benchmark, written apart from integra.

Stdlib only; nothing here imports integra. It builds groups from their own
multiplication rules, and computes the characteristic polynomial of
Cay(G, S) from closed-walk counts: tr(A^j) = n * (sigma^j)[e] with
sigma = sum of S in the group algebra, turned into coefficients by Newton's
identities. Graphs of valency at most 2 also have a closed form (disjoint
cycles), which the census checks use.
"""

from __future__ import annotations

from itertools import product as _cartesian
from math import comb


class Group:
    """A finite group given by its multiplication table over 0..n-1."""

    def __init__(self, table, identity: int, names=None):
        self.table = [list(row) for row in table]
        self.order = len(self.table)
        self.identity = identity
        self.inv = [row.index(identity) for row in self.table]
        self.names = list(names) if names is not None else [str(i) for i in range(self.order)]

    def element_order(self, x: int) -> int:
        k, acc = 1, x
        while acc != self.identity:
            acc = self.table[acc][x]
            k += 1
        return k

    def order_profile(self) -> dict[int, int]:
        """Element-order multiset, an isomorphism invariant."""
        out: dict[int, int] = {}
        for x in range(self.order):
            d = self.element_order(x)
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

    def involutions(self) -> list[int]:
        return [x for x in range(self.order) if x != self.identity and self.inv[x] == x]

    def inverse_pairs(self) -> list[tuple[int, int]]:
        return [(x, self.inv[x]) for x in range(self.order) if x < self.inv[x]]


# -- construction from multiplication rules ---------------------------------
#
# A rule is (identity, generators, multiply). Products combine rules
# coordinatewise; build() closes the generators breadth-first into a table.


def cyclic(m: int):
    return (0, [1 % m], lambda x, y: (x + y) % m)


def dihedral(order: int):
    """Rotations r and reflections: (r, f) * (r', f') = (r + (-1)^f r', f xor f')."""
    m = order // 2

    def mul(u, v):
        return ((u[0] + (-v[0] if u[1] else v[0])) % m, u[1] ^ v[1])

    return ((0, 0), [(1 % m, 0), (0, 1)], mul)


def _compose(p, q):
    """Permutation product: apply p, then q."""
    return tuple(q[i] for i in p)


def symmetric(n: int):
    ident = tuple(range(n))
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple((i + 1) % n for i in range(n))
    return (ident, [swap, cycle], _compose)


def alternating(n: int):
    ident = tuple(range(n))
    gens = []
    for i in range(2, n):
        p = list(range(n))
        p[0], p[1], p[i] = 1, i, 0
        gens.append(tuple(p))
    return (ident, gens, _compose)


def quaternion():
    """Unit quaternions as (w, x, y, z) with the Hamilton product."""

    def mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    return ((1, 0, 0, 0), [(0, 1, 0, 0), (0, 0, 1, 0)], mul)


def sl23():
    """2x2 matrices of determinant 1 over the field with 3 elements."""

    def mul(p, q):
        (a, b), (c, d) = p
        (e, f), (g, h) = q
        return (((a * e + b * g) % 3, (a * f + b * h) % 3), ((c * e + d * g) % 3, (c * f + d * h) % 3))

    return (((1, 0), (0, 1)), [((1, 1), (0, 1)), ((0, 2), (1, 0))], mul)


def dicyclic(moduli: tuple[int, ...], y: tuple[int, ...]):
    """Dic(A, y) for A = Z_m1 x ... x Z_mr: elements (a, e) = a x^e, x^2 = y, x a x^-1 = -a."""

    def add(a, b):
        return tuple((s + t) % m for s, t, m in zip(a, b, moduli))

    def neg(a):
        return tuple(-s % m for s, m in zip(a, moduli))

    def mul(u, v):
        a, e = u
        b, f = v
        if e == 0:
            return (add(a, b), f)
        if f == 0:
            return (add(a, neg(b)), 1)
        return (add(add(a, neg(b)), y), 0)

    zero = tuple(0 for _ in moduli)
    gens = []
    for i in range(len(moduli)):
        unit = tuple(1 if j == i else 0 for j in range(len(moduli)))
        gens.append((unit, 0))
    gens.append((zero, 1))
    return ((zero, 0), gens, mul)


def direct(*rules):
    """Direct product of rules, multiplied coordinatewise."""
    idents = tuple(r[0] for r in rules)
    gens = []
    for i, r in enumerate(rules):
        for gv in r[1]:
            gens.append(tuple(gv if j == i else idents[j] for j in range(len(rules))))
    muls = [r[2] for r in rules]

    def mul(u, v):
        return tuple(f(a, b) for f, a, b in zip(muls, u, v))

    return (idents, gens, mul)


def build(rule) -> Group:
    """Close the generators breadth-first; the identity gets index 0."""
    ident, gens, mul = rule
    elems = [ident]
    index = {ident: 0}
    i = 0
    while i < len(elems):
        for gv in gens:
            w = mul(elems[i], gv)
            if w not in index:
                index[w] = len(elems)
                elems.append(w)
        i += 1
    table = [[index[mul(a, b)] for b in elems] for a in elems]
    return Group(table, 0, [repr(e).replace(" ", "") for e in elems])


def check_group_axioms(g: Group) -> None:
    """Raise ValueError unless the table is a Latin square with identity and associative."""
    n = g.order
    full = set(range(n))
    t = g.table
    for row in t:
        if set(row) != full:
            raise ValueError("table row is not a permutation")
    for j in range(n):
        if {t[i][j] for i in range(n)} != full:
            raise ValueError("table column is not a permutation")
    e = g.identity
    if any(t[e][j] != j or t[j][e] != j for j in range(n)):
        raise ValueError("identity row or column is wrong")
    witness = associativity_witness(t, range(n))
    if witness is not None:
        raise ValueError(f"not associative at {witness}")


def associativity_witness(table, rows) -> tuple[int, int, int] | None:
    """A triple (a, b, c) in the given rows with (ab)c != a(bc), or None."""
    n = len(table)
    for a in rows:
        ta = table[a]
        for b in range(n):
            tab = table[ta[b]]
            tb = table[b]
            for c in range(n):
                if tab[c] != ta[tb[c]]:
                    return (a, b, c)
    return None


# -- subgroups, sets and spectra --------------------------------------------


def closure_members(g: Group, gens) -> list[int]:
    """Members of the subgroup generated by gens, breadth-first from the identity."""
    seen = {g.identity}
    out = [g.identity]
    i = 0
    while i < len(out):
        row = g.table[out[i]]
        for x in gens:
            w = row[x]
            if w not in seen:
                seen.add(w)
                out.append(w)
        i += 1
    return out


def is_connection_set(g: Group, s) -> bool:
    members = set(s)
    return (
        len(members) == len(s)
        and g.identity not in members
        and all(0 <= x < g.order and g.inv[x] in members for x in s)
    )


def char_poly(g: Group, s) -> list[int]:
    """Ascending coefficients of det(xI - A) for Cay(G, S), by Newton's identities.

    p_j = tr(A^j) = n * (sigma^j)[e]; e_j = (1/j) sum_{i=1..j} (-1)^(i-1) e_{j-i} p_i,
    every division exact; det(xI - A) = sum_j (-1)^j e_j x^(n-j).
    """
    n = g.order
    t = g.table
    sset = list(s)
    cur = [0] * n
    cur[g.identity] = 1
    power_sums = [0]
    for _ in range(n):
        nxt = [0] * n
        for y, c in enumerate(cur):
            if c:
                for x in sset:
                    nxt[t[x][y]] += c
        cur = nxt
        power_sums.append(n * cur[g.identity])
    e = [1]
    for j in range(1, n + 1):
        acc = 0
        for i in range(1, j + 1):
            term = e[j - i] * power_sums[i]
            acc += term if i % 2 else -term
        if acc % j:
            raise ArithmeticError("inexact division in Newton's identities")
        e.append(acc // j)
    coeffs = [0] * (n + 1)
    for j in range(n + 1):
        coeffs[n - j] = e[j] if j % 2 == 0 else -e[j]
    return coeffs


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_eval(p: list[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def divide_root(p: list[int], lam: int) -> list[int]:
    """Quotient of p by (x - lam), p(lam) being 0 (synthetic division)."""
    out = [0] * (len(p) - 1)
    carry = 0
    for i in range(len(p) - 1, 0, -1):
        carry = p[i] + carry * lam
        out[i - 1] = carry
    return out


def integer_spectrum(p: list[int], k: int) -> tuple[dict[int, int], list[int]]:
    """Multiplicities of the integer roots in [-k, k] and the residual factor."""
    mults: dict[int, int] = {}
    for lam in range(k, -k - 1, -1):
        while len(p) > 1 and poly_eval(p, lam) == 0:
            p = divide_root(p, lam)
            mults[lam] = mults.get(lam, 0) + 1
    return mults, p


def product_of_roots(mults) -> list[int]:
    """prod (x - lam)^m as ascending coefficients."""
    out = [1]
    for lam, m in mults:
        for _ in range(m):
            out = poly_mul(out, [-lam, 1])
    return out


def valency2_integral(g: Group, s) -> bool:
    """Closed form for |S| <= 2: Cay(G, S) is a union of copies of K2 or of one cycle.

    {a} with a an involution gives K2; {x, x^-1} with x of order m gives C_m;
    two involutions {a, b} give C_2r with r the order of ab. The cycle C_m is
    integral exactly for m in {3, 4, 6}.
    """
    if len(s) == 1:
        return True
    a, b = s
    if g.inv[a] == b:
        return g.element_order(a) in (3, 4, 6)
    return 2 * g.element_order(g.table[a][b]) in (4, 6)


def symmetric_set_count(g: Group, max_size: int) -> int:
    """Number of symmetric identity-free sets of size 1..max_size.

    Such a set is a choice of i involutions and j inverse pairs with
    1 <= i + 2j <= max_size.
    """
    invols = len(g.involutions())
    pairs = len(g.inverse_pairs())
    total = 0
    for i, j in _cartesian(range(invols + 1), range(pairs + 1)):
        if 1 <= i + 2 * j <= max_size:
            total += comb(invols, i) * comb(pairs, j)
    return total
