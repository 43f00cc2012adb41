"""Finite groups as explicit multiplication tables: constructors and invariants."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from math import gcd
from operator import add, eq, itemgetter
from typing import Iterator

ORDER_BOUND = 500


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on element indices 0..order-1 with an explicit table.

    table[i][j] is the index of the product of elements i and j; identity is
    almost always 0 (imported tables may designate another index).
    """

    order: int
    identity: int
    table: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    names: tuple[str, ...]
    gens: tuple[tuple[str, int], ...]
    label: str

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def power(self, i: int, n: int) -> int:
        if n < 0:
            i, n = self.inv[i], -n
        acc = self.identity
        base = i
        while n:
            if n & 1:
                acc = self.table[acc][base]
            base = self.table[base][base]
            n >>= 1
        return acc

    def element_order(self, i: int) -> int:
        k = 1
        acc = i
        while acc != self.identity:
            acc = self.table[acc][i]
            k += 1
        return k

    def gen(self, name: str) -> int:
        for nm, idx in self.gens:
            if nm == name:
                return idx
        raise ValueError(f"unknown generator {name!r} in {self.label or 'group'}")

    @cached_property
    def _aut_generators(self) -> tuple[tuple[int, ...], ...]:
        """A generating set of Aut(G), searched for once per group object."""
        return _automorphism_generators(self)

    @cached_property
    def _atoms(self) -> tuple[tuple[int, ...], ...]:
        """The atoms of symmetric identity-free sets, in order of least
        member: each involution (x,) and each inverse pair (x, x^-1) with
        x < x^-1. Built once per group object, as every set stream and
        count over the group starts from them."""
        inv = self.inv
        return tuple(
            (x,) if inv[x] == x else (x, inv[x])
            for x in range(self.order)
            if x != self.identity and x <= inv[x]
        )


def _word_name(word: list[str]) -> str:
    if not word:
        return "e"
    parts: list[str] = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        parts.append(word[i] if run == 1 else f"{word[i]}^{run}")
        i = j
    return "*".join(parts)


def _build(identity, gens, mul_fn, label, name_of=None) -> FiniteGroup:
    """Breadth-first closure of generator values into a numbered group.

    Element numbering is the breadth-first word order from the generators,
    with the identity at index 0; this fixes all downstream reports.
    """
    index = {identity: 0}
    elems = [identity]
    words: list[list[str]] = [[]]
    i = 0
    while i < len(elems):
        for nm, gv in gens:
            w = mul_fn(elems[i], gv)
            if w not in index:
                if len(elems) >= ORDER_BOUND:
                    raise ValueError(f"group order exceeds {ORDER_BOUND}")
                index[w] = len(elems)
                elems.append(w)
                words.append(words[i] + [nm])
        i += 1
    n = len(elems)
    table = tuple(tuple(index[mul_fn(a, b)] for b in elems) for a in elems)
    inv = tuple(row.index(0) for row in table)
    if name_of is None:
        names = tuple(_word_name(w) for w in words)
    else:
        names = tuple(name_of(v) for v in elems)
    bound: dict[str, int] = {}
    for nm, gv in gens:
        bound.setdefault(nm, index[gv])
    return FiniteGroup(n, 0, table, inv, names, tuple(bound.items()), label)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic order must be positive")
    return _build(0, [("a", 1 % n)], lambda x, y: (x + y) % n, f"cyclic:{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order n (n even): rotation a of order n/2, reflection b."""
    if n < 2 or n % 2:
        raise ValueError("dihedral order must be even and at least 2")
    return _inverting_extension(cyclic(n // 2), 2, 0, "b", f"dihedral:{n}")


def _pmul(p, q):
    return tuple(q[x] for x in p)


def _cycle_name(p) -> str:
    n = len(p)
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s] or p[s] == s:
            seen[s] = True
            continue
        cyc = [s]
        seen[s] = True
        t = p[s]
        while t != s:
            cyc.append(t)
            seen[t] = True
            t = p[t]
        out.append("(" + ",".join(str(x + 1) for x in cyc) + ")")
    return "".join(out) if out else "e"


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on points 1..n; generators s = (1,2) and c = (1,2,...,n)."""
    if n < 2:
        raise ValueError("symmetric group needs at least 2 points")
    ident = tuple(range(n))
    s = (1, 0) + tuple(range(2, n))
    c = tuple((i + 1) % n for i in range(n))
    return _build(ident, [("s", s), ("c", c)], _pmul, f"sym:{n}", name_of=_cycle_name)


def alternating(n: int) -> FiniteGroup:
    """Alternating group on points 1..n; generators t = (1,2,3) and an even long cycle."""
    if n < 3:
        raise ValueError("alternating group needs at least 3 points")
    ident = tuple(range(n))
    t = (1, 2, 0) + tuple(range(3, n))
    if n % 2:
        c = tuple((i + 1) % n for i in range(n))
    else:
        c = (0,) + tuple(i % (n - 1) + 1 for i in range(1, n))
    return _build(ident, [("t", t), ("c", c)], _pmul, f"alt:{n}", name_of=_cycle_name)


def sl23() -> FiniteGroup:
    """SL(2,3): determinant-one 2x2 matrices over F3, order 24."""

    def mul(p, q):
        (a, b), (c, d) = p
        (e, f), (g, h) = q
        return (
            ((a * e + b * g) % 3, (a * f + b * h) % 3),
            ((c * e + d * g) % 3, (c * f + d * h) % 3),
        )

    ident = ((1, 0), (0, 1))
    ga = ((1, 1), (0, 1))
    gb = ((0, 2), (1, 0))
    return _build(ident, [("a", ga), ("b", gb)], mul, "sl:2:3")


def cocycle_product(n1: int, n2: int, p: int = 2, label: str | None = None) -> FiniteGroup:
    """Central extension of Z_{n1} x Z_{n2} by Z_p twisted by the cocycle j1*i2.

    Generators a = (1,0,0) and b = (0,1,0) satisfy [a,b] = (0,0,1), which is
    central of order p. With n1 = n2 = p = 3 this is the Heisenberg group of
    order 27 and exponent 3.
    """

    def mul(u, v):
        return ((u[0] + v[0]) % n1, (u[1] + v[1]) % n2, (u[2] + v[2] + u[1] * v[0]) % p)

    lbl = label or f"twist(Z{n1}xZ{n2},Z{p})"
    return _build((0, 0, 0), [("a", (1, 0, 0)), ("b", (0, 1, 0))], mul, lbl)


def _inverting_extension(base: FiniteGroup, m: int, y: int, gen: str, label: str) -> FiniteGroup:
    """Abelian A extended by t, named gen, with t^m = y in A and t^-1 a t = a^-1.

    The pair (a, j) stands for a*t^j; pairs multiply as
    (a1 * theta^j1(a2) * (y if j1 + j2 >= m), (j1 + j2) mod m), theta being
    inversion. A's generators come first (every non-identity element when A
    binds none), then t.
    """
    ta, ia = base.table, base.inv

    def mul(u, v):
        a1, j1 = u
        a2, j2 = v
        a, j = ta[a1][ia[a2] if j1 % 2 else a2], j1 + j2
        return (ta[a][y], j - m) if j >= m else (a, j)

    e = base.identity
    gens = [(nm, (idx, 0)) for nm, idx in base.gens]
    if not gens:
        gens = [(base.names[i], (i, 0)) for i in range(base.order) if i != e]
    gens.append((gen, (e, 1)))
    return _build((e, 0), gens, mul, label)


def inverting_semidirect(a_grp: FiniteGroup, m: int) -> FiniteGroup:
    """Split extension of abelian A by Z_m whose generator inverts A; m must be even."""
    if not is_abelian(a_grp):
        raise ValueError("base of the semidirect product must be abelian")
    if m < 2 or m % 2:
        raise ValueError("acting cyclic factor must have even order")
    return _inverting_extension(a_grp, m, a_grp.identity, "b", f"{a_grp.label}:Z{m}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    if g.order * h.order > ORDER_BOUND:
        raise ValueError(f"group order exceeds {ORDER_BOUND}")
    og, oh = g.order, h.order
    n = og * oh
    table = []
    for i1 in range(og):
        for j1 in range(oh):
            row = [0] * n
            gi = g.table[i1]
            hj = h.table[j1]
            for i2 in range(og):
                base = gi[i2] * oh
                for j2 in range(oh):
                    row[i2 * oh + j2] = base + hj[j2]
            table.append(tuple(row))
    inv = tuple(g.inv[i] * oh + h.inv[j] for i in range(og) for j in range(oh))
    names = tuple(f"{g.names[i]},{h.names[j]}" for i in range(og) for j in range(oh))
    bound: list[tuple[str, int]] = [(nm, idx * oh) for nm, idx in g.gens]
    used = {nm for nm, _ in bound}
    for nm, idx in h.gens:
        new = nm
        if new in used:
            c = 2
            while f"{nm}{c}" in used:
                c += 1
            new = f"{nm}{c}"
        used.add(new)
        bound.append((new, idx))
    ident = g.identity * oh + h.identity
    return FiniteGroup(
        n, ident, tuple(table), inv, names, tuple(bound), f"{g.label} x {h.label}"
    )


def generalized_dicyclic(a_grp: FiniteGroup, y: int | None = None) -> FiniteGroup:
    """Dic(A,y): abelian A extended by x with x^2 = y and x^-1 a x = a^-1.

    With y omitted, A must have exactly one involution and it is used as y.
    """
    if not is_abelian(a_grp):
        raise ValueError("dicyclic base must be abelian")
    if 2 * a_grp.order > ORDER_BOUND:
        raise ValueError(f"group order exceeds {ORDER_BOUND}")
    invols = [i for i in range(a_grp.order) if i != a_grp.identity and a_grp.inv[i] == i]
    explicit = y is not None
    if y is None:
        if len(invols) != 1:
            raise ValueError(
                f"dicyclic base has {len(invols)} involutions; designate one explicitly"
            )
        y = invols[0]
    if y not in invols:
        raise ValueError(f"element {y} of the dicyclic base is not an involution")

    lbl = f"dic({a_grp.label}@{y})" if explicit else f"dic({a_grp.label})"
    return _inverting_extension(a_grp, 2, y, "x", lbl)


def quaternion() -> FiniteGroup:
    """The quaternion group of order 8, built as Dic(Z4) with its generators a
    and x renamed i and j."""
    g = generalized_dicyclic(cyclic(4))
    rename = str.maketrans("ax", "ij")
    return replace(
        g,
        names=tuple(nm.translate(rename) for nm in g.names),
        gens=(("i", g.gen("a")), ("j", g.gen("x"))),
        label="quaternion",
    )


def _parse_perm_gens(n: int, text: str) -> list[tuple[int, ...]]:
    gens = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        pos = 0
        perm = tuple(range(n))
        saw = False
        while pos < len(chunk):
            m = re.match(r"\(([0-9]+(?:,[0-9]+)*)\)", chunk[pos:])
            if not m:
                raise ValueError(f"malformed cycle notation at {chunk[pos:]!r}")
            pts = [int(x) - 1 for x in m.group(1).split(",")]
            if len(set(pts)) != len(pts):
                raise ValueError(f"repeated point in cycle {m.group(0)}")
            if any(p < 0 or p >= n for p in pts):
                raise ValueError(f"cycle {m.group(0)} leaves points 1..{n}")
            cyc = list(range(n))
            for a, b in zip(pts, pts[1:] + pts[:1]):
                cyc[a] = b
            perm = _pmul(perm, tuple(cyc))
            saw = True
            pos += m.end()
        if not saw:
            raise ValueError("empty permutation generator")
        gens.append(perm)
    return gens


def perm_group(n: int, perms: list[tuple[int, ...]], label: str) -> FiniteGroup:
    if n < 1:
        raise ValueError("permutation degree must be positive")
    for p in perms:
        if len(p) != n or sorted(p) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {p}")
    ident = tuple(range(n))
    gens = [(f"g{i + 1}", p) for i, p in enumerate(perms)]
    return _build(ident, gens, _pmul, label, name_of=_cycle_name)


# The most factors a product spec may hold and the deepest its parentheses
# may nest. A product of order at most ORDER_BOUND has at most 8 nontrivial
# factors, and each factor costs direct_product a pass over the generators.
_SPEC_LIMIT = 32


def _split_terms(spec: str, sep: str) -> list[str]:
    """spec cut at each sep outside parentheses, the pieces stripped."""
    terms = []
    depth = 0
    cur = []
    for ch in spec:
        if ch == "(":
            depth += 1
            if depth > _SPEC_LIMIT:
                raise ValueError(f"spec nested deeper than {_SPEC_LIMIT} levels")
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {spec!r}")
        if ch == sep and depth == 0:
            terms.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ValueError(f"unbalanced parentheses in {spec!r}")
    terms.append("".join(cur))
    return [t.strip() for t in terms]


_NUMBERED = {"cyclic": cyclic, "dihedral": dihedral, "sym": symmetric, "alt": alternating}
_FIXED = {
    "quaternion": quaternion,
    "heisenberg:3": lambda: cocycle_product(3, 3, 3, "heisenberg:3"),
    "sl:2:3": sl23,
}


def _construct_term(term: str) -> FiniteGroup:
    if term in _FIXED:
        return _FIXED[term]()
    if term.startswith("dic(") and term.endswith(")"):
        base_spec, *idx = _split_terms(term[4:-1], "@")
        if not idx:
            return generalized_dicyclic(construct(base_spec))
        if len(idx) > 1 or not re.fullmatch(r"[0-9]+", idx[0]):
            raise ValueError(f"bad involution index in {term!r}")
        return generalized_dicyclic(construct(base_spec), int(idx[0]))
    m = re.fullmatch(r"(?:sym|alt|perm):([0-9]+)(?::.*)?", term, re.S)
    if m and int(m.group(1)) > ORDER_BOUND:
        raise ValueError(f"permutation degree exceeds {ORDER_BOUND}")
    m = re.fullmatch(r"(cyclic|dihedral|sym|alt):([0-9]+)", term)
    if m:
        return _NUMBERED[m.group(1)](int(m.group(2)))
    m = re.fullmatch(r"perm:([0-9]+):(.+)", term)
    if m:
        n = int(m.group(1))
        return perm_group(n, _parse_perm_gens(n, m.group(2)), term)
    raise ValueError(f"cannot parse group spec {term!r}")


# Specs whose groups construct keeps; one `verify --all` asks for 24.
_CONSTRUCT_CACHE_SIZE = 32


@lru_cache(maxsize=_CONSTRUCT_CACHE_SIZE)
def construct(spec: str) -> FiniteGroup:
    """Build a group from a construction spec like "dihedral:8 x cyclic:3".

    A group is immutable, so a repeated spec gets the same object back from a
    bounded cache of the most recent specs. A spec that fails is not kept: it
    raises on every call.
    """
    terms = _split_terms(spec, "x")
    if any(not t for t in terms):
        raise ValueError(f"cannot parse group spec {spec!r}")
    if len(terms) > _SPEC_LIMIT:
        raise ValueError(f"spec has more than {_SPEC_LIMIT} factors")
    return reduce(direct_product, (_construct_term(t) for t in terms))


def to_document(g: FiniteGroup) -> dict:
    return {
        "format": "ftg-1",
        "order": g.order,
        "identity": g.identity,
        "table": [list(row) for row in g.table],
        "names": list(g.names),
    }


def from_table(doc: dict, label: str = "imported") -> FiniteGroup:
    """Validate a group-table document and build the group it describes.

    A rejected document gets the first message in this order: the order,
    each row's size and then the type and range of its entries, the rows
    and columns of a Latin square, the identity index, a two-sided identity,
    associativity, then the names. One pass per row reads its size, its
    entry types and its entries as a set, which settles range and Latin
    rows together. Columns are read only when a later table check fails:
    Latin rows, a two-sided identity and associativity make a monoid in
    which every element has a right inverse (its row is a permutation), so
    a group, whose columns are Latin; an accepted table needs no column
    pass.
    """
    if not isinstance(doc, dict) or doc.get("format") != "ftg-1":
        raise ValueError("not an ftg-1 document")
    n = doc.get("order")
    table = doc.get("table")
    # type(), not isinstance(): JSON true/false load as bool, an int subclass.
    if type(n) is not int or n < 1:
        raise ValueError("bad order")
    if n > ORDER_BOUND:
        raise ValueError(f"group order exceeds {ORDER_BOUND}")
    if not isinstance(table, list) or len(table) != n:
        raise ValueError("table size does not match order")
    # A row of n ints equals range(n) as a set exactly when it is in range
    # and Latin; min and max tell the two faults apart only in a row that is
    # not. A row that is merely not Latin is named once every row has passed
    # size and range, as those are checked row by row first.
    full = set(range(n))
    rows = []
    latin_rows = True
    for row in table:
        if not isinstance(row, list) or len(row) != n:
            raise ValueError("table size does not match order")
        if set(map(type, row)) != {int}:
            raise ValueError("table entry out of range")
        if set(row) != full:
            if min(row) < 0 or max(row) >= n:
                raise ValueError("table entry out of range")
            latin_rows = False
        rows.append(tuple(row))
    if not latin_rows:
        raise ValueError("not a Latin square")
    # A null identity reads as an absent one, as null names do.
    ident = doc.get("identity")
    if ident is not None and (type(ident) is not int or ident < 0 or ident >= n):
        raise _table_fault(rows, "bad identity index")
    candidates = range(n) if ident is None else (ident,)
    ident = next(
        (e for e in candidates if all(rows[e][j] == j and rows[j][e] == j for j in range(n))),
        None,
    )
    if ident is None:
        raise _table_fault(rows, "no identity")
    # Light's test. The s with (x*s)*y == x*(s*y) for all x, y are closed
    # under products, so it is enough to check s over a generating set, whose
    # _span from the identity reaches every element. Each generator is
    # checked before the next is sought, so the ones before it generate a
    # subgroup (its elements associate, and its rows are permutations) that
    # it at least doubles: at most log2(n) + 1 are checked, O(n^2 log n) in
    # all.
    for s in _generating_set(rows, ident, range(n)):
        # x_times_sy(rows[x]) is the row y -> x*(s*y); s is not the identity,
        # so n >= 2 and the getter returns a tuple, not a single entry.
        x_times_sy = itemgetter(*rows[s])
        for rx in rows:
            if rows[rx[s]] != x_times_sy(rx):
                raise _table_fault(rows, "not associative")
    inv = tuple(rows[i].index(ident) for i in range(n))
    names = doc.get("names")
    if names is None:
        names = ["e" if i == ident else f"g{i}" for i in range(n)]
    if not isinstance(names, list) or len(names) != n:
        raise ValueError("names length does not match order")
    if set(map(type, names)) != {str}:
        raise ValueError("element names must be strings")
    if len(set(names)) != n:
        raise ValueError("element names must be distinct")
    return FiniteGroup(n, ident, tuple(rows), inv, tuple(names), (), label)


def _table_fault(rows, message: str) -> ValueError:
    """The error for a table with Latin rows that fails a later check:
    "not a Latin square" if a column repeats an entry, else message. A
    table that passes every check is a group, whose columns are Latin, so
    from_table reads the columns only here."""
    n = len(rows)
    if any(len(set(col)) != n for col in zip(*rows)):
        return ValueError("not a Latin square")
    return ValueError(message)


def _span(table, identity, gens) -> list[int]:
    """Everything reached from identity by right products with gens,
    breadth-first, identity first. It assumes no group axiom, so a table not
    yet checked may use it."""
    members = [identity]
    seen = {identity}
    for a in members:
        row = table[a]
        for x in gens:
            w = row[x]
            if w not in seen:
                seen.add(w)
                members.append(w)
    return members


def _generating_set(table, identity, candidates) -> Iterator[int]:
    """Candidates that the ones yielded before do not reach by _span: each
    time the first such that fails to commute with one yielded before, if
    any does, else the first such. Each is yielded before the walk goes on,
    so a caller checking it can stop there."""
    gens: list[int] = []
    reached = {identity}
    while rest := [x for x in candidates if x not in reached]:
        x = next((x for x in rest if any(table[x][a] != table[a][x] for a in gens)), rest[0])
        yield x
        gens.append(x)
        reached = set(_span(table, identity, gens))


def closure(g: FiniteGroup, gens) -> tuple[int, ...]:
    """The members of the subgroup gens generate, breadth-first over right
    products from the identity, which comes first."""
    gl = tuple(gens)
    for x in gl:
        if not 0 <= x < g.order:
            raise ValueError(f"element index {x} out of range")
    members = _span(g.table, g.identity, gl)
    if g.order % len(members):
        raise AssertionError("closure size does not divide group order")
    return tuple(members)


def _forced_map(g: FiniteGroup, gens, images) -> list[int] | None:
    """The map forced by gens[i] -> images[i] on <gens>, found breadth-first
    over right products (-1 off the subgroup); None when it is not a
    well-defined injection."""
    t, e = g.table, g.identity
    phi, hit, bfs = [-1] * g.order, {e}, [e]
    phi[e] = e
    for x in bfs:
        row, img_row = t[x], t[phi[x]]
        for a, b in zip(gens, images):
            y, w = row[a], img_row[b]
            if phi[y] < 0 and w not in hit:
                phi[y] = w
                hit.add(w)
                bfs.append(y)
            elif phi[y] != w:
                return None
    return phi


def _cell_ids(keys) -> list[int]:
    """Each key's rank among the distinct keys: equal keys share an id."""
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def _automorphism_generators(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """A generating set of Aut(g), by a stabilizer chain.

    An automorphism keeps each element's cell: its order and centralizer
    size, refined once by the multiset of (cell of y, cell of x*y) over y.
    The ids rank cells by signature, largest order first, so an imported
    table gets the same cells. The generators are _generating_set's picks
    from the elements in cell order, so one that fails to commute with one
    before comes first and a wrong image is refuted at the next generator,
    not the last. Each one's images range over its cell. Level
    d, deepest first, seeks automorphisms that fix gens[:d]; those kept
    deeper fix them too, and by then generate the stabilizer of gens[:d + 1].
    So one is kept only when it sends gens[d] outside its orbit under found,
    and once every image has been tried, found generates the stabilizer of
    gens[:d]: at d = 0, all of Aut(g). A partial choice of images is dropped
    once the map it forces on the generated subgroup is not a well-defined
    injection.
    """
    t, n, e = g.table, g.order, g.identity
    cell = _cell_ids([(-o, sum(map(eq, r, c))) for o, r, c in zip(element_orders(g), t, zip(*t))])
    high = [c * n for c in cell]  # (cell of y, cell of x*y) as one integer
    cell = _cell_ids(
        [(c, tuple(sorted(Counter(map(add, high, map(cell.__getitem__, row))).items())))
         for c, row in zip(cell, t)]
    )
    gens = list(_generating_set(t, e, sorted(range(n), key=lambda x: (cell[x], x))))
    pools = [[y for y in range(n) if cell[y] == cell[x]] for x in gens]
    found: list[tuple[int, ...]] = []

    def extend(images: list[int]):
        phi = _forced_map(g, gens[: len(images)], images)
        if phi is None or len(images) == len(gens):
            return phi
        # The next generator lies outside the subgroup phi covers, so its
        # image lies outside that subgroup's image.
        taken = set(phi)
        tries = (extend(images + [y]) for y in pools[len(images)] if y not in taken)
        return next((m for m in tries if m is not None), None)

    for d in reversed(range(len(gens))):
        orbit = {gens[d]}
        for y in pools[d]:
            if y not in orbit:
                phi = extend(gens[:d] + [y])
                if phi is not None:
                    found.append(tuple(phi))
                    # Row a of the transposed list holds a's images, so the
                    # walk from gens[d] is its orbit under found.
                    orbit = set(_span(tuple(zip(*found)), gens[d], range(len(found))))
    return tuple(found)


def element_orders(g: FiniteGroup) -> tuple[int, ...]:
    return tuple(g.element_order(i) for i in range(g.order))


def is_abelian(g: FiniteGroup) -> bool:
    t = g.table
    return all(t[i][j] == t[j][i] for i in range(g.order) for j in range(i + 1, g.order))


def is_nilpotent(g: FiniteGroup) -> bool:
    """Whether every two elements of coprime orders commute.

    Then a Sylow p-subgroup P is normalized by itself and by every
    p'-element, which together generate g, so every Sylow subgroup is normal
    and g is nilpotent. Conversely a nilpotent group is the direct product of
    its Sylow subgroups, and elements of coprime orders lie in disjoint
    factors.
    """
    orders = element_orders(g)
    t = g.table
    return all(
        t[i][j] == t[j][i]
        for i in range(g.order)
        for j in range(i + 1, g.order)
        if gcd(orders[i], orders[j]) == 1
    )


def involution_products(g: FiniteGroup) -> set[int]:
    """The element orders of x*y over distinct involutions x, y.

    Two involutions whose product has order r generate the dihedral group of
    order 2r, and every dihedral group is generated so, so r = 3, 4 and 6 say
    that g has a subgroup S3, D8 and D12.
    """
    orders = element_orders(g)
    invols = [x for x in range(g.order) if orders[x] == 2]
    t = g.table
    return {orders[t[x][y]] for x in invols for y in invols if x != y}


def parse_word(g: FiniteGroup, word: str) -> int:
    """Evaluate a generator word like "a^3*b" or "a b^-1" to an element index."""
    tokens = [t for t in re.split(r"[\s*]+", word.strip()) if t]
    if not tokens:
        raise ValueError("empty generator word")
    gm = dict(g.gens)
    acc = g.identity
    for tok in tokens:
        m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?[0-9]+))?", tok)
        if not m:
            raise ValueError(f"malformed word token {tok!r}")
        nm = m.group(1)
        exp = int(m.group(2)) if m.group(2) else 1
        if nm in gm:
            base = gm[nm]
        elif nm == "e":
            base = g.identity
        else:
            raise ValueError(f"unknown generator {nm!r}")
        acc = g.mul(acc, g.power(base, exp))
    return acc


CATALOG: tuple[tuple[str, str], ...] = (
    ("Z2xZ2", "cyclic:2 x cyclic:2"),
    ("Z4", "cyclic:4"),
    ("Z6", "cyclic:6"),
    ("Z2xZ2xZ2", "cyclic:2 x cyclic:2 x cyclic:2"),
    ("Z2xZ4", "cyclic:2 x cyclic:4"),
    ("Z2xZ6", "cyclic:2 x cyclic:6"),
    ("S3", "sym:3"),
    ("D8", "dihedral:8"),
    ("D12", "dihedral:12"),
    ("A4", "alt:4"),
    ("S4", "sym:4"),
    ("D8xZ3", "dihedral:8 x cyclic:3"),
    ("D6xZ4", "dihedral:6 x cyclic:4"),
    ("A4xZ2", "alt:4 x cyclic:2"),
    ("Q8", "quaternion"),
)


def catalog_groups() -> list[tuple[str, FiniteGroup]]:
    return [(name, construct(spec)) for name, spec in CATALOG]
