"""Finite groups as explicit multiplication tables: constructors, invariants, recognition."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from math import lcm
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

    def commutator(self, i: int, j: int) -> int:
        t = self.table
        return t[t[self.inv[i]][self.inv[j]]][t[i][j]]

    def gen(self, name: str) -> int:
        for nm, idx in self.gens:
            if nm == name:
                return idx
        raise ValueError(f"unknown generator {name!r} in {self.label or 'group'}")


@dataclass(frozen=True)
class Subgroup:
    """A subgroup's sorted member indices and its induced group."""

    members: tuple[int, ...]
    group: FiniteGroup


@dataclass(frozen=True)
class GroupProfile:
    order: int
    order_multiset: dict[int, int]
    exponent: int
    abelian: bool
    nilpotent: bool
    center_size: int
    involution_count: int
    involutions_central: bool
    in_class_G: bool


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
    inv = [0] * n
    for a in range(n):
        inv[a] = table[a].index(0)
    if name_of is None:
        names = tuple(_word_name(w) for w in words)
    else:
        names = tuple(name_of(v) for v in elems)
    bound: list[tuple[str, int]] = []
    seen = set()
    for nm, gv in gens:
        if nm not in seen:
            bound.append((nm, index[gv]))
            seen.add(nm)
    return FiniteGroup(n, 0, table, tuple(inv), names, tuple(bound), label)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic order must be positive")
    if n > ORDER_BOUND:
        raise ValueError(f"group order exceeds {ORDER_BOUND}")
    return _build(0, [("a", 1 % n)], lambda x, y: (x + y) % n, f"cyclic:{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order n (n even): rotation a of order n/2, reflection b."""
    if n < 2 or n % 2:
        raise ValueError("dihedral order must be even and at least 2")
    m = n // 2

    def mul(u, v):
        r1, s1 = u
        r2, s2 = v
        return ((r1 + (-r2 if s1 else r2)) % m, s1 ^ s2)

    return _build((0, 0), [("a", (1 % m, 0)), ("b", (0, 1))], mul, f"dihedral:{n}")


def _gimul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _m2mul_gauss(p, q):
    (a, b), (c, d) = p
    (e, f), (g, h) = q

    def add(u, v):
        return (u[0] + v[0], u[1] + v[1])

    return (
        (add(_gimul(a, e), _gimul(b, g)), add(_gimul(a, f), _gimul(b, h))),
        (add(_gimul(c, e), _gimul(d, g)), add(_gimul(c, f), _gimul(d, h))),
    )


def quaternion() -> FiniteGroup:
    """The quaternion group of order 8, generated by the unit quaternions i and j."""
    one = (1, 0)
    zero = (0, 0)
    ident = ((one, zero), (zero, one))
    mi = (((0, 1), zero), (zero, (0, -1)))
    mj = ((zero, one), ((-1, 0), zero))
    return _build(ident, [("i", mi), ("j", mj)], _m2mul_gauss, "quaternion")


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


def heisenberg3() -> FiniteGroup:
    """The nonabelian group of order 27 and exponent 3 (unitriangular 3x3 over F3)."""

    def mul(u, v):
        return ((u[0] + v[0]) % 3, (u[1] + v[1]) % 3, (u[2] + v[2] + u[0] * v[1]) % 3)

    return _build((0, 0, 0), [("a", (1, 0, 0)), ("b", (0, 1, 0))], mul, "heisenberg:3")


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


def cocycle_product(n1: int, n2: int, label: str | None = None) -> FiniteGroup:
    """Central extension of Z_{n1} x Z_{n2} by Z2 twisted by the cocycle j1*i2.

    Generators a = (1,0,0) and b = (0,1,0) satisfy [a,b] = (0,0,1), which is
    central of order 2.
    """

    def mul(u, v):
        return ((u[0] + v[0]) % n1, (u[1] + v[1]) % n2, (u[2] + v[2] + u[1] * v[0]) % 2)

    lbl = label or f"twist(Z{n1}xZ{n2},Z2)"
    return _build((0, 0, 0), [("a", (1, 0, 0)), ("b", (0, 1, 0))], mul, lbl)


def inverting_semidirect(a_grp: FiniteGroup, m: int, label: str | None = None) -> FiniteGroup:
    """Split extension of abelian A by Z_m whose generator inverts A; m must be even."""
    if not is_abelian(a_grp):
        raise ValueError("base of the semidirect product must be abelian")
    if m < 2 or m % 2:
        raise ValueError("acting cyclic factor must have even order")

    def mul(u, v):
        a1, j1 = u
        a2, j2 = v
        img = a2 if j1 % 2 == 0 else a_grp.inv[a2]
        return (a_grp.table[a1][img], (j1 + j2) % m)

    gens = [(nm, (idx, 0)) for nm, idx in a_grp.gens]
    if not gens:
        gens = [(a_grp.names[i], (i, 0)) for i in range(1, a_grp.order)]
    gens.append(("b", (0, 1)))
    lbl = label or f"{a_grp.label}:Z{m}"
    return _build((a_grp.identity, 0), gens, mul, lbl)


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
    invols = [
        i
        for i in range(a_grp.order)
        if i != a_grp.identity and a_grp.table[i][i] == a_grp.identity
    ]
    explicit = y is not None
    if y is None:
        if len(invols) != 1:
            raise ValueError(
                f"dicyclic base has {len(invols)} involutions; designate one explicitly"
            )
        y = invols[0]
    if y not in invols:
        raise ValueError(f"element {y} of the dicyclic base is not an involution")

    ta, ia = a_grp.table, a_grp.inv

    def mul(u, v):
        a1, e1 = u
        a2, e2 = v
        if e1 == 0:
            return (ta[a1][a2], e2)
        if e2 == 0:
            return (ta[a1][ia[a2]], 1)
        return (ta[ta[a1][ia[a2]]][y], 0)

    gens = [(nm, (idx, 0)) for nm, idx in a_grp.gens]
    if not gens:
        gens = [(a_grp.names[i], (i, 0)) for i in range(1, a_grp.order)]
    gens.append(("x", (0, 1)))
    lbl = f"dic({a_grp.label}@{y})" if explicit else f"dic({a_grp.label})"
    return _build((a_grp.identity, 0), gens, mul, lbl)


def _parse_perm_gens(n: int, text: str) -> list[tuple[int, ...]]:
    gens = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        pos = 0
        perm = tuple(range(n))
        saw = False
        while pos < len(chunk):
            m = re.match(r"\((\d+(?:,\d+)*)\)", chunk[pos:])
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


def _split_terms(spec: str) -> list[str]:
    terms = []
    depth = 0
    cur = []
    for ch in spec:
        if ch == "(":
            depth += 1
            if depth > 32:
                raise ValueError("spec nested deeper than 32 levels")
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {spec!r}")
        if ch == "x" and depth == 0:
            terms.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ValueError(f"unbalanced parentheses in {spec!r}")
    terms.append("".join(cur))
    return [t.strip() for t in terms]


def _construct_term(term: str) -> FiniteGroup:
    if term == "quaternion":
        return quaternion()
    if term.startswith("dic(") and term.endswith(")"):
        inner = term[4:-1]
        depth = 0
        at = -1
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "@" and depth == 0:
                at = i
        if at >= 0:
            base_spec, idx_text = inner[:at], inner[at + 1 :]
            if not re.fullmatch(r"\d+", idx_text.strip()):
                raise ValueError(f"bad involution index in {term!r}")
            return generalized_dicyclic(construct(base_spec), int(idx_text))
        return generalized_dicyclic(construct(inner))
    m = re.fullmatch(r"(?:sym|alt|perm):(\d+)(?::.*)?", term, re.S)
    if m and int(m.group(1)) > ORDER_BOUND:
        raise ValueError(f"permutation degree exceeds {ORDER_BOUND}")
    m = re.fullmatch(r"cyclic:(\d+)", term)
    if m:
        return cyclic(int(m.group(1)))
    m = re.fullmatch(r"dihedral:(\d+)", term)
    if m:
        return dihedral(int(m.group(1)))
    m = re.fullmatch(r"sym:(\d+)", term)
    if m:
        return symmetric(int(m.group(1)))
    m = re.fullmatch(r"alt:(\d+)", term)
    if m:
        return alternating(int(m.group(1)))
    if term == "heisenberg:3":
        return heisenberg3()
    if term == "sl:2:3":
        return sl23()
    m = re.fullmatch(r"perm:(\d+):(.+)", term)
    if m:
        n = int(m.group(1))
        return perm_group(n, _parse_perm_gens(n, m.group(2)), term)
    raise ValueError(f"cannot parse group spec {term!r}")


def construct(spec: str) -> FiniteGroup:
    """Build a group from a construction spec like "dihedral:8 x cyclic:3"."""
    terms = _split_terms(spec)
    if any(not t for t in terms):
        raise ValueError(f"cannot parse group spec {spec!r}")
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
    """Validate a group-table document and build the group it describes."""
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
    rows = []
    for row in table:
        if not isinstance(row, list) or len(row) != n:
            raise ValueError("table size does not match order")
        if any(type(v) is not int or v < 0 or v >= n for v in row):
            raise ValueError("table entry out of range")
        rows.append(tuple(row))
    full = set(range(n))
    for row in rows:
        if set(row) != full:
            raise ValueError("not a Latin square")
    for j in range(n):
        if {rows[i][j] for i in range(n)} != full:
            raise ValueError("not a Latin square")
    ident = doc.get("identity")
    if ident is None:
        ident = next(
            (
                i
                for i in range(n)
                if all(rows[i][j] == j for j in range(n))
                and all(rows[j][i] == j for j in range(n))
            ),
            None,
        )
        if ident is None:
            raise ValueError("no identity")
    else:
        if type(ident) is not int or ident < 0 or ident >= n:
            raise ValueError("bad identity index")
        if any(rows[ident][j] != j for j in range(n)) or any(
            rows[j][ident] != j for j in range(n)
        ):
            raise ValueError("no identity")
    for i in range(n):
        ri = rows[i]
        for j in range(n):
            rij = rows[ri[j]]
            rj = rows[j]
            for k in range(n):
                if rij[k] != ri[rj[k]]:
                    raise ValueError("not associative")
    inv = tuple(rows[i].index(ident) for i in range(n))
    for i in range(n):
        if rows[inv[i]][i] != ident:
            raise ValueError("inverses inconsistent")
    names = doc.get("names")
    if names is None:
        names = ["e" if i == ident else f"g{i}" for i in range(n)]
    if not isinstance(names, list) or len(names) != n:
        raise ValueError("names length does not match order")
    return FiniteGroup(
        n, ident, tuple(rows), inv, tuple(str(x) for x in names), (), label
    )


def closure(g: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup containing gens, numbered breadth-first from the identity."""
    gl = list(gens)
    for x in gl:
        if not 0 <= x < g.order:
            raise ValueError(f"element index {x} out of range")
    bfs = [g.identity]
    seen = {g.identity}
    i = 0
    while i < len(bfs):
        row = g.table[bfs[i]]
        for x in gl:
            w = row[x]
            if w not in seen:
                seen.add(w)
                bfs.append(w)
        i += 1
    m = len(bfs)
    if g.order % m:
        raise AssertionError("closure size does not divide group order")
    pos = {p: i for i, p in enumerate(bfs)}
    table = tuple(tuple(pos[g.table[a][b]] for b in bfs) for a in bfs)
    inv = tuple(pos[g.inv[a]] for a in bfs)
    names = tuple(g.names[a] for a in bfs)
    lbl = f"sub({g.label};{','.join(str(x) for x in sorted(set(gl)))})"
    sub = FiniteGroup(m, 0, table, inv, names, (), lbl)
    return Subgroup(tuple(sorted(bfs)), sub)


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


def automorphisms(g: FiniteGroup) -> Iterator[tuple[int, ...]]:
    """Every automorphism of g, lazily, as the tuple of images of 0..order-1.

    Generators are picked greedily, largest element order first (imported
    tables bind none); their images range over elements of equal order in
    index order, and a partial choice is dropped once the map it forces on the
    generated subgroup is not a well-defined injection.
    """
    orders = element_orders(g)
    gens: list[int] = []
    span = _forced_map(g, gens, gens)
    for x in sorted(range(g.order), key=lambda i: (-orders[i], i)):
        if span[x] < 0:
            gens.append(x)
            span = _forced_map(g, gens, gens)
    pools = [[y for y in range(g.order) if orders[y] == orders[x]] for x in gens]

    def extend(images: list[int], phi: list[int]) -> Iterator[tuple[int, ...]]:
        depth = len(images)
        if depth == len(gens):
            yield tuple(phi)
            return
        for y in pools[depth]:
            nxt = _forced_map(g, gens[: depth + 1], images + [y])
            if nxt is not None:
                yield from extend(images + [y], nxt)

    yield from extend([], _forced_map(g, (), ()))


def element_orders(g: FiniteGroup) -> tuple[int, ...]:
    return tuple(g.element_order(i) for i in range(g.order))


def is_abelian(g: FiniteGroup) -> bool:
    t = g.table
    return all(t[i][j] == t[j][i] for i in range(g.order) for j in range(i + 1, g.order))


def _lower_central_trivial(g: FiniteGroup) -> bool:
    cur = tuple(range(g.order))
    while True:
        comms = {g.commutator(a, h) for a in range(g.order) for h in cur}
        nxt = closure(g, sorted(comms)).members
        if len(nxt) == 1:
            return True
        if nxt == cur:
            return False
        cur = nxt


def profile(g: FiniteGroup) -> GroupProfile:
    orders = element_orders(g)
    multiset = dict(sorted(Counter(orders).items()))
    expo = lcm(*multiset)
    abelian = is_abelian(g)
    t = g.table
    center = [
        i for i in range(g.order) if all(t[i][j] == t[j][i] for j in range(g.order))
    ]
    invols = [i for i in range(g.order) if orders[i] == 2]
    central = set(center)
    return GroupProfile(
        order=g.order,
        order_multiset=multiset,
        exponent=expo,
        abelian=abelian,
        nilpotent=True if abelian else _lower_central_trivial(g),
        center_size=len(center),
        involution_count=len(invols),
        involutions_central=all(i in central for i in invols),
        in_class_G=set(multiset) <= {1, 2, 3, 4, 6},
    )


_COMM = ((0, -1), (1, -1), (0, 1), (1, 1))


def _dihedral_rel():
    # s r s r = e, i.e. s r s = r^-1, with r in slot 0 and s in slot 1
    return ((1, 1), (0, 1), (1, 1), (0, 1))


_PRESENTATIONS: dict[str, tuple[int, tuple[int, ...], tuple]] = {
    "Z2": (2, (2,), ()),
    "Z4": (4, (4,), ()),
    "Z6": (6, (6,), ()),
    "Z2xZ2": (4, (2, 2), (_COMM,)),
    "Z2xZ4": (8, (2, 4), (_COMM,)),
    "Z2xZ6": (12, (2, 6), (_COMM,)),
    "S3": (6, (3, 2), (_dihedral_rel(),)),
    "D8": (8, (4, 2), (_dihedral_rel(),)),
    "D12": (12, (6, 2), (_dihedral_rel(),)),
    "Q8": (8, (4, 4), (((1, 2), (0, -2)), ((1, -1), (0, 1), (1, 1), (0, 1)))),
    "A4": (12, (3, 2), (((0, 1), (1, 1)) * 3,)),
    "S4": (24, (4, 2), (((0, 1), (1, 1)) * 3,)),
}


def _relator_holds(g: FiniteGroup, cand: tuple[int, ...], relator) -> bool:
    acc = g.identity
    for slot, exp in relator:
        acc = g.mul(acc, g.power(cand[slot], exp))
    return acc == g.identity


def _find_presentation_tuple(
    g: FiniteGroup, target_order: int, gen_orders, relators
) -> tuple[int, ...] | None:
    orders = element_orders(g)
    pools = [[i for i in range(g.order) if orders[i] == d] for d in gen_orders]
    if any(not p for p in pools):
        return None

    def rec(chosen: tuple[int, ...], depth: int):
        if depth == len(pools):
            if all(_relator_holds(g, chosen, r) for r in relators):
                if len(closure(g, chosen).members) == target_order:
                    return chosen
            return None
        for x in pools[depth]:
            got = rec(chosen + (x,), depth + 1)
            if got is not None:
                return got
        return None

    return rec((), 0)


def recognize_named(g: FiniteGroup, name: str) -> bool:
    """Decide g isomorphic-to the named group by presentation-satisfaction search."""
    if name not in _PRESENTATIONS:
        raise ValueError(f"unknown catalog name {name!r}")
    order, gen_orders, relators = _PRESENTATIONS[name]
    if g.order != order:
        return False
    return _find_presentation_tuple(g, order, gen_orders, relators) is not None


def has_subgroup_isomorphic(g: FiniteGroup, name: str) -> bool:
    """Decide whether some generator tuple in g spans a copy of the named group."""
    if name not in _PRESENTATIONS:
        raise ValueError(f"unknown catalog name {name!r}")
    order, gen_orders, relators = _PRESENTATIONS[name]
    if g.order % order:
        return False
    return _find_presentation_tuple(g, order, gen_orders, relators) is not None


def parse_word(g: FiniteGroup, word: str) -> int:
    """Evaluate a generator word like "a^3*b" or "a b^-1" to an element index."""
    tokens = [t for t in re.split(r"[\s*]+", word.strip()) if t]
    if not tokens:
        raise ValueError("empty generator word")
    gm = dict(g.gens)
    acc = g.identity
    for tok in tokens:
        m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?", tok)
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
