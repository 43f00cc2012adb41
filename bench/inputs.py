"""Seeded inputs for the three workloads, with the facts the checks need.

The program sees only the generated ops; the seed never reaches it. Each
workload has a fixed make-up (groups, valencies, connected share, table
orders) and the seed picks the concrete connection sets and relabellings,
so that different seeds cost about the same.
"""

from __future__ import annotations

import json
import os
import random

import reference as ref

# -- claims -------------------------------------------------------------------

# C14's groups and C13's group, built here to derive their set counts.
C14_GROUPS = (
    ("S3", ref.symmetric(3)),
    ("Z2xZ2xZ3", ref.direct(ref.cyclic(2), ref.cyclic(2), ref.cyclic(3))),
    ("Z2xZ4", ref.direct(ref.cyclic(2), ref.cyclic(4))),
    ("Q8", ref.quaternion()),
    ("Q8xZ2", ref.direct(ref.quaternion(), ref.cyclic(2))),
    ("DicZ6", ref.dicyclic((6,), (3,))),
)
C13_GROUP = ref.dicyclic((3, 6), (0, 3))


def claims_inputs(seed: int) -> tuple[dict, dict]:
    """One op, the whole catalog; it has no random inputs, so the seed is unused."""
    c14 = {}
    for label, rule in C14_GROUPS:
        g = ref.build(rule)
        c14[label] = ref.symmetric_set_count(g, g.order - 1)
    cycles = []
    for n in range(3, 13):
        _mults, residual = ref.integer_spectrum(ref.char_poly(ref.build(ref.cyclic(n)), [1, n - 1]), 2)
        if residual == [1]:
            cycles.append(n)
    expect = {
        "c1_orders": cycles,
        "c13_sets": ref.symmetric_set_count(ref.build(C13_GROUP), 5),
        "c14_sets": c14,
    }
    return {"ops": [["verify", "--all", "--json"]], "setup_specs": []}, expect


# -- query --------------------------------------------------------------------

# (spec, rule, strata); a stratum is (valency, connected, sets per round).
# The first list holds groups all of whose Cayley graphs are integral
# (Ahmady-Bell-Mohar: abelian of exponent dividing 4 or 6, Q8 x Z2^n, S3,
# Dic(Z6)); the second holds groups with non-integral sets, of which only
# non-integral sets are drawn.
QUERY_INTEGRAL = (
    ("cyclic:2 x cyclic:2 x cyclic:6", ref.direct(ref.cyclic(2), ref.cyclic(2), ref.cyclic(6)),
     ((5, True, 4), (6, True, 4), (8, True, 4), (3, False, 2))),
    ("quaternion x cyclic:2 x cyclic:2", ref.direct(ref.quaternion(), ref.cyclic(2), ref.cyclic(2)),
     ((6, True, 6), (8, True, 6), (5, False, 2))),
    ("cyclic:4 x cyclic:4 x cyclic:2", ref.direct(ref.cyclic(4), ref.cyclic(4), ref.cyclic(2)),
     ((5, True, 4), (7, True, 6), (4, False, 2))),
    ("cyclic:6 x cyclic:6", ref.direct(ref.cyclic(6), ref.cyclic(6)),
     ((4, True, 4), (6, True, 6), (8, True, 4), (3, False, 2))),
    ("cyclic:2 x cyclic:2 x cyclic:2 x cyclic:6",
     ref.direct(ref.cyclic(2), ref.cyclic(2), ref.cyclic(2), ref.cyclic(6)),
     ((5, True, 4), (7, True, 4), (6, False, 2))),
    ("cyclic:3 x cyclic:3 x cyclic:6", ref.direct(ref.cyclic(3), ref.cyclic(3), ref.cyclic(6)),
     ((7, True, 4), (8, True, 4), (4, False, 2))),
)
QUERY_NONINTEGRAL = (
    ("dihedral:24", ref.dihedral(24), ((3, True, 4), (5, True, 4), (8, True, 4), (4, False, 2))),
    ("sym:4", ref.symmetric(4), ((3, True, 4), (6, True, 4), (8, True, 4))),
    ("sl:2:3", ref.sl23(), ((4, True, 4), (7, True, 4))),
    ("dihedral:32", ref.dihedral(32), ((4, True, 4), (7, True, 4), (5, False, 2))),
    ("cyclic:8 x cyclic:4", ref.direct(ref.cyclic(8), ref.cyclic(4)),
     ((5, True, 4), (8, True, 4), (4, False, 2))),
    ("dihedral:36", ref.dihedral(36), ((3, True, 4), (6, True, 4), (3, False, 2))),
    ("dihedral:48", ref.dihedral(48), ((4, True, 4), (6, True, 2), (3, False, 2))),
    ("alt:4 x cyclic:4", ref.direct(ref.alternating(4), ref.cyclic(4)),
     ((5, True, 4), (6, False, 2))),
)

_MAX_TRIES = 20000


def _random_set(rng: random.Random, g: ref.Group, k: int) -> tuple[int, ...]:
    invols = g.involutions()
    pairs = g.inverse_pairs()
    shapes = [b for b in range(k // 2 + 1) if b <= len(pairs) and k - 2 * b <= len(invols)]
    b = rng.choice(shapes)
    members = rng.sample(invols, k - 2 * b)
    for x, y in rng.sample(pairs, b):
        members += [x, y]
    return tuple(sorted(members))


def _integra_table(spec: str, rule) -> ref.Group:
    """integra's numbering for spec, checked to be a group of the expected kind."""
    from integra.groups import construct

    got = construct(spec)
    g = ref.Group(got.table, got.identity)
    ref.check_group_axioms(g)
    if g.order_profile() != ref.build(rule).order_profile():
        raise ValueError(f"{spec}: element orders differ from the reference construction")
    return g


def query_inputs(seed: int) -> tuple[dict, dict]:
    """One spectrum op per connection set, drawn per stratum from the seed."""
    rng = random.Random(f"query:{seed}")
    ops, facts = [], []
    for integral, groups in ((True, QUERY_INTEGRAL), (False, QUERY_NONINTEGRAL)):
        for spec, rule, strata in groups:
            g = _integra_table(spec, rule)
            for k, connected, count in strata:
                for _ in range(count):
                    s, fact = _draw(rng, g, k, connected, integral)
                    ops.append(["spectrum", "--spec", spec, "--set-indices",
                                ",".join(map(str, s)), "--json"])
                    facts.append(fact)
    order = list(range(len(ops)))
    rng.shuffle(order)
    plan = {"ops": [ops[i] for i in order], "setup_specs": [g[0] for g in QUERY_INTEGRAL + QUERY_NONINTEGRAL]}
    return plan, {"facts": [facts[i] for i in order]}


def _draw(rng, g: ref.Group, k: int, connected: bool, integral: bool):
    for _ in range(_MAX_TRIES):
        s = _random_set(rng, g, k)
        sub = len(ref.closure_members(g, s))
        if (sub == g.order) != connected:
            continue
        poly = ref.char_poly(g, s)
        _mults, residual = ref.integer_spectrum(poly, k)
        if (residual == [1]) != integral:
            if integral:
                raise ValueError(f"set {s} over a Cayley-integral group is not integral")
            continue
        return s, {"n": g.order, "k": k, "subgroup_order": sub, "char_poly": poly,
                   "integral": integral}
    raise ValueError(f"no set of valency {k} (connected={connected}) over a group of order {g.order}")


# -- census -------------------------------------------------------------------

CENSUS_GROUPS = (
    ("D24xZ3", ref.direct(ref.dihedral(24), ref.cyclic(3))),
    ("S4xZ3", ref.direct(ref.symmetric(4), ref.cyclic(3))),
    ("Z8xZ12", ref.direct(ref.cyclic(8), ref.cyclic(12))),
    ("S5", ref.symmetric(5)),
    ("SL23xZ6", ref.direct(ref.sl23(), ref.cyclic(6))),
    ("A4xD14", ref.direct(ref.alternating(4), ref.dihedral(14))),
    ("S4xZ8", ref.direct(ref.symmetric(4), ref.cyclic(8))),
    ("S5xZ2", ref.direct(ref.symmetric(5), ref.cyclic(2))),
    ("S4xD12", ref.direct(ref.symmetric(4), ref.dihedral(12))),
)
# Extra documents with one corrupted product.
CENSUS_CORRUPTED = (
    ("S4xZ3-bad", ref.direct(ref.symmetric(4), ref.cyclic(3))),
    ("Z8xZ12-bad", ref.direct(ref.cyclic(8), ref.cyclic(12))),
)
CENSUS_K = 2


def _relabel(rng: random.Random, g: ref.Group) -> ref.Group:
    """The same group under a random numbering whose identity is not 0."""
    perm = list(range(g.order))
    rng.shuffle(perm)
    if perm[g.identity] == 0:
        j = rng.randrange(1, g.order)
        other = perm.index(j)
        perm[g.identity], perm[other] = j, 0
    table = [[0] * g.order for _ in range(g.order)]
    names = [""] * g.order
    for a in range(g.order):
        pa = perm[a]
        names[pa] = g.names[a]
        row = table[pa]
        for b, c in enumerate(g.table[a]):
            row[perm[b]] = perm[c]
    return ref.Group(table, perm[g.identity], names)


def _corrupt(rng: random.Random, g: ref.Group) -> list[list[int]]:
    """Swap x*v and x*tv through the 2x2 subsquare on rows x, xt and columns v, tv.

    With t an involution the four cells hold two values crosswise, so the
    swap keeps every row and column a permutation; the identity row and
    column are left alone. Only a table with a witnessed non-associative
    triple is returned.
    """
    e = g.identity
    invols = g.involutions()
    for _ in range(_MAX_TRIES):
        x, v = rng.randrange(g.order), rng.randrange(g.order)
        t = rng.choice(invols)
        xt, tv = g.table[x][t], g.table[t][v]
        if e in (x, xt, v, tv):
            continue
        table = [list(row) for row in g.table]
        a, b = table[x][v], table[x][tv]
        table[x][v], table[x][tv], table[xt][v], table[xt][tv] = b, a, a, b
        if ref.associativity_witness(table, (x, xt)) is not None:
            return table
    raise ValueError("no corruption with a witnessed non-associative triple")


def _scan_expectation(g: ref.Group) -> dict:
    """What A_2 and G_2 scans must report, from the closed form for valency <= 2."""
    invols = g.involutions()
    two_sets = sorted(
        [tuple(sorted(p)) for p in g.inverse_pairs()]
        + [(a, b) for i, a in enumerate(invols) for b in invols[i + 1:]]
    )
    witness, position = None, len(two_sets)
    for pos, s in enumerate(two_sets, 1):
        if not ref.valency2_integral(g, s):
            witness, position = s, pos
            break
    return {"witness": witness, "a_checked": position, "g_checked": len(invols) + position}


def census_inputs(seed: int, workdir: str) -> tuple[dict, dict]:
    """One census op per directory, each holding one relabelled ftg-1 document."""
    rng = random.Random(f"census:{seed}")
    ops, facts = [], []
    for i, (name, rule) in enumerate(CENSUS_GROUPS + CENSUS_CORRUPTED):
        g = _relabel(rng, ref.build(rule))
        corrupted = i >= len(CENSUS_GROUPS)
        fact = {"file": f"{name}.json", "corrupted": corrupted}
        table = g.table
        if corrupted:
            table = _corrupt(rng, g)
        else:
            fact.update(_scan_expectation(g))
            fact["group"] = g
        doc = {"format": "ftg-1", "order": g.order, "identity": g.identity,
               "table": table, "names": g.names}
        d = os.path.join(workdir, f"census-{i:02d}")
        os.makedirs(d)
        with open(os.path.join(d, fact["file"]), "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        ops.append(["census", "--dir", d, "--k", str(CENSUS_K), "--json"])
        facts.append(fact)
    return {"ops": ops, "setup_specs": []}, {"facts": facts}
