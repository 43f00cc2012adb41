"""Group construction, invariants, and serialization tests."""

import random
import re
import time
from itertools import combinations

import pytest
from oracles import NAMED_SPECS, is_associative, order_counts, relabelled_document, table_fault
from test_classify import SWEPT_SPECS, _swept

import integra.groups
from integra.groups import (
    ORDER_BOUND,
    catalog_groups,
    closure,
    construct,
    cyclic,
    dihedral,
    element_orders,
    from_table,
    generalized_dicyclic,
    inverting_semidirect,
    involution_products,
    is_abelian,
    is_nilpotent,
    parse_word,
    perm_group,
    quaternion,
    to_document,
)


def test_cyclic_basics():
    g = cyclic(6)
    assert g.order == 6
    assert g.identity == 0
    assert g.element_order(1) == 6
    assert g.mul(1, g.inv[1]) == 0
    assert is_abelian(g)


def test_group_axioms_random_sample():
    rng = random.Random(7)
    for spec in ("dihedral:12", "quaternion", "sl:2:3", "dic(cyclic:3 x cyclic:6)"):
        g = construct(spec)
        for _ in range(200):
            a, b, c = (rng.randrange(g.order) for _ in range(3))
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
            assert g.mul(a, g.inv[a]) == g.identity


def test_dihedral_relation():
    g = dihedral(8)
    a, b = g.gen("a"), g.gen("b")
    assert g.element_order(a) == 4
    assert g.element_order(b) == 2
    assert g.mul(g.mul(b, a), g.inv[b]) == g.inv[a]


def test_dihedral_rejects_odd_order():
    with pytest.raises(ValueError):
        dihedral(7)


def test_quaternion_shape():
    g = quaternion()
    assert order_counts(g) == {1: 1, 2: 1, 4: 6}
    i, j = g.gen("i"), g.gen("j")
    assert g.mul(i, i) == g.mul(j, j)


def test_quaternion_is_dicyclic_z4_with_generators_renamed():
    g = quaternion()
    assert g.table == construct("dic(cyclic:4)").table
    assert g.names == ("e", "i", "j", "i^2", "i*j", "j*i", "i^3", "i^2*j")
    assert g.gens == (("i", 1), ("j", 2))
    assert g.label == "quaternion"


def test_symmetric_and_alternating_orders():
    assert construct("sym:3").order == 6
    assert construct("sym:4").order == 24
    assert construct("alt:4").order == 12
    assert construct("alt:5").order == 60


def test_permutation_names_use_cycle_notation():
    g = construct("alt:4")
    assert g.names[0] == "e"
    assert "(2,3,4)" in g.names
    assert "(1,2)(3,4)" in g.names


# No spec reaches these checks: _parse_perm_gens refuses such input first.
@pytest.mark.parametrize(
    ("n", "perms", "message"),
    (
        (0, [], "permutation degree must be positive"),
        (3, [(0, 1, 1)], "not a permutation of 0..2: (0, 1, 1)"),
        (3, [(1, 0)], "not a permutation of 0..2: (1, 0)"),
    ),
)
def test_perm_group_refuses_a_bad_degree_or_permutation(n, perms, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        perm_group(n, perms, "perm")


def test_heisenberg_is_exponent_three():
    g = construct("heisenberg:3")
    assert g.order == 27
    assert not is_abelian(g)
    assert all(d in (1, 3) for d in element_orders(g))


def test_sl23_order_profile():
    g = construct("sl:2:3")
    assert g.order == 24
    assert order_counts(g) == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}


def test_direct_product_order_and_renaming():
    g = construct("cyclic:3 x cyclic:2")
    assert g.order == 6
    h = construct("cyclic:4 x cyclic:4")
    names = [nm for nm, _idx in h.gens]
    assert len(set(names)) == len(names)


def test_dicyclic_conjugation_inverts_base():
    base = construct("cyclic:3 x cyclic:6")
    g = generalized_dicyclic(base)
    assert g.order == 2 * base.order
    x = g.gen("x")
    base_gens = [idx for name, idx in g.gens if name != "x"]
    embedded = closure(g, base_gens)
    assert len(embedded) == base.order
    for a in embedded:
        assert g.mul(g.mul(g.inv[x], a), x) == g.inv[a]


def test_dicyclic_square_is_designated_involution():
    g = generalized_dicyclic(cyclic(6))
    x = g.gen("x")
    y = g.mul(x, x)
    assert g.element_order(y) == 2


def test_dicyclic_needs_an_involution():
    with pytest.raises(ValueError):
        generalized_dicyclic(cyclic(3))


def test_dicyclic_index_inside_the_base_belongs_to_the_base():
    # Dic(Z2, a) is Z4, whose involution is again a (index 1), and Dic(Z4, a)
    # is Q8; only the outer "@" is the outer index.
    g = construct("dic(dic(cyclic:2@1)@1)")
    assert g.label == "dic(dic(cyclic:2@1)@1)"
    assert order_counts(g) == order_counts(quaternion())


def test_dicyclic_quaternion_iso():
    g = construct("dic(cyclic:4)")
    assert g.order == 8
    assert order_counts(g) == order_counts(quaternion())


def test_construct_rejects_oversized_groups():
    with pytest.raises(ValueError):
        construct("sym:5 x cyclic:5")
    # The breadth-first build stops at the bound, so a huge order is as
    # cheap to refuse as one just above it.
    start = time.monotonic()
    for make in (lambda: cyclic(ORDER_BOUND + 1), lambda: cyclic(10**9),
                 lambda: construct("cyclic:501"), lambda: construct("dihedral:100000")):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == f"group order exceeds {ORDER_BOUND}"
    assert time.monotonic() - start < 1.0


def test_construct_shares_one_group_per_spec():
    g = construct("dic(cyclic:6)")
    assert construct("dic(cyclic:6)") is g
    assert construct("dihedral:8") is construct("dihedral:8")
    assert construct("dihedral:8") != construct("quaternion")
    assert construct("cyclic:6") != construct("cyclic:2 x cyclic:3")
    # Failures are not kept: each call raises again.
    for spec in ("cyclic:501", "dihedral:100000"):
        for _ in range(3):
            with pytest.raises(ValueError, match=f"^group order exceeds {ORDER_BOUND}$"):
                construct(spec)
    # Past the bound the oldest spec is built afresh, and equal.
    for n in range(1, integra.groups._CONSTRUCT_CACHE_SIZE + 2):
        construct(f"cyclic:{n}")
    again = construct("dic(cyclic:6)")
    assert again is not g
    assert again == g


def test_construct_rejects_unknown_term():
    with pytest.raises(ValueError):
        construct("frobnicate:9")


def test_document_round_trip():
    g = construct("dic(cyclic:6)")
    doc = to_document(g)
    assert set(doc) == {"format", "order", "identity", "table", "names"}
    assert doc["format"] == "ftg-1"
    h = from_table(doc, label="again")
    assert h.table == g.table
    assert h.names == g.names
    assert h.identity == g.identity


@pytest.mark.parametrize("spec", SWEPT_SPECS)
def test_built_groups_round_trip_through_documents(spec):
    # Every catalog and swept group has distinct element names, so its
    # document imports back to the same table and names.
    g = _swept(spec)
    h = from_table(to_document(g))
    assert (h.table, h.identity, h.names) == (g.table, g.identity, g.names)


def test_from_table_rejects_bad_documents():
    g = cyclic(3)
    doc = to_document(g)
    broken = dict(doc)
    broken["table"] = [[0, 1, 2], [1, 1, 0], [2, 0, 1]]
    with pytest.raises(ValueError, match="Latin"):
        from_table(broken)
    shifted = dict(doc)
    shifted["table"] = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    shifted["identity"] = 0
    with pytest.raises(ValueError, match="identity"):
        from_table(shifted)


def test_from_table_finds_an_identity_off_index_zero():
    g = construct("dihedral:8")
    doc, new = relabelled_document(g, random.Random(8))
    del doc["identity"]
    h = from_table(doc)
    assert h.identity == new[g.identity] != 0
    assert h.table == tuple(tuple(row) for row in doc["table"])


def test_from_table_needs_a_two_sided_identity():
    # x*y = -x-y mod 3 has no identity; x*y = y-x mod 3 has the left identity
    # 0, whose column is not the identity column.
    for table in ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], [[0, 1, 2], [2, 0, 1], [1, 2, 0]]):
        doc = {"format": "ftg-1", "order": 3, "table": table}
        with pytest.raises(ValueError, match="^no identity$"):
            from_table(doc)
        with pytest.raises(ValueError, match="^no identity$"):
            from_table({**doc, "identity": 0})


def test_from_table_checks_columns_of_the_latin_square():
    # Every row is Latin; a column repeats an entry.
    for table in ([[0, 1], [0, 1]], [[0, 1, 2], [1, 2, 0], [1, 0, 2]]):
        doc = {"format": "ftg-1", "order": len(table), "identity": 0, "table": table}
        with pytest.raises(ValueError, match="^not a Latin square$"):
            from_table(doc)
    # Columns are read only on the way to rejecting a table, and a repeated
    # one is still named before every later fault: a bad or boolean identity
    # index, no two-sided identity, or (with the two-sided identity 0) a
    # non-associative product.
    no_identity = [[0, 1, 2], [1, 2, 0], [1, 0, 2]]
    with_identity = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 0, 1, 3], [3, 2, 1, 0]]
    assert not is_associative(with_identity)
    for table, identity in [
        (no_identity, 3),
        (no_identity, -1),
        (no_identity, True),
        (no_identity, None),
        ([[0, 1], [0, 1]], None),
        (with_identity, "0"),
        (with_identity, 0),
        (with_identity, None),
    ]:
        doc = {"format": "ftg-1", "order": len(table), "identity": identity, "table": table}
        with pytest.raises(ValueError, match="^not a Latin square$"):
            from_table(doc)


@pytest.mark.parametrize(
    "table, message",
    [
        # Size and range are checked row by row, so the first bad row decides.
        ([[0, 1, 2], [1, 2, 3], [2, 0]], "table entry out of range"),
        ([[0, 1, 2], [1, 2], [2, 0, 3]], "table size does not match order"),
        ([[0, 1, 2], [1, 2, 0], [2, 0, 1.0]], "table entry out of range"),
        ([[0, 1, 2], [1, 2, 0], [2, True, 1]], "table entry out of range"),
        # Latin rows only after every row is in range.
        ([[0, 0, 1], [1, 2, 0], [2, 0, -1]], "table entry out of range"),
    ],
)
def test_from_table_checks_size_range_and_latin_in_order(table, message):
    doc = {"format": "ftg-1", "order": 3, "identity": 0, "table": table}
    with pytest.raises(ValueError, match=f"^{message}$"):
        from_table(doc)


def _faulty_document(rng) -> dict:
    """A relabelled table of order at most 7, a group's or the order-5 loop's,
    with up to three random faults and a random designated identity."""
    if rng.random() < 0.2:
        doc = {"format": "ftg-1", "order": 5, "identity": 0, "table": [list(r) for r in _LOOP5]}
    else:
        doc, _new = relabelled_document(construct(rng.choice(_FAULTY_BASES)), rng)
    table, n = doc["table"], doc["order"]
    for _ in range(rng.randrange(4)):
        row, c, d = table[rng.randrange(n)], rng.randrange(n), rng.randrange(n)
        if max(c, d) >= len(row):  # a row already cut short
            continue
        fault = rng.choice(("range", "bool", "float", "repeat", "swap", "switch", "short"))
        if fault == "range":
            row[c] = rng.choice((-1, n, n + 5))
        elif fault == "bool":
            row[c] = rng.choice((True, False))
        elif fault == "float":
            row[c] = float(row[c])
        elif fault == "repeat":
            row[c] = row[d]
        elif fault == "swap":
            row[c], row[d] = row[d], row[c]
        elif fault == "switch":
            # Switch the subsquare a b / b a on columns c, d of this row and
            # another, if there is one: every line keeps its entries.
            other = table[d]
            if len(row) == len(other) == n and row is not other and row[c] in other:
                e = other.index(row[c])
                if e != c and row[e] == other[c]:
                    row[c], row[e], other[c], other[e] = row[e], row[c], other[e], other[c]
        else:
            row.pop()
    doc["identity"] = rng.choice((doc["identity"], None, rng.randrange(n), -1, n, True))
    return doc


_FAULTY_BASES = ("cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:2 x cyclic:2", "cyclic:5",
                 "cyclic:6", "sym:3", "cyclic:7")


def test_from_table_agrees_with_ordered_checks_on_random_faults():
    # from_table reads columns only on the way to rejecting a table, and reads
    # range and Latin rows in one pass; the oracle runs every check in order.
    rng = random.Random(33)
    seen = set()
    for _ in range(3000):
        doc = _faulty_document(rng)
        expected = table_fault(doc)
        seen.add(expected)
        if expected is None:
            g = from_table(doc)
            assert g.table == tuple(map(tuple, doc["table"])), doc
        else:
            with pytest.raises(ValueError) as err:
                from_table(doc)
            assert str(err.value) == expected, doc
    assert seen == {None, "table size does not match order", "table entry out of range",
                         "not a Latin square", "bad identity index", "no identity",
                         "not associative"}, seen


def test_from_table_names_elements_when_the_document_does_not():
    g = construct("cyclic:2 x cyclic:3")
    doc, new = relabelled_document(g, random.Random(6))
    del doc["names"]
    h = from_table(doc)
    ident = new[g.identity]
    assert h.names[ident] == "e"
    assert all(h.names[i] == f"g{i}" for i in range(h.order) if i != ident)


@pytest.mark.parametrize("spec, m", [("cyclic:2 x cyclic:4", 2), ("cyclic:6", 4)])
def test_inverting_semidirect_over_an_imported_table(spec, m):
    # An imported table binds no generators, so the extension is generated
    # by every non-identity element of the base and the new one.
    built = construct(spec)
    doc, _new = relabelled_document(built, random.Random(spec))
    imported = from_table(doc)
    assert imported.gens == ()
    h = inverting_semidirect(imported, m)
    ref = inverting_semidirect(built, m)
    assert h.order == ref.order == m * built.order
    assert order_counts(h) == order_counts(ref)


def test_inverting_semidirect_needs_an_abelian_base_and_an_even_factor():
    with pytest.raises(ValueError, match="^base of the semidirect product must be abelian$"):
        inverting_semidirect(construct("sym:3"), 2)
    for m in (0, 3):
        with pytest.raises(ValueError, match="^acting cyclic factor must have even order$"):
            inverting_semidirect(cyclic(4), m)


def test_from_table_rejects_oversized_order_quickly():
    n = ORDER_BOUND + 1
    doc = {"format": "ftg-1", "order": n, "identity": 0,
           "table": [[(i + j) % n for j in range(n)] for i in range(n)]}
    start = time.monotonic()
    with pytest.raises(ValueError, match="exceeds"):
        from_table(doc)
    assert time.monotonic() - start < 1.0


def test_from_table_rejects_non_associative_loop():
    rows = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    doc = {"format": "ftg-1", "order": 5, "identity": 0, "table": rows,
           "names": ["e", "p", "q", "r", "s"]}
    with pytest.raises(ValueError, match="associative"):
        from_table(doc)


def test_from_table_rejects_switched_subsquare():
    # Switching the 2x2 subsquare on rows x, x*t and columns v, t*v (t an
    # involution) keeps a Latin square with the identity row and column, but
    # x*(t*v) != (x*t)*v afterwards.
    rng = random.Random(72)
    g = construct("sym:4 x cyclic:3")
    doc, new = relabelled_document(g, rng)
    assert doc["order"] == 72 and doc["identity"] != 0
    t = next(i for i in range(g.order) if g.element_order(i) == 2)
    x, v = (rng.choice([i for i in range(g.order) if i not in (g.identity, t)]) for _ in range(2))
    rows, cols = (x, g.mul(x, t)), (v, g.mul(t, v))
    table = doc["table"]
    (a, b), (c, d) = ([table[new[r]][new[col]] for col in cols] for r in rows)
    assert (a, b) == (d, c)
    for r in rows:
        for col in cols:
            table[new[r]][new[col]] = b if table[new[r]][new[col]] == a else a
    ident = doc["identity"]
    full = list(range(g.order))
    assert all(sorted(row) == full for row in table)
    assert all(sorted(col) == full for col in zip(*table))
    assert table[ident] == full and [row[ident] for row in table] == full
    with pytest.raises(ValueError, match="not associative"):
        from_table(doc)


def _switch_subsquare(g, doc, new, rng):
    """Switch the 2x2 subsquare of doc's table on rows x, x*t and columns v,
    t*v (t an involution, x and v neither e nor t), as in the test above,
    unless an earlier switch has already broken it."""
    t = rng.choice([i for i in range(g.order) if g.element_order(i) == 2])
    x, v = (rng.choice([i for i in range(g.order) if i not in (g.identity, t)]) for _ in range(2))
    rows = (new[x], new[g.mul(x, t)])
    cols = (new[v], new[g.mul(t, v)])
    table = doc["table"]
    (a, b), (c, d) = ([table[r][col] for col in cols] for r in rows)
    if (a, b) == (d, c):
        for r in rows:
            for col in cols:
                table[r][col] = b if table[r][col] == a else a


def _import_agrees_with_oracle(doc):
    """from_table accepts doc exactly when every triple associates; returns
    the oracle's verdict."""
    if is_associative(doc["table"]):
        from_table(doc)
        return True
    with pytest.raises(ValueError, match="^not associative$"):
        from_table(doc)
    return False


@pytest.mark.parametrize("spec", [
    "quaternion x cyclic:2",
    "dihedral:24",
    "alt:4 x cyclic:2",
    "cyclic:8 x cyclic:4",
    "sym:4 x cyclic:3",
    "sym:4 x cyclic:4",
])
def test_from_table_associativity_matches_triple_check(spec):
    g = construct(spec)
    rng = random.Random(f"light {spec}")
    doc, _new = relabelled_document(g, rng)
    assert _import_agrees_with_oracle(doc)
    for switches in (1, 1, 2, 2):
        doc, new = relabelled_document(g, rng)
        for _ in range(switches):
            _switch_subsquare(g, doc, new, rng)
        associative = _import_agrees_with_oracle(doc)
        # A second switch may undo the first.
        assert switches == 2 or not associative


_LOOP5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 3, 4, 0, 1),
    (3, 4, 1, 2, 0),
    (4, 2, 0, 1, 3),
)


@pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:2", "cyclic:3", "sym:3"])
def test_from_table_rejects_loop_times_group(spec):
    # The order-5 loop L times a group G, with (a, b) at index a*|G| + b: G's
    # elements lie in the nucleus, so the first generators Light's test keeps
    # pass before the loop's first element fails.
    g = construct(spec)
    m = g.order
    n = 5 * m
    table = [[_LOOP5[i // m][j // m] * m + g.table[i % m][j % m] for j in range(n)]
             for i in range(n)]
    doc = {"format": "ftg-1", "order": n, "identity": g.identity, "table": table}
    assert not _import_agrees_with_oracle(doc)


@pytest.mark.parametrize("spec", ["sym:5 x cyclic:4", "cyclic:500"])
def test_from_table_checks_associativity_quickly(spec):
    # Light's test checks O(log n) generators, O(n^2) work each, where the
    # triple loop makes over 10^8 steps on these tables.
    doc, _new = relabelled_document(construct(spec), random.Random(480))
    start = time.monotonic()
    g = from_table(doc)
    assert time.monotonic() - start < 2.0
    assert g.order == doc["order"]


def test_greedy_generating_sets_are_short_and_generate():
    # Each generator at least doubles the subgroup the earlier ones generate.
    doc, _new = relabelled_document(construct("sym:5 x cyclic:4"), random.Random(480))
    groups = [g for _name, g in catalog_groups()] + [from_table(doc)]
    for g in groups:
        gens = list(integra.groups._generating_set(g.table, g.identity, range(g.order)))
        assert len(gens) <= g.order.bit_length(), g.label
        assert len(closure(g, gens)) == g.order, g.label


@pytest.mark.parametrize("spec", ["sym:4", "cyclic:2 x cyclic:4 x cyclic:6"])
@pytest.mark.parametrize("imported", [False, True])
def test_generating_set_picks_one_that_fails_to_commute_first(spec, imported):
    # Light's test and the Aut(G) search share one rule: each pick is the
    # first unreached candidate that fails to commute with an earlier pick,
    # if any unreached one does, else the first unreached candidate. On an
    # abelian group that is the plain index-order pick.
    g = construct(spec)
    if imported:
        # Under this relabelling of sym:4 the next unreached candidate in
        # index order after the first pick commutes with it, while a later
        # one does not.
        g = from_table(relabelled_document(g, random.Random(37))[0])
    t = g.table
    gens = []
    for x in integra.groups._generating_set(t, g.identity, range(g.order)):
        reached = closure(g, gens)
        rest = [y for y in range(g.order) if y not in reached]
        clash = [y for y in rest if any(t[y][a] != t[a][y] for a in gens)]
        assert x == (clash or rest)[0]
        gens.append(x)
    assert len(closure(g, gens)) == g.order


def test_closure_in_symmetric_group():
    g = construct("sym:4")
    orders = element_orders(g)
    t = next(i for i in range(g.order) if orders[i] == 2)
    c = next(i for i in range(g.order) if orders[i] == 3)
    sub = closure(g, [t, c])
    assert g.order % len(sub) == 0
    assert len(sub) in (6, 12, 24)
    assert sub[0] == g.identity


def test_closure_contract_on_relabelled_imports():
    rng = random.Random(11)
    for spec in ("sym:4", "dic(cyclic:3 x cyclic:6)"):
        doc, _new = relabelled_document(construct(spec), rng)
        g = from_table(doc)
        assert g.identity != 0
        assert closure(g, ()) == (g.identity,)
        for _ in range(30):
            gens = (rng.randrange(g.order), rng.randrange(g.order))
            sub = closure(g, gens)
            members = set(sub)
            assert sub[0] == g.identity
            assert len(members) == len(sub)
            assert set(gens) <= members
            assert all(g.mul(a, b) in members for a in sub for b in sub)
            assert g.order % len(sub) == 0
        for bad in (-1, g.order):
            with pytest.raises(ValueError, match=f"^element index {bad} out of range$"):
                closure(g, (1, bad))


def test_parse_word_evaluation():
    g = dihedral(8)
    assert parse_word(g, "e") == 0
    assert parse_word(g, "a^0") == 0
    assert parse_word(g, "a^-1") == g.inv[g.gen("a")]
    left = parse_word(g, "a^3*b")
    direct = g.mul(g.power(g.gen("a"), 3), g.gen("b"))
    assert left == direct
    assert parse_word(g, "a b") == g.mul(g.gen("a"), g.gen("b"))


def test_parse_word_errors():
    g = dihedral(8)
    with pytest.raises(ValueError):
        parse_word(g, "c")
    with pytest.raises(ValueError, match="^unknown generator 'c' in dihedral:8$"):
        g.gen("c")
    with pytest.raises(ValueError):
        parse_word(g, "a^x")
    for word in ("", "  ", " * "):
        with pytest.raises(ValueError, match="^empty generator word$"):
            parse_word(g, word)
    # An exponent is ASCII decimal: no digits of other scripts, no "_".
    for word in ("a^\u0661", "a^\uff13", "a^1_0", "b*a^-\u0663"):
        with pytest.raises(ValueError, match="^malformed word token"):
            parse_word(g, word)


@pytest.mark.parametrize(
    "specs",
    [
        ("cyclic:8", "cyclic:2 x cyclic:4", "cyclic:2 x cyclic:2 x cyclic:2", "dihedral:8", "quaternion"),
        ("cyclic:12", "cyclic:2 x cyclic:6", "dihedral:12", "alt:4", "dic(cyclic:6)"),
    ],
    ids=["order8", "order12"],
)
def test_statistics_tell_all_groups_of_an_order_apart(specs):
    # The five isomorphism types of order 8, and the five of order 12.
    groups = [construct(spec) for spec in specs]
    assert len({g.order for g in groups}) == 1
    stats = [order_counts(g) for g in groups]
    assert all(a != b for a, b in combinations(stats, 2))


def test_statistics_stop_deciding_at_order_sixteen():
    a = construct("cyclic:4 x cyclic:4")
    b = construct("quaternion x cyclic:2")
    assert order_counts(a) == order_counts(b)
    assert is_abelian(a) and not is_abelian(b)


def test_recognition_on_relabelled_imports():
    rng = random.Random(5)
    for name, spec in NAMED_SPECS.items():
        counts = order_counts(from_table(relabelled_document(construct(spec), rng)[0]))
        assert [nm for nm, sp in NAMED_SPECS.items() if counts == order_counts(construct(sp))] == [name]
    s4 = from_table(relabelled_document(construct("sym:4"), rng)[0])
    # S3, D8 and no D12: involution products of order 3 and 4, none of order 6
    assert involution_products(s4) == {2, 3, 4}


def test_subgroup_search():
    assert 4 in involution_products(construct("sym:4"))
    assert 3 in involution_products(construct("dihedral:12"))


@pytest.mark.parametrize(
    "spec", ["sym:4", "dihedral:12", "dihedral:8 x cyclic:3", "alt:4 x cyclic:2"]
)
def test_two_involutions_span_a_dihedral_group(spec):
    g = construct(spec)
    orders = element_orders(g)
    invols = [x for x in range(g.order) if orders[x] == 2]
    spans = set()
    for x, y in combinations(invols, 2):
        r = orders[g.mul(x, y)]
        members = closure(g, (x, y))
        assert order_counts(g, members) == order_counts(dihedral(2 * r)), (spec, x, y)
        spans.add(r)
    assert involution_products(g) == spans


def test_catalog_contents():
    cat = catalog_groups()
    assert len(cat) == 15
    labels = [name for name, _g in cat]
    assert len(set(labels)) == 15
    orders = {name: g.order for name, g in cat}
    assert orders["Q8"] == 8
    assert orders["S4"] == 24
    assert orders["D8xZ3"] == 24


def test_profile_facts():
    s3 = construct("sym:3")
    assert not is_abelian(s3)
    assert not is_nilpotent(s3)
    assert set(element_orders(s3)) <= {1, 2, 3, 4, 6}
    q = quaternion()
    assert is_nilpotent(q)
    invols = [x for x in range(q.order) if q.element_order(x) == 2]
    assert len(invols) == 1
    assert all(q.mul(invols[0], y) == q.mul(y, invols[0]) for y in range(q.order))
    d = construct("dihedral:8 x cyclic:3")
    assert is_nilpotent(d)
    assert 12 in element_orders(d)
    assert is_nilpotent(construct("heisenberg:3"))
    assert not is_nilpotent(construct("sym:4"))
    assert is_nilpotent(cyclic(1))
