"""Exact spectrum computation tests."""

import random
from math import gcd

import pytest
from oracles import (
    atom_integral,
    cayley_rows,
    eigen_multiplicity,
    fl_integral,
    newton_char_poly,
    normal_integral,
    oracle_spectrum,
    rank_spectrum,
    relabelled_document,
)

import integra.spectra
from integra.cli import main
from integra.groups import catalog_groups, closure, construct, cyclic, from_table, parse_word
from integra.polys import IntPolynomial
from integra.spectra import (
    _multiplicities,
    _SUM_FROM,
    _sigma_step,
    _walk,
    char_poly,
    is_integral,
    is_integral_cayley,
    validate_connection_set,
)
from integra.symsets import _atoms as symmetric_atoms
from integra.symsets import enumerate_symmetric_sets


def test_char_poly_small_graphs():
    # the 4-cycle as Cay(Z_4, {1, 3}) and K_4 as Cay(Z_4, {1, 2, 3})
    assert char_poly(cyclic(4), (1, 3)).coeffs == (0, 0, -4, 0, 1)
    assert char_poly(cyclic(4), (1, 2, 3)).coeffs == (-3, -8, -6, 0, 1)


def test_char_poly_of_the_empty_set_is_x():
    # <{}> is the trivial group: one vertex with no neighbours.
    assert char_poly(cyclic(4), ()) == IntPolynomial((0, 1))


def test_eigen_multiplicity():
    c4 = cayley_rows(cyclic(4), (1, 3))
    assert eigen_multiplicity(c4, 0) == 2
    assert eigen_multiplicity(c4, 2) == 1
    assert eigen_multiplicity(c4, 1) == 0
    assert eigen_multiplicity(cayley_rows(cyclic(4), (1, 2, 3)), -1) == 3


def test_cycle_six_spectrum():
    ok, rep = is_integral_cayley(cyclic(6), (1, 5))
    assert ok
    assert rep.eigenvalues == ((2, 1), (1, 2), (-1, 2), (-2, 1))
    assert rep.residual == IntPolynomial((1,))


def test_cycle_five_residual():
    ok, rep = is_integral_cayley(cyclic(5), (1, 4))
    assert not ok
    assert rep.eigenvalues == ((2, 1),)
    assert rep.residual.coeffs == (1, -2, -1, 2, 1)


def test_validate_connection_set():
    g = cyclic(6)
    assert validate_connection_set(g, (5, 1)) == (1, 5)
    with pytest.raises(ValueError):
        validate_connection_set(g, (0, 1, 5))
    with pytest.raises(ValueError):
        validate_connection_set(g, (1,))
    with pytest.raises(ValueError):
        validate_connection_set(g, (1, 5, 9))
    with pytest.raises(ValueError):
        validate_connection_set(g, (1, 1, 5))


@pytest.mark.parametrize(
    "s, message",
    [
        ((1, 1, 5), "connection set has repeated elements"),
        ((1, 5, 9), "element index 9 out of range"),
        ((0, 1, 5), "connection set contains the identity"),
        ((1,), "connection set is not symmetric: missing inverse of 1"),
    ],
)
def test_is_integral_rejects_bad_sets_like_validation(s, message):
    g = cyclic(6)
    for check in (validate_connection_set, is_integral):
        with pytest.raises(ValueError) as err:
            check(g, s)
        assert str(err.value) == message


def test_two_routes_agree_on_catalog_cubic_sets():
    for _name, g in catalog_groups():
        for s in enumerate_symmetric_sets(g, 3):
            rep = is_integral_cayley(g, s)[1]
            assert rep == rank_spectrum(g, s)
            assert is_integral(g, s) == fl_integral(g, s) == rep.integral


def _random_symmetric_set(g, size, rng, within=None):
    """A random symmetric identity-free set of the given size, or None; with
    within (a set of elements closed under inverses), drawn from it alone."""
    pieces = sorted(symmetric_atoms(g), key=len)  # involutions first
    if within is not None:
        pieces = [p for p in pieces if p[0] in within]
    rng.shuffle(pieces)
    out: list[int] = []
    for piece in pieces:
        if len(out) + len(piece) <= size:
            out.extend(piece)
    return tuple(sorted(out)) if len(out) == size else None


def test_walk_verdict_agrees_on_random_sets_of_every_size():
    rng = random.Random(2014)
    specs = ("cyclic:5", "cyclic:12", "dihedral:10", "cyclic:3 x cyclic:3", "sym:4")
    groups = [g for _name, g in catalog_groups() if g.order <= 12]
    groups += [construct(spec) for spec in specs]
    seen = {"integral": 0, "non-integral": 0, "disconnected": 0, "dense": 0}
    for g in groups:
        for size in range(1, g.order):
            s = _random_symmetric_set(g, size, rng)
            if s is None:
                continue
            walk = is_integral(g, s)
            assert walk == is_integral_cayley(g, s)[0] == rank_spectrum(g, s).integral, s
            seen["integral" if walk else "non-integral"] += 1
            seen["disconnected"] += len(closure(g, s)) < g.order
            seen["dense"] += 2 * size > g.order
    assert min(seen.values()) > 0, seen


DENSE_SPECS = (
    "cyclic:2", "cyclic:3", "cyclic:5", "cyclic:7", "cyclic:9", "cyclic:10", "cyclic:11",
    "cyclic:12", "dihedral:10", "dic(cyclic:6)",
)


def test_complement_route_matches_the_oracles_on_dense_sets():
    # A symmetric set with 2k > n-1 is decided and reported by a walk of its
    # complement. On each group of order at most 12, 40 such sets are drawn
    # (all of them where there are fewer), which keeps D12's 256 sets from
    # dominating the run time.
    rng = random.Random("dense sets")
    groups = [g for _name, g in catalog_groups() if g.order <= 12]
    groups += [construct(spec) for spec in DENSE_SPECS]
    seen = {"integral": 0, "non-integral": 0, "walked disconnected": 0}
    for g in groups:
        n = g.order
        sets = [s for k in range((n + 1) // 2, n) for s in enumerate_symmetric_sets(g, k)]
        for s in rng.sample(sets, min(40, len(sets))):
            assert 2 * len(s) > n - 1
            rep = is_integral_cayley(g, s)[1]
            assert rep == rank_spectrum(g, s), (n, s)
            assert is_integral(g, s) == fl_integral(g, s) == rep.integral, (n, s)
            seen["integral" if rep.integral else "non-integral"] += 1
            complement = [x for x in range(n) if x != g.identity and x not in s]
            seen["walked disconnected"] += len(closure(g, complement)) < n
    assert min(seen.values()) > 0, seen


def _rows_walked(monkeypatch):
    """Patch _sigma_step to record len(rows) at each call; returns the record."""
    step = integra.spectra._sigma_step
    walked = []

    def counted(rows, *args):
        walked.append(len(rows))
        return step(rows, *args)

    monkeypatch.setattr(integra.spectra, "_sigma_step", counted)
    return walked


@pytest.mark.parametrize("spec, s", [
    ("cyclic:1", ()),
    ("cyclic:2", (1,)),
    ("cyclic:9", (1, 2, 7, 8)),
    ("cyclic:8", (1, 2, 6, 7)),
    # {0, 1, 2, 3} is the cyclic subgroup of order 4 in Z2xZ4.
    ("cyclic:2 x cyclic:4", (1, 2, 3)),
    ("cyclic:2 x cyclic:4", (4, 5, 6, 7)),
    # The identity is 0 in each of these, so 1..n-1 is the complete graph.
    ("cyclic:12", tuple(range(1, 12))),
    ("cyclic:30", tuple(range(1, 30))),
    ("cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2", tuple(range(1, 16))),
], ids=[
    "cyclic:1 empty set, walked as it is",
    "K2, whose complement is empty",
    "odd n, 2k = n-1, walked as it is",
    "even n, 2k = n, complemented",
    "Z2xZ4 subgroup of order 4 minus e, disconnected, walked as it is",
    "Z2xZ4 minus that subgroup, connected, its disconnected complement walked",
    "K12 on Z12",
    "K30 on Z30",
    "K16 on Z2^4",
])
def test_complement_route_edge_cases(monkeypatch, spec, s):
    g = construct(spec)
    n, k = g.order, len(s)
    walked = _rows_walked(monkeypatch)
    rep = is_integral_cayley(g, s)[1]
    assert rep == rank_spectrum(g, s)
    assert is_integral(g, s) == fl_integral(g, s) == rep.integral
    assert set(walked) == {k if 2 * k <= n - 1 else n - 1 - k}


@pytest.mark.parametrize("s", [tuple(range(1, 240)), tuple(x for x in range(1, 240) if x != 120)],
                         ids=["K240", "valency n-2"])
def test_dense_walks_pass_at_most_the_smaller_side(monkeypatch, capsys, s):
    # No timing: a walk of K240 passes no rows at all, and a valency-238 set
    # (K240 minus a perfect matching) one row per step.
    g = construct("cyclic:240")
    bound = min(len(s), g.order - 1 - len(s))
    walked = _rows_walked(monkeypatch)
    assert is_integral(g, s)
    ok, rep = is_integral_cayley(g, s)
    assert ok and rep.index == 1
    indices = ",".join(map(str, s))
    assert main(["spectrum", "--spec", "cyclic:240", "--set-indices", indices, "--json"]) == 0
    assert '"integral": true' in capsys.readouterr().out
    assert walked and max(walked) <= bound


def test_disconnected_set_lifts_by_index():
    g = cyclic(12)
    ok, rep = is_integral_cayley(g, (3, 9))
    assert ok
    assert rep.subgroup_order == 4
    assert rep.index == 3
    assert rep.components == 3
    assert rep.eigenvalues == ((2, 3), (0, 6), (-2, 3))
    assert rep == rank_spectrum(g, (3, 9))
    # the identity's component is a 4-cycle: eigenvalues 2, 0, 0, -2
    assert char_poly(g, (3, 9)).coeffs == (0, 0, -4, 0, 1)


def test_charpoly_power_rule():
    g = cyclic(12)
    s = (3, 9)
    assert newton_char_poly(cayley_rows(g, s)) == char_poly(g, s) ** 3


def test_random_regular_graphs_consistency():
    rng = random.Random(11)
    groups = [g for _name, g in catalog_groups() if g.order <= 12]
    for _ in range(40):
        g = rng.choice(groups)
        sets = list(enumerate_symmetric_sets(g, rng.randrange(1, 5), mode="at_most"))
        if not sets:
            continue
        s = sets[rng.randrange(len(sets))]
        _ok, rep = is_integral_cayley(g, s)
        assert rep == rank_spectrum(g, s)
        cp = char_poly(g, s) ** rep.index
        n, k = g.order, len(s)
        assert cp.coeffs[n] == 1
        assert cp.coeffs[n - 1] == 0
        if n >= 2:
            assert -2 * cp.coeffs[n - 2] == k * n


@pytest.mark.parametrize("spec", ["sym:4", "dic(cyclic:3 x cyclic:6)"])
def test_reports_on_relabelled_imports_match_the_original(spec):
    g = construct(spec)
    doc, new = relabelled_document(g, random.Random(g.order))
    h = from_table(doc)
    assert h.identity != 0
    rng = random.Random(5)
    indices = set()
    # Dic(Z3 x Z6) has no connected set below valency 6.
    for k in (2, 3, 4, 6):
        for s in rng.sample(list(enumerate_symmetric_sets(g, k)), 10):
            verdict = is_integral_cayley(g, s)
            t = [new[x] for x in s]
            assert is_integral_cayley(h, t) == verdict
            assert is_integral(h, t) == rank_spectrum(h, t).integral == verdict[0]
            indices.add(verdict[1].index)
    # connected (index 1) and disconnected sets both occur
    assert 1 in indices and len(indices) > 1


def test_order_360_connected_cubic_set_is_not_integral():
    # Connected and cubic, over a group of order 360, and C17's allowed list
    # (the paper's theorem) holds no group of that order.
    g = construct("sym:5 x cyclic:3")
    s = (3, 7, 56)
    assert validate_connection_set(g, s) == s
    assert len(closure(g, s)) == g.order == 360
    assert is_integral(g, s) is False


# Every Cayley graph over these groups is integral (Ahmady-Bell-Mohar).
ALL_INTEGRAL_SPECS = (
    "cyclic:2 x cyclic:2 x cyclic:6",
    "quaternion x cyclic:2 x cyclic:2",
    "cyclic:6 x cyclic:6",
    "cyclic:3 x cyclic:3 x cyclic:6",
)


def test_walk_report_matches_rank_and_newton_oracles():
    rng = random.Random(432)
    seen = {"connected": 0, "disconnected": 0}
    for spec in ALL_INTEGRAL_SPECS:
        g = construct(spec)
        for k in range(9):
            s = None
            while s is None:
                s = _random_symmetric_set(g, k, rng)
            ok, rep = is_integral_cayley(g, s)
            assert ok, (spec, s)
            assert rep == rank_spectrum(g, s), (spec, s)
            deflated = IntPolynomial((1,))
            for lam, m in rep.eigenvalues:
                deflated = deflated * IntPolynomial((-lam, 1)) ** m
            assert newton_char_poly(cayley_rows(g, s)) == deflated, (spec, s)
            seen["connected" if rep.index == 1 else "disconnected"] += 1
    assert min(seen.values()) > 0, seen


def _step_by_definition(g, s, v, lam):
    """(sigma - lam) * v: w[a*x] += v[x] for each a in S, then w -= lam*v."""
    w = [0] * g.order
    for x in range(g.order):
        for a in s:
            w[g.table[a][x]] += v[x]
    return [wx - lam * vx for wx, vx in zip(w, v)]


def _relabelled_dihedral_24():
    doc, _new = relabelled_document(construct("dihedral:24"), random.Random(24))
    h = from_table(doc)
    assert h.identity != 0
    return h


@pytest.mark.parametrize("make", [
    lambda: construct("cyclic:1"),
    lambda: construct("dihedral:24"),
    _relabelled_dihedral_24,
], ids=["cyclic:1", "dihedral:24", "relabelled dihedral:24"])
def test_sigma_step_matches_its_definition(make):
    g = make()
    rng = random.Random(f"sigma step {g.order} {g.identity}")
    sets = [()]
    for size in range(1, min(g.order, 9)):
        s = _random_symmetric_set(g, size, rng)
        if s is not None:
            sets.append(s)
    seen = {"sparse": 0, "dense": 0, "negative": 0, "multi-word": 0}
    for s in sets:
        rows = [g.table[a] for a in s]
        k = len(s)
        for lam in range(-k, k + 1):
            for support in (min(3, g.order), g.order):
                v = [0] * g.order
                for x in rng.sample(range(g.order), support):
                    size = rng.choice((rng.randrange(1, 10), rng.getrandbits(200)))
                    v[x] = rng.choice((1, -1)) * size
                assert _sigma_step(rows, v, lam) == _step_by_definition(g, s, v, lam), (s, lam)
                seen["sparse" if 2 * support < g.order else "dense"] += 1
                seen["negative"] += min(v) < 0
                seen["multi-word"] += max(map(abs, v)) >= 2**64
    if g.order > 1:
        assert min(seen.values()) > 0, seen


def test_char_poly_matches_newton_on_non_integral_sets_of_valency_4_to_8():
    # The shapes of the benchmark's non-integral spectrum reports, on both
    # row-sum kernels of char_poly. A disconnected set is drawn inside the
    # subgroup that two random elements generate; SL(2,3) has none that is
    # non-integral (its proper subgroups are Q8 and cyclic).
    assert 4 < _SUM_FROM <= 8
    rng = random.Random(2001)
    seen = {"connected": 0, "disconnected": 0}
    for spec in ("dihedral:24", "sym:4", "sl:2:3", "dihedral:32", "cyclic:8 x cyclic:4"):
        g = construct(spec)
        for k in range(4, 9):
            for connected in (True, False):
                for _ in range(100):
                    within = None if connected else closure(g, rng.sample(range(g.order), 2))
                    s = _random_symmetric_set(g, k, rng, within)
                    if (s is not None and not is_integral(g, s)
                            and (len(closure(g, s)) == g.order) == connected):
                        break
                else:
                    continue
                index = g.order // len(closure(g, s))
                assert char_poly(g, s) ** index == newton_char_poly(cayley_rows(g, s)), (spec, s)
                seen["connected" if connected else "disconnected"] += 1
    assert seen["connected"] == 25 and seen["disconnected"] >= 10, seen


def test_walk_multiplicities_refuse_a_non_integral_spectrum():
    # The 5-cycle's eigenvalues 2cos(2*pi*j/5) are not all integers, so the
    # walk counts have no solution in multiplicities of -2..2.
    at_e, ok = _walk(cyclic(5), (1, 4))
    assert not ok
    with pytest.raises(AssertionError, match="closed walks give no multiplicity"):
        _multiplicities(5, at_e)


def test_only_non_integral_reports_compute_characteristic_polynomials(monkeypatch, capsys):
    class Refused(Exception):
        pass

    def refuse(_g, _s):
        raise Refused

    monkeypatch.setattr(integra.spectra, "char_poly", refuse)
    assert main(["spectrum", "--spec", "quaternion x cyclic:2", "--set-indices", "1,2,12", "--json"]) == 0
    assert '"integral": true' in capsys.readouterr().out
    with pytest.raises(Refused):
        main(["spectrum", "--spec", "dihedral:8", "--set-words", "a^2,a^3*b,b", "--json"])


def test_order_432_valency_9_report_matches_character_sums():
    # The Faddeev-LeVerrier report took over a minute on this set.
    g = construct("cyclic:6 x cyclic:6 x cyclic:6 x cyclic:2")
    s = (1, 2, 10, 12, 60, 72, 84, 360, 420)
    ok, rep = is_integral_cayley(g, s)
    assert ok and rep.index == 1 and rep.residual == IntPolynomial((1,))
    assert dict(rep.eigenvalues) == oracle_spectrum(g, s)
    n, k = g.order, len(s)
    assert sum(m for _lam, m in rep.eigenvalues) == n
    assert sum(m * lam for lam, m in rep.eigenvalues) == 0
    assert sum(m * lam * lam for lam, m in rep.eigenvalues) == n * k


def test_integral_report_reuses_the_verdict_walk(monkeypatch):
    # 2k+1 steps of sigma in all (the verdict's), and no polynomial division.
    g = construct("cyclic:6 x cyclic:6 x cyclic:6 x cyclic:2")
    s = (1, 2, 10, 12, 60, 72, 84, 360, 420)
    step = integra.spectra._sigma_step
    calls = []

    def counted(*args):
        calls.append(None)
        return step(*args)

    def refuse(*_args):
        raise AssertionError("divmod_by called on the integral route")

    monkeypatch.setattr(integra.spectra, "_sigma_step", counted)
    monkeypatch.setattr(IntPolynomial, "divmod_by", refuse)
    ok, rep = is_integral_cayley(g, s)
    assert ok and rep.index == 1
    assert len(calls) == 2 * len(s) + 1 == 19


@pytest.mark.parametrize(
    "spec, word",
    [
        ("sym:4", "c"),
        ("dic(cyclic:6)", "a"),
        ("sym:5", "c"),
        ("cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2 x cyclic:3", "e"),
    ],
)
def test_complete_multipartite_reports_match_the_closed_form(spec, word):
    # S = G minus a subgroup H makes the complete multipartite graph with
    # n/|H| parts of size |H|: eigenvalues n - |H|, 0 and -|H|.
    g = construct(spec)
    h = closure(g, (parse_word(g, word),))
    s = tuple(x for x in range(g.order) if x not in h)
    n, m = g.order, len(h)
    ok, rep = is_integral_cayley(g, s)
    assert ok and rep.index == 1 and rep.residual == IntPolynomial((1,))
    expected = {n - m: 1, 0: n - n // m, -m: n // m - 1}
    assert dict(rep.eigenvalues) == {lam: c for lam, c in expected.items() if c}


def _atoms(g):
    """The atoms {x^j : gcd(j, ord x) = 1} partitioning G minus the identity,
    each sorted, in order of least member."""
    atoms, seen = [], {g.identity}
    for x in range(g.order):
        if x not in seen:
            d = g.element_order(x)
            atom = sorted({g.power(x, j) for j in range(1, d) if gcd(j, d) == 1})
            seen.update(atom)
            atoms.append(atom)
    return atoms


@pytest.mark.parametrize("spec", [
    "cyclic:500",
    "cyclic:2 x cyclic:2 x cyclic:5 x cyclic:5 x cyclic:5",
    "cyclic:4 x cyclic:5 x cyclic:25",
    "cyclic:6 x cyclic:6 x cyclic:6",
    "cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2 x cyclic:3 x cyclic:5",
])
def test_walk_verdict_matches_the_atom_criterion(spec):
    # Each drawn set is a union of atoms of valency at most 16. It holds an
    # atom with more than two elements where the group has one, and dropping
    # an inverse pair from that atom leaves a set that is no union of atoms.
    # Z6^3 has exponent 6, so its atoms are inverse pairs or involutions, and
    # every Cayley graph over it is integral. The complement of each set in
    # G minus e, of valency at least n-17, is a union of atoms exactly when
    # the set is, so it has the same verdict.
    g = construct(spec)
    rest = set(range(g.order)) - {g.identity}
    atoms = _atoms(g)
    rng = random.Random(f"atoms {spec}")
    for _ in range(6):
        k = rng.randrange(4, 17)
        big = rng.choice([a for a in atoms if 2 < len(a) <= k]
                         or [a for a in atoms if len(a) == 2])
        union = set(big)
        for atom in rng.sample(atoms, len(atoms)):
            if len(union) + len(atom) <= k and not union & set(atom):
                union.update(atom)
        y = rng.choice(big)
        for s, integral in ((union, True), (union - {y, g.inv[y]}, len(big) == 2)):
            for t in (s, rest - s):
                assert atom_integral(g, t) is integral, (spec, sorted(t))
                assert is_integral(g, t) is integral, (spec, sorted(t))


NORMAL_SET_SPECS = (
    "sym:4", "alt:5", "sl:2:3", "heisenberg:3", "dic(cyclic:10)", "dihedral:20 x cyclic:3",
    "quaternion x cyclic:3", "alt:4 x cyclic:4", "sym:3 x cyclic:8",
)


def _inverse_closed_classes(g):
    """The non-identity conjugacy classes of g, each joined with the class of
    its inverses."""
    t, inv = g.table, g.inv
    seen, pieces = {g.identity}, []
    for x in range(g.order):
        if x not in seen:
            piece = {t[t[inv[c]][y]][c] for y in (x, inv[x]) for c in range(g.order)}
            seen.update(piece)
            pieces.append(sorted(piece))
    return pieces


def test_walk_verdict_on_normal_sets_matches_the_class_rule():
    # Each drawn set is a union of inverse-closed conjugacy classes, of
    # valency at most 40; both verdicts must occur. Its complement in G
    # minus e is such a union too, and is checked alongside.
    rng = random.Random("normal sets")
    verdicts = []
    for spec in NORMAL_SET_SPECS:
        g = construct(spec)
        pieces = _inverse_closed_classes(g)
        drawn = set()
        for _ in range(30):
            s = tuple(sorted(x for piece in pieces if rng.random() < 0.5 for x in piece))
            if s and len(s) <= 40 and s not in drawn:
                drawn.add(s)
                integral = is_integral(g, s)
                assert normal_integral(g, s) is integral, (spec, s)
                verdicts.append(integral)
                complement = tuple(x for x in range(g.order) if x != g.identity and x not in s)
                assert normal_integral(g, complement) is is_integral(g, complement), (spec, complement)
    assert len(verdicts) > 150 and True in verdicts and False in verdicts
    g = construct("sym:3")
    with pytest.raises(ValueError):
        normal_integral(g, (g.gen("s"),))
