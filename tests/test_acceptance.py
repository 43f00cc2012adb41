"""Acceptance suite: one test and one printed verdict line per criterion."""

import json
import math
import random
import sys
import time

import conftest
from oracles import cayley_rows, newton_char_poly, oracle_integral, oracle_spectrum, rank_spectrum

from integra.cli import main as cli_main
from integra.groups import catalog_groups, construct, cyclic, is_abelian
from integra.spectra import char_poly, is_integral_cayley
from integra.symsets import count_symmetric_sets, enumerate_symmetric_sets
from integra.verify import run_claim


def _report(cid: str, ok: bool) -> None:
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}"
    conftest.VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


def _accept(cid: str, budget: float, run):
    """Run one criterion, print its ACCEPTANCE line and assert its budget.

    run asserts the criterion. It returns the claim results it checked,
    whose own elapsed seconds the budget bounds, or None, and then its wall
    time is bounded. The line reads PASS only when run returned within the
    budget. Returns what run returned."""
    start = time.monotonic()
    ok = False
    try:
        results = run()
        if results is None:
            seconds = time.monotonic() - start
        else:
            seconds = sum(r.elapsed for r in results)
        ok = seconds < budget
    finally:
        _report(cid, ok)
    assert seconds < budget, (cid, seconds)
    return results


def _claims(*ids):
    """Run the claims and assert that each passed."""
    results = [run_claim(cid) for cid in ids]
    assert all(r.passed for r in results), ids
    return results


def _random_sets(seed: int, pool, below: int, count: int):
    """count draws of a group g from pool and a symmetric set of g, of a
    size k in 1..min(below, |g|) - 1, each uniform over its choices; a draw
    whose size has no set is drawn again."""
    rng = random.Random(seed)
    sets_of = {}
    draws = []
    while len(draws) < count:
        i = rng.randrange(len(pool))
        g = pool[i]
        k = rng.randrange(1, min(below, g.order))
        if (i, k) not in sets_of:
            sets_of[i, k] = list(enumerate_symmetric_sets(g, k))
        sets = sets_of[i, k]
        if sets:
            draws.append((g, sets[rng.randrange(len(sets))]))
    return draws


def test_c1_cycle_integrality_under_one_second():
    _accept("C1", 1.0, lambda: _claims("C1"))


def test_c2_c3_dihedral_witnesses_under_one_second():
    r2, r3 = _accept("C2/C3", 1.0, lambda: _claims("C2", "C3"))
    assert r2.evidence["divides"] and r3.evidence["divides"]


def test_c4_alternating_cubic_sets_under_one_second():
    (res,) = _accept("C4", 1.0, lambda: _claims("C4"))
    assert res.evidence["sets_checked"] == 13


def test_c6_c7_c16_structural_agreement_under_thirty_seconds():
    _accept("C6/C7/C16", 30.0, lambda: _claims("C6", "C7", "C16"))


def test_c9_to_c12_witnesses_under_five_seconds():
    _accept("C9-C12", 5.0, lambda: _claims("C9", "C10", "C11", "C12"))


def test_c13_dicyclic_boundary_under_sixty_seconds():
    (res,) = _accept("C13", 60.0, lambda: _claims("C13"))
    # 307 nonempty sets plus the trivially integral empty set make 308
    assert res.evidence["g5_sets_checked"] == 307
    assert res.evidence["empty_set_integral"] is True
    assert res.evidence["g6_witness_integral"] is False


def test_c14_fully_integral_groups_under_sixty_seconds():
    (res,) = _accept("C14", 60.0, lambda: _claims("C14"))
    assert res.evidence["groups"]["Q8xZ2"]["sets_checked"] == 511


def _random_pool():
    specs = (
        "cyclic:5", "cyclic:7", "cyclic:12", "dihedral:16",
        "cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2", "dic(cyclic:6)",
    )
    pool = [g for _name, g in catalog_groups() if g.order <= 16]
    pool.extend(construct(s) for s in specs)
    return pool


def test_property_dual_oracle_on_random_sets():
    def run():
        draws = _random_sets(20260822, _random_pool(), 7, 500)
        assert len(draws) >= 500
        for g, s in draws:
            assert is_integral_cayley(g, s)[1] == rank_spectrum(g, s)

    _accept("property-a", 60.0, run)


def test_property_charpoly_power_rule():
    def run():
        pool = [
            construct(s)
            for s in (
                "cyclic:12", "cyclic:2 x cyclic:6", "dihedral:12", "sym:4",
                "quaternion x cyclic:2", "alt:4", "cyclic:2 x cyclic:2 x cyclic:4",
            )
        ]
        # Every group here has order above 4, so each size is drawn from 1..3.
        draws = _random_sets(1729, pool, 4, 100)
        assert len(draws) >= 100
        for g, s in draws:
            cp_sub = char_poly(g, s)
            index = g.order // cp_sub.degree
            assert newton_char_poly(cayley_rows(g, s)) == cp_sub ** index

    _accept("property-b", 60.0, run)


def test_property_trace_identities():
    def run():
        spectra = 0
        for _name, g in catalog_groups():
            sets = [s for k in (1, 2) for s in enumerate_symmetric_sets(g, k)]
            sets.extend(list(enumerate_symmetric_sets(g, 3))[:5])
            for s in sets:
                _ok, rep = is_integral_cayley(g, s)
                assert rep == rank_spectrum(g, s)
                cp = char_poly(g, s) ** rep.index
                n, k = g.order, len(s)
                assert cp.coeffs[n] == 1
                assert cp.coeffs[n - 1] == 0
                assert -2 * cp.coeffs[n - 2] == k * n
                if rep.integral:
                    assert sum(v * m for v, m in rep.eigenvalues) == 0
                    assert sum(v * v * m for v, m in rep.eigenvalues) == k * n
                spectra += 1
        assert spectra > 0

    _accept("property-c", 60.0, run)


def test_property_character_sum_cross_check():
    def run():
        pool = [g for _name, g in catalog_groups() if is_abelian(g)]
        pool.extend(cyclic(n) for n in range(3, 13))
        pool.append(construct("cyclic:2 x cyclic:8"))
        draws = _random_sets(8128, pool, 6, 200)
        assert len(draws) >= 200
        for g, s in draws:
            exact_ok, rep = is_integral_cayley(g, s)
            assert exact_ok == oracle_integral(g, s)
            if exact_ok:
                assert {v: m for v, m in rep.eigenvalues} == oracle_spectrum(g, s)

    _accept("property-d", 60.0, run)


def test_property_counts_match_binomial_formula():
    def run():
        for name, g in catalog_groups():
            ninv = sum(g.inv[x] == x != g.identity for x in range(g.order))
            npair = (g.order - 1 - ninv) // 2
            for k in range(1, 7):
                formula = sum(
                    math.comb(ninv, a) * math.comb(npair, (k - a) // 2)
                    for a in range(k % 2, min(ninv, k) + 1, 2)
                )
                assert count_symmetric_sets(g, k) == formula, (name, k)
                assert len(list(enumerate_symmetric_sets(g, k))) == formula, (name, k)

    _accept("property-e", 60.0, run)


def test_determinism_of_full_verify_runs(capsys):
    code1 = cli_main(["verify", "--all", "--json"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["verify", "--all", "--json"])
    out2 = capsys.readouterr().out
    rows = json.loads(out1)
    ok = code1 == code2 == 0 and out1 == out2 and len(rows) == 17
    _report("determinism", ok)
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert len(rows) == 17
    assert all(r["passed"] for r in rows)
