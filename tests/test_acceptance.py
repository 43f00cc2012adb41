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


def _run(cid: str, budget: float):
    res = run_claim(cid)
    return res, res.passed and res.elapsed < budget


def test_c1_cycle_integrality_under_one_second():
    res, ok = _run("C1", 1.0)
    _report("C1", ok)
    assert res.passed
    assert res.elapsed < 1.0


def test_c2_c3_dihedral_witnesses_under_one_second():
    r2 = run_claim("C2")
    r3 = run_claim("C3")
    ok = r2.passed and r3.passed and (r2.elapsed + r3.elapsed) < 1.0
    _report("C2/C3", ok)
    assert r2.passed and r3.passed
    assert r2.evidence["divides"] and r3.evidence["divides"]
    assert r2.elapsed + r3.elapsed < 1.0


def test_c4_alternating_cubic_sets_under_one_second():
    res, ok = _run("C4", 1.0)
    _report("C4", ok)
    assert res.passed
    assert res.evidence["sets_checked"] == 13
    assert res.elapsed < 1.0


def test_c6_c7_c16_structural_agreement_under_thirty_seconds():
    total = 0.0
    results = []
    for cid in ("C6", "C7", "C16"):
        res = run_claim(cid)
        results.append(res)
        total += res.elapsed
    ok = all(r.passed for r in results) and total < 30.0
    _report("C6/C7/C16", ok)
    assert all(r.passed for r in results)
    assert total < 30.0


def test_c9_to_c12_witnesses_under_five_seconds():
    total = 0.0
    results = []
    for cid in ("C9", "C10", "C11", "C12"):
        res = run_claim(cid)
        results.append(res)
        total += res.elapsed
    ok = all(r.passed for r in results) and total < 5.0
    _report("C9-C12", ok)
    assert all(r.passed for r in results)
    assert total < 5.0


def test_c13_dicyclic_boundary_under_sixty_seconds():
    res, ok = _run("C13", 60.0)
    _report("C13", ok)
    assert res.passed
    # 307 nonempty sets plus the trivially integral empty set make 308
    assert res.evidence["g5_sets_checked"] == 307
    assert res.evidence["empty_set_integral"] is True
    assert res.evidence["g6_witness_integral"] is False
    assert res.elapsed < 60.0


def test_c14_fully_integral_groups_under_sixty_seconds():
    res, ok = _run("C14", 60.0)
    _report("C14", ok)
    assert res.passed
    assert res.evidence["groups"]["Q8xZ2"]["sets_checked"] == 511
    assert res.elapsed < 60.0


def _random_pool():
    specs = (
        "cyclic:5", "cyclic:7", "cyclic:12", "dihedral:16",
        "cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2", "dic(cyclic:6)",
    )
    pool = [g for _name, g in catalog_groups() if g.order <= 16]
    pool.extend(construct(s) for s in specs)
    return pool


def test_property_dual_oracle_on_random_sets():
    start = time.monotonic()
    rng = random.Random(20260822)
    pool = _random_pool()
    cache = {}
    checked = 0
    while checked < 500:
        g = pool[rng.randrange(len(pool))]
        k = rng.randrange(1, min(7, g.order))
        key = (id(g), k)
        if key not in cache:
            cache[key] = list(enumerate_symmetric_sets(g, k))
        sets = cache[key]
        if not sets:
            continue
        s = sets[rng.randrange(len(sets))]
        assert is_integral_cayley(g, s)[1] == rank_spectrum(g, s)
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked >= 500 and elapsed < 60.0
    _report("property-a", ok)
    assert checked >= 500
    assert elapsed < 60.0


def test_property_charpoly_power_rule():
    start = time.monotonic()
    rng = random.Random(1729)
    pool = [
        construct(s)
        for s in (
            "cyclic:12", "cyclic:2 x cyclic:6", "dihedral:12", "sym:4",
            "quaternion x cyclic:2", "alt:4", "cyclic:2 x cyclic:2 x cyclic:4",
        )
    ]
    cache = {}
    checked = 0
    while checked < 100:
        g = pool[rng.randrange(len(pool))]
        k = rng.randrange(1, 4)
        key = (id(g), k)
        if key not in cache:
            cache[key] = list(enumerate_symmetric_sets(g, k))
        sets = cache[key]
        if not sets:
            continue
        s = sets[rng.randrange(len(sets))]
        cp_sub = char_poly(g, s)
        index = g.order // cp_sub.degree
        assert newton_char_poly(cayley_rows(g, s)) == cp_sub ** index
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked >= 100 and elapsed < 60.0
    _report("property-b", ok)
    assert checked >= 100
    assert elapsed < 60.0


def test_property_trace_identities():
    start = time.monotonic()
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
    elapsed = time.monotonic() - start
    ok = spectra > 0 and elapsed < 60.0
    _report("property-c", ok)
    assert spectra > 0
    assert elapsed < 60.0


def test_property_character_sum_cross_check():
    start = time.monotonic()
    rng = random.Random(8128)
    pool = [g for _name, g in catalog_groups() if is_abelian(g)]
    pool.extend(cyclic(n) for n in range(3, 13))
    pool.append(construct("cyclic:2 x cyclic:8"))
    cache = {}
    checked = 0
    while checked < 200:
        g = pool[rng.randrange(len(pool))]
        k = rng.randrange(1, min(6, g.order))
        key = (id(g), k)
        if key not in cache:
            cache[key] = list(enumerate_symmetric_sets(g, k))
        sets = cache[key]
        if not sets:
            continue
        s = sets[rng.randrange(len(sets))]
        exact_ok, rep = is_integral_cayley(g, s)
        assert exact_ok == oracle_integral(g, s)
        if exact_ok:
            assert {v: m for v, m in rep.eigenvalues} == oracle_spectrum(g, s)
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked >= 200 and elapsed < 60.0
    _report("property-d", ok)
    assert checked >= 200
    assert elapsed < 60.0


def test_property_counts_match_binomial_formula():
    start = time.monotonic()
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
    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    _report("property-e", ok)
    assert elapsed < 60.0


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
