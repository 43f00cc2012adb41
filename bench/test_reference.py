"""Tests of the benchmark's reference route against closed forms.

    python3 -m pytest bench/test_reference.py     (or: python3 bench/test_reference.py)
"""

from __future__ import annotations

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402


def _dickson(n: int) -> list[int]:
    """2*T_n(x/2): D_0 = 2, D_1 = x, D_n = x*D_(n-1) - D_(n-2), ascending coefficients."""
    prev, cur = [2], [0, 1]
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def test_cycles_match_dickson_polynomials():
    # det(xI - A(C_n)) = prod_j (x - 2cos(2 pi j / n)) = D_n(x) - 2.
    for n in range(3, 15):
        want = _dickson(n)
        want[0] -= 2
        assert ref.char_poly(ref.build(ref.cyclic(n)), [1, n - 1]) == want


def test_complete_graphs():
    # K_n = Cay(Z_n, Z_n minus 0) has spectrum n-1 once and -1 with multiplicity n-1.
    for n in range(2, 10):
        want = ref.product_of_roots([(n - 1, 1), (-1, n - 1)])
        assert ref.char_poly(ref.build(ref.cyclic(n)), list(range(1, n))) == want


def test_hypercubes():
    # Q_d = Cay(Z2^d, basis) has eigenvalue d - 2i with multiplicity C(d, i).
    for d in range(1, 6):
        g = ref.build(ref.direct(*[ref.cyclic(2)] * d))
        basis = _basis(g, d)
        want = ref.product_of_roots([(d - 2 * i, math.comb(d, i)) for i in range(d + 1)])
        assert ref.char_poly(g, basis) == want
        mults, residual = ref.integer_spectrum(want, d)
        assert residual == [1] and mults == {d - 2 * i: math.comb(d, i) for i in range(d + 1)}


def _basis(g: ref.Group, d: int) -> list[int]:
    """The d unit vectors of Z2^d; the builder numbers them 1..d."""
    basis = list(range(1, d + 1))
    assert len(ref.closure_members(g, basis)) == 2**d
    return basis


def test_valency_two_closed_form_agrees_with_newton():
    for rule in (ref.dihedral(24), ref.symmetric(4), ref.direct(ref.cyclic(8), ref.cyclic(3))):
        g = ref.build(rule)
        sets = [tuple(sorted(p)) for p in g.inverse_pairs()]
        invols = g.involutions()
        sets += [(a, b) for i, a in enumerate(invols) for b in invols[i + 1 :]]
        for s in sets:
            _mults, residual = ref.integer_spectrum(ref.char_poly(g, s), 2)
            assert ref.valency2_integral(g, s) == (residual == [1]), s


def test_set_counts():
    # Dic(Z3 x Z6) has one involution and 17 inverse pairs: 307 sets of size <= 5.
    assert ref.symmetric_set_count(ref.build(ref.dicyclic((3, 6), (0, 3))), 5) == 307
    q8z2 = ref.build(ref.direct(ref.quaternion(), ref.cyclic(2)))
    assert ref.symmetric_set_count(q8z2, 15) == 511


def test_group_axioms_reject_a_switched_subsquare():
    g = ref.build(ref.dihedral(12))
    ref.check_group_axioms(g)
    t = g.involutions()[0]
    x, v = [y for y in range(1, g.order) if y != t][:2]
    xt, tv = g.table[x][t], g.table[t][v]
    table = [list(row) for row in g.table]
    a, b = table[x][v], table[x][tv]
    table[x][v], table[x][tv], table[xt][v], table[xt][tv] = b, a, a, b
    assert ref.associativity_witness(table, range(g.order)) is not None


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"{name}: ok")
