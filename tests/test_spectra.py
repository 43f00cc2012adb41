"""Exact spectrum computation tests."""

import random

import pytest
from oracles import eigen_multiplicity, rank_spectrum

from integra.groups import catalog_groups, closure, construct, cyclic
from integra.polys import IntPolynomial
from integra.spectra import (
    cayley_adjacency,
    char_poly,
    integral_spectrum,
    is_integral_cayley,
    report_to_dict,
    validate_connection_set,
)
from integra.symsets import enumerate_symmetric_sets


def _cycle(n):
    """The n-cycle as Cay(Z_n, {1, n-1})."""
    return cayley_adjacency(cyclic(n), (1, n - 1))


def _k4():
    return cayley_adjacency(cyclic(4), (1, 2, 3))


def test_char_poly_small_graphs():
    assert char_poly(_cycle(4)).coeffs == (0, 0, -4, 0, 1)
    assert char_poly(_k4()).coeffs == (-3, -8, -6, 0, 1)


def test_eigen_multiplicity():
    c4 = _cycle(4)
    assert eigen_multiplicity(c4, 0) == 2
    assert eigen_multiplicity(c4, 2) == 1
    assert eigen_multiplicity(c4, 1) == 0
    assert eigen_multiplicity(_k4(), -1) == 3


def test_cycle_six_spectrum():
    rep = integral_spectrum(_cycle(6))
    assert rep.integral
    assert rep.eigenvalues == ((2, 1), (1, 2), (-1, 2), (-2, 1))
    assert rep.residual == IntPolynomial.one()


def test_cycle_five_residual():
    rep = integral_spectrum(_cycle(5))
    assert not rep.integral
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


def test_two_routes_agree_on_catalog_cubic_sets():
    for _name, g in catalog_groups():
        for s in enumerate_symmetric_sets(g, 3):
            adj = cayley_adjacency(g, s)
            assert integral_spectrum(adj) == rank_spectrum(adj)


def test_disconnected_set_lifts_by_index():
    g = cyclic(12)
    ok, rep = is_integral_cayley(g, (3, 9))
    assert ok
    assert rep.subgroup_order == 4
    assert rep.index == 3
    assert rep.components == 3
    assert rep.eigenvalues == ((2, 3), (0, 6), (-2, 3))
    sub_rep = rep.sub
    assert sub_rep is not None
    assert sub_rep.eigenvalues == ((2, 1), (0, 2), (-2, 1))


def test_charpoly_power_rule():
    g = cyclic(12)
    s = (3, 9)
    cp = char_poly(cayley_adjacency(g, s))
    sub = closure(g, s)
    pos = {parent: i for i, parent in enumerate(sub.embed)}
    s_h = tuple(sorted(pos[x] for x in s))
    cp_sub = char_poly(cayley_adjacency(sub.group, s_h))
    assert cp == cp_sub ** 3


def test_report_dict_shape():
    g = construct("dihedral:8")
    _ok, rep = is_integral_cayley(g, (2, 3, 5))
    doc = report_to_dict(rep)
    assert set(doc) == {
        "n", "degree", "integral", "eigenvalues", "residual",
        "components", "subgroup_order", "index",
    }
    assert doc["integral"] is False
    assert doc["residual"] == [1, -4, 2, 4, 1]


def test_random_regular_graphs_consistency():
    rng = random.Random(11)
    groups = [g for _name, g in catalog_groups() if g.order <= 12]
    for _ in range(40):
        g = rng.choice(groups)
        sets = list(enumerate_symmetric_sets(g, rng.randrange(1, 5), mode="at_most"))
        if not sets:
            continue
        s = sets[rng.randrange(len(sets))]
        adj = cayley_adjacency(g, s)
        assert integral_spectrum(adj) == rank_spectrum(adj)
        cp = char_poly(adj)
        n, k = adj.n, adj.degree
        assert cp.coeffs[n] == 1
        assert cp.coeffs[n - 1] == 0
        if n >= 2:
            assert -2 * cp.coeffs[n - 2] == k * n
