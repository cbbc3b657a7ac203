import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from reswitch import enumeration, graphs
from reswitch.errors import CapExceededError, InvalidInputError


def triangle():
    return graphs.make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], [0, 1])


def instance(seed, n=7, extra=5, **kw):
    rng = np.random.default_rng(seed)
    return oracles.random_instance(rng, n, extra, **kw)


def test_triangle_closes_the_shortcut():
    d = np.array([1.0, 0.0, -1.0])
    res = enumeration.enumerate_optimal(triangle(), d, 3)
    assert_array_equal(res.best_config.sbin, [1.0, 1.0, 1.0])
    assert res.best_phi == pytest.approx(2 / 3)
    assert res.evaluated_count == 2
    assert res.all_values == pytest.approx({0: 2.0, 1: 2 / 3})


def test_budget_at_backbone_size_leaves_backbone():
    d = np.array([1.0, 0.0, -1.0])
    res = enumeration.enumerate_optimal(triangle(), d, 2)
    assert_array_equal(res.best_config.sbin, [1.0, 1.0, 0.0])
    assert res.best_phi == pytest.approx(2.0)
    assert res.evaluated_count == 1


def test_parallel_pair_budgets():
    g = graphs.make_graph(2, [(0, 1, 1.0), (0, 1, 1.0)], [0])
    d = np.array([1.0, -1.0])
    assert enumeration.enumerate_optimal(g, d, 1).best_phi == pytest.approx(1.0)
    assert enumeration.enumerate_optimal(g, d, 2).best_phi == pytest.approx(0.5)


def test_ties_break_toward_smallest_mask():
    # two interchangeable parallel shortcuts; the lower edge index wins
    g = graphs.make_graph(2, [(0, 1, 1.0), (0, 1, 1.0), (0, 1, 1.0)], [0])
    d = np.array([1.0, -1.0])
    res = enumeration.enumerate_optimal(g, d, 2)
    assert_array_equal(res.best_config.sbin, [1.0, 1.0, 0.0])


def test_batch_size_changes_no_result(monkeypatch):
    # One configuration per batch against every configuration in one batch:
    # the same values, the same optimum, and ties still go to the smallest mask.
    g = graphs.make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (0, 2, 1.0),
                              (0, 2, 1.0)], [0, 1])
    d = np.array([1.0, 0.0, -1.0])
    whole = enumeration.enumerate_optimal(g, d, 4)
    monkeypatch.setattr(enumeration, "BATCH_BYTES", 1)
    single = enumeration.enumerate_optimal(g, d, 4)
    assert single.all_values == whole.all_values
    assert single.best_phi == whole.best_phi
    assert single.evaluated_count == whole.evaluated_count
    assert_array_equal(single.best_config.sbin, whole.best_config.sbin)
    assert_array_equal(whole.best_config.sbin, [1.0, 1.0, 1.0, 1.0, 0.0])


def test_matches_brute_force_reference():
    for seed in range(4):
        g, d = instance(seed, n=6, extra=5, demand="gauss")
        for q in (g.n - 1, g.n, g.m):
            res = enumeration.enumerate_optimal(g, d, q)
            s_ref, phi_ref = oracles.best_binary(g, d, q)
            assert res.best_phi == pytest.approx(phi_ref, abs=1e-11)
            assert_array_equal(res.best_config.sbin, s_ref)


def test_evaluated_count_is_budget_filtered():
    from math import comb
    g, d = instance(5, n=6, extra=6)
    head = 2
    res = enumeration.enumerate_optimal(g, d, (g.n - 1) + head)
    free = g.m - (g.n - 1)
    assert res.evaluated_count == sum(comb(free, k) for k in range(head + 1))


def test_best_voltages_solve_the_network():
    g, d = instance(6, demand="gauss")
    res = enumeration.enumerate_optimal(g, d, g.n + 1)
    x = res.best_config.voltages
    L = graphs.assemble_laplacian_dense(g, res.best_config.sbin)
    assert_allclose(L @ x, d, atol=1e-10)
    assert float(d @ x) == pytest.approx(res.best_phi)


def test_best_phi_is_monotone_in_budget():
    g, d = instance(7, n=7, extra=6)
    values = [enumeration.enumerate_optimal(g, d, q).best_phi
              for q in range(g.n - 1, g.m + 1)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_all_values_dropped_past_the_cap():
    # 17 free parallel edges stay under the enumeration cap but over the
    # value-retention cap
    edges = [(0, 1, 1.0), (1, 2, 1.0)] + [(0, 2, 1.0)] * 17
    g = graphs.make_graph(3, edges, [0, 1])
    d = np.array([1.0, 0.0, -1.0])
    res = enumeration.enumerate_optimal(g, d, g.m)
    assert res.all_values is None
    assert res.evaluated_count == 1 << 17
    assert res.best_phi == pytest.approx(1.0 / (0.5 + 17.0))


def test_free_edge_cap():
    edges = [(0, 1, 1.0)] + [(0, 1, 1.0)] * 23
    g = graphs.make_graph(2, edges, [0])
    with pytest.raises(CapExceededError):
        enumeration.enumerate_optimal(g, np.array([1.0, -1.0]), g.m)


def test_budget_below_backbone_rejected():
    g, d = instance(9)
    with pytest.raises(InvalidInputError):
        enumeration.enumerate_optimal(g, d, g.n - 2)


def test_exact_phi_all_matches_reference():
    g, d = instance(10, demand="gauss")
    rng = np.random.default_rng(11)
    configs = []
    for _ in range(4):
        s = (rng.random(g.m) < 0.6).astype(float)
        s[g.backbone_mask] = 1.0
        configs.append(s)
    got = enumeration.exact_phi_all(g, d, [graphs.Configuration(sbin=c) for c in configs])
    want = [oracles.phi(g, c, d) for c in configs]
    assert_allclose(got, want, rtol=1e-10)
    assert_allclose(enumeration.exact_phi_all(g, d, configs), want, rtol=1e-10)
