import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from reswitch import enumeration, graphs, solver
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
    # k = F = 1: the root is the only configuration
    assert res.evaluated_count == 1
    ref = oracles.brute_force(triangle(), d, 3)
    assert ref.evaluated_count == 2
    assert ref.all_values == pytest.approx({0: 2.0, 1: 2 / 3})


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
    # The reference enumerator with one configuration per batch against
    # every configuration in one batch: the same values, the same optimum,
    # and ties still go to the smallest mask, as in the branch and bound.
    g = graphs.make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (0, 2, 1.0),
                              (0, 2, 1.0)], [0, 1])
    d = np.array([1.0, 0.0, -1.0])
    whole = oracles.brute_force(g, d, 4)
    monkeypatch.setattr(oracles, "BATCH_BYTES", 1)
    single = oracles.brute_force(g, d, 4)
    assert single.all_values == whole.all_values
    assert single.best_phi == whole.best_phi
    assert single.evaluated_count == whole.evaluated_count
    assert_array_equal(single.best_config.sbin, whole.best_config.sbin)
    assert_array_equal(whole.best_config.sbin, [1.0, 1.0, 1.0, 1.0, 0.0])
    res = enumeration.enumerate_optimal(g, d, 4)
    assert_array_equal(res.best_config.sbin, whole.best_config.sbin)


def test_matches_brute_force_reference():
    for seed in range(4):
        g, d = instance(seed, n=6, extra=5, demand="gauss")
        for q in (g.n - 1, g.n, g.m):
            res = enumeration.enumerate_optimal(g, d, q)
            s_ref, phi_ref = oracles.best_binary(g, d, q)
            assert res.best_phi == pytest.approx(phi_ref, abs=1e-11)
            assert_array_equal(res.best_config.sbin, s_ref)


def test_evaluated_count_is_budget_filtered():
    # the reference enumerator evaluates every configuration within the budget
    from math import comb
    g, d = instance(5, n=6, extra=6)
    head = 2
    res = oracles.brute_force(g, d, (g.n - 1) + head)
    free = g.m - (g.n - 1)
    assert res.evaluated_count == sum(comb(free, k) for k in range(head + 1))


def test_demand_is_checked_once_per_search(monkeypatch):
    # enumerate_optimal checks d once; its node solves take it as checked.
    calls = []
    checked = solver._checked_demand
    monkeypatch.setattr(solver, "_checked_demand",
                        lambda d, n: calls.append(n) or checked(d, n))
    g, d = instance(8, n=8, extra=7, demand="gauss")
    res = enumeration.enumerate_optimal(g, d, g.n + 2)
    assert res.evaluated_count > 1
    assert len(calls) == 1


def test_best_phi_is_monotone_in_budget():
    g, d = instance(7, n=7, extra=6)
    values = [enumeration.enumerate_optimal(g, d, q).best_phi
              for q in range(g.n - 1, g.m + 1)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_all_values_dropped_past_the_cap():
    # 17 free parallel edges stay under the reference enumerator's cap but
    # over its value-retention cap
    edges = [(0, 1, 1.0), (1, 2, 1.0)] + [(0, 2, 1.0)] * 17
    g = graphs.make_graph(3, edges, [0, 1])
    d = np.array([1.0, 0.0, -1.0])
    res = oracles.brute_force(g, d, g.m)
    assert res.all_values is None
    assert res.evaluated_count == 1 << 17
    assert res.best_phi == pytest.approx(1.0 / (0.5 + 17.0))


def test_free_edge_cap():
    # the reference enumerator refuses 23 free edges; the branch and bound
    # closes them all, its only configuration, at once
    edges = [(0, 1, 1.0)] + [(0, 1, 1.0)] * 23
    g = graphs.make_graph(2, edges, [0])
    d = np.array([1.0, -1.0])
    with pytest.raises(CapExceededError):
        oracles.brute_force(g, d, g.m)
    res = enumeration.enumerate_optimal(g, d, g.m)
    assert res.evaluated_count == 1
    assert res.best_phi == pytest.approx(1.0 / 24.0)


def test_zero_demand_returns_the_smallest_mask_at_once():
    # phi is 0 everywhere, so every configuration ties; 16 free edges would
    # take the whole tree, far past the node cap, without the shortcut
    g, _ = instance(12, n=10, extra=16)
    t_size = g.n - 1
    res = enumeration.enumerate_optimal(g, np.zeros(g.n), t_size + 8)
    assert res.best_phi == 0.0
    assert res.evaluated_count == 1
    assert oracles.mask_of(g, res.best_config.sbin) == (1 << 8) - 1


def test_node_cap():
    # 24 identical parallel free edges beside one backbone edge, q = |T| + 12:
    # every configuration that closes 12 of them ties, and so does the
    # relaxation, so no bound ever prunes and the search tree is complete
    g = graphs.make_graph(2, [(0, 1, 1.0)] * 25, [0])
    with pytest.raises(CapExceededError, match="node cap"):
        enumeration.enumerate_optimal(g, np.array([1.0, -1.0]), 1 + 12)


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
    got = oracles.exact_phi_all(g, d, [graphs.Configuration(sbin=c) for c in configs])
    want = [oracles.phi(g, c, d) for c in configs]
    assert_allclose(got, want, rtol=1e-10)
    assert_allclose(oracles.exact_phi_all(g, d, configs), want, rtol=1e-10)


def test_ties_go_to_the_smallest_mask_that_closes_exactly_k():
    # Node 2 hangs off node 1 and the demand runs 0 -> 1, so free edges 0
    # and 1 (both 1-2) carry no current. Closing free edge 2 alone, or with
    # either of them, gives phi = 1/2. The leaves close exactly k = 2 edges,
    # and of the tied masks 0b101 and 0b110 the smaller wins.
    edges = [(0, 1, 1.0), (1, 2, 1.0), (1, 2, 1.0), (1, 2, 1.0), (0, 1, 1.0)]
    g = graphs.make_graph(3, edges, [0, 1])
    d = np.array([1.0, -1.0, 0.0])
    res = enumeration.enumerate_optimal(g, d, 4)
    assert res.best_phi == pytest.approx(0.5, rel=1e-14)
    assert_array_equal(res.best_config.sbin, [1.0, 1.0, 1.0, 0.0, 1.0])
    # the reference, over at most k edges, may pick 0b100, which closes one
    ref = oracles.brute_force(g, d, 4)
    assert ref.all_values[0b100] == pytest.approx(ref.all_values[0b101], rel=1e-14)
    assert ref.all_values[0b110] == ref.all_values[0b101]


def oracle_choice(values, free, k):
    """The reference optimum under the branch and bound's rule.

    values maps every bitmask over `free` free edges to its phi. Returns the
    smallest bitmask, among those that close exactly k free edges, whose phi
    ties the least such phi within the tie margin, and that least phi.
    """
    exact = {m: v for m, v in values.items() if bin(m).count("1") == k}
    low = min(exact.values())
    return min(m for m, v in exact.items() if v <= low * (1 + enumeration.TIE_RTOL)), low


def test_matches_oracle_on_random_instances():
    # 200 instances of at most 12 free edges, pair and Gaussian demands,
    # simple graphs and multigraphs, every budget from |T| to m.
    rng = np.random.default_rng(2024)
    budgets = 0
    for k in range(200):
        n = int(rng.integers(3, 9))
        g, d = oracles.random_instance(rng, n, int(rng.integers(1, 13)),
                                       multigraph=bool(k % 2),
                                       demand=("pair", "gauss")[k % 4 >= 2])
        t_size = g.n - 1
        free = g.m - t_size
        assert free <= 12
        # at q = m the reference evaluates every configuration
        values = oracles.brute_force(g, d, g.m).all_values
        for q in range(t_size, g.m + 1):
            res = enumeration.enumerate_optimal(g, d, q)
            mask, low = oracle_choice(values, free, q - t_size)
            assert oracles.mask_of(g, res.best_config.sbin) == mask, (k, q)
            assert abs(res.best_phi - low) <= 1e-12 * low, (k, q)
            budgets += 1
    assert budgets > 1000
