import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from reswitch import cli, enumeration, graphs, solver
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


def dense_node_solve(g, search, sf):
    """phi and free-edge gradient at free-edge values sf on the search's
    demand, from one n x n solve of the dense kernel: the node solve the
    search made before it solved in the free-edge space."""
    s = g.backbone_indicator()
    s[search.free] = sf
    x = solver._grounded_solve(graphs.assemble_laplacian_dense(g, s), search.d[:, None])[:, 0]
    delta = x[g.ei[search.free]] - x[g.ej[search.free]]
    return float(search.d @ x), -search.w * delta ** 2


def test_free_edge_solve_matches_the_dense_kernel():
    # A CLI instance; a chord ring on a path backbone, where the backbone's
    # phi is many times the switched one's, so phi = phi_B - (C^1/2 b)^T z
    # cancels most of its digits; and a backbone with a cycle beside a free
    # edge parallel to a backbone edge. Free values include exact 0 and 1.
    cycle = graphs.make_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5), (2, 3, 1.0),
                                  (2, 3, 1.5), (0, 3, 0.7), (1, 3, 1.2)], [0, 1, 2, 3])
    cases = [cli.generate_instance(30, 16, 3), oracles.chord_ring(300, 1),
             (cycle, np.array([1.0, -0.5, 0.25, -0.75]))]
    rng = np.random.default_rng(5)
    for g, d in cases:
        search = enumeration._Search(g, graphs.check_demand(g, d), 1)
        F = len(search.free)
        ratios = []
        for _ in range(20):
            sf = rng.random(F)
            sf[rng.random(F) < 0.3] = 0.0
            sf[rng.random(F) < 0.3] = 1.0
            phi, grad = search.solve(sf)
            phi_ref, grad_ref = dense_node_solve(g, search, sf)
            assert phi == pytest.approx(phi_ref, rel=1e-12, abs=0), g.n
            assert_allclose(grad, grad_ref, rtol=0, atol=1e-12 * np.abs(grad_ref).max())
            ratios.append(search.phi_B / phi_ref)
        if g.n == 300:
            assert max(ratios) > 10


def test_no_free_edge_or_none_to_close_gives_the_backbone():
    # F = 0 (every edge in the backbone, or one node and no edge, whose
    # grounded block is empty) and k = 0 (q = |T|): the backbone is the
    # only configuration, the root its only node, and best_phi the dense
    # kernel's.
    path = graphs.make_graph(3, [(0, 1, 1.0), (1, 2, 2.0)], [0, 1])
    d_path = np.array([1.0, 0.5, -1.5])
    tree, d_tree = instance(3, n=7, extra=5, demand="gauss")
    node = graphs.make_graph(1, [], [])
    for g, d, q in ((path, d_path, 2), (path, d_path, 5), (tree, d_tree, tree.n - 1),
                    (node, np.zeros(1), 0)):
        res = enumeration.enumerate_optimal(g, d, q)
        s = g.backbone_indicator()
        assert_array_equal(res.best_config.sbin, s)
        L = graphs.assemble_laplacian_dense(g, s)
        assert res.best_phi == float(d @ solver.exact_pinv_apply(L, d))
        assert res.evaluated_count == 1


def test_overflowed_best_phi_is_inf():
    # On the +-1e155 triangle phi overflows; the search runs on the scaled
    # demand and reports inf, with no warning on the way.
    d = np.array([1e155, 0.0, -1e155])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = enumeration.enumerate_optimal(triangle(), d, 3)
    assert res.best_phi == np.inf
    assert_array_equal(res.best_config.sbin, [1.0, 1.0, 1.0])


def test_two_dense_solves_per_search(monkeypatch):
    # The backbone's solve on [d, U] and the best configuration's phi are
    # the only n x n solves; every node solve is F x F.
    shapes = []
    grounded = solver._grounded_solve
    monkeypatch.setattr(solver, "_grounded_solve",
                        lambda L, D: shapes.append(L.shape) or grounded(L, D))
    g, d = cli.generate_instance(30, 16, 1)
    res = enumeration.enumerate_optimal(g, d, cli.default_budget(g))
    assert res.evaluated_count > 10
    assert shapes == [(g.n, g.n)] * 2


def test_matches_the_dense_node_search(monkeypatch):
    # The same search with every node solve an n x n dense solve, as before
    # the free-edge space, picks the same configuration and best_phi.
    for n, extra, seed in ((100, 20, 1), (150, 20, 2), (200, 16, 5)):
        g, d = cli.generate_instance(n, extra, seed)
        q = cli.default_budget(g)
        res = enumeration.enumerate_optimal(g, d, q)
        with monkeypatch.context() as m:
            m.setattr(enumeration._Search, "solve",
                      lambda search, sf: dense_node_solve(g, search, sf))
            ref = enumeration.enumerate_optimal(g, d, q)
        assert_array_equal(res.best_config.sbin, ref.best_config.sbin)
        assert res.best_phi == ref.best_phi
