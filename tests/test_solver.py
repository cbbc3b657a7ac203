import dataclasses
import functools
import json
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from reswitch import cli, congestion, enumeration, frankwolfe, graphs, solver
from reswitch.errors import InvalidInputError, NumericalError, StructuralError


def instance(seed=0, n=40, extra=30):
    rng = np.random.default_rng(seed)
    g, d = oracles.random_instance(rng, n, extra, demand="gauss")
    s = oracles.random_fractional(rng, g)
    return g, s, d


def rel_energy_error(L, x, x_star):
    e = x - x_star
    num = float(e @ (L @ e))
    den = float(x_star @ (L @ x_star))
    return np.sqrt(max(num, 0.0) / den)


# --- projection and exact paths ---------------------------------------------

@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
@example([398103.4375, 699051.4367228297, 999999.4375])
@example([398103.50753104896, 699051.507531049, 999999.507531049])
def test_project_zero_mean_is_idempotent(vals):
    v = np.array(vals)
    p = solver.project_zero_mean(v)
    assert abs(p.sum()) <= 1e-9 * max(np.abs(v).sum(), 1.0)
    # Re-projecting subtracts the rounding error of a mean over len(v)
    # entries of size up to 2 max|v|, so idempotence holds to round-off at
    # that scale: the pinned examples move by 7.8e-11 and 1.2e-10.
    tol = 4 * len(v) * np.finfo(float).eps * max(np.abs(v).max(), 1.0)
    assert_allclose(solver.project_zero_mean(p), p, rtol=0, atol=tol)


def test_project_zero_mean_is_linear():
    rng = np.random.default_rng(1)
    u, v = rng.normal(size=8), rng.normal(size=8)
    assert_allclose(solver.project_zero_mean(2.0 * u - 3.0 * v),
                    2.0 * solver.project_zero_mean(u) - 3.0 * solver.project_zero_mean(v),
                    atol=1e-12)


def test_pinv_laplacian_matches_numpy():
    g, s, _ = instance(2, n=12, extra=8)
    L = graphs.assemble_laplacian_dense(g, s)
    assert_allclose(solver.pinv_laplacian(L), np.linalg.pinv(L, hermitian=True),
                    atol=1e-10)


def test_pinv_laplacian_rejects_disconnected():
    L = np.zeros((3, 3))
    with pytest.raises(StructuralError):
        solver.pinv_laplacian(L)


def test_exact_pinv_apply_two_node():
    # single edge of weight 2: resistance 1/2, so potentials are +-1/4
    L = np.array([[2.0, -2.0], [-2.0, 2.0]])
    assert_allclose(solver.exact_pinv_apply(L, np.array([1.0, -1.0])),
                    [0.25, -0.25], atol=1e-14)


def test_exact_pinv_apply_requires_zero_sum():
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(InvalidInputError):
        solver.exact_pinv_apply(L, np.array([1.0, 0.0]))


def test_exact_pinv_apply_rejects_disconnected():
    L = np.array([[1.0, -1.0, 0, 0], [-1.0, 1.0, 0, 0],
                  [0, 0, 1.0, -1.0], [0, 0, -1.0, 1.0]])
    d = np.array([1.0, 1.0, -1.0, -1.0])
    # The Cholesky of the grounded block L[1:, 1:] itself fails here,
    # before any residual.
    assert lapack.dposv(L[1:, 1:], d[1:, None])[2] != 0
    with pytest.raises(StructuralError):
        solver.exact_pinv_apply(L, d)


def test_exact_pinv_apply_rejects_a_non_symmetric_matrix():
    # Cholesky reads only the upper triangle, which is a connected
    # Laplacian's, so the factor of the grounded block succeeds; the
    # symmetry check refuses the matrix before any solve.
    g, s, d = instance(4, n=12, extra=8)
    L = graphs.assemble_laplacian_dense(g, s)
    U = np.triu(L)
    assert lapack.dposv(U[1:, 1:], d[1:, None])[2] == 0
    with pytest.raises(StructuralError):
        solver.exact_pinv_apply(U, d)


def test_exact_pinv_apply_scales_a_huge_demand():
    # At +-1e155 the squares of d overflow. The kernel solves on d scaled by
    # a power of two, so it warns of nothing, its x is d's own unscaled
    # solve, bit for bit, and a non-symmetric matrix is still refused.
    L = graphs.assemble_laplacian_dense(oracles.ring(3), np.ones(3))
    d = np.array([1e155, 0.0, -1e155])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solver.exact_pinv_apply(L, d)
    with np.errstate(over="ignore"):
        assert_array_equal(x, solver._grounded_solve(L, d[:, None])[:, 0])
    g, s, d = instance(4, n=12, extra=8)
    with pytest.raises(StructuralError):
        solver.exact_pinv_apply(np.triu(graphs.assemble_laplacian_dense(g, s)), 1e155 * d)


def test_dense_solves_refuse_a_non_square_matrix():
    Ls = np.stack([np.array([[1.0, -1.0], [-1.0, 1.0]])] * 3)
    for L in (Ls, Ls[0, :1]):
        with pytest.raises(InvalidInputError, match="expected \\(n, n\\)"):
            solver.exact_pinv_apply(L, np.array([1.0, -1.0]))
        with pytest.raises(InvalidInputError, match="expected \\(n, n\\)"):
            solver.pinv_laplacian(L)


def test_exact_pinv_apply_zero_demand():
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert_allclose(solver.exact_pinv_apply(L, np.zeros(2)), np.zeros(2))


def test_oracle_stack_solve_matches_exact_pinv_apply():
    # Two factorizations, LU on the stack and Cholesky per matrix, agree
    # only to round-off: 1.7e-14 relative per entry here, at most 2.8e-13
    # on 47 seeds of this instance family.
    g, _, d = instance(3, n=15, extra=10)
    rng = np.random.default_rng(3)
    Ls = np.stack([graphs.assemble_laplacian_dense(g, oracles.random_fractional(rng, g))
                   for _ in range(6)])
    X = oracles.stack_pinv_apply(Ls, d)
    assert X.shape == (6, g.n)
    for L, x in zip(Ls, X):
        assert_allclose(solver.exact_pinv_apply(L, d), x, rtol=1e-10, atol=0)
    assert_allclose(oracles.stack_pinv_apply(Ls, np.zeros(g.n)), np.zeros((6, g.n)))
    # Cutting node 0 off one member disconnects it, which fails the stack.
    Ls[4, 0, 1:] = Ls[4, 1:, 0] = 0.0
    Ls[4][np.diag_indices(g.n)] -= Ls[4].sum(axis=1)
    with pytest.raises(StructuralError):
        oracles.stack_pinv_apply(Ls, d)
    with pytest.raises(StructuralError):
        solver.exact_pinv_apply(Ls[4], d)


# --- units of w --------------------------------------------------------------

@functools.cache
def unit_cases():
    """One instance per solve path, each with its phi at unit scale.

    phi at a fractional s on the dense kernel (CLI, n = 40), Jacobi CG (a
    CLI expander, n = 1,600) and direct CG (a grid comb and a chord ring);
    and the branch and bound's best_phi at n = 30 and n = 100.
    """
    rng = np.random.default_rng(13)
    solves = []
    for (g, d), path in ((cli.generate_instance(40, 30, 3, demand="gauss"), "dense"),
                         (cli.generate_instance(1600, 3200, 1), "jacobi"),
                         (oracles.grid_comb(12, 12, 1), "direct"),
                         (oracles.chord_ring(300, 1), "direct")):
        if path == "dense":
            assert g.n <= solver.SolverConfig.dense_threshold
        else:
            assert g.n > solver.SolverConfig.dense_threshold
            assert oracles.graph_context(g).mode == path
        solves.append((g, oracles.random_fractional(rng, g), d))
    searches = [cli.generate_instance(30, 16, 1), cli.generate_instance(100, 16, 1)]
    return solves, searches, unit_phis(solves, searches, 1.0)


def unit_phis(solves, searches, scale):
    """Each case's phi with every weight times scale, times scale."""
    def scaled(g):
        return graphs.Graph(g.n, g.ei, g.ej, scale * g.w, g.backbone_mask)
    phis = [congestion.phi(scaled(g), s, d) for g, s, d in solves]
    phis += [enumeration.enumerate_optimal(scaled(g), d, cli.default_budget(g)).best_phi
             for g, d in searches]
    return np.array(phis) * scale


@settings(max_examples=30, deadline=None)
@given(st.integers(-60, 60))
@example(-60)
@example(60)
def test_phi_does_not_depend_on_the_units_of_w(k):
    # phi(c w) = phi(w) / c. No kernel adds a fixed amount to L, so a power
    # of two scales every path to round-off.
    solves, searches, ref = unit_cases()
    assert_allclose(unit_phis(solves, searches, 2.0 ** k), ref, rtol=1e-12, atol=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(-15, 15))
@example(-15)
@example(15)
def test_phi_within_epsilon_under_a_power_of_ten(p):
    # A power of ten rounds every weight, and CG may stop elsewhere: both
    # lower ends lie within epsilon below the true phi.
    solves, searches, ref = unit_cases()
    assert_allclose(unit_phis(solves, searches, 10.0 ** p), ref,
                    rtol=solver.SolverConfig().epsilon, atol=0)


# --- tree factorization ------------------------------------------------------

def _star(n):
    # Node 5 is the hub, so the search from node 0 goes through a leaf.
    leaves = np.delete(np.arange(n), 5)
    w = np.random.default_rng(n).uniform(0.5, 2.0, n - 1)
    return graphs.make_graph(n, [(5, int(v), wk) for v, wk in zip(leaves, w)], range(n - 1))


BACKBONES = {
    "random-attachment-15": lambda: oracles.random_instance(np.random.default_rng(3), 15, 0)[0],
    # chord-ring's backbone, a path: the deepest tree.
    "path-1500": lambda: oracles.chord_ring(1500, seed=2)[0],
    "comb-30x30": lambda: oracles.grid_comb(30, 30, seed=2)[0],
    "random-attachment-1000": lambda: oracles.random_instance(
        np.random.default_rng(2), 1000, 0, lo=0.01, hi=100.0)[0],
    # One node of degree n - 1: every other node is a sibling.
    "star-1000": lambda: _star(1000),
}


@pytest.mark.parametrize("name", BACKBONES)
def test_tree_factor_matches_pinv(name):
    g = BACKBONES[name]()
    bb = g.backbone_mask
    tf = solver.TreeFactor(g.n, g.ei[bb], g.ej[bb], g.w[bb])
    L = graphs.assemble_laplacian_dense(g, g.backbone_indicator())
    Lp = oracles.pinv(L)
    assert tf.nnz == np.count_nonzero(L)
    rng = np.random.default_rng(7)
    for _ in range(3):
        r = rng.normal(size=g.n)
        r -= r.mean()
        x = tf.apply(r)
        assert abs(x.sum()) <= 1e-10 * np.linalg.norm(x)
        assert np.linalg.norm(L @ x - r) <= 1e-10 * np.linalg.norm(r)
        assert np.linalg.norm(x - Lp @ r) <= 1e-9 * np.linalg.norm(Lp @ r)
        exact = float(r @ Lp @ r)
        assert abs(tf.quadform(r) - exact) <= 1e-10 * exact


def test_tree_factor_bounds_a_backbone_with_a_cycle():
    # A spanning tree, one backbone edge closing a cycle and one backbone
    # edge parallel to a tree edge. The factor solves a maximum-weight
    # spanning tree of the merged edges, which the backbone dominates.
    rng = np.random.default_rng(11)
    base, d = oracles.random_instance(rng, 150, 200, demand="gauss")
    edges = list(base.edges)
    i, j, _ = edges[40]
    extra = [(0, 149, 0.7), (i, j, 1.3)]
    backbone = list(base.backbone) + [len(edges), len(edges) + 1]
    g = graphs.make_graph(base.n, edges + extra, backbone)
    ctx = oracles.graph_context(g)
    L_T = graphs.assemble_laplacian_dense(g, g.backbone_indicator())
    Lp = oracles.pinv(L_T)
    # The tree is not the whole backbone, so a backbone solve is not on it.
    assert ctx.tree.nnz == 3 * g.n - 2 < np.count_nonzero(L_T)
    assert not ctx.on_tree(graphs.assemble_laplacian(g, g.backbone_indicator()))
    for _ in range(5):
        r = rng.normal(size=g.n)
        r -= r.mean()
        assert ctx.tree.quadform(r) >= float(r @ Lp @ r)
    q = int(g.backbone_mask.sum()) + 60
    s, cert, _ = frankwolfe.run(g, d, frankwolfe.FWConfig(q=q, alpha=0.05))
    assert cert.certified
    assert cert.phi_value == pytest.approx(oracles.phi(g, s, d), rel=1e-8)


@pytest.mark.parametrize("kind", ["tree", "multigraph", "cycles"])
def test_tree_factor_block_apply_is_columnwise(kind):
    # An n x k block solves as its k columns do one at a time, bit for bit,
    # in either memory order: a tree backbone, one with parallel copies of
    # tree edges, and a backbone with cycles (its maximum-weight tree).
    g, _ = cli.generate_instance(300, 120, 4, multigraph=True)
    bb = g.backbone_mask
    ei, ej, w = {"tree": (g.ei[bb], g.ej[bb], g.w[bb]),
                 "multigraph": (np.tile(g.ei[bb], 2), np.tile(g.ej[bb], 2),
                                np.concatenate([g.w[bb], 2 * g.w[bb]])),
                 "cycles": (g.ei, g.ej, g.w)}[kind]
    tf = solver.TreeFactor(g.n, ei, ej, w)
    R = np.random.default_rng(5).normal(size=(g.n, 6))
    R -= R.mean(axis=0)
    cols = np.column_stack([tf.apply(R[:, k].copy()) for k in range(R.shape[1])])
    for block in (R, np.asfortranarray(R)):
        X = tf.apply(block)
        assert X.shape == R.shape
        assert_array_equal(X, cols)


def test_tree_factor_rejects_disconnected():
    with pytest.raises(StructuralError):
        solver.TreeFactor(4, np.array([0, 2]), np.array([1, 3]), np.array([1.0, 1.0]))
    # n - 1 edges that form a cycle and leave node 3 out.
    with pytest.raises(StructuralError):
        solver.TreeFactor(4, np.array([0, 1, 0]), np.array([1, 2, 2]), np.ones(3))
    # More than n - 1 edges, parallel ones among them, in two pieces.
    with pytest.raises(StructuralError):
        solver.TreeFactor(5, np.array([0, 1, 0, 3, 0]), np.array([1, 2, 2, 4, 1]),
                          np.ones(5))


def test_tree_factor_on_one_node():
    tf = solver.TreeFactor(1, np.array([], dtype=int), np.array([], dtype=int), np.array([]))
    assert tf.nnz == 0
    assert_allclose(tf.apply(np.zeros(1)), [0.0])
    assert tf.quadform(np.zeros(1)) == 0.0
    ctx = solver.SolveContext(tf)
    assert ctx.on_tree(sp.csr_matrix((1, 1)))


def test_context_from_laplacian_picks_heavy_tree():
    # weights 1, 2, 10 on a triangle: the stopping tree keeps edges 10 and 2,
    # so the tree resistance between nodes 0 and 1 is 1/10 + 1/2
    g = graphs.make_graph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 10.0)], [0, 1])
    L = graphs.assemble_laplacian(g, np.ones(3))
    ctx = solver.context_from_laplacian(L)
    r = np.array([1.0, -1.0, 0.0])
    assert abs(ctx.tree.quadform(r) - 0.6) < 1e-12


def test_context_from_laplacian_rejects_disconnected():
    L = sp.csr_matrix(np.array([[1.0, -1.0, 0, 0], [-1.0, 1.0, 0, 0],
                                [0, 0, 1.0, -1.0], [0, 0, -1.0, 1.0]]))
    with pytest.raises(StructuralError):
        solver.context_from_laplacian(L)


# --- iterative solve ---------------------------------------------------------

def test_solve_dense_path_is_exact(monkeypatch):
    # At or below the dense threshold congestion takes the exact dense
    # kernel and never calls solve.
    def refuse(*args, **kwargs):
        raise AssertionError("solve ran")
    monkeypatch.setattr(solver, "solve", refuse)
    g, s, d = instance(4, n=20, extra=12)
    x_star = oracles.pinv(oracles.laplacian(g.n, g.edges, s)) @ d
    x = solver.exact_pinv_apply(graphs.assemble_laplacian(g, s), d)
    assert_allclose(x, x_star, atol=1e-10)
    diff = congestion.approx_diff(g, s, d)
    assert abs(diff.phi - d @ x_star) <= 1e-12 * (d @ x_star)
    assert diff.phi == congestion.phi(g, s, d)
    # Its interval is the point phi = d^T x, and it runs no CG.
    assert (diff.phi, diff.bound, diff.cg_iterations) == (float(d @ x), 0.0, 0)


def test_solve_zero_demand():
    # solve is CG at every size; a zero demand returns without an iteration.
    for n, extra in ((10, 4), (80, 40)):
        g, s, _ = instance(5, n=n, extra=extra)
        L = graphs.assemble_laplacian(g, s)
        res = solver.solve(L, np.zeros(g.n), solver.SolverConfig(),
                           context=oracles.graph_context(g))
        assert res.iterations == 0 and not res.x.any(), n


# Small members of the benchmark's graph families that take the CG path.
FAMILIES = {
    "grid-comb": lambda: oracles.grid_comb(8, 8, seed=1),
    "chord-ring": lambda: oracles.chord_ring(80, seed=1),
    "cli-expander": lambda: cli.generate_instance(80, 160, seed=1, demand="gauss",
                                                  multigraph=True),
}


@pytest.mark.parametrize("mode", oracles.POLICY)
def test_solve_contract_per_preconditioner(monkeypatch, mode):
    monkeypatch.setattr(solver, "FILL_BUDGET", oracles.POLICY[mode])
    cfg = solver.SolverConfig(epsilon=1e-6)
    for family, make in FAMILIES.items():
        g, d = make()
        s = oracles.random_fractional(np.random.default_rng(6), g)
        L = graphs.assemble_laplacian(g, s)
        ctx = oracles.graph_context(g)
        assert ctx.mode == mode, family
        assert not ctx.on_tree(L), family
        res = solver.solve(L, d, cfg, context=ctx)
        x_star = oracles.pinv(oracles.laplacian(g.n, g.edges, s)) @ d
        err = rel_energy_error(L.toarray(), res.x, x_star)
        assert err <= 1e-6, family
        assert res.achieved_residual >= err - 1e-12, family  # the bound is an upper bound
        if mode == "direct":
            assert res.iterations == 1, family  # the factor is exact; CG confirms it


def backbone_context(g):
    return solver.context_from_edges(g.n, g.ei[g.backbone_mask], g.ej[g.backbone_mask],
                                     g.w[g.backbone_mask])


def test_auto_fallback_contract_cold_then_warm():
    # Without a pattern to probe, the context solves on the backbone factor
    # at the backbone indicator, where it is exact, and elsewhere with
    # Jacobi. Both solves start from zero on the one context.
    g, s, d = instance(15, n=80, extra=70)
    cfg = solver.SolverConfig(epsilon=1e-6)
    ctx = backbone_context(g)
    for point, most in ((g.backbone_indicator(), 1), (s, cfg.max_iterations)):
        L = graphs.assemble_laplacian(g, point)
        res = solver.solve(L, d, cfg, context=ctx)
        x_star = oracles.pinv(oracles.laplacian(g.n, g.edges, point)) @ d
        err = rel_energy_error(L.toarray(), res.x, x_star)
        assert res.iterations <= most
        assert err <= 1e-6
        assert res.achieved_residual >= err - 1e-12


def test_solve_evaluates_tree_bound_lazily():
    g, s, d = instance(16, n=200, extra=300)
    cfg = solver.SolverConfig(epsilon=1e-8)
    ctx = backbone_context(g)
    assert ctx.mode == "jacobi"
    calls = []
    quadform = ctx.tree.quadform
    ctx.tree.quadform = lambda r: calls.append(1) or quadform(r)
    res = solver.solve(graphs.assemble_laplacian(g, s), d, cfg, context=ctx)
    assert res.achieved_residual <= 1e-8
    assert 1 <= 2 * len(calls) <= res.iterations


def test_cold_direct_solve_evaluates_the_bound_once():
    # At x = 0 the bound cannot fire, so it is first evaluated after the
    # single CG step that the direct factor needs.
    g, d = oracles.chord_ring(1500, 1)
    ctx = oracles.graph_context(g)
    assert ctx.mode == "direct"
    calls = []
    quadform = ctx.tree.quadform
    ctx.tree.quadform = lambda r: calls.append(1) or quadform(r)
    L = graphs.assemble_laplacian(g, np.ones(g.m))
    res = solver.solve(L, d, solver.SolverConfig(), context=ctx)
    assert res.iterations == 1 and len(calls) == 1


def test_solve_energy_identity():
    # d^T x = x^T L x for the dense kernel, and for CG, whose residual is
    # orthogonal to its iterate, in either mode.
    g, s, d = instance(7, n=30, extra=20)
    L = graphs.assemble_laplacian(g, s)
    xs = [solver.exact_pinv_apply(L, d)]
    own = oracles.graph_context(g)
    for ctx in (own, backbone_context(g)):
        xs.append(solver.solve(L, d, solver.SolverConfig(), context=ctx).x)
    for x, mode in zip(xs, ("dense", own.mode, "jacobi")):
        assert abs(float(d @ x) - float(x @ (L @ x))) < 1e-10 * abs(d @ x), mode


def test_solve_interval_holds_phi_and_scales_with_the_demand():
    # phi_lb <= phi <= phi_lb + bound, and the interval of 2^k d is 4^k
    # times d's, bit for bit, until it overflows to inf without a warning.
    g, s, d = instance(17, n=200, extra=300)
    L = graphs.assemble_laplacian(g, s)
    cfg = solver.SolverConfig(epsilon=1e-3)
    ctx = backbone_context(g)
    assert ctx.mode == "jacobi"
    res = solver.solve(L, d, cfg, context=ctx)
    phi = oracles.phi(g, s, d)
    assert res.bound > 0.0
    assert res.phi_lb <= phi * (1 + 1e-12) and phi <= (res.phi_lb + res.bound) * (1 + 1e-12)
    assert res.bound <= cfg.epsilon ** 2 * res.phi_lb
    big = solver.solve(L, np.ldexp(d, 300), cfg, context=ctx)
    assert (big.phi_lb, big.bound) == (np.ldexp(res.phi_lb, 600), np.ldexp(res.bound, 600))
    assert solver.solve(L, np.ldexp(d, 520), cfg, context=ctx).phi_lb == np.inf


def weak_backbone_context(g, seed):
    """A backbone factor with unevenly lowered weights: inexact at the
    backbone indicator, where it still preconditions (its pattern is the
    backbone's), and L_T stays below L in the PSD order."""
    bb = g.backbone_mask
    low = np.random.default_rng(seed).uniform(0.2, 1.0, size=int(bb.sum()))
    return solver.context_from_edges(g.n, g.ei[bb], g.ej[bb], g.w[bb] * low)


def test_solve_raises_when_budget_exhausted(monkeypatch):
    g, s, d = instance(9, n=50, extra=40)
    monkeypatch.setattr(solver.SolverConfig, "max_iterations", 1)
    cfg = solver.SolverConfig(epsilon=1e-10)
    weak = weak_backbone_context(g, 9)
    # The residual reported is the bound at the last iterate, one CG step
    # from zero along z = M^-1 d. Under the backbone factor, an exact M, it
    # is read before M is applied again; under Jacobi it is evaluated even
    # if it was not due.
    for point, ctx, on_tree in ((g.backbone_indicator(), weak, True),
                                (s, backbone_context(g), False)):
        L = graphs.assemble_laplacian(g, point)
        assert ctx.on_tree(L) == on_tree
        with pytest.raises(NumericalError) as info:
            solver.solve(L, d, cfg, context=ctx)
        assert 0.0 < info.value.achieved_residual < np.inf
        M, exact = ctx.preconditioner(L)
        assert exact == on_tree
        z = solver.project_zero_mean(M(d))
        x = (d @ z) / (z @ (L @ z)) * z
        r = solver.project_zero_mean(d - L @ x)
        expected = np.sqrt(ctx.tree.quadform(r) / (2.0 * d @ x - x @ (L @ x)))
        assert info.value.achieved_residual == pytest.approx(expected, rel=1e-9), on_tree


def test_inexact_tree_solve_reads_the_bound_every_iteration(monkeypatch):
    # The tree solve counts as exact on the tree's pattern, so its bound is
    # read at the end of every iteration. Under the lowered weights above
    # CG needs several, and still meets the energy contract.
    g, _, d = instance(9, n=50, extra=40)
    weak = weak_backbone_context(g, 9)
    at = g.backbone_indicator()
    L = graphs.assemble_laplacian(g, at)
    assert weak.on_tree(L)
    reads = []
    quadform = weak.tree.quadform
    monkeypatch.setattr(weak.tree, "quadform", lambda r: reads.append(1) or quadform(r))
    cfg = solver.SolverConfig()
    res = solver.solve(L, d, cfg, context=weak)
    x_star = oracles.pinv(oracles.laplacian(g.n, g.edges, at)) @ d
    err = rel_energy_error(L.toarray(), res.x, x_star)
    assert res.iterations > 3 and len(reads) == res.iterations
    assert err <= cfg.epsilon
    assert res.achieved_residual >= err - 1e-12


@pytest.mark.parametrize("mode", ["direct", "jacobi"])
def test_backbone_indicator_applies_the_tree_solve_once(monkeypatch, mode):
    # On a tree backbone L_s = L_T at the backbone indicator, whatever the
    # graph's mode: one apply of the tree solve starts CG, one bound read
    # after its one step stops it.
    if mode == "direct":
        g, d = oracles.grid_comb(20, 20, seed=2)
    else:
        g, d = cli.generate_instance(3000, 6000, seed=1, demand="gauss", multigraph=True)
    ctx = oracles.graph_context(g)
    assert ctx.mode == mode and np.count_nonzero(g.backbone_mask) == g.n - 1
    applies, reads = [], []
    apply, quadform = ctx.tree.apply, ctx.tree.quadform
    monkeypatch.setattr(ctx.tree, "apply", lambda r: applies.append(1) or apply(r))
    monkeypatch.setattr(ctx.tree, "quadform", lambda r: reads.append(1) or quadform(r))
    L = graphs.assemble_laplacian(g, g.backbone_indicator())
    res = solver.solve(L, d, solver.SolverConfig(), context=ctx)
    assert res.iterations == 1 and len(applies) == 1 and len(reads) == 1
    assert res.bound <= solver.SolverConfig().epsilon ** 2 * res.phi_lb


def test_solve_rejects_bad_demand():
    # The same checks in the dense kernel, in CG's solve, and through
    # congestion.phi on either side of the dense threshold, which leaves
    # them to the kernel. A NaN or infinite demand is refused before any CG
    # iteration runs, and so is one that does not sum to zero, also when
    # d @ d overflows.
    for seed, n, extra in ((10, 40, 20), (11, 80, 40)):
        g, s, d = instance(seed, n=n, extra=extra)
        L = graphs.assemble_laplacian(g, s)
        non_finite = [d.copy() for _ in range(3)]
        for bad, value in zip(non_finite, (np.nan, np.inf, -np.inf)):
            bad[0], bad[1] = value, -value
        unbalanced = np.zeros(g.n)
        unbalanced[:3] = 1e155, 1e150, -1e155
        for bad in (np.ones(g.n), d[:-1], *non_finite, unbalanced):
            with pytest.raises(InvalidInputError):
                solver.exact_pinv_apply(L, bad)
            with pytest.raises(InvalidInputError):
                solver.solve(L, bad, solver.SolverConfig(), context=oracles.graph_context(g))
            with pytest.raises(InvalidInputError):
                congestion.phi(g, s, bad)


def test_cg_path_requires_a_context():
    # solve is the CG path at every size, so it needs a context at every
    # size; congestion passes the graph's above the dense threshold and
    # needs none below it.
    for n, extra in ((40, 20), (80, 40)):
        g, s, d = instance(10, n=n, extra=extra)
        L = graphs.assemble_laplacian(g, s)
        with pytest.raises(InvalidInputError, match="needs a context"):
            solver.solve(L, d, solver.SolverConfig())
        assert congestion.phi(g, s, d) > 0.0


# --- configuration and mode resolution ---------------------------------------

def test_solver_config_validation():
    with pytest.raises(InvalidInputError):
        solver.SolverConfig(epsilon=0.0)
    # The dense threshold and CG's iteration cap are constants, not options.
    assert [f.name for f in dataclasses.fields(solver.SolverConfig)] == [
        "epsilon", "preconditioner"]
    with pytest.raises(TypeError):
        solver.SolverConfig(dense_threshold=0)
    with pytest.raises(TypeError):
        solver.SolverConfig(max_iterations=1)
    # The input picks the path: "auto" is the only preconditioner value.
    assert solver.SolverConfig().preconditioner == "auto"
    for name in ("cholesky", "backbone_tree", "jacobi", "direct", "none", ""):
        with pytest.raises(InvalidInputError):
            solver.SolverConfig(preconditioner=name)


def test_fill_probe_picks_the_mode_at_every_size():
    # No size rule comes before the probe: a chord ring of 1500 nodes
    # factors with little fill, an expander of 2000 nodes does not.
    g, _ = oracles.chord_ring(1500, 1)
    assert g.plan.low_fill
    g, _ = cli.generate_instance(2000, 4000, seed=1, demand="gauss", multigraph=True)
    assert not g.plan.low_fill


PROBE_GRAPHS = (
    [("grid-comb", k, 1) for k in (20, 80)]
    + [("chord-ring", n, seed) for n in (300, 1500, 15000) for seed in (1, 2)]
    # 2n extra edges: the verdict turns from direct to jacobi between 1400
    # and 1500 nodes, at FILL_BUDGET.
    + [("expander", n, seed) for n in (800, 1400, 1450, 1500) for seed in (1, 2, 3)]
)


@pytest.mark.parametrize("family, size, seed", PROBE_GRAPHS)
def test_fill_probe_on_the_plan_pattern_matches_the_edge_list(family, size, seed):
    # The probe reads the plan's CSR pattern, diagonal included; the
    # oracle builds the adjacency of the edge list, parallel edges summed.
    # The budget counts the pattern's edges: distinct pairs, not g.m.
    if family == "grid-comb":
        g, _ = oracles.grid_comb(size, size, seed)
    elif family == "chord-ring":
        g, _ = oracles.chord_ring(size, seed)
    else:
        g, _ = cli.generate_instance(size, 2 * size, seed, demand="gauss", multigraph=True)
    envelope = oracles.edge_envelope(g.n, g.ei, g.ej)
    assert solver._envelope(g.plan.indptr, g.plan.indices) == envelope
    pairs = len(np.unique(g.ei * g.n + g.ej))
    assert g.plan.low_fill == (envelope <= solver.FILL_BUDGET * pairs)


def test_fill_probe_graphs_cross_the_budget():
    # The expanders above hold both verdicts, so the budget's boundary is
    # tested, not only graphs far from it.
    verdicts = {cli.generate_instance(n, 2 * n, seed, demand="gauss", multigraph=True)[0]
                .plan.low_fill for family, n, seed in PROBE_GRAPHS if family == "expander"}
    assert verdicts == {True, False}


def test_fill_budget_counts_the_pattern_edges_not_parallel_copies():
    # Parallel copies of one edge add to m but not to the pattern, so they
    # cannot buy a graph a direct verdict: this expander's envelope is over
    # FILL_BUDGET per pattern edge and under it per edge of m.
    base, _ = cli.generate_instance(1450, 2900, 1, demand="gauss", multigraph=True)
    envelope = oracles.edge_envelope(base.n, base.ei, base.ej)
    copies = max(0, -(-envelope // solver.FILL_BUDGET) - base.m)
    free = int(np.flatnonzero(~base.backbone_mask)[0])
    g = graphs.make_graph(base.n, list(base.edges) + [base.edges[free]] * copies,
                          base.backbone)
    pairs = len(np.unique(g.ei * g.n + g.ej))
    assert solver.FILL_BUDGET * pairs < envelope <= solver.FILL_BUDGET * g.m
    assert not g.plan.low_fill
    assert oracles.graph_context(g).mode == "jacobi"


def _cyclic_backbone_multigraph():
    # Parallel copies of tree edges, and two backbone edges beyond the tree:
    # one closes a cycle, one runs parallel to a tree edge.
    base, d = cli.generate_instance(300, 120, 4, demand="gauss", multigraph=True)
    edges = list(base.edges)
    i, j, _ = edges[40]
    g = graphs.make_graph(base.n, edges + [(0, base.n - 1, 0.7), (i, j, 1.3)],
                          list(base.backbone) + [len(edges), len(edges) + 1])
    return g, d


@pytest.mark.parametrize("family", ["grid-comb", "chord-ring", "multigraph", "laplacian"])
def test_direct_factor_receives_the_ordered_grounded_block(family, monkeypatch):
    # Each direct factor is handed L's grounded block in the plan's order,
    # entry for entry, stored zeros included: L.tocsc()[1:, 1:][order][:, order].
    if family == "chord-ring":
        g, d = oracles.chord_ring(300, seed=7)
    elif family == "multigraph":
        g, d = _cyclic_backbone_multigraph()
    else:
        g, d = oracles.grid_comb(20, 20, seed=7)
    received = []
    splu = spla.splu
    monkeypatch.setattr(solver.spla, "splu",
                        lambda A, **kwargs: received.append(A.copy()) or splu(A, **kwargs))
    half_open = np.ones(g.m)
    half_open[np.flatnonzero(~g.backbone_mask)[::2]] = 0.0
    for s in (half_open, oracles.random_fractional(np.random.default_rng(7), g)):
        L = graphs.assemble_laplacian(g, s)
        ctx = (solver.context_from_laplacian(L) if family == "laplacian"
               else oracles.graph_context(g))
        assert ctx.mode == "direct"
        order = ctx.plan.order
        assert not ctx.plan.block.data.flags.writeable
        solver.solve(L, d, solver.SolverConfig(), context=ctx)
        want = L.tocsc()[1:, 1:][order][:, order]
        want.sort_indices()
        got = received.pop()
        assert not received
        assert got.format == "csc" and got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            assert_array_equal(getattr(got, name), getattr(want, name))


def test_dense_path_never_runs_the_fill_probe(monkeypatch):
    # Only CG solves read a context, so run builds none on the dense path:
    # neither the backbone factor nor the fill probe runs.
    def refuse(*args):
        raise AssertionError("a solve context was built")
    monkeypatch.setattr(solver, "TreeFactor", refuse)
    monkeypatch.setattr(solver, "_envelope", refuse)
    g, _, d = instance(13, n=30, extra=16)
    q = int(g.backbone_mask.sum()) + 8
    _, cert, _ = frankwolfe.run(g, d, frankwolfe.FWConfig(q=q, alpha=0.05))
    assert cert.certified


def test_auto_mode_is_jacobi_without_a_pattern():
    g, s, _ = instance(12, n=30, extra=10)
    L_tree = graphs.assemble_laplacian(g, g.backbone_indicator())
    L_s = graphs.assemble_laplacian(g, s)
    ctx = backbone_context(g)
    assert ctx.mode == "jacobi" and ctx.on_tree(L_tree) and not ctx.on_tree(L_s)


def test_amg_is_an_unknown_preconditioner(tmp_path, capsys):
    with pytest.raises(InvalidInputError):
        solver.SolverConfig(preconditioner="amg")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 10, "extra": 5, "preconditioner": "amg"}))
    assert cli.main(["experiment", "--config", str(cfg)]) == 2
    assert "unknown config keys: ['preconditioner']" in capsys.readouterr().err
    inst = tmp_path / "inst.txt"
    assert cli.main(["generate", "--n", "10", "--extra", "5", "--output", str(inst)]) == 0
    with pytest.raises(SystemExit) as info:
        cli.main(["solve", "--input", str(inst), "--preconditioner", "amg"])
    assert info.value.code == 2


def test_auto_mode_resolves_by_fill_probe(monkeypatch):
    # A grid factors with little fill and the library default solves it
    # directly, except at the backbone's own pattern; an expander of the
    # CLI family does not, and stays on Jacobi. Both hold on the graph's
    # own context and on its core's, which congestion solves on.
    g, d = oracles.grid_comb(80, 80, seed=1)
    ctx = congestion.make_context(g)
    core = g.core.graph
    for h, c in ((g, oracles.graph_context(g)), (core, ctx)):
        L = graphs.assemble_laplacian(h, np.ones(h.m))
        assert c.mode == "direct" and not c.on_tree(L)
        assert c.on_tree(graphs.assemble_laplacian(h, h.backbone_indicator()))
        assert solver.context_from_laplacian(L).mode == "direct"
    # frankwolfe.run with default settings solves on that same context and
    # builds no other: no context, no tree and no plan.
    def refuse(*args, **kwargs):
        raise AssertionError("a second context was built")
    monkeypatch.setattr(solver, "context_from_edges", refuse)
    monkeypatch.setattr(solver, "TreeFactor", refuse)
    monkeypatch.setattr(solver, "LaplacianPlan", refuse)
    q = int(g.backbone_mask.sum()) + 1
    frankwolfe.run(g, d, frankwolfe.FWConfig(q=q, alpha=0.05, max_iterations=1))
    assert congestion.make_context(g) is ctx and g.core.graph is core
    monkeypatch.undo()
    g, _ = cli.generate_instance(3000, 6000, seed=1, demand="gauss", multigraph=True)
    assert not g.plan.low_fill and congestion.make_context(g).mode == "jacobi"
    L = graphs.assemble_laplacian(g, np.ones(g.m))
    assert solver.context_from_laplacian(L).mode == "jacobi"


def test_auto_direct_certifies_a_300_by_300_grid():
    # Jacobi CG does not reach epsilon = 1e-8 in 5000 iterations here; one
    # direct factor per solve does, and its certified residual still bounds
    # the true energy error.
    g, d = oracles.grid_comb(300, 300, seed=1)
    q = int(g.backbone_mask.sum()) + int((~g.backbone_mask).sum()) // 2
    cfg = frankwolfe.FWConfig(q=q, alpha=0.05)
    s, cert, _ = frankwolfe.run(g, d, cfg)
    ctx = oracles.graph_context(g)
    assert ctx.mode == "direct" and cert.certified
    L = graphs.assemble_laplacian(g, s)
    res = solver.solve(L, d, cfg.solver, context=ctx)
    assert res.iterations <= 1
    x_star = np.zeros(g.n)
    x_star[1:] = spla.splu(L.tocsc()[1:, 1:]).solve(d[1:])
    x_star -= x_star.mean()
    e = res.x - x_star
    err = np.sqrt(float(e @ (L @ e)) / float(x_star @ (L @ x_star)))
    assert res.achieved_residual <= cfg.solver.epsilon
    assert res.achieved_residual >= err - 1e-12


MMD = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1, panel_size=1,
           options=dict(SymmetricMode=True))


@pytest.mark.parametrize("family", ["grid-comb", "chord-ring"])
def test_direct_factor_takes_superlu_own_order(family):
    # The plan's order is the inverse of SuperLU's minimum-degree perm_c on
    # the grounded block (perm_c itself gives 14 times the fill at 80 x 80),
    # its NATURAL factor has the same fill, and the solves agree.
    g, d = oracles.grid_comb(20, 20, seed=3) if family == "grid-comb" else \
        oracles.chord_ring(300, seed=3)
    assert g.n > solver.SolverConfig.dense_threshold and g.plan.low_fill
    plan = g.plan
    for s in (np.ones(g.m), oracles.random_fractional(np.random.default_rng(3), g)):
        L = graphs.assemble_laplacian(g, s)
        own = spla.splu(L.tocsc()[1:, 1:], **MMD)
        assert np.array_equal(plan.order, np.argsort(own.perm_c))
        lu = plan.lu(L)
        assert lu.L.nnz + lu.U.nnz == own.L.nnz + own.U.nnz
        M, exact = oracles.graph_context(g).preconditioner(L)
        assert exact
        x = M(d)
        ref = np.concatenate([[0.0], own.solve(d[1:])])
        ref -= ref.mean()
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_direct_solve_refuses_a_foreign_pattern(monkeypatch):
    # A direct context factors only Laplacians whose canonical CSR form
    # carries its graph's pattern: another format of the same entries is
    # solved alike, and any other L is refused before a gather or a factor.
    g, d = oracles.chord_ring(300, seed=4)
    ctx = oracles.graph_context(g)
    assert ctx.mode == "direct"
    s = np.ones(g.m)
    s[np.flatnonzero(~g.backbone_mask)[::2]] = 0.0
    L = graphs.assemble_laplacian(g, s)
    cfg = solver.SolverConfig()
    x = solver.solve(L, d, cfg, context=ctx).x
    unsorted = L.copy()
    for row in range(g.n):
        lo, hi = unsorted.indptr[row], unsorted.indptr[row + 1]
        unsorted.indices[lo:hi] = unsorted.indices[lo:hi][::-1]
        unsorted.data[lo:hi] = unsorted.data[lo:hi][::-1]
    unsorted.has_sorted_indices = False
    for same in (L.tocsc(), unsorted):
        assert_allclose(solver.solve(same, d, cfg, context=ctx).x, x, rtol=0,
                        atol=1e-12 * np.abs(x).max())
    dropped = L.copy()
    dropped.eliminate_zeros()
    other = graphs.assemble_laplacian(oracles.chord_ring(300, seed=5)[0], np.ones(g.m))
    assert other.nnz == L.nnz

    def refuse(*args, **kwargs):
        raise AssertionError("a factor ran")
    monkeypatch.setattr(solver.spla, "splu", refuse)
    for bad in (dropped, other, L.toarray()):
        with pytest.raises(InvalidInputError, match="sparsity pattern"):
            solver.solve(bad, d, cfg, context=ctx)


@pytest.mark.parametrize("form", ["dense", "csc", "duplicates"])
def test_context_from_laplacian_solves_its_own_l_directly(form):
    # The plan context_from_laplacian builds is of L's canonical CSR
    # pattern, so a direct solve takes the L it was built from in any form.
    g, d = oracles.grid_comb(20, 20, seed=6)
    A = graphs.assemble_laplacian(g, oracles.random_fractional(np.random.default_rng(6), g))
    if form == "dense":
        L = A.toarray()
    elif form == "csc":
        L = A.tocsc()
    else:
        # Every entry stored twice, each with half its value.
        L = sp.csr_matrix((A.data.repeat(2) / 2, A.indices.repeat(2), 2 * A.indptr),
                          shape=A.shape)
        assert not L.has_canonical_format
    ctx = solver.context_from_laplacian(L)
    assert ctx.mode == "direct"
    res = solver.solve(L, d, solver.SolverConfig(), ctx)
    assert res.iterations <= 1
    ref = solver.solve(A, d, solver.SolverConfig(), oracles.graph_context(g))
    assert_allclose(res.x, ref.x, rtol=0, atol=1e-12 * np.linalg.norm(ref.x))


def test_jacobi_rejects_isolated_node():
    tree = solver.TreeFactor(3, np.array([0, 1]), np.array([1, 2]), np.ones(2))
    ctx = solver.SolveContext(tree)
    assert ctx.mode == "jacobi"
    bad = sp.csr_matrix(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(StructuralError):
        ctx.preconditioner(bad)


def test_direct_rejects_disconnected_laplacian():
    path = (np.array([0, 1, 2]), np.array([1, 2, 3]))
    tree = solver.TreeFactor(4, *path, np.ones(3))
    two_pieces = sp.csr_matrix(np.array([[1.0, -1.0, 0, 0], [-1.0, 1.0, 0, 0],
                                         [0, 0, 1.0, -1.0], [0, 0, -1.0, 1.0]]))
    plan = solver.LaplacianPlan(two_pieces.indptr, two_pieces.indices)
    ctx = solver.SolveContext(tree, plan=plan)
    assert ctx.mode == "direct"
    with pytest.raises(StructuralError):
        ctx.preconditioner(two_pieces)
