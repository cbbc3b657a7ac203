import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
import theory
from reswitch import cli, congestion, enumeration, frankwolfe, graphs, rounding, solver
from reswitch.errors import CapExceededError


def triangle():
    return graphs.make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], [0, 1])


def two_node(w=2.0):
    return graphs.make_graph(2, [(0, 1, w)], [0])


def instance(seed, n=10, extra=8, **kw):
    rng = np.random.default_rng(seed)
    g, d = oracles.random_instance(rng, n, extra, **kw)
    s = oracles.random_fractional(rng, g)
    return g, s, d


# --- phi and gradient ---------------------------------------------------------

def test_phi_triangle_is_pair_resistance():
    # unit demand between nodes 0 and 2 sees the effective resistance 2/3
    g = triangle()
    assert abs(congestion.phi(g, np.ones(3), [1.0, 0.0, -1.0]) - 2 / 3) < 1e-12


def test_phi_two_node():
    assert abs(congestion.phi(two_node(2.0), np.ones(1), [1.0, -1.0]) - 0.5) < 1e-14


def test_phi_zero_demand():
    assert congestion.phi(triangle(), np.ones(3), np.zeros(3)) == 0.0


def test_phi_iterative_path_matches_reference():
    g, s, d = instance(1, n=120, extra=90)
    want = oracles.phi(g, s, d)
    got = congestion.phi(g, s, d)  # 120 > dense_threshold
    assert abs(got - want) < 1e-6 * want


def test_overflowed_dense_phi_is_inf():
    # A Gaussian demand of size 1e155 on the dense kernel: the products in
    # d @ x overflow to both +inf and -inf, and their sum to NaN. phi comes
    # from the scaled demand, so it is inf on every layer, with no warning.
    g, d = cli.generate_instance(30, 16, seed=2, demand="gauss")
    d = 1e155 * d
    cfg = frankwolfe.FWConfig(q=cli.default_budget(g), alpha=0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        x = solver.exact_pinv_apply(graphs.assemble_laplacian_dense(g, g.backbone_indicator()), d)
        assert np.isnan(d @ x)
    s = g.backbone_indicator()
    assert congestion.phi(g, s, d) == np.inf
    assert congestion.approx_diff(g, s, d).phi == np.inf
    assert frankwolfe.certificate(g, s, d, cfg).phi_value == np.inf
    assert frankwolfe.run(g, d, cfg)[1].phi_value == np.inf
    assert enumeration.enumerate_optimal(g, d, cfg.q).best_phi == np.inf


def test_approx_diff_triangle_values():
    g = triangle()
    diff = congestion.approx_diff(g, np.ones(3), [1.0, 0.0, -1.0])
    assert_allclose(diff.delta, [1 / 3, 1 / 3, 2 / 3], atol=1e-12)
    assert_allclose(diff.grad, [-1 / 9, -1 / 9, -4 / 9], atol=1e-12)
    assert abs(diff.phi - 2 / 3) < 1e-12


def test_gradient_matches_finite_differences():
    g, s, d = instance(2)
    grad = theory.exact_gradient(g, s, d)
    assert_allclose(grad, oracles.gradient_fd(g, s, d), rtol=1e-6, atol=1e-10)


def test_exact_gradient_agrees_with_approx_diff():
    g, s, d = instance(3)
    assert_allclose(theory.exact_gradient(g, s, d),
                    congestion.approx_diff(g, s, d).grad, atol=1e-10)


def test_gradient_is_nonpositive():
    g, s, d = instance(4, demand="gauss")
    assert np.all(congestion.approx_diff(g, s, d).grad <= 0.0)


@pytest.mark.parametrize("n", [10, 200])
def test_gradient_is_w_delta_squared_and_stays_in_range(n):
    # In range the gradient is -w * delta^2 bit for bit, on the dense kernel
    # and on CG. With every weight times 1e200 or 1e-155 that product under-
    # or overflows, but the gradient, scaled back, is the unit-scale one.
    g, s, d = instance(14, n=n, extra=n, demand="gauss")
    ref = congestion.approx_diff(g, s, d)
    assert np.array_equal(ref.grad, -g.w * ref.delta ** 2)
    for scale in (1e200, 1e-155):
        big = graphs.Graph(g.n, g.ei, g.ej, scale * g.w, g.backbone_mask)
        grad = congestion.approx_diff(big, s, d).grad
        assert np.isfinite(grad).all() and (grad < 0).all()
        assert_allclose(grad * scale, ref.grad, rtol=1e-6, atol=0)


def test_zero_demand_diff():
    g, s, _ = instance(5)
    diff = congestion.approx_diff(g, s, np.zeros(g.n))
    assert diff.phi == 0.0
    assert not diff.grad.any()


# --- homogeneity and convexity --------------------------------------------------

def test_homogeneity_identity():
    for seed in range(3):
        g, s, d = instance(seed + 6, demand="gauss")
        assert oracles.homogeneity_residual(g, s, d) < 1e-12


def test_phi_scales_inversely():
    # degree -1 homogeneity, on a backbone-free graph so c*s stays feasible
    g = graphs.Graph(n=3, ei=[0, 1, 0], ej=[1, 2, 2], w=[1.0, 1.0, 1.0],
                     backbone_mask=[False, False, False])
    d = np.array([1.0, 0.0, -1.0])
    s = np.array([1.0, 0.8, 0.6])
    base = congestion.phi(g, s, d)
    for c in (0.25, 0.5, 0.9):
        assert abs(congestion.phi(g, c * s, d) - base / c) < 1e-12 * base / c


def test_phi_is_convex_on_segments():
    g, _, d = instance(9)
    rng = np.random.default_rng(99)
    s1 = oracles.random_fractional(rng, g)
    s2 = oracles.random_fractional(rng, g)
    mid = congestion.phi(g, 0.5 * (s1 + s2), d)
    assert mid <= 0.5 * (congestion.phi(g, s1, d) + congestion.phi(g, s2, d)) + 1e-12


def test_cauchy_schwarz_voltage_bound():
    # delta_e^2 <= rho_e * phi for every edge
    g, s, d = instance(10, demand="gauss")
    diff = congestion.approx_diff(g, s, d)
    rho = theory.effective_resistances(g, s)
    assert np.all(diff.delta ** 2 <= rho * diff.phi + 1e-10)


# --- Hessian ----------------------------------------------------------------------

def test_hessian_two_node_value():
    info = theory.hessian_dense(two_node(2.0), np.ones(1), [1.0, -1.0])
    assert_allclose(info.H, [[1.0]], atol=1e-12)
    assert abs(info.opnorm_bound - 1.0) < 1e-12


def test_hessian_matches_entrywise_reference():
    for seed in range(3):
        g, s, d = instance(seed + 11, demand="gauss")
        info = theory.hessian_dense(g, s, d)
        assert_allclose(info.H, oracles.hessian_entrywise(g, s, d),
                        rtol=1e-8, atol=1e-10)


def test_hessian_is_psd():
    g, s, d = instance(14)
    info = theory.hessian_dense(g, s, d)
    assert np.linalg.eigvalsh(info.H)[0] >= -1e-10


def test_hessian_norm_bound_on_binary_configurations():
    for seed in range(3):
        g, _, d = instance(seed + 15, demand="gauss")
        info = theory.hessian_dense(g, np.ones(g.m), d)
        norm = np.linalg.norm(info.H, 2)
        assert norm <= info.opnorm_bound * (1.0 + 1e-8)


def test_hessian_gsc_constant_triangle():
    # backbone path resistances are (1, 1, 2), unit weights
    info = theory.hessian_dense(triangle(), np.ones(3), [1.0, 0.0, -1.0])
    assert abs(info.gsc_M - 3.0 * np.sqrt(6.0)) < 1e-12


def test_gsc_constant_below_remark_bound():
    # on generator-style instances the 2-norm form sits under 3n max w rho_T
    for seed in range(4):
        g, s, d = instance(seed + 18, n=12, extra=6, demand="gauss")
        info = theory.hessian_dense(g, s, d)
        st = g.backbone_indicator()
        rho_t = np.array([oracles.resistance(g, st, e) for e in range(g.m)])
        off = ~g.backbone_mask
        assert info.gsc_M <= 3.0 * g.n * (g.w[off] * rho_t[off]).max()


DENSE_ONLY = {
    "effective_resistances": lambda g, s, d: theory.effective_resistances(g, s),
    "leverages": lambda g, s, d: theory.leverages(g, s),
    "algebraic_connectivity": lambda g, s, d: graphs.algebraic_connectivity(g, s),
    "exact_gradient": theory.exact_gradient,
    "hessian_dense": theory.hessian_dense,
}


@pytest.mark.parametrize("op", DENSE_ONLY.values(), ids=DENSE_ONLY.keys())
def test_dense_only_operations_respect_cap(monkeypatch, op):
    g, s, d = instance(24)
    monkeypatch.setattr(solver, "DENSE_CAP", g.n)
    op(g, s, d)
    monkeypatch.setattr(solver, "DENSE_CAP", g.n - 1)
    with pytest.raises(CapExceededError, match="dense cap"):
        op(g, s, d)


# --- the graph's one solve context ------------------------------------------------

def solved_instance(g, d, extra_on):
    """Certified Frank-Wolfe point of g at a budget of extra_on free edges."""
    q = int(g.backbone_mask.sum()) + extra_on
    s, _, _ = frankwolfe.run(g, d, frankwolfe.FWConfig(q=q, alpha=0.05))
    return s, q


def draw(g, s, q, seed):
    params = rounding.RoundingParams(delta=0.1, rng_seed=seed)
    return rounding.sample(rounding.floor_probabilities(s, g, params), g, q,
                           params).sampled.sbin


def test_no_context_solves_on_the_backbone_factor(monkeypatch):
    # Above the dense threshold phi and approx_diff, which take no context,
    # solve on the graph's backbone tree; neither extracts a spanning tree
    # of L_s.
    def extract(L):
        raise AssertionError("context_from_laplacian ran")
    monkeypatch.setattr(solver, "context_from_laplacian", extract)
    g, s, d = instance(25, n=120, extra=90)
    cfg = solver.SolverConfig()
    want = oracles.phi(g, s, d)
    assert abs(congestion.phi(g, s, d, cfg) - want) <= 1e-8 * want
    diff = congestion.approx_diff(g, s, d, cfg)
    assert abs(diff.phi - want) <= 1e-8 * want
    assert_allclose(diff.grad, theory.exact_gradient(g, s, d), rtol=1e-6, atol=1e-10)


def test_fill_probe_runs_once_per_graph(monkeypatch):
    calls = []
    probe = solver._envelope
    monkeypatch.setattr(solver, "_envelope", lambda *args: calls.append(1) or probe(*args))
    g, d = oracles.chord_ring(300, seed=2)
    s, q = solved_instance(g, d, 20)
    draws = cli._draw(g, d, q, s, cli.ExperimentConfig(repeats=3, seed=4))
    assert len(draws) == 3 and len(calls) == 1
    # A second graph with the same edges probes once on its own.
    h, _ = oracles.chord_ring(300, seed=2)
    congestion.phi(h, s, d)
    assert len(calls) == 2


def test_backbone_tree_is_built_once_per_graph(monkeypatch):
    # Frank-Wolfe, every draw's phi and a certificate all solve on the
    # graph's one core context, whose tree is derived from the backbone's,
    # so the backbone's tree solve is built once.
    built = []

    class Counted(solver.TreeFactor):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)
    monkeypatch.setattr(solver, "TreeFactor", Counted)
    g, d = oracles.chord_ring(300, seed=2)
    s, q = solved_instance(g, d, 20)
    draws = cli._draw(g, d, q, s, cli.ExperimentConfig(repeats=3, seed=4))
    cert = frankwolfe.certificate(g, s, d, frankwolfe.FWConfig(q=q, alpha=0.05))
    assert len(draws) == 3 and cert.certified
    ctx = congestion.make_context(g)
    assert g.core.graph is not g and ctx is g.core.context
    assert len(built) == 1 and isinstance(ctx.tree, Counted)


def test_phi_does_not_depend_on_earlier_calls():
    # phi of one switch vector is bitwise the same on a fresh graph and on
    # one that has run Frank-Wolfe and evaluated other draws.
    g, d = oracles.chord_ring(300, seed=3)
    s, q = solved_instance(g, d, 20)
    sbin = draw(g, s, q, seed=1)
    fresh, _ = oracles.chord_ring(300, seed=3)
    first = congestion.phi(fresh, sbin, d)
    cli._draw(g, d, q, s, cli.ExperimentConfig(repeats=3, seed=7))
    assert congestion.phi(g, sbin, d) == first
    assert congestion.phi(fresh, sbin, d) == first
    # Every solve starts from zero and only reads the graph's context, so
    # the same holds under either preconditioner mode.
    for make, mode in ((lambda: oracles.chord_ring(1500, seed=1), "direct"),
                       (lambda: cli.generate_instance(2000, 4000, seed=1, demand="gauss",
                                                      multigraph=True), "jacobi")):
        g, d = make()
        q = int(g.backbone_mask.sum()) + int((~g.backbone_mask).sum()) // 2
        s, _, _ = frankwolfe.run(g, d, frankwolfe.FWConfig(q=q, alpha=0.05))
        assert g.context.mode == mode
        congestion.approx_diff(g, s, d)
        sbin = draw(g, s, q, seed=0)
        fresh, _ = make()
        assert congestion.approx_diff(g, sbin, d).phi == \
            congestion.phi(fresh, sbin, d), mode


@pytest.mark.parametrize("family", ["chord-ring", "cli-expander"])
def test_draw_phi_matches_a_spanning_tree_solve(family):
    # The backbone factor gives the same value, within epsilon, as a solve
    # preconditioned by a max-weight spanning tree of the draw's Laplacian.
    if family == "chord-ring":
        g, d = oracles.chord_ring(1500, seed=1)
    else:
        g, d = cli.generate_instance(2000, 4000, seed=1, demand="gauss", multigraph=True)
    s, q = solved_instance(g, d, int((~g.backbone_mask).sum()) // 2)
    cfg = solver.SolverConfig()
    for seed in range(2):
        sbin = draw(g, s, q, seed)
        L = graphs.assemble_laplacian(g, sbin)
        ref = float(d @ solver.solve(L, d, cfg, solver.context_from_laplacian(L)).x)
        assert abs(congestion.phi(g, sbin, d, cfg) - ref) <= cfg.epsilon * ref


# --- the switching core -----------------------------------------------------------

def path_graph(order, w, free):
    """Backbone path through the nodes in order, plus switchable edges free."""
    edges = [(int(a), int(b), wk) for a, b, wk in zip(order, order[1:], w)]
    edges += [(a, b, 1.0) for a, b in free]
    return graphs.make_graph(len(order), edges, range(len(order) - 1))


def core_cases():
    """(name, graph, demand) of each core shape: most nodes on chains, pendant
    trees, a backbone with parallel edges and a cycle, node 0 between two
    chains, no switch at all, and no node to eliminate."""
    rng = np.random.default_rng(41)

    def gauss(n):
        d = rng.standard_normal(n)
        d -= d.mean()
        return d / np.linalg.norm(d)
    cases = [("chord-ring", *oracles.chord_ring(300, seed=2)),
             ("cli-pendants", *cli.generate_instance(400, 12, seed=5, demand="gauss"))]
    base, _ = cli.generate_instance(300, 8, seed=6)
    tree = np.flatnonzero(base.backbone_mask)
    extra = [base.edges[k] for k in tree[[3, 3, 50, 120]]]  # parallel backbone copies
    extra += [(5, 200, 0.7), (17, 250, 1.3)]  # backbone edges off the tree: cycles
    g = graphs.make_graph(300, [*base.edges, *extra],
                          [*tree.tolist(), *range(base.m, base.m + len(extra))])
    cases.append(("multigraph-backbone", g, gauss(300)))
    order = [*range(150, 0, -1), 0, *range(151, 300)]
    g = path_graph(order, rng.uniform(0.5, 2.0, 299), [(140, 145), (120, 149), (200, 290),
                                                        (160, 299)])
    cases.append(("node-0-series", g, gauss(300)))
    cases.append(("no-switch", *cli.generate_instance(300, 0, seed=1, demand="gauss")))
    g = path_graph(list(range(100)), rng.uniform(0.5, 2.0, 99),
                   [(k, k + 2) for k in range(98)] + [(0, 99)])
    cases.append(("nothing-goes", g, gauss(100)))
    return cases


CORE_CASES = {name: (g, d) for name, g, d in core_cases()}


@pytest.mark.parametrize("name", list(CORE_CASES))
def test_core_solve_matches_the_full_graph(name):
    # Above the dense threshold every solve runs on the core. At fractional,
    # all-open and binary switches, phi is the full graph's within 1e-12,
    # the gradient matches on every edge, eliminated backbone edges
    # included, and the certificate's interval holds the full graph's phi.
    # The reference is a refined dense solve: pinv (oracles.phi) is itself
    # off by up to 3e-12 on the long paths here.
    g, d = CORE_CASES[name]
    assert g.n > solver.SolverConfig.dense_threshold
    core = g.core
    assert (core.graph is g) == (name == "nothing-goes")
    if name == "no-switch":
        assert core.graph.n == 1 and core.graph.m == 0
    rng = np.random.default_rng(7)
    off = ~g.backbone_mask
    cfg = frankwolfe.FWConfig(q=g.m, alpha=0.05)
    for sf in (rng.uniform(0.05, 1.0, off.sum()), np.zeros(off.sum()),
               (rng.random(off.sum()) < 0.5).astype(float)):
        s = g.backbone_indicator()
        s[off] = sf
        x = oracles.refined_voltages(g, s, d)
        want = float(d @ x)
        assert abs(oracles.phi(g, s, d) - want) <= 1e-11 * want
        diff = congestion.approx_diff(g, s, d)
        assert abs(congestion.phi(g, s, d) - want) <= 1e-12 * want
        assert abs(diff.phi - want) <= 1e-12 * want
        ref = -g.w * (x[g.ei] - x[g.ej]) ** 2
        assert_allclose(diff.grad, ref, rtol=1e-9, atol=1e-12 * np.abs(ref).max())
        assert np.array_equal(diff.grad, -g.w * diff.delta ** 2)
        cert = frankwolfe.certificate(g, s, d, cfg)
        assert cert.phi_value * (1 - 1e-12) <= want <= cert.upper_bound * (1 + 1e-12)


def test_core_demand_inside_a_pendant_tree_is_its_energy():
    # A demand from a pendant leaf to its parent moves nothing in the core:
    # phi is the energy of the one eliminated edge, w^-1, and every other
    # edge carries no drop.
    g, _ = cli.generate_instance(400, 12, seed=5)
    core = g.core
    par = g.context.tree.pred
    leaves = np.setdiff1d(np.arange(1, g.n), par[1:])
    leaf = int(leaves[np.flatnonzero(np.bincount(np.concatenate([g.ei, g.ej]),
                                                 minlength=g.n)[leaves] == 1)[0]])
    d = np.zeros(g.n)
    d[leaf], d[par[leaf]] = 1.0, -1.0
    assert not core.fold(d)[0].any()
    edge = int(np.flatnonzero(((g.ei == leaf) & (g.ej == par[leaf]))
                              | ((g.ej == leaf) & (g.ei == par[leaf])))[0])
    s = g.backbone_indicator()
    diff = congestion.approx_diff(g, s, d)
    assert_allclose(diff.phi, 1.0 / g.w[edge], rtol=1e-15)
    assert diff.bound == 0.0 and diff.cg_iterations == 0
    assert np.count_nonzero(diff.delta) == 1 and diff.delta[edge] != 0.0
