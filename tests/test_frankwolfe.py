from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from reswitch import cli, congestion, frankwolfe, graphs, solver
from reswitch.errors import InvalidInputError


def no_backbone_path(m):
    return graphs.Graph(n=m + 1, ei=np.arange(m), ej=np.arange(1, m + 1), w=np.ones(m),
                        backbone_mask=np.zeros(m, dtype=bool))


def instance(seed, n=8, extra=6, **kw):
    rng = np.random.default_rng(seed)
    return oracles.random_instance(rng, n, extra, **kw)


# --- configuration -------------------------------------------------------------

def test_fw_config_validation():
    with pytest.raises(InvalidInputError):
        frankwolfe.FWConfig(q=3, alpha=0.0)
    with pytest.raises(InvalidInputError):
        frankwolfe.FWConfig(q=3, alpha=1.0)
    with pytest.raises(InvalidInputError):
        frankwolfe.FWConfig(q=3, alpha=0.1, max_iterations=0)


# --- linear minimization oracle ---------------------------------------------------

def test_lmo_picks_most_negative_entries():
    g = no_backbone_path(3)
    v = frankwolfe.lmo_top_q(np.array([-4.0, -1.0, -9.0]), g, 2)
    assert_array_equal(v, [1.0, 0.0, 1.0])


def test_lmo_breaks_ties_toward_lower_index():
    g = no_backbone_path(3)
    assert_array_equal(frankwolfe.lmo_top_q(np.array([-1.0, -1.0, 0.0]), g, 1),
                       [1.0, 0.0, 0.0])
    assert_array_equal(frankwolfe.lmo_top_q(np.zeros(3), g, 2), [1.0, 1.0, 0.0])


def test_lmo_keeps_backbone_and_budget():
    g = graphs.make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], [0, 1])
    v = frankwolfe.lmo_top_q(np.array([-5.0, -5.0, -5.0]), g, 2)
    assert_array_equal(v, [1.0, 1.0, 0.0])  # budget leaves no room off backbone
    assert_array_equal(frankwolfe.lmo_top_q(np.array([-5.0, -5.0, -5.0]), g, 9),
                       [1.0, 1.0, 1.0])  # q past m closes everything


def selection_cases():
    """Vectors with zeros of both signs and repeated values, with k in 0, 1,
    a middle count and all."""
    rng = np.random.default_rng(41)
    for size in (1, 2, 7, 40, 300):
        for vals in (rng.normal(size=size),
                     -rng.integers(0, 4, size=size).astype(float),
                     np.where(rng.random(size) < 0.5, -0.0, 0.0),
                     -(rng.normal(size=size).round(1) ** 2)):
            for k in sorted({0, 1, size // 3, size}):
                yield vals, k


def test_selection_matches_lexsort_reference():
    for vals, k in selection_cases():
        assert_array_equal(graphs.smallest_k(vals, k),
                           np.sort(oracles.lexsort_smallest(vals, k)))


def test_lmo_matches_lexsort_reference():
    for grad, k in selection_cases():
        m = len(grad)
        g = no_backbone_path(m)
        expected = np.zeros(m)
        expected[oracles.lexsort_smallest(grad, k)] = 1.0
        assert_array_equal(frankwolfe.lmo_top_q(grad, g, k), expected)


def test_lmo_rejects_budget_below_backbone():
    g = graphs.make_graph(3, [(0, 1, 1.0), (1, 2, 1.0)], [0, 1])
    with pytest.raises(InvalidInputError):
        frankwolfe.lmo_top_q(np.zeros(2), g, 1)


def test_lmo_is_lp_minimizer():
    # with nonpositive gradients the top-k vertex solves the budgeted LP
    rng = np.random.default_rng(1)
    g, _ = instance(1)
    q = g.n + 1
    grad = -rng.random(g.m)
    grad[g.backbone_mask] = -rng.random(g.n - 1)
    v = frankwolfe.lmo_top_q(grad, g, q)
    assert v.sum() == min(q, g.m)
    # any other feasible point scores no better
    for _ in range(50):
        u = rng.random(g.m)
        u[g.backbone_mask] = 1.0
        if u.sum() > q:
            u[~g.backbone_mask] *= (q - (g.n - 1)) / u[~g.backbone_mask].sum()
        assert grad @ v <= grad @ u + 1e-12


def test_fw_gap_example():
    gap = frankwolfe.fw_gap(np.array([-1.0, -1.0]), np.array([0.5, 0.5]),
                            np.array([1.0, 1.0]))
    assert abs(gap - 1.0) < 1e-15
    assert frankwolfe.fw_gap(np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
                             np.array([1.0, 1.0])) == 0.0


def test_fw_gap_nonnegative_at_lmo_point():
    rng = np.random.default_rng(2)
    g, d = instance(3)
    s = oracles.random_fractional(rng, g)
    cut = g.n - 1 + min(2, g.m - g.n + 1)
    s[~g.backbone_mask] *= 0.4  # keep the L1 mass under the budget
    diff = congestion.approx_diff(g, s, d)
    v = frankwolfe.lmo_top_q(diff.grad, g, cut)
    assert frankwolfe.fw_gap(diff.grad, s, v) >= -1e-12


# --- optimization runs --------------------------------------------------------------

def test_run_with_full_budget_reaches_all_on():
    g, d = instance(4, n=9, extra=7)
    cfg = frankwolfe.FWConfig(q=g.m, alpha=0.1, max_iterations=300)
    s, cert, trace = frankwolfe.run(g, d, cfg)
    phi_full = oracles.phi(g, np.ones(g.m), d)
    assert cert.certified
    assert cert.bound_factor == pytest.approx(1.1)
    assert congestion.phi(g, s, d) <= (1.0 + cfg.alpha) * phi_full + 1e-9


def test_run_certificate_is_sound_against_enumeration():
    for seed in range(3):
        g, d = instance(seed + 5, n=6, extra=4)
        q = g.n  # one closable edge beyond the backbone
        cfg = frankwolfe.FWConfig(q=q, alpha=0.5, max_iterations=400)
        s, cert, _ = frankwolfe.run(g, d, cfg)
        if not cert.certified:
            continue
        _, best = oracles.best_binary(g, d, q)
        assert congestion.phi(g, s, d) <= (1.0 + 0.5) * best + 1e-9


def test_run_respects_budget_and_backbone():
    g, d = instance(8, n=8, extra=8)
    q = g.n + 1
    cfg = frankwolfe.FWConfig(q=q, alpha=0.01, max_iterations=60)
    s, _, trace = frankwolfe.run(g, d, cfg)
    assert s.sum() <= q + 1e-9
    assert np.all(s[g.backbone_mask] == 1.0)
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert all(rec.l1 <= q + 1e-9 for rec in trace.records)


def spied_run(monkeypatch, g, d, cfg):
    """run's output, and the point, solver config and result of each
    congestion.approx_diff call it made, in order."""
    calls = []
    real = congestion.approx_diff

    def spy(g, s, d, scfg=None):
        res = real(g, s, d, scfg)
        calls.append((s.copy(), scfg, res))
        return res
    with monkeypatch.context() as m:
        m.setattr(congestion, "approx_diff", spy)
        out = frankwolfe.run(g, d, cfg)
    return out, calls


def test_monotone_guard_trace_never_increases(monkeypatch):
    # On the dense kernel every read is exact and the recorded phi never
    # rises. On Jacobi CG (n = 80) tried steps are read loosely, and phi
    # may rise only where a loosely read iterate that certified is read
    # again at epsilon, at the same point, by at most the previous
    # record's bound. This run reads twice: the first second reading does
    # not certify and the run steps on.
    g, d = instance(9, n=10, extra=9, demand="gauss")
    cfg = frankwolfe.FWConfig(q=g.n + 2, alpha=0.005, max_iterations=80)
    _, _, trace = frankwolfe.run(g, d, cfg)
    phis = [rec.phi for rec in trace.records]
    assert all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))

    monkeypatch.setattr(solver, "FILL_BUDGET", oracles.POLICY["jacobi"])
    g, d = instance(3, n=80, extra=40, demand="gauss")
    cfg = frankwolfe.FWConfig(q=g.n + 3, alpha=0.02, max_iterations=80)
    (_, cert, trace), calls = spied_run(monkeypatch, g, d, cfg)
    assert not g.plan.low_fill and cert.certified
    eps = cfg.solver.epsilon
    recs = trace.records
    rises = [k for k in range(1, len(recs)) if recs[k].phi > recs[k - 1].phi]
    assert len(rises) == 2
    for k in rises:
        point, scfg, _ = calls[k]
        prev = recs[k - 1]
        assert scfg.epsilon == eps and prev.bound > eps * prev.phi, k
        assert any(np.array_equal(p, point) and res.phi == prev.phi
                   for p, _, res in calls[:k]), k
        assert recs[k].phi - prev.phi <= prev.bound * (1.0 + 1e-12), k


def test_run_out_of_iterations_keeps_the_last_accepted_step():
    # One step takes phi from 3.108 (backbone) to 0.480; the step's solve
    # must not be discarded when the iteration budget ends right after it.
    g, d = cli.generate_instance(40, 60, seed=5, demand="gauss")
    cfg = frankwolfe.FWConfig(q=cli.default_budget(g), alpha=0.1, max_iterations=1)
    s, cert, trace = frankwolfe.run(g, d, cfg)
    assert len(trace.records) == 1
    assert cert.phi_value < 0.5 < trace.records[0].phi
    again = frankwolfe.certificate(g, s, d, cfg)
    assert (cert.phi_value, cert.gap) == pytest.approx((again.phi_value, again.gap),
                                                       rel=1e-12)


@pytest.mark.parametrize("mode", oracles.POLICY)
def test_run_out_of_iterations_certifies_its_iterate_from_that_solve(monkeypatch, mode):
    # When the budget ends just after the guard rejected a step, the run
    # returns the iterate before it, certified from that iterate's own
    # solve, interval included, not from the rejected step's: its
    # certificate is the one a fresh certificate at it gives, on the dense
    # kernel (n = 10) and on CG (n = 80).
    monkeypatch.setattr(solver, "FILL_BUDGET", oracles.POLICY[mode])
    for (g, d), head, k in ((instance(9, n=10, extra=9, demand="gauss"), 2, 8),
                            (instance(1, n=80, extra=12, demand="gauss"), 1, 2)):
        cfg = frankwolfe.FWConfig(q=g.n + head, alpha=0.005, max_iterations=k)
        s, cert, _ = frankwolfe.run(g, d, cfg)
        _, _, longer = frankwolfe.run(g, d, replace(cfg, max_iterations=k + 1))
        assert longer.records[k].phi == longer.records[k - 1].phi, g.n  # rejected
        assert not cert.certified, g.n
        assert cert == frankwolfe.certificate(g, s, d, cfg), g.n


@pytest.mark.parametrize("mode", oracles.POLICY)
def test_phi_value_lies_in_its_own_interval(monkeypatch, mode):
    # phi_value is the solve's certified lower end, so lower_bound <=
    # phi_value <= upper_bound holds exactly, with no round-off allowance,
    # for run's certificate (certified, or at the end of a short budget)
    # and for certificate at the backbone indicator and at run's output.
    # On a grid comb and on trees, where the tree solve is exact in one
    # step, d^T x_hat can lie an ulp above phi_lb + bound.
    monkeypatch.setattr(solver, "FILL_BUDGET", oracles.POLICY[mode])
    cases = {"grid-comb": oracles.grid_comb(30, 30, seed=1),
             "cli-tree-1": cli.generate_instance(3000, 0, seed=1),
             "cli-tree-2": cli.generate_instance(3000, 0, seed=2)}
    for name, (g, d) in cases.items():
        assert oracles.graph_context(g).mode == mode, name
        cfg = frankwolfe.FWConfig(q=cli.default_budget(g), alpha=0.1)
        s, cert, _ = frankwolfe.run(g, d, cfg)
        assert cert.certified, name
        certs = [cert, frankwolfe.run(g, d, replace(cfg, max_iterations=2))[1],
                 frankwolfe.certificate(g, g.backbone_indicator(), d, cfg),
                 frankwolfe.certificate(g, s, d, cfg)]
        for k, c in enumerate(certs):
            assert c.lower_bound <= c.phi_value <= c.upper_bound, (name, k, c)


def test_dense_verdict_is_the_gap_test():
    # On the dense kernel phi_lb = phi and bound = 0, so upper_bound <=
    # (1 + alpha) lower_bound is the gap test gap <= tau * phi.
    rng = np.random.default_rng(23)
    verdicts = []
    for _ in range(20):
        g, d = oracles.random_instance(rng, int(rng.integers(5, 12)), int(rng.integers(3, 9)),
                                       demand="gauss")
        q = g.n - 1 + int(rng.integers(1, g.m - g.n + 2))
        for alpha in (0.05, 0.5):
            for k in (1, 2, 4, 8, 100):
                cfg = frankwolfe.FWConfig(q=q, alpha=alpha, max_iterations=k)
                s, _, _ = frankwolfe.run(g, d, cfg)
                cert = frankwolfe.certificate(g, s, d, cfg)
                assert cert.upper_bound == cert.phi_value
                assert cert.lower_bound == cert.phi_value - cert.gap
                assert cert.certified == (cert.gap <= cert.tau * cert.phi_value)
                verdicts.append(cert.certified)
    assert 0 < sum(verdicts) < len(verdicts)


def test_trace_counts_each_solve_cg_iterations():
    # Each record carries the CG iterations of the solve made since the one
    # before: the tree solve at the backbone indicator takes one, and a step
    # on an expander, solved for phi to epsilon, takes about half of a
    # solve to energy accuracy epsilon.
    g, d = cli.generate_instance(2000, 4000, seed=1, demand="gauss", multigraph=True)
    cfg = frankwolfe.FWConfig(q=cli.default_budget(g), alpha=0.05)
    s, cert, trace = frankwolfe.run(g, d, cfg)
    assert not g.plan.low_fill and cert.certified
    its = [rec.cg_iterations for rec in trace.records]
    assert its[0] == 1 and min(its[1:]) > 1
    step = congestion.approx_diff(g, s, d, cfg.solver).cg_iterations
    full = solver.solve(graphs.assemble_laplacian(g, s), d, cfg.solver,
                        context=oracles.graph_context(g))
    assert 0.35 * full.iterations <= step <= 0.7 * full.iterations
    # The dense kernel runs no CG.
    g, d = instance(3)
    _, _, trace = frankwolfe.run(g, d, frankwolfe.FWConfig(q=g.n, alpha=0.05))
    assert all(rec.cg_iterations == 0 for rec in trace.records)


def test_loose_steps_certify_at_epsilon_on_jacobi(monkeypatch):
    # On a Jacobi expander each tried step is read to a looser phi
    # accuracy, in fewer CG iterations than a read at epsilon at the same
    # point. The run still makes one solve per record, and the point that
    # certified loosely is read again at epsilon, so run's certificate is
    # the one certificate gives at run's output, and its phi lies within
    # epsilon of a 1e-11 reference solve.
    g, d = cli.generate_instance(2000, 4000, seed=1, demand="gauss", multigraph=True)
    cfg = frankwolfe.FWConfig(q=cli.default_budget(g), alpha=0.05)
    (s, cert, trace), calls = spied_run(monkeypatch, g, d, cfg)
    assert not g.plan.low_fill and cert.certified
    assert cert == frankwolfe.certificate(g, s, d, cfg)
    ref = congestion.phi(g, s, d, solver.SolverConfig(epsilon=1e-11))
    assert abs(cert.phi_value - ref) <= cfg.solver.epsilon * ref
    assert len(calls) == len(trace.records)
    eps = cfg.solver.epsilon
    trials = 0
    for (point, scfg, res), rec in zip(calls, trace.records):
        assert rec.cg_iterations == res.cg_iterations
        if scfg.epsilon > eps:
            trials += 1
            full = congestion.approx_diff(g, point, d, cfg.solver)
            assert res.cg_iterations < full.cg_iterations, rec.iteration
    assert trials == len(trace.records) - 2  # all but the start and the second reading
    assert trace.records[-2].bound > eps * trace.records[-2].phi
    assert trace.records[-1].bound <= eps * trace.records[-1].phi


@pytest.mark.parametrize("case", ["grid-comb", "dense"])
def test_exact_solves_read_each_record_once(monkeypatch, case):
    # A direct factor (30 x 30 grid comb) and the dense kernel (n = 40)
    # meet epsilon whatever accuracy a tried step asks for, so no point is
    # read twice: one solve per record, every record within epsilon, and
    # the records those of a run whose every solve asks for epsilon.
    if case == "grid-comb":
        g, d = oracles.grid_comb(30, 30, seed=1)
        assert g.plan.low_fill
    else:
        g, d = cli.generate_instance(40, 60, seed=5, demand="gauss")
        assert g.n <= solver.SolverConfig.dense_threshold
    cfg = frankwolfe.FWConfig(q=cli.default_budget(g), alpha=0.05)
    (s, cert, trace), calls = spied_run(monkeypatch, g, d, cfg)
    assert cert.certified and len(calls) == len(trace.records) > 2
    assert all(rec.bound <= cfg.solver.epsilon * rec.phi for rec in trace.records)
    real = congestion.approx_diff
    monkeypatch.setattr(congestion, "approx_diff",
                        lambda g, s, d, scfg=None: real(g, s, d, cfg.solver))
    s_eps, cert_eps, trace_eps = frankwolfe.run(g, d, cfg)
    assert_array_equal(s, s_eps)
    assert cert == cert_eps
    assert ([replace(r, wall_time=0.0) for r in trace.records]
            == [replace(r, wall_time=0.0) for r in trace_eps.records])


def test_run_is_deterministic():
    g, d = instance(11, n=8, extra=6)
    cfg = frankwolfe.FWConfig(q=g.n + 1, alpha=0.05, max_iterations=50)
    s1, c1, t1 = frankwolfe.run(g, d, cfg)
    s2, c2, t2 = frankwolfe.run(g, d, cfg)
    assert_array_equal(s1, s2)
    assert c1.gap == c2.gap and c1.phi_value == c2.phi_value
    assert len(t1.records) == len(t2.records)


def test_certificate_rejects_an_over_budget_point():
    g, d = cli.generate_instance(40, 60, seed=5)
    q = cli.default_budget(g)  # 69 of 99 edges
    cfg = frankwolfe.FWConfig(q=q, alpha=0.1)
    with pytest.raises(InvalidInputError, match="above the budget"):
        frankwolfe.certificate(g, np.ones(g.m), d, cfg)
    # A point within the round-off slack that run allows its iterates is evaluated.
    s = frankwolfe.lmo_top_q(np.zeros(g.m), g, q)
    s[np.flatnonzero(s == 0.0)[0]] = frankwolfe.BUDGET_SLACK / 2
    frankwolfe.certificate(g, s, d, cfg)


def test_certificate_trivial_at_tight_budget():
    # q = |T| leaves the backbone as the only feasible point
    g, d = instance(12, n=7, extra=5)
    cfg = frankwolfe.FWConfig(q=g.n - 1, alpha=0.05)
    cert = frankwolfe.certificate(g, g.backbone_indicator(), d, cfg)
    assert cert.certified and cert.gap <= 1e-12
    assert cert.bound_factor == pytest.approx(1.05)


def test_overflowed_phi_never_certifies():
    # At +-1e155 phi overflows at every point of a unit ring, and
    # inf <= tau * inf must not certify it, whether the dense kernel or CG
    # (above the dense threshold) solves. At +-1e154 only the triangle's
    # backbone point overflows: run steps past it and certifies the
    # all-closed point.
    g = oracles.ring(3)
    cfg = frankwolfe.FWConfig(q=3, alpha=0.05)
    s, cert, _ = frankwolfe.run(g, np.array([1e154, 0.0, -1e154]), cfg)
    assert cert.certified and np.isfinite(cert.phi_value) and np.isfinite(cert.gap)
    assert_array_equal(s, np.ones(3))
    for n in (3, 65, 100):
        g = oracles.ring(n)
        cfg = frankwolfe.FWConfig(q=n, alpha=0.05)
        d = np.zeros(n)
        d[0], d[-1] = 1e155, -1e155
        _, cert, trace = frankwolfe.run(g, d, cfg)
        assert not cert.certified and cert.bound_factor is None, n
        assert cert.phi_value == np.inf, n
        assert len(trace.records) == 1, n  # no step past the start can be compared
        for point in (g.backbone_indicator(), np.ones(n)):
            assert not frankwolfe.certificate(g, point, d, cfg).certified, n


def test_budget_monotonicity():
    # a larger budget never certifies a worse value
    g, d = instance(13, n=7, extra=6)
    values = []
    for q in (g.n - 1, g.n + 1, g.m):
        cfg = frankwolfe.FWConfig(q=q, alpha=0.02, max_iterations=300)
        s, _, _ = frankwolfe.run(g, d, cfg)
        values.append(congestion.phi(g, s, d))
    assert values[1] <= values[0] + 1e-9
    assert values[2] <= values[1] + 1e-9


def test_smoothness_bound_on_normalized_instances():
    # with lambda_2(L_T) = 1 and a unit demand, curvature along any segment
    # is governed by the hexagon norm with modulus 2 max phi on the segment
    rng = np.random.default_rng(14)
    for seed in range(3):
        g0, d0 = instance(seed + 15, n=8, extra=6, demand="gauss")
        g, d = oracles.scale_to_unit(g0, d0)
        q = g.n + 1
        s1 = oracles.random_fractional(rng, g, lo=0.3)
        s2 = oracles.random_fractional(rng, g, lo=0.3)
        seg = [oracles.phi(g, (1 - t) * s1 + t * s2, d) for t in np.linspace(0, 1, 9)]
        L = 2.0 * max(seg)
        grad = oracles.gradient_fd(g, s1, d)
        lhs = oracles.phi(g, s2, d)
        step = oracles.hexagon_norm(s2 - s1, q)
        rhs = seg[0] + grad @ (s2 - s1) + 0.5 * L * step ** 2
        assert lhs <= rhs + 1e-9


# --- hexagon norms --------------------------------------------------------------------

def test_hexagon_norm_examples():
    assert oracles.hexagon_norm(np.array([0.5, -0.5, 0.25]), 2) == 1.25
    assert oracles.hexagon_norm(np.array([0.1, 0.1]), 4) == pytest.approx(0.4)
    assert oracles.hexagon_norm(np.zeros(3), 5) == 0.0


def test_hexagon_dual_examples():
    assert oracles.hexagon_dual_norm(np.array([3.0, -1.0, 2.0]), 2) == 2.5
    assert oracles.hexagon_dual_norm(np.array([3.0]), 2) == 1.5  # zero padded


def test_hexagon_dual_matches_subset_reference():
    rng = np.random.default_rng(16)
    for _ in range(30):
        u = rng.normal(size=rng.integers(1, 9))
        q = int(rng.integers(1, 11))
        assert abs(oracles.hexagon_dual_norm(u, q)
                   - oracles.hexagon_dual_subsets(u, q)) < 1e-12


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=10),
       st.lists(st.floats(-100, 100), min_size=1, max_size=10),
       st.integers(1, 12))
def test_hexagon_duality_inequality(us, vs, q):
    k = min(len(us), len(vs))
    u, v = np.array(us[:k]), np.array(vs[:k])
    assert abs(u @ v) <= oracles.hexagon_norm(u, q) * oracles.hexagon_dual_norm(v, q) + 1e-9


def test_hexagon_norms_scale():
    u = np.array([1.0, -2.0, 0.5])
    for q in (1, 2, 5):
        assert oracles.hexagon_norm(3.0 * u, q) == pytest.approx(
            3.0 * oracles.hexagon_norm(u, q))
        assert oracles.hexagon_dual_norm(3.0 * u, q) == pytest.approx(
            3.0 * oracles.hexagon_dual_norm(u, q))
