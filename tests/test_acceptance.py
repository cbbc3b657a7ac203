"""Acceptance gate: one test per release criterion, one verdict line each;
criterion 6 runs a second time above the dense threshold, on CG.

Each test prints a single pass/fail line into the terminal summary (see
conftest.record_acceptance) carrying the measured worst-case statistics,
then asserts. The criteria cover derivative correctness, the analytic
identities behind the certificates, the stochastic rounding guarantees,
the solver contract, and desk-scale performance.
"""

import math
import time

import numpy as np
import pytest

import conftest
import oracles
from reswitch import (cli, congestion, enumeration, frankwolfe, graphs,
                      rounding, solver)


def criterion(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    conftest.record_acceptance(f"criterion {num:02d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} {name} failed: {detail}"


def test_criterion_01_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(5, 41))
        g, d = oracles.random_instance(rng, n, int(rng.integers(3, n)), demand="gauss")
        s = oracles.random_fractional(rng, g, lo=0.2)
        grad = congestion.exact_gradient(g, s, d)
        fd = oracles.gradient_fd(g, s, d, h=1e-5)
        # Central differences carry an absolute noise floor near 1e-9 times
        # the gradient scale, so entries far below that scale are held to an
        # absolute bound of 1e-8 * max|fd| instead of a pure ratio.
        scale = np.maximum(np.abs(fd), 1e-3 * np.abs(fd).max())
        worst = max(worst, float(np.max(np.abs(grad - fd) / scale)))
    elapsed = time.perf_counter() - t0
    criterion(1, "gradient-vs-finite-differences",
              worst <= 1e-5 and elapsed < 10.0,
              f"max rel err {worst:.2e}, {elapsed:.1f} s over 50 instances")


def test_criterion_02_homogeneity_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(4, 30))
        g, d = oracles.random_instance(rng, n, int(rng.integers(2, n)), demand="gauss")
        s = oracles.random_fractional(rng, g)
        worst = max(worst, oracles.homogeneity_residual(g, s, d))
    criterion(2, "degree-minus-one-homogeneity", worst <= 1e-9,
              f"max residual {worst:.2e} over 100 pairs")


def test_criterion_03_foster_leverage_sum():
    rng = np.random.default_rng(103)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(4, 30))
        g, _ = oracles.random_instance(rng, n, int(rng.integers(2, 2 * n)),
                                       multigraph=True)
        s = (rng.random(g.m) < rng.uniform(0.2, 0.9)).astype(float)
        s[g.backbone_mask] = 1.0
        worst = max(worst, abs(float(graphs.leverages(g, s).sum()) - (g.n - 1)))
    criterion(3, "foster-leverage-sum", worst <= 1e-8,
              f"max |sum - (n-1)| = {worst:.2e} over 50 configurations")


def test_criterion_04_cauchy_schwarz_voltage_bound():
    rng = np.random.default_rng(104)
    worst = -np.inf
    for k in range(50):
        n = int(rng.integers(4, 30))
        g, d = oracles.random_instance(rng, n, int(rng.integers(2, n)), demand="gauss")
        s = oracles.random_fractional(rng, g)
        diff = congestion.approx_diff(g, s, d)
        rho = graphs.effective_resistances(g, s)
        worst = max(worst, float(np.max(diff.delta ** 2 - rho * diff.phi)))
    criterion(4, "cauchy-schwarz-voltage-bound", worst <= 1e-10,
              f"max (delta^2 - rho phi) = {worst:.2e} over 50 instances")


def test_criterion_05_hessian_suite():
    rng = np.random.default_rng(105)
    worst_diff = 0.0
    worst_eig = np.inf
    worst_ratio = 0.0
    worst_scaled = 0.0
    for k in range(20):
        n = int(rng.integers(5, 26))
        g, d = oracles.random_instance(rng, n, int(rng.integers(3, n)), demand="gauss")

        s = oracles.random_fractional(rng, g)
        info = congestion.hessian_dense(g, s, d)
        ref = oracles.hessian_entrywise(g, s, d)
        scale = max(1.0, float(np.abs(ref).max()))
        worst_diff = max(worst_diff, float(np.abs(info.H - ref).max()) / scale)
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(info.H)[0]))

        ones = np.ones(g.m)
        info1 = congestion.hessian_dense(g, ones, d)
        worst_ratio = max(worst_ratio,
                          float(np.linalg.norm(info1.H, 2)) / info1.opnorm_bound)

        gs, ds = oracles.scale_to_unit(g, d)
        info_s = congestion.hessian_dense(gs, np.ones(gs.m), ds)
        worst_scaled = max(worst_scaled, float(np.linalg.norm(info_s.H, 2)))
    ok = (worst_diff <= 1e-10 and worst_eig >= -1e-8
          and worst_ratio <= 1.0 + 1e-8 and worst_scaled <= 2.0 + 1e-8)
    criterion(5, "hessian-factorization-and-bounds", ok,
              f"entrywise diff {worst_diff:.2e}, min eig {worst_eig:.2e}, "
              f"norm/2phi {worst_ratio:.4f}, scaled norm {worst_scaled:.4f}")


def test_criterion_06_certificate_soundness():
    rng = np.random.default_rng(106)
    certified = 0
    violations = 0
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(5, 9))
        free = int(rng.integers(4, 11))
        g, d = oracles.random_instance(rng, n, free, multigraph=True, demand="gauss")
        q = (g.n - 1) + int(rng.integers(1, free + 1))
        best = enumeration.enumerate_optimal(g, d, q).best_phi
        for alpha in (0.05, 0.1, 0.5):
            cfg = frankwolfe.FWConfig(q=q, alpha=alpha, max_iterations=600)
            s, cert, _ = frankwolfe.run(g, d, cfg)
            if not cert.certified:
                continue
            certified += 1
            ratio = congestion.phi(g, s, d) / ((1.0 + alpha) * best)
            worst = max(worst, ratio)
            if ratio > 1.0 + 1e-6:
                violations += 1
    criterion(6, "alpha-certificate-soundness", violations == 0 and certified > 0,
              f"{violations} violations in {certified} certified runs "
              f"over 150 (instance, alpha) cases; worst ratio {worst:.6f}")


@pytest.mark.parametrize("mode", oracles.POLICY)
def test_criterion_06_certificate_soundness_on_cg(monkeypatch, mode):
    # Criterion 6 above the dense threshold, where every solve runs CG on
    # the graph's context, in each preconditioner mode.
    monkeypatch.setattr(solver, "FILL_BUDGET", oracles.POLICY[mode])
    rng = np.random.default_rng(606)
    certified = 0
    violations = 0
    worst = 0.0
    for k in range(12):
        n = int(rng.integers(65, 121))
        free = int(rng.integers(6, 13))
        g, d = oracles.random_instance(rng, n, free, multigraph=True, demand="gauss")
        assert g.context.mode == mode
        q = (g.n - 1) + int(rng.integers(1, free + 1))
        best = enumeration.enumerate_optimal(g, d, q).best_phi
        for alpha in (0.05, 0.1, 0.5):
            cfg = frankwolfe.FWConfig(q=q, alpha=alpha, max_iterations=600)
            s, cert, _ = frankwolfe.run(g, d, cfg)
            if not cert.certified:
                continue
            certified += 1
            ratio = congestion.phi(g, s, d) / ((1.0 + alpha) * best)
            worst = max(worst, ratio)
            if ratio > 1.0 + 1e-6:
                violations += 1
    criterion(6, f"alpha-certificate-soundness-cg-{mode}",
              violations == 0 and certified > 0,
              f"{violations} violations in {certified} certified runs "
              f"over 36 (instance, alpha) cases, n = 65-120; worst ratio {worst:.6f}")


def test_criterion_07_iteration_bound():
    rng = np.random.default_rng(107)
    violations = 0
    checked = 0
    worst = 0.0
    for k in range(15):
        n = int(rng.integers(5, 13))
        g0, d0 = oracles.random_instance(rng, n, int(rng.integers(3, n)), demand="gauss")
        g, d = oracles.scale_to_unit(g0, d0)
        head = int(rng.integers(1, 4))
        q = (g.n - 1) + head
        for alpha in (0.05, 0.1, 0.5):
            bound = math.ceil(2 * 2 * (2 * head) / alpha)  # ceil(2 L D^2 / alpha)
            cfg = frankwolfe.FWConfig(q=q, alpha=alpha, max_iterations=bound + 1)
            _, cert, trace = frankwolfe.run(g, d, cfg)
            checked += 1
            t_cert = trace.records[-1].iteration
            worst = max(worst, t_cert / bound)
            if not (cert.certified and t_cert <= bound):
                violations += 1
    criterion(7, "iteration-bound", violations == 0,
              f"{violations} violations in {checked} runs; "
              f"worst t/bound {worst:.3f}")


def test_criterion_08_rounding_statistics():
    rng = np.random.default_rng(108)
    g, d = oracles.random_instance(rng, 14, 40, demand="gauss")
    q = (g.n - 1) + 14
    cfg = frankwolfe.FWConfig(q=q, alpha=0.02, max_iterations=200)
    s_frac, _, _ = frankwolfe.run(g, d, cfg)
    params0 = rounding.RoundingParams(delta=0.1)
    sbar = rounding.floor_probabilities(s_frac, g, params0)

    draws = 10000
    counts = np.zeros(g.m)
    for seed in range(draws):
        rep = rounding.sample(sbar, g, g.m, rounding.RoundingParams(
            delta=0.1, repair="resample", rng_seed=seed))
        counts += rep.sampled.sbin
    freq = counts / draws
    sigma = np.sqrt(sbar * (1.0 - sbar) / draws)
    freq_ok = bool(np.all(np.abs(freq - sbar) <= 3.0 * sigma + 1e-12))

    trim_ok = True
    for seed in range(draws):
        rep = rounding.sample(sbar, g, q, rounding.RoundingParams(
            delta=0.1, rng_seed=seed))
        if rep.sampled.sbin.sum() > q:
            trim_ok = False
            break
        if seed % 200 == 0 and graphs.algebraic_connectivity(
                g, rep.sampled.sbin) <= 1e-9:
            trim_ok = False
            break

    # complete dense instance keeps the sandwich bound below 1
    edges = [(i, j, 1.0) for i in range(40) for j in range(i + 1, 40)]
    backbone = [k for k, (i, j, _) in enumerate(edges) if i == 0]
    gs = graphs.make_graph(40, edges, backbone)
    sbar_s = np.full(gs.m, 0.9)
    sbar_s[gs.backbone_mask] = 1.0
    delta = 0.3
    eps = rounding.sandwich_epsilon(gs, sbar_s, delta)
    fails = 0
    sandwich_draws = 1000
    for seed in range(sandwich_draws):
        rep = rounding.sample(sbar_s, gs, gs.m, rounding.RoundingParams(
            delta=delta, repair="resample", rng_seed=seed))
        if not rounding.sandwich_check(gs, sbar_s, rep.sampled.sbin, eps):
            fails += 1
    slack = 3.0 * np.sqrt(delta * (1 - delta) / sandwich_draws)
    sandwich_ok = eps < 1.0 and fails / sandwich_draws <= delta + slack

    ok = freq_ok and trim_ok and sandwich_ok
    criterion(8, "rounding-statistics", ok,
              f"frequencies within 3 sigma: {freq_ok}; trim budget+connectivity: "
              f"{trim_ok}; sandwich eps {eps:.3f}, failure rate "
              f"{fails / sandwich_draws:.4f} <= {delta + slack:.4f}")


def test_criterion_09_shrinkage_budget_violations():
    rng = np.random.default_rng(109)
    draws = 10000
    worst = 0.0
    ok = True
    for k in range(10):
        n = int(rng.integers(10, 17))
        g, _ = oracles.random_instance(rng, n, int(rng.integers(40, 61)),
                                       multigraph=True)
        head = int(rng.integers(12, 26))
        q = (g.n - 1) + head
        sbar = g.backbone_indicator()
        off = ~g.backbone_mask
        sbar[off] = rng.uniform(0.4, 0.95, off.sum())
        for delta in (0.1, 0.01):
            over = 0
            for seed in range(draws):
                rep = rounding.sample(sbar, g, q, rounding.RoundingParams(
                    delta=delta, repair="shrinkage", rng_seed=seed))
                over += rep.sampled.sbin.sum() > q
            rate = over / draws
            margin = delta + 3.0 * np.sqrt(delta * (1 - delta) / draws)
            worst = max(worst, rate / margin)
            ok = ok and rate <= margin
    criterion(9, "shrinkage-budget-violations", ok,
              f"worst rate/bound {worst:.3f} over 10 instances x 2 deltas "
              f"x {draws} draws")


def test_criterion_10_hexagon_dual_norm():
    rng = np.random.default_rng(110)
    worst = 0.0
    for k in range(100):
        u = rng.normal(size=int(rng.integers(1, 9))) * 10.0 ** rng.integers(-2, 3)
        q = int(rng.integers(1, 12))
        got = oracles.hexagon_dual_norm(u, q)
        want = oracles.hexagon_dual_subsets(u, q)
        worst = max(worst, abs(got - want))
    criterion(10, "hexagon-dual-norm", worst <= 1e-9,
              f"max |formula - vertex enumeration| = {worst:.2e} over 100 vectors")


def test_criterion_11_solver_contract(monkeypatch):
    # Every solve takes the CG path, whatever its size.
    monkeypatch.setattr(solver.SolverConfig, "dense_threshold", 0)
    rng = np.random.default_rng(111)
    worst = 0.0
    violations = 0
    for k in range(200):
        n = int(rng.integers(10, 201))
        g, d = oracles.random_instance(rng, n, int(rng.integers(2, n)), demand="gauss")
        s = oracles.random_fractional(rng, g)
        L = graphs.assemble_laplacian(g, s)
        Ld = L.toarray()
        x_star = solver.pinv_laplacian(Ld) @ d
        den = float(x_star @ (Ld @ x_star))
        for eps in (1e-2, 1e-6):
            cfg = solver.SolverConfig(epsilon=eps)
            ctx = solver.context_from_edges(
                g.n, g.ei[g.backbone_mask], g.ej[g.backbone_mask],
                (s * g.w)[g.backbone_mask])
            res = solver.solve(L, d, cfg, context=ctx)
            e = res.x - x_star
            rel = np.sqrt(max(float(e @ (Ld @ e)), 0.0) / den)
            worst = max(worst, rel / eps)
            if rel > eps:
                violations += 1
    criterion(11, "solver-energy-contract", violations == 0,
              f"{violations} violations over 200 instances x 2 epsilons; "
              f"worst err/eps {worst:.3f}")


def test_criterion_12_performance_scaling():
    # Each size is timed as the best of three runs: interference from other
    # processes only ever adds time, and one preempted iteration at m = 20k
    # would otherwise move the ratio by a factor of two.
    timings = {}
    for n, m in ((6667, 20000), (66667, 200000)):
        g, d = cli.generate_instance(n, m - (n - 1), seed=112, multigraph=True)
        cfg = frankwolfe.FWConfig(q=cli.default_budget(g), alpha=0.001, max_iterations=4)
        runs = []
        for _ in range(3):
            _, _, trace = frankwolfe.run(g, d, cfg)
            runs.append(float(np.median(np.diff([r.wall_time for r in trace.records]))))
        timings[m] = min(runs)
    ratio = timings[200000] / timings[20000]

    g, d = cli.generate_instance(50000, 150000 - 49999, seed=113, multigraph=True)
    cfg = frankwolfe.FWConfig(q=cli.default_budget(g), alpha=0.1)
    t0 = time.perf_counter()
    _, cert, _ = frankwolfe.run(g, d, cfg)
    certified_time = time.perf_counter() - t0

    ok = ratio <= 15.0 and cert.certified and certified_time < 300.0
    criterion(12, "performance-scaling", ok,
              f"per-iteration ratio m=200k/20k = {ratio:.1f} (<= 15); "
              f"certified n=50000 solve in {certified_time:.1f} s (< 300)")
