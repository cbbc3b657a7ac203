import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
import theory
from reswitch import graphs, rounding
from reswitch.errors import (InfeasibleShrinkageError, InvalidInputError,
                             ResampleExhaustedError)


def instance(seed, n=10, extra=8, **kw):
    rng = np.random.default_rng(seed)
    return oracles.random_instance(rng, n, extra, **kw)


def complete_graph(n, w=1.0):
    edges = [(i, j, w) for i in range(n) for j in range(i + 1, n)]
    backbone = [k for k, (i, j, _) in enumerate(edges) if i == 0]
    return graphs.make_graph(n, edges, backbone)


# --- parameters and probability floor ----------------------------------------

def test_params_validation():
    with pytest.raises(InvalidInputError):
        rounding.RoundingParams(delta=0.0)
    with pytest.raises(InvalidInputError):
        rounding.RoundingParams(delta=0.1, p_min_constant=-1.0)
    with pytest.raises(InvalidInputError):
        rounding.RoundingParams(delta=0.1, repair="reject")
    with pytest.raises(InvalidInputError):
        rounding.RoundingParams(delta=0.1, max_resamples=-1)
    with pytest.raises(InvalidInputError, match="p_min_constant"):
        rounding.RoundingParams(delta=0.1, p_min_constant=float("nan"))
    with pytest.raises(InvalidInputError, match="rng_seed"):
        rounding.RoundingParams(delta=0.1, rng_seed=-1)


def test_floor_defaults_to_identity():
    g, _ = instance(1)
    rng = np.random.default_rng(2)
    s = oracles.random_fractional(rng, g)
    sbar = rounding.floor_probabilities(s, g, rounding.RoundingParams(delta=0.1))
    assert_array_equal(sbar, s)  # constant 0 means no floor


def test_floor_value_at_constant_one():
    rng = np.random.default_rng(3)
    g, _ = oracles.random_instance(rng, 100, 40)
    s = g.backbone_indicator()
    params = rounding.RoundingParams(delta=0.1, p_min_constant=1.0)
    sbar = rounding.floor_probabilities(s, g, params)
    off = ~g.backbone_mask
    # ln(100 / 0.1) / 100
    assert_allclose(sbar[off], np.log(1000.0) / 100.0, atol=1e-15)
    assert np.all(sbar[g.backbone_mask] == 1.0)


def test_floor_clamps_at_one():
    g, _ = instance(4)
    s = g.backbone_indicator()
    params = rounding.RoundingParams(delta=0.1, p_min_constant=1e6)
    assert_array_equal(rounding.floor_probabilities(s, g, params), np.ones(g.m))


# --- shrinkage ------------------------------------------------------------------

def test_shrinkage_inactive_when_mass_is_small():
    g, _ = instance(5, n=8, extra=10)
    s = g.backbone_indicator()
    s[~g.backbone_mask] = 0.01
    out = rounding.shrinkage(s, g, g.n - 1 + 9, 0.1)
    assert_array_equal(out, s)


def test_shrinkage_scales_to_headroom():
    rng = np.random.default_rng(6)
    g, _ = oracles.random_instance(rng, 30, 60)
    s = g.backbone_indicator()
    off = ~g.backbone_mask
    s[off] = 0.7
    q = (g.n - 1) + 50
    out = rounding.shrinkage(s, g, q, 0.1)
    gamma = np.sqrt(2.0 * 50 * np.log(10.0))
    theta = (50 - gamma) / (0.7 * off.sum())
    assert_allclose(out[off], theta * 0.7, atol=1e-12)
    assert np.all(out[g.backbone_mask] == 1.0)
    assert out[off].sum() == pytest.approx(50 - gamma)


def test_shrinkage_requires_headroom():
    g, _ = instance(7)
    with pytest.raises(InvalidInputError):
        rounding.shrinkage(g.backbone_indicator(), g, g.n - 1, 0.1)


def test_shrinkage_infeasible_when_gamma_exceeds_head():
    g, _ = instance(8)
    with pytest.raises(InfeasibleShrinkageError):
        rounding.shrinkage(g.backbone_indicator(), g, g.n, 0.1)  # head 1, gamma 2.14


# --- sampling -------------------------------------------------------------------

def test_sample_binary_probabilities_are_deterministic():
    # with a 0/1 sbar and the budget at its on-count, the draw passes through
    g, _ = instance(9)
    s = g.backbone_indicator()
    s[np.flatnonzero(~g.backbone_mask)[:2]] = 1.0
    for seed in (0, 7, 123):
        report = rounding.sample(s, g, int(s.sum()),
                                 rounding.RoundingParams(delta=0.1, rng_seed=seed))
        assert_array_equal(report.sampled.sbin, s)
        assert report.repairs == ()


def test_sample_same_seed_reproduces_bitwise():
    g, _ = instance(10)
    rng = np.random.default_rng(11)
    sbar = oracles.random_fractional(rng, g)
    params = rounding.RoundingParams(delta=0.1, rng_seed=42)
    a = rounding.sample(sbar, g, g.n + 1, params)
    b = rounding.sample(sbar, g, g.n + 1, params)
    assert_array_equal(a.sampled.sbin, b.sampled.sbin)
    assert a.repairs == b.repairs


def test_trim_hits_budget_exactly_and_spares_backbone():
    g, _ = instance(12, n=10, extra=10)
    q = g.n  # one slot beyond the backbone
    sbar = g.backbone_indicator()
    sbar[~g.backbone_mask] = 0.9
    report = rounding.sample(sbar, g, q, rounding.RoundingParams(delta=0.1, rng_seed=1))
    assert report.sampled.sbin.sum() == q
    assert np.all(report.sampled.sbin[g.backbone_mask] == 1.0)
    assert all(kind == "removed" for _, kind in report.repairs)
    assert all(not g.backbone_mask[e] for e, _ in report.repairs)


def test_fill_adds_highest_probability_edges():
    g, _ = instance(13, n=8, extra=8)
    off = np.flatnonzero(~g.backbone_mask)
    sbar = g.backbone_indicator()
    ranks = np.linspace(0.01, 0.04, len(off))
    sbar[off] = ranks  # tiny, so the raw draw stays empty off the backbone
    q = (g.n - 1) + 3
    report = rounding.sample(sbar, g, q, rounding.RoundingParams(delta=0.1, rng_seed=5))
    added = [e for e, kind in report.repairs if kind == "added"]
    assert report.sampled.sbin.sum() == q
    assert set(added) == set(off[np.argsort(-ranks)][:3])


def test_trim_removes_lowest_probability_edges_first():
    g, _ = instance(14, n=8, extra=6)
    off = np.flatnonzero(~g.backbone_mask)
    sbar = np.ones(g.m)  # everything drawn
    sbar[off] = np.linspace(0.99, 0.9, len(off))
    q = (g.n - 1) + 2
    report = rounding.sample(sbar, g, q, rounding.RoundingParams(delta=0.1, rng_seed=2))
    removed = [e for e, kind in report.repairs if kind == "removed"]
    keep_count = len(off) - len(removed)
    assert report.sampled.sbin.sum() == q
    # the survivors are the highest-probability off edges
    assert set(off[np.argsort(-sbar[off])][:keep_count]) == \
        set(np.flatnonzero(report.sampled.sbin * ~g.backbone_mask))


def test_trim_and_fill_match_lexsort_reference():
    # Repairs come in (probability, edge index) order, as a full lexsort of
    # the candidates gives them; repeated probabilities exercise the ties.
    rng = np.random.default_rng(17)
    for seed in range(12):
        g, _ = instance(seed, n=12, extra=20)
        sbar = rng.choice([0.0, 0.2, 0.5, 0.9], size=g.m)
        sbar[g.backbone_mask] = 1.0
        draw = rng.random(g.m) < 0.5
        draw[g.backbone_mask] = True
        for q in (g.n - 1, g.n, g.n + 4, g.m):
            count = int(draw.sum())
            on = np.flatnonzero(draw & ~g.backbone_mask)
            off = np.flatnonzero(~draw)
            expected = ([(int(e), "removed") for e in
                         on[oracles.lexsort_smallest(sbar[on], count - q)]] +
                        [(int(e), "added") for e in
                         off[oracles.lexsort_smallest(-sbar[off], q - count)]])
            fixed, repairs = rounding._trim_and_fill(draw, sbar, g, q)
            assert repairs == expected
            assert fixed.sum() == min(q, g.m)


def test_resample_mode_retries_until_feasible():
    g, _ = instance(15, n=8, extra=8)
    sbar = g.backbone_indicator()
    sbar[~g.backbone_mask] = 0.35
    params = rounding.RoundingParams(delta=0.1, repair="resample",
                                     max_resamples=200, rng_seed=3)
    report = rounding.sample(sbar, g, g.n, params)
    assert report.sampled.sbin.sum() <= g.n
    assert report.repairs == ()


def test_resample_exhaustion_carries_last_draw():
    g, _ = instance(16, n=8, extra=8)
    sbar = np.ones(g.m)  # always overshoots a tight budget
    params = rounding.RoundingParams(delta=0.1, repair="resample",
                                     max_resamples=2, rng_seed=4)
    with pytest.raises(ResampleExhaustedError) as info:
        rounding.sample(sbar, g, g.n, params)
    assert info.value.last_draw is not None
    assert info.value.last_draw.sum() > g.n


@pytest.mark.parametrize("repair", rounding.REPAIR_MODES)
def test_sample_rejects_budget_below_backbone(repair):
    g, _ = instance(12)
    t_size = np.count_nonzero(g.backbone_mask)
    params = rounding.RoundingParams(delta=0.1, repair=repair)
    with pytest.raises(InvalidInputError, match="below the backbone size"):
        rounding.sample(np.ones(g.m), g, t_size - 1, params)


def test_sample_rejects_wrong_length():
    g, _ = instance(17)
    with pytest.raises(InvalidInputError):
        rounding.sample(np.ones(g.m + 1), g, g.m, rounding.RoundingParams(delta=0.1))


def test_sample_rejects_nan_probabilities():
    g, _ = instance(17)
    sbar = np.where(g.backbone_mask, 1.0, np.nan)
    with pytest.raises(InvalidInputError, match=r"\[0, 1\]"):
        rounding.sample(sbar, g, g.m, rounding.RoundingParams(delta=0.1))


def test_sample_frequencies_match_probabilities():
    g, _ = instance(18, n=9, extra=7)
    rng = np.random.default_rng(19)
    sbar = oracles.random_fractional(rng, g, lo=0.2, hi=0.8)
    sbar[g.backbone_mask] = 1.0
    draws = 2000
    counts = np.zeros(g.m)
    params_base = dict(delta=0.1, repair="resample", max_resamples=0)
    for seed in range(draws):
        rep = rounding.sample(sbar, g, g.m, rounding.RoundingParams(rng_seed=seed, **params_base))
        counts += rep.sampled.sbin
    freq = counts / draws
    sigma = np.sqrt(sbar * (1 - sbar) / draws)
    assert np.all(np.abs(freq - sbar) <= 3 * sigma + 1e-12)


def test_shrinkage_mode_rarely_overshoots():
    rng = np.random.default_rng(20)
    g, _ = oracles.random_instance(rng, 12, 40)
    sbar = g.backbone_indicator()
    off = ~g.backbone_mask
    sbar[off] = rng.uniform(0.5, 1.0, off.sum())
    q = (g.n - 1) + 20
    delta = 0.1
    over = 0
    draws = 1000
    for seed in range(draws):
        rep = rounding.sample(sbar, g, q, rounding.RoundingParams(
            delta=delta, repair="shrinkage", rng_seed=seed))
        over += rep.sampled.sbin.sum() > q
    assert over / draws <= delta + 3 * np.sqrt(delta * (1 - delta) / draws)


# --- spectral sandwich -------------------------------------------------------------

def test_sandwich_epsilon_formula():
    g = complete_graph(8, w=1.5)
    sbar = np.ones(g.m)
    delta = 0.25
    lam2 = oracles.np.linalg.eigvalsh(oracles.laplacian(g.n, g.edges, sbar))[1]
    want = np.sqrt(3.0) * np.sqrt(2.0 * 1.5 * np.log(7.0 / delta) / lam2)
    assert rounding.sandwich_epsilon(g, sbar, delta) == pytest.approx(want)


def test_sandwich_epsilon_is_scale_invariant():
    # doubling all weights doubles both R and lambda_2
    g1 = complete_graph(8, w=1.0)
    g2 = complete_graph(8, w=2.0)
    e1 = rounding.sandwich_epsilon(g1, np.ones(g1.m), 0.2)
    e2 = rounding.sandwich_epsilon(g2, np.ones(g2.m), 0.2)
    assert e1 == pytest.approx(e2)


def test_sandwich_check_identity():
    g, _ = instance(21)
    s = np.ones(g.m)
    assert theory.sandwich_check(g, s, s, 0.0)


def test_sandwich_check_tracks_leverage():
    # dropping one edge moves the bottom eigenvalue to 1 - leverage
    g = graphs.make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], [0, 1])
    sbar = np.ones(3)
    sampled = np.array([1.0, 1.0, 0.0])
    assert theory.sandwich_check(g, sbar, sampled, 2 / 3 + 1e-6)
    assert not theory.sandwich_check(g, sbar, sampled, 2 / 3 - 1e-6)


def test_sandwich_check_matches_zero_mean_basis_reference():
    # The verdict flips where the reference pencil's extreme eigenvalue
    # leaves [1 - eps, 1 + eps], on random fractional points and draws.
    rng = np.random.default_rng(24)
    for k in range(20):
        g, _ = instance(40 + k, n=6 + k)
        sbar = oracles.random_fractional(rng, g)
        sampled = (rng.random(g.m) < sbar).astype(float)
        vals = oracles.sandwich_pencil_eigenvalues(g, sbar, sampled)
        gap = max(1.0 - vals.min(), vals.max() - 1.0)
        assert theory.sandwich_check(g, sbar, sampled, gap + 1e-7)
        assert not theory.sandwich_check(g, sbar, sampled, gap - 1e-7)


def test_sample_runs_sandwich_on_request():
    g = complete_graph(30)
    sbar = np.ones(g.m)
    params = rounding.RoundingParams(delta=0.3, rng_seed=0)
    report = rounding.sample(sbar, g, g.m, params)
    eps = rounding.sandwich_epsilon(g, sbar, params.delta)
    assert eps < 1.0
    assert theory.sandwich_check(g, sbar, report.sampled.sbin, eps) is True


def test_sample_skips_vacuous_sandwich():
    g, _ = instance(22, n=8, extra=3)  # sparse, so the bound lands above 1
    sbar = g.backbone_indicator()
    params = rounding.RoundingParams(delta=0.01, rng_seed=0)
    report = rounding.sample(sbar, g, g.n, params)
    assert report.sampled.sbin.sum() == g.n
    # A bound of 1 or more is vacuous, so a caller has nothing to check.
    assert rounding.sandwich_epsilon(g, sbar, params.delta) >= 1.0


def test_sample_computes_no_spectrum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sample computed lambda_2")

    monkeypatch.setattr(graphs, "algebraic_connectivity", refuse)
    g, _ = instance(23, n=8, extra=6)
    sbar = g.backbone_indicator()
    sbar[~g.backbone_mask] = 0.5
    for repair in rounding.REPAIR_MODES:
        report = rounding.sample(sbar, g, g.m, rounding.RoundingParams(
            delta=0.1, repair=repair, rng_seed=1))
        assert np.all(report.sampled.sbin[g.backbone_mask] == 1.0)
