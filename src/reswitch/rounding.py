"""Randomized rounding of fractional switch vectors.

Off-backbone probabilities are optionally floored at
p_min = C log(n/delta)/n, then each switchable edge is included by an
independent Bernoulli draw from a seeded PCG64 generator. Three repair
modes handle budget overshoot: trim_and_fill enforces ||s~||_1 = min(q, m)
deterministically, resample redraws up to a retry cap, and shrinkage
rescales off-backbone probabilities so the budget is exceeded with
probability at most delta. Drawing computes no spectral quantity: a
caller that wants the sandwich (1-eps) L_sbar <= L_s~ <= (1+eps) L_sbar on
the zero-mean subspace takes eps once per sbar from sandwich_epsilon (the
matrix concentration bound
sqrt(3) * sqrt(2 max_e w_e log((n-1)/delta) / lambda2)) and verifies each
draw at dense scale with the check in tests/theory.py.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs
from .errors import (InfeasibleShrinkageError, InvalidInputError,
                     ResampleExhaustedError)

RNG_ALGORITHM = "pcg64"
REPAIR_MODES = ("trim_and_fill", "resample", "shrinkage")


@dataclass(frozen=True)
class RoundingParams:
    delta: float
    p_min_constant: float = 0.0
    repair: str = "trim_and_fill"
    max_resamples: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise InvalidInputError("delta must lie in (0, 1)")
        # Written so that NaN, which fails every comparison, fails the check.
        if not self.p_min_constant >= 0.0:
            raise InvalidInputError("p_min_constant must be nonnegative")
        if self.repair not in REPAIR_MODES:
            raise InvalidInputError(f"unknown repair mode {self.repair!r}")
        if self.max_resamples < 0:
            raise InvalidInputError("max_resamples must be nonnegative")
        if self.rng_seed < 0:
            raise InvalidInputError(f"rng_seed must be nonnegative, got {self.rng_seed}")


@dataclass(frozen=True, eq=False)
class RoundingReport:
    sampled: graphs.Configuration
    resamples_used: int
    repairs: tuple[tuple[int, str], ...]


def floor_probabilities(s: np.ndarray, g: graphs.Graph,
                        params: RoundingParams) -> np.ndarray:
    """Apply the baseline floor off the backbone; backbone entries become 1."""
    s = graphs.check_switch(g, s)
    p_min = min(params.p_min_constant * np.log(g.n / params.delta) / g.n, 1.0)
    sbar = np.maximum(s, p_min)
    sbar[g.backbone_mask] = 1.0
    return sbar


def shrinkage(s: np.ndarray, g: graphs.Graph, q: int, delta: float) -> np.ndarray:
    """Rescale off-backbone probabilities so Pr(||s~||_1 > q) <= delta.

    Off-backbone entries are multiplied by
    theta = (q - |T| - gamma) / sum_off(s) when that sum exceeds
    q - |T| - gamma, with gamma = sqrt(2 (q - |T|) log(1/delta)).
    """
    s = graphs.check_switch(g, s)
    t_size = np.count_nonzero(g.backbone_mask)
    if q <= t_size:
        raise InvalidInputError(f"shrinkage needs q > |T| (q={q}, |T|={t_size})")
    head = q - t_size
    gamma = float(np.sqrt(2.0 * head * np.log(1.0 / delta)))
    if gamma > head:
        raise InfeasibleShrinkageError(
            f"budget headroom {head} cannot absorb gamma={gamma:.3f} at delta={delta}")
    off = ~g.backbone_mask
    off_sum = float(s[off].sum())
    theta = 1.0 if off_sum <= head - gamma else (head - gamma) / off_sum
    out = s.copy()
    out[off] = theta * s[off]
    out[g.backbone_mask] = 1.0
    return out


def sample(sbar: np.ndarray, g: graphs.Graph, q: int,
           params: RoundingParams) -> RoundingReport:
    """Draw an integral configuration from the floored probabilities.

    Deterministic given (inputs, seed).
    """
    sbar = graphs.check_switch(g, sbar)
    graphs.check_budget(g, q)
    rng = np.random.default_rng(params.rng_seed)
    probs = shrinkage(sbar, g, q, params.delta) if params.repair == "shrinkage" else sbar
    # One draw, redrawn under resample while it is over budget.
    for resamples in range(params.max_resamples + 1):
        draw = rng.random(g.m) < probs
        draw[g.backbone_mask] = True
        if params.repair != "resample" or draw.sum() <= q:
            break
    else:
        raise ResampleExhaustedError(f"budget still above q={q} after {resamples} resamples",
                                     last_draw=draw.astype(float))
    repairs: list[tuple[int, str]] = []
    if params.repair == "trim_and_fill":
        draw, repairs = _trim_and_fill(draw, sbar, g, q)
    return RoundingReport(sampled=graphs.Configuration(sbin=draw.astype(float)),
                          resamples_used=resamples, repairs=tuple(repairs))


def _trim_and_fill(draw: np.ndarray, sbar: np.ndarray, g: graphs.Graph,
                   q: int) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """Force ||s~||_1 = min(q, m) without ever touching the backbone."""
    draw = draw.copy()
    target = min(q, g.m)
    repairs: list[tuple[int, str]] = []
    count = int(draw.sum())
    if count > target:
        on = np.flatnonzero(draw & ~g.backbone_mask)
        for k in _in_order(on, sbar[on], count - target):
            draw[k] = False
            repairs.append((int(k), "removed"))
    elif count < target:
        offe = np.flatnonzero(~draw)
        for k in _in_order(offe, -sbar[offe], target - count):
            draw[k] = True
            repairs.append((int(k), "added"))
    return draw, repairs


def _in_order(edges: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """The k edges of lowest key (ties toward lower index), in that order."""
    pick = graphs.smallest_k(keys, k)
    return edges[pick[np.lexsort((pick, keys[pick]))]]


def sandwich_epsilon(g: graphs.Graph, sbar: np.ndarray, delta: float) -> float:
    """Concentration epsilon for one Bernoulli draw from sbar.

    May exceed 1, in which case the spectral sandwich is vacuous and there
    is nothing to check.
    """
    lam2 = graphs.algebraic_connectivity(g, graphs.check_switch(g, sbar))
    R = 2.0 * float(g.w.max())
    return float(np.sqrt(3.0) * np.sqrt(R * np.log((g.n - 1) / delta) / lam2))
