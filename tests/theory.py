"""The paper's analysis, computed exactly at dense scale.

These functions check the theory behind the pipeline, and no stage of the
pipeline calls them: effective resistances and leverages (Foster's sum,
Rayleigh monotonicity, the Cauchy-Schwarz voltage bound), the exact
gradient, the Hessian with its generalized self-concordance constant, and
the spectral sandwich of a rounded draw. They reuse the package's dense
kernels and refuse more than solver.DENSE_CAP nodes, as the pipeline's
dense-only operations do.

The Hessian comes from the factorization H = 2 diag(zeta) P diag(zeta) with
zeta_e = sqrt(w_e) Delta_e and P = W^{1/2} A L^+ A^T W^{1/2}, A the signed
incidence matrix with rows a_e.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from reswitch import graphs, solver


def effective_resistances(g: graphs.Graph, s: np.ndarray) -> np.ndarray:
    """Per-edge effective resistance rho_e = a_e^T L_s^+ a_e (dense-only)."""
    solver.require_dense(g.n)
    Lp = solver.pinv_laplacian(graphs.assemble_laplacian_dense(g, s))
    return Lp[g.ei, g.ei] + Lp[g.ej, g.ej] - 2.0 * Lp[g.ei, g.ej]


def leverages(g: graphs.Graph, s: np.ndarray) -> np.ndarray:
    """Leverage scores l_e = s_e * w_e * rho_e(s), each in [0,1].

    For connected binary s the active leverages sum to n-1 (Foster).
    """
    s = graphs.check_switch(g, s)
    return s * g.w * effective_resistances(g, s)


@dataclass(frozen=True, eq=False)
class HessianInfo:
    H: np.ndarray
    opnorm_bound: float
    gsc_M: float


def exact_gradient(g: graphs.Graph, s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Machine-precision gradient via the dense pseudoinverse."""
    solver.require_dense(g.n)
    s = graphs.check_switch(g, s)
    d = graphs.check_demand(g, d)
    L = graphs.assemble_laplacian_dense(g, s)
    x = solver.exact_pinv_apply(L, d)
    delta = x[g.ei] - x[g.ej]
    return -g.w * delta ** 2


def hessian_dense(g: graphs.Graph, s: np.ndarray, d: np.ndarray) -> HessianInfo:
    """Exact Hessian of phi at s, built from the rank-structured factorization.

    opnorm_bound is the generic operator-norm bound 2 * phi(s); gsc_M is
    the self-concordance constant 3 ||w . rho_T||_2 with rho_T the edge
    resistances measured in the backbone subgraph.
    """
    solver.require_dense(g.n)
    s = graphs.check_switch(g, s)
    d = graphs.check_demand(g, d)
    L = graphs.assemble_laplacian_dense(g, s)
    Lp = solver.pinv_laplacian(L)
    x = Lp @ d
    delta = x[g.ei] - x[g.ej]
    zeta = np.sqrt(g.w) * delta
    # Column e of C is L^+ a_e, so C[ei] - C[ej] is A L^+ A^T.
    C = Lp[:, g.ei] - Lp[:, g.ej]
    sw = np.sqrt(g.w)
    P = (sw[:, None] * (C[g.ei] - C[g.ej])) * sw[None, :]
    H = 2.0 * (zeta[:, None] * P * zeta[None, :])
    H = 0.5 * (H + H.T)
    phi_val = float(d @ x)

    rho_t = effective_resistances(g, g.backbone_indicator())
    gsc = 3.0 * float(np.linalg.norm(g.w * rho_t))
    return HessianInfo(H=H, opnorm_bound=2.0 * phi_val, gsc_M=gsc)


def sandwich_check(g: graphs.Graph, sbar: np.ndarray, sampled: np.ndarray,
                   epsilon: float) -> bool:
    """Verify (1-eps) L_sbar <= L_s~ <= (1+eps) L_sbar on the zero-mean subspace."""
    # x^T L x ignores shifts along 1, so the grounded blocks' pencil is the zero-mean one.
    L0, L1 = (graphs.assemble_laplacian_dense(g, s)[1:, 1:] for s in (sbar, sampled))
    vals = scipy.linalg.eigh(L1, L0, eigvals_only=True)
    return bool(vals.min() >= 1.0 - epsilon - 1e-9 and
                vals.max() <= 1.0 + epsilon + 1e-9)
