"""Budgeted network reconfiguration on weighted graphs.

Optimize which switchable edges to close, subject to an edge budget and a
permanently closed backbone, so that the congestion d^T L_s^+ d of a fixed
demand vector is small. The pipeline relaxes binary switches to
probabilities, runs a monotone conditional-gradient method with
computable (1 + alpha) certificates, and rounds the result to an integral
configuration with repair and concentration guarantees. A branch and
bound on the conditional-gradient duality bound provides exact baselines
at small scale.
"""

from .graphs import (Graph, Configuration, make_graph, validate,
                     assemble_laplacian, assemble_laplacian_dense,
                     algebraic_connectivity, read_instance, write_instance)
from .solver import (SolverConfig, SolveResult, SolveContext, solve,
                     exact_pinv_apply, pinv_laplacian, project_zero_mean)
from .congestion import DiffResult, phi, approx_diff
from .frankwolfe import (FWConfig, Certificate, FWTrace, IterationRecord,
                         lmo_top_q, fw_gap, certificate, run)
from .rounding import (RoundingParams, RoundingReport, floor_probabilities,
                       sample, shrinkage, sandwich_epsilon)
from .enumeration import EnumerationResult, enumerate_optimal

__version__ = "0.1.0"

__all__ = [
    "Graph", "Configuration", "make_graph", "validate",
    "assemble_laplacian", "assemble_laplacian_dense",
    "algebraic_connectivity", "read_instance", "write_instance",
    "SolverConfig", "SolveResult", "SolveContext", "solve",
    "exact_pinv_apply", "pinv_laplacian", "project_zero_mean",
    "DiffResult", "phi", "approx_diff",
    "FWConfig", "Certificate", "FWTrace", "IterationRecord",
    "lmo_top_q", "fw_gap", "certificate", "run",
    "RoundingParams", "RoundingReport", "floor_probabilities", "sample",
    "shrinkage", "sandwich_epsilon",
    "EnumerationResult", "enumerate_optimal",
    "__version__",
]
