"""The four benchmark workloads and their instance generators.

Each workload is a closed loop with one caller: a single process solves
its instances one at a time. Instances are generated from the workload
seed and written with ``graphs.write_instance`` during set-up, so the
timed pipeline starts from the instance file, as the CLI does.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from reswitch import cli, graphs


def _gauss_demand(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian demand projected onto the zero-sum subspace, unit 2-norm."""
    d = rng.standard_normal(n)
    d -= d.mean()
    return d / np.linalg.norm(d)


def grid_comb(rows: int, cols: int, seed: int) -> tuple[graphs.Graph, np.ndarray]:
    """rows x cols grid whose backbone is a comb.

    Every horizontal edge and the vertical edges of the first column form
    the backbone; the other vertical edges switch. Weights are uniform on
    [0.5, 2] and the demand is Gaussian.
    """
    rng = np.random.default_rng(seed)
    node = np.arange(rows * cols).reshape(rows, cols)
    ei = np.concatenate([node[:, :-1].ravel(), node[:-1, :].ravel()])
    ej = np.concatenate([node[:, 1:].ravel(), node[1:, :].ravel()])
    n_horizontal = rows * (cols - 1)
    first_column = n_horizontal + np.flatnonzero(node[:-1, :].ravel() % cols == 0)
    backbone = np.concatenate([np.arange(n_horizontal), first_column])
    w = rng.uniform(0.5, 2.0, len(ei))
    g = graphs.make_graph(rows * cols, zip(ei, ej, w), backbone)
    return g, _gauss_demand(rng, g.n)


def chord_ring(n: int, seed: int) -> tuple[graphs.Graph, np.ndarray]:
    """Path backbone 0-1-...-(n-1), a switchable ring-closing edge, n // 10 chords.

    Chords join distinct node pairs that are neither path neighbours nor
    the ring-closing pair. Weights are uniform on [0.5, 2] and the demand
    is Gaussian.
    """
    rng = np.random.default_rng(seed)
    pairs = [(k, k + 1) for k in range(n - 1)] + [(0, n - 1)]
    taken = set(pairs)
    while len(pairs) < n + n // 10:
        u, v = sorted(int(x) for x in rng.integers(0, n, 2))
        if u != v and (u, v) not in taken:
            taken.add((u, v))
            pairs.append((u, v))
    w = rng.uniform(0.5, 2.0, len(pairs))
    g = graphs.make_graph(n, [(i, j, wk) for (i, j), wk in zip(pairs, w)], range(n - 1))
    return g, _gauss_demand(rng, n)


def expander(n: int, seed: int) -> tuple[graphs.Graph, np.ndarray]:
    """The CLI family: random-attachment tree plus 2n uniform multigraph edges."""
    return cli.generate_instance(n, 2 * n, seed, demand="gauss", multigraph=True)


def small(n: int, free: int, seed: int) -> tuple[graphs.Graph, np.ndarray]:
    """The CLI family at enumeration scale: n nodes and `free` switchable edges."""
    return cli.generate_instance(n, free, seed, demand="gauss")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    generate maps an instance seed to (graph, demand); warm builds a
    smaller instance of the same family that set-up runs through every
    stage. Each entry of repairs is one rounded draw per instance, with
    that repair mode.
    """

    name: str
    generate: Callable[[int], tuple[graphs.Graph, np.ndarray]]
    warm: Callable[[int], tuple[graphs.Graph, np.ndarray]]
    pool: int
    alpha: float
    repairs: tuple[str, ...]
    enumerate: bool = False


WORKLOADS = {wl.name: wl for wl in (
    # The solver dominates: about 90% of certify time is CG on a
    # well-conditioned random graph. Instance I/O is largest here.
    Workload("expander", lambda s: expander(5000, s), lambda s: expander(500, s),
             pool=8, alpha=0.05, repairs=("trim_and_fill",) * 2),
    # Planar and power-network-like; badly conditioned for both the tree
    # and the Jacobi preconditioner, so CG iterations per solve are high.
    Workload("grid-comb", lambda s: grid_comb(80, 80, s), lambda s: grid_comb(20, 20, s),
             pool=8, alpha=0.05, repairs=("trim_and_fill",) * 2),
    # The backbone tree is nearly exact, so certify is cheap and rounding
    # (the dense lambda_2 in sandwich_epsilon) dominates; one draw per
    # repair mode.
    Workload("chord-ring", lambda s: chord_ring(1500, s), lambda s: chord_ring(300, s),
             pool=10, alpha=0.05, repairs=("trim_and_fill", "shrinkage", "resample")),
    # The only workload on the dense path (n <= dense_threshold) and the
    # only one with the brute-force enumerator, which dominates it.
    Workload("exact-small", lambda s: small(30, 16, s), lambda s: small(30, 10, s),
             pool=12, alpha=0.02, repairs=("trim_and_fill",) * 2, enumerate=True),
)}


def instance_seed(seed: int, k: int) -> int:
    """Seed of pool instance k (k == pool size is the warm-up instance).

    Always nonnegative, as numpy generators require, for any workload seed.
    """
    return (1000 * seed + k) % (1 << 62)
