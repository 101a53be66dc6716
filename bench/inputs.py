"""Seeded inputs for the benchmark, written as CSV files.

Everything here uses numpy and the standard library only, never the
package under test, so a change to the program cannot change its own
inputs. Floats are written with ``repr``, which round-trips exactly, so
the program and the output checks see bit-identical distances.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def rng_for(seed: int, tag: int) -> np.random.Generator:
    """An independent stream per (workload seed, input tag)."""
    return np.random.default_rng([seed, tag])


def labels(prefix: str, n: int) -> list[str]:
    # zero-padded so the program's sorted label order is the row order
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def uniform_points(seed: int, tag: int, n: int, dim: int = 2) -> np.ndarray:
    return rng_for(seed, tag).random((n, dim))


def grid_points(
    seed: int, tag: int, shape: tuple[int, ...], block: int = 0, jitter: float = 0.03
) -> np.ndarray:
    """An integer lattice of the given shape, each point moved by up to
    ``jitter`` along each axis. Lattice distances come in shells (1, sqrt 2,
    sqrt 3, 2, ...); this jitter moves a distance by at most
    ``2 * jitter * sqrt(dim)``, so a threshold in a wide gap between shells
    gives the same graph for every seed, and a kernel's work does not swing
    with the seed as it does on a uniform cloud. With ``block``, every
    ``block`` lattice steps along an axis are followed by a gap of 3, so
    below that threshold each block is a component of its own."""
    axes = np.meshgrid(*(np.arange(k, dtype=float) for k in shape), indexing="ij")
    lattice = np.stack([a.ravel() for a in axes], axis=1)
    if block:
        lattice += 3.0 * (lattice // block)
    return lattice + rng_for(seed, tag).uniform(-jitter, jitter, lattice.shape)


def euclidean(points: np.ndarray) -> np.ndarray:
    """Pairwise distances by the same numpy expression the program uses
    for a euclidean point cloud, so both sides get the same bits."""
    diff = points[:, None, :] - points[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


def write_points_csv(path: Path, names: list[str], points: np.ndarray) -> None:
    """Labeled point cloud: header ``label,x0,x1,...``, one point per row."""
    dim = points.shape[1]
    lines = ["label," + ",".join(f"x{j}" for j in range(dim))]
    for name, row in zip(names, points.tolist()):
        lines.append(name + "," + ",".join(repr(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_matrix_csv(path: Path, names: list[str], dist: np.ndarray) -> None:
    """Labeled distance matrix: header ``label,<names>``, one row per point."""
    lines = ["label," + ",".join(names)]
    for name, row in zip(names, dist.tolist()):
        lines.append(name + "," + ",".join(repr(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def gap_delta(dist: np.ndarray, target: float) -> float:
    """The midpoint of the gap between the distinct distances around
    ``target``, so no distance sits near the threshold and the output
    checks never have to decide a tie."""
    values = np.unique(dist[np.triu_indices(len(dist), k=1)])
    i = int(np.searchsorted(values, target))
    i = min(max(i, 1), len(values) - 1)
    return float((values[i - 1] + values[i]) / 2.0)
