"""Deterministic simulation benchmarks with known ground truth.

Two test functions over a 10-dimensional uniform cube: an additive one and
its extension with two-way and three-way interaction terms.  Coordinates 9
and 10 never enter either function and act as noise features.  Generated
samples come with the noiseless function value (used as an idealized
surrogate response) and a noisy observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import Feature, SurrogateDataset


def f1(x) -> np.ndarray | float:
    """Additive test function; accepts a 10-vector or an (n, 10) array.

    The x6*log|x6| term takes its continuous limit 0 at x6 = 0.
    """
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 1
    x = np.atleast_2d(x)
    x1, x2, x3, x4, x5, x6, x7, x8 = (x[:, k] for k in range(8))
    xlog = np.zeros_like(x6)
    nz = x6 != 0.0
    xlog[nz] = x6[nz] * np.log(np.abs(x6[nz]))
    out = (
        3.0 * x1
        + x2**3
        - np.pi * x3
        + np.exp(-2.0 * x4**2)
        + 1.0 / (2.0 + np.abs(x5))
        + xlog
        + np.sqrt(2.0 * np.abs(x7))
        + np.maximum(0.0, x7)
        + x8**4
        + 2.0 * np.cos(np.pi * x8)
    )
    return float(out[0]) if scalar else out


def f2(x) -> np.ndarray | float:
    """f1 plus interaction terms; accepts a 10-vector or an (n, 10) array.

    The power term 4*(x5*I(x5>0))**|x6| is defined as 0 whenever x5 <= 0
    and as 4*x5**|x6| for x5 > 0 (so it equals 4 at x6 = 0 for any x5 > 0).
    """
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 1
    x = np.atleast_2d(x)
    x1, x2, x3, x4, x5, x6, x7, x8 = (x[:, k] for k in range(8))
    power = np.zeros_like(x5)
    pos = x5 > 0.0
    power[pos] = 4.0 * x5[pos] ** np.abs(x6[pos])
    out = (
        f1(x)
        + 2.0 * (x1 > 0.0) * (x2 > 0.0) * x3
        + 2.0 * (x1 > 0.0) * x4
        + power
        + np.abs(x7 + x8)
    )
    return float(out[0]) if scalar else out


_KINDS = {"f1": f1, "f2": f2}


@dataclass(frozen=True)
class Simulation:
    """A generated sample with its train/test partition."""

    x: np.ndarray  # (n, 10), each coordinate uniform on [-1, 1]
    f: np.ndarray  # noiseless function values
    y: np.ndarray  # f + Gaussian noise
    train_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]


def simulate(kind: str, n: int, sigma: float, seed: int) -> Simulation:
    """Draw n samples of the chosen function, fully determined by the seed.

    Predictors are iid uniform on [-1, 1]; y = f + N(0, sigma^2).  The
    train/test split is a seeded permutation with roughly 2/3 of the rows
    in the training part.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {sorted(_KINDS)}, got {kind!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= sigma < np.inf:
        raise ValueError("sigma must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 10))
    f = _KINDS[kind](x)
    y = f + sigma * rng.standard_normal(n)
    perm = rng.permutation(n)
    n_train = int(round(n * 2 / 3))
    return Simulation(
        x=x, f=f, y=y, train_idx=np.sort(perm[:n_train]), test_idx=np.sort(perm[n_train:])
    )


def to_dataset(sim: Simulation, rows=None, surrogate: str = "f") -> SurrogateDataset:
    """View a simulation as a modeling dataset.

    ``surrogate`` selects the response column: "f" (the noiseless value,
    the idealized surrogate) or "y" (the noisy observation).  The other
    column is kept as the original response for accuracy metrics.
    """
    if surrogate not in ("f", "y"):
        raise ValueError("surrogate must be 'f' or 'y'")
    idx = np.arange(sim.n) if rows is None else np.asarray(rows)
    columns = {f"x{k + 1}": sim.x[idx, k] for k in range(10)}
    return SurrogateDataset(
        features=tuple(Feature(f"x{k + 1}", "continuous") for k in range(10)),
        columns=columns,
        response=(sim.f if surrogate == "f" else sim.y)[idx],
        original=sim.y[idx],
    )
