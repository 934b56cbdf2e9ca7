"""Synthetic AR(1) data generation, error metrics and holdout splitting."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .distributions import _checked_int, make_rng, sample_active_indices
from .errors import InvalidParameterError
from .model import DatasetView

__all__ = [
    "Ar1Config",
    "SplitDataset",
    "ar1_path",
    "generate_ar1",
    "equally_spaced_indices",
    "rmspe",
    "rste",
    "split_holdout",
]


@dataclass(frozen=True)
class Ar1Config:
    """Latent AR(1) signal plus measurement error.

    The latent path starts from its stationary distribution, steps as
    ``mu_i = phi * mu_{i-1} + innovation``, and observations add
    independent noise of the same variance.  ``prediction_count`` equally
    spaced indices form the prediction set.
    """

    N: int
    phi: float = 0.9
    noise_var: float = 0.1
    seed: int = 0
    prediction_count: int = 1

    def __post_init__(self):
        if _checked_int(self.N, "N") < 1:
            raise InvalidParameterError(f"N must be >= 1, got {self.N}")
        if not (self.noise_var > 0.0) or not np.isfinite(self.noise_var):
            raise InvalidParameterError(f"noise_var must be > 0, got {self.noise_var}")
        if not np.isfinite(self.phi):
            raise InvalidParameterError(f"phi must be finite, got {self.phi}")
        if abs(self.phi) >= 1.0:
            warnings.warn(
                f"|phi| = {abs(self.phi)} >= 1: the latent path is nonstationary",
                stacklevel=2,
            )
        if not (1 <= _checked_int(self.prediction_count, "prediction_count") <= self.N):
            raise InvalidParameterError(
                f"prediction_count must be in [1, N], got {self.prediction_count} with N={self.N}"
            )


@dataclass(frozen=True)
class SplitDataset:
    """The training and held-out rows as two views, with their index sets.

    ``train`` and ``holdout`` are the rows of the source dataset at
    ``train_indices`` and ``holdout_indices``, which partition range(N).
    """

    train: DatasetView
    holdout: DatasetView
    train_indices: np.ndarray
    holdout_indices: np.ndarray


def ar1_path(start: float, phi: float, innovations: np.ndarray) -> np.ndarray:
    """Deterministic AR(1) recursion from a fixed start.

    ``out[0] = start`` and ``out[i] = phi * out[i-1] + innovations[i-1]``.
    Exposed separately so the recursion can be verified without any
    randomness (zero innovations give an exact geometric decay).
    """
    innovations = np.asarray(innovations, dtype=float)
    driven = np.concatenate(([float(start)], innovations))
    return lfilter([1.0], [1.0, -float(phi)], driven)


def equally_spaced_indices(count: int, N: int) -> np.ndarray:
    """``count`` distinct evenly spaced 0-based indices over range(N)."""
    count, N = _checked_int(count, "count"), _checked_int(N, "N")
    if not (1 <= count <= N):
        raise InvalidParameterError(f"count must be in [1, N], got {count} with N={N}")
    return (np.arange(count, dtype=np.int64) * N) // count


def generate_ar1(config: Ar1Config):
    """Simulate the dataset; returns (data, truth_mu, prediction_indices).

    The covariate matrix is a single intercept column and the coordinate
    of row i is i itself, so the kernel distance between rows equals the
    index gap.
    """
    rng = make_rng(config.seed)
    stationary_var = config.noise_var / (1.0 - config.phi**2) if abs(config.phi) < 1.0 \
        else config.noise_var
    start = rng.normal(0.0, np.sqrt(stationary_var))
    innovations = rng.normal(0.0, np.sqrt(config.noise_var), config.N - 1)
    mu = ar1_path(start, config.phi, innovations)
    y = mu + rng.normal(0.0, np.sqrt(config.noise_var), config.N)
    data = DatasetView(
        y=y,
        x=np.ones((config.N, 1)),
        index_coords=np.arange(config.N, dtype=float),
    )
    return data, mu, equally_spaced_indices(config.prediction_count, config.N)


def _root_mean_square(truth: np.ndarray, pred: np.ndarray) -> float:
    truth = np.asarray(truth, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if truth.ndim != 1 or truth.shape != pred.shape or truth.size == 0:
        raise InvalidParameterError(
            f"inputs must be equal-length nonempty vectors, got {truth.shape} and {pred.shape}"
        )
    diff = truth - pred
    return float(np.sqrt(diff @ diff / truth.size))


def rmspe(truth: np.ndarray, pred: np.ndarray) -> float:
    """Root mean squared prediction error against the latent truth."""
    return _root_mean_square(truth, pred)


def rste(holdout_y: np.ndarray, pred: np.ndarray) -> float:
    """Root mean squared testing error against held-out observations.

    Same formula as :func:`rmspe`; the separate name keeps call sites
    honest about what the reference vector is.
    """
    return _root_mean_square(holdout_y, pred)


def split_holdout(data: DatasetView, holdout_fraction: float,
                  rng: np.random.Generator) -> SplitDataset:
    """Randomly hold out ``floor(fraction * N)`` rows without replacement.

    Deterministic given the generator state.  The train and holdout index
    sets partition ``range(N)``.
    """
    if not (0.0 < holdout_fraction < 1.0):
        raise InvalidParameterError(
            f"holdout_fraction must be in (0, 1), got {holdout_fraction}"
        )
    N = data.n_obs
    k = int(np.floor(holdout_fraction * N))
    if k < 1:
        raise InvalidParameterError(
            f"holdout of floor({holdout_fraction} * {N}) rows is empty; use a larger fraction"
        )
    if k >= N:
        raise InvalidParameterError("holdout would consume the whole dataset")
    holdout_idx = sample_active_indices(k, N, rng)
    train_idx = np.setdiff1d(np.arange(N), holdout_idx, assume_unique=True)

    def rows(idx):
        return DatasetView(y=data.y[idx], x=data.x[idx], index_coords=data.index_coords[idx])

    return SplitDataset(train=rows(train_idx), holdout=rows(holdout_idx),
                        train_indices=train_idx, holdout_indices=holdout_idx)
