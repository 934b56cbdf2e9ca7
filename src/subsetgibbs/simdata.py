"""Synthetic AR(1) data generation and error metrics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import _checked_int, make_rng
from .errors import InvalidParameterError
from .model import DatasetView

__all__ = [
    "Ar1Config",
    "ar1_path",
    "generate_ar1",
    "equally_spaced_indices",
    "rmspe",
    "rste",
]


@dataclass(frozen=True)
class Ar1Config:
    """Latent AR(1) signal plus measurement error.

    The latent path starts from its stationary distribution, steps as
    ``mu_i = phi * mu_{i-1} + innovation``, and observations add
    independent noise of the same variance.
    """

    N: int
    phi: float = 0.9
    noise_var: float = 0.1
    seed: int = 0

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


def ar1_path(start: float, phi: float, innovations: np.ndarray) -> np.ndarray:
    """Deterministic AR(1) recursion from a fixed start.

    ``out[0] = start`` and ``out[i] = phi * out[i-1] + innovations[i-1]``.
    Exposed separately so the recursion can be verified without any
    randomness (zero innovations give an exact geometric decay).
    """
    # imported here: scipy.signal alone adds hundreds of modules to every import
    from scipy.signal import lfilter

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
    """Simulate the dataset; returns (data, truth_mu).

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
    return data, mu


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

