"""Domain types for the hierarchical regression and its basis expansion.

The observation model for an active index i is

    Y_i = x_i' beta + sum_j K(c_i, c_j) eta_j + xi_i + eps_i

where K is an exponential kernel over the row coordinates and the sum
ranges over whichever index set is in play (the current subset for the
likelihood, the prediction set for prediction).  This module owns the
immutable inputs of a fit (the dataset, the basis, the variance pins and
the sampler configuration) and the kernel (dense, or banded through its
tridiagonal inverse for the absolute-difference metric).  The sampled
quantities are ``gibbs.run_chain``'s own locals; the sampler and the
prediction rule live in ``gibbs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from .distributions import _checked_int, _checked_seed
from .errors import InvalidParameterError, NumericalError

__all__ = [
    "DatasetView",
    "BasisConfig",
    "FixedVariances",
    "SamplerConfig",
    "kernel_matrix",
    "BandedKernel",
    "banded_kernels",
    "METRIC_ABS",
    "METRIC_GREAT_CIRCLE",
]

METRIC_ABS = "abs"
METRIC_GREAT_CIRCLE = "greatcircle"

# Prediction-set components outside the current subset: redraw from the
# prior each iteration, or hold the last value (see SamplerConfig).
REFRESH_PRIOR = "prior"
REFRESH_CARRY = "carry"

# Smallest rho * gap between neighbouring sorted coordinates at which the
# kernel is held as its tridiagonal inverse; closer coordinates (duplicates
# included) use the dense kernel.  Measured at n = 200, the banded and
# dense conditional means and covariances of eta and of Psi eta agree to
# 2e-11 relative when the smallest rho * gap is 1e-3, 3e-9 at 1e-4 and
# 1e-5 at 1e-6; the tests hold the banded path to 1e-9.
_BANDED_MIN_RHO_GAP = 1e-3


@dataclass(frozen=True)
class DatasetView:
    """The N observations with their covariates and locations.

    Attributes
    ----------
    y : ndarray, shape (N,)
        Observations.
    x : ndarray, shape (N, p)
        Covariate rows.
    index_coords : ndarray, shape (N,) or (N, 2)
        Locations fed to the basis kernel.  A flat vector is a scalar
        coordinate (e.g. a time index); two columns are (lat, lon) in
        degrees for the great-circle metric.
    """

    y: np.ndarray
    x: np.ndarray
    index_coords: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        coords = np.asarray(self.index_coords, dtype=float)
        if y.ndim != 1 or y.size < 1:
            raise InvalidParameterError("y must be a nonempty 1-d vector")
        n = y.shape[0]
        if x.ndim != 2 or x.shape[0] != n or x.shape[1] < 1:
            raise InvalidParameterError(f"x must be (N, p) with N={n} and p >= 1, got {x.shape}")
        if coords.shape != (n,) and coords.shape != (n, 2):
            raise InvalidParameterError(
                f"index_coords must have shape ({n},) or ({n}, 2), got {coords.shape}"
            )
        for name, arr in (("y", y), ("x", x), ("index_coords", coords)):
            if not np.all(np.isfinite(arr)):
                raise InvalidParameterError(f"{name} contains non-finite entries")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "index_coords", coords)

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class BasisConfig:
    """Exponential kernel exp(-rho * d) with a configurable metric."""

    rho: float
    metric: str = METRIC_ABS

    def __post_init__(self):
        if not (self.rho > 0.0) or not np.isfinite(self.rho):
            raise InvalidParameterError(f"rho must be finite and > 0, got {self.rho}")
        if self.metric not in (METRIC_ABS, METRIC_GREAT_CIRCLE):
            raise InvalidParameterError(
                f"metric must be '{METRIC_ABS}' or '{METRIC_GREAT_CIRCLE}', got {self.metric!r}"
            )


@dataclass(frozen=True)
class FixedVariances:
    """Values for all four variance components, pinned together.

    A chain given these never samples its variances.  Used by the
    verification oracles, which need the conditionally Gaussian sub-model
    with known variances.
    """

    sigma2: float
    sigma2_eta: float
    sigma2_xi: float
    sigma2_beta: float

    def __post_init__(self):
        for name in ("sigma2", "sigma2_eta", "sigma2_xi", "sigma2_beta"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise InvalidParameterError(f"fixed {name} must be strictly positive, got {value}")

    @staticmethod
    def all_of(sigma2: float, sigma2_eta: float, sigma2_xi: float, sigma2_beta: float) -> "FixedVariances":
        return FixedVariances(sigma2, sigma2_eta, sigma2_xi, sigma2_beta)


@dataclass(frozen=True)
class SamplerConfig:
    """Iteration counts, prediction set, variance pins and seed for one fit.

    Attributes
    ----------
    iterations : int
        Total sweeps G.
    burn_in : int
        Discarded sweeps g0; must satisfy 0 <= g0 < G.
    prediction_set : ndarray
        Sorted 0-based indices where predictions are accumulated.
    fixed_variances : FixedVariances, optional
        Pins all four variances; by default each is sampled under an
        IG(1, 1) prior.
    prediction_refresh : str
        Policy for prediction-set components outside the current subset:
        ``"prior"`` redraws them from their prior every iteration;
        ``"carry"`` holds the last sampled value.  See README for the
        tradeoff.
    """

    iterations: int
    burn_in: int
    prediction_set: np.ndarray
    basis: BasisConfig
    seed: int
    fixed_variances: Optional[FixedVariances] = None
    prediction_refresh: str = REFRESH_CARRY

    def __post_init__(self):
        iterations = _checked_int(self.iterations, "iterations")
        burn_in = _checked_int(self.burn_in, "burn_in")
        if iterations < 1 or not (0 <= burn_in < iterations):
            raise InvalidParameterError(
                f"need 0 <= burn_in < iterations, got burn_in={burn_in}, "
                f"iterations={iterations}"
            )
        a = np.asarray(self.prediction_set)
        if a.ndim != 1 or a.size < 1:
            raise InvalidParameterError("prediction_set must be a nonempty 1-d index list")
        # the array form of _checked_int: integer dtypes only, so 0.5 is no index
        if a.dtype.kind not in "iu":
            raise InvalidParameterError(
                f"prediction_set must hold integers, got dtype {a.dtype}")
        a = a.astype(np.int64, copy=False)
        object.__setattr__(self, "prediction_set", a)
        if np.any(np.diff(a) <= 0) or a[0] < 0:
            raise InvalidParameterError("prediction_set must be sorted, unique and nonnegative")
        if self.prediction_refresh not in (REFRESH_PRIOR, REFRESH_CARRY):
            raise InvalidParameterError(
                f"prediction_refresh must be '{REFRESH_PRIOR}' or '{REFRESH_CARRY}', "
                f"got {self.prediction_refresh!r}"
            )
        _checked_seed(self.seed)


def _pairwise_distance(coords_a: np.ndarray, coords_b: np.ndarray, metric: str) -> np.ndarray:
    if metric == METRIC_ABS:
        if coords_a.ndim != 1 or coords_b.ndim != 1:
            raise InvalidParameterError("absolute-difference metric needs scalar coordinates")
        return np.abs(coords_a[:, None] - coords_b[None, :])
    if coords_a.ndim == 1:
        # scalar coordinates on a circle, in radians: arc distance
        diff = np.abs(coords_a[:, None] - coords_b[None, :]) % (2.0 * np.pi)
        return np.minimum(diff, 2.0 * np.pi - diff)
    # (lat, lon) in degrees: central angle on the unit sphere via haversine
    lat_a, lon_a = np.radians(coords_a[:, 0])[:, None], np.radians(coords_a[:, 1])[:, None]
    lat_b, lon_b = np.radians(coords_b[:, 0])[None, :], np.radians(coords_b[:, 1])[None, :]
    h = (
        np.sin(0.5 * (lat_a - lat_b)) ** 2
        + np.cos(lat_a) * np.cos(lat_b) * np.sin(0.5 * (lon_a - lon_b)) ** 2
    )
    return 2.0 * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


# a huge rho overflows rho * d to inf; exp(-inf) = 0 is the exact limit
@np.errstate(over="ignore")
def kernel_matrix(coords_a: np.ndarray, coords_b: np.ndarray, basis: BasisConfig) -> np.ndarray:
    """exp(-rho * d(a, b)) for every coordinate pair."""
    coords_a = np.asarray(coords_a, dtype=float)
    coords_b = np.asarray(coords_b, dtype=float)
    return np.exp(-basis.rho * _pairwise_distance(coords_a, coords_b, basis.metric))


class BandedKernel:
    """The 1-D exponential kernel matrix Psi, held as its tridiagonal inverse.

    On sorted scalar coordinates exp(-rho |c_i - c_j|) is an
    Ornstein-Uhlenbeck correlation matrix whose inverse T is tridiagonal:
    with a_i = exp(-rho * gap_i), T has off-diagonal -a_i / (1 - a_i^2) and
    diagonal 1 + a_{i-1}^2 / (1 - a_{i-1}^2) + a_i^2 / (1 - a_i^2).
    ``band`` holds T in LAPACK's lower band layout: a Fortran-ordered
    (2, n) array, row 0 the diagonal and row 1 the subdiagonal (its last
    entry zero), which ``dsbmv`` reads as it is; ``diag`` and ``off`` are
    views of those two rows.  ``square_band`` holds
    T^2 (pentadiagonal) in the same layout, transposed: an (n, 3) array
    whose ``.T`` is the Fortran-ordered band with row 0 the diagonal and
    rows 1 and 2 the first and second subdiagonals (entry j of row k is
    T^2[j + k, j], so the last k entries of row k are zero); the eta
    factor is computed in that layout (``gibbs._banded_eta_factor``).
    ``coords`` (sorted) and ``basis`` are kept for a dense fallback.
    ``kernel @ v`` is Psi v, computed as a tridiagonal solve, so the object
    stands in for the dense matrix wherever only products with it are
    taken.
    """

    def __init__(self, coords: np.ndarray, basis: BasisConfig, band: np.ndarray,
                 square_band: np.ndarray):
        self.coords = coords
        self.basis = basis
        self.band = band
        self.square_band = square_band
        self._factor = None

    @property
    def diag(self) -> np.ndarray:
        return self.band[0]

    @property
    def off(self) -> np.ndarray:
        return self.band[1, :-1]

    def __matmul__(self, v) -> np.ndarray:
        # Psi v solves T x = v; T is factored once (LDL') on first use
        if self._factor is None:
            # the LAPACK wrapper insists on a length-1 off-diagonal at n = 1
            off = self.off if self.off.size else np.zeros(1)
            d, e, info = lapack.dpttrf(self.diag, off)
            if info != 0:
                raise NumericalError("tridiagonal kernel inverse is not positive definite")
            self._factor = (d, e)
        x, _ = lapack.dpttrs(*self._factor, np.asarray(v, dtype=float))
        return x


# a huge rho overflows rho * gap to inf; exp(-inf) = 0 and expm1(-inf) = -1
# are the exact limits, and give the identity kernel
@np.errstate(over="ignore")
def banded_kernels(coords: np.ndarray, basis: BasisConfig) -> list:
    """The kernel on each row of a stack of coordinate rows, where it is banded.

    ``coords`` is (B, n), one subset's scalar coordinates per row.  Entry b
    of the returned list is a :class:`BandedKernel` when every rho * gap of
    row b is at or above ``_BANDED_MIN_RHO_GAP``, else None (always None
    for the great-circle metric and for (lat, lon) rows): closer
    coordinates, duplicates included, need the dense kernel, and a row
    that is not sorted has a negative gap.  ``gibbs.run_chain`` hands
    every subset over in coordinate order.  The arithmetic runs once over
    the stack of qualifying rows; other rows never reach the exponentials,
    where their negative gaps could overflow.
    """
    coords = np.asarray(coords, dtype=float)
    kernels = [None] * coords.shape[0]
    if basis.metric != METRIC_ABS or coords.ndim != 2:
        return kernels
    scaled_gap = basis.rho * (coords[:, 1:] - coords[:, :-1])
    rows = np.arange(coords.shape[0])
    if scaled_gap.size:
        rows = np.flatnonzero(scaled_gap.min(axis=1) >= _BANDED_MIN_RHO_GAP)
        if rows.size < coords.shape[0]:
            scaled_gap = scaled_gap[rows]
    a = np.exp(-scaled_gap)
    # 1 - a^2 through expm1: exact for small gaps, exactly 1 for large ones
    one_minus_a2 = -np.expm1(-2.0 * scaled_gap)
    ratio = a * a / one_minus_a2
    diag = np.ones((rows.size, coords.shape[1]))
    diag[:, :-1] += ratio
    diag[:, 1:] += ratio
    off = -a / one_minus_a2
    off2 = off * off
    # T's lower band, transposed per row like T^2's below (band[i].T is the
    # Fortran-ordered (2, n) band); written from the unit-stride diag and
    # off, which the arithmetic reads faster than strided views
    band = np.zeros((rows.size, coords.shape[1], 2))
    band[:, :, 0] = diag
    band[:, :-1, 1] = off
    square = np.zeros((rows.size, coords.shape[1], 3))
    square[:, :, 0] = diag * diag
    square[:, :-1, 0] += off2
    square[:, 1:, 0] += off2
    square[:, :-1, 1] = off * (diag[:, :-1] + diag[:, 1:])
    square[:, :-2, 2] = off[:, :-1] * off[:, 1:]
    for i, row in enumerate(rows.tolist()):
        kernels[row] = BandedKernel(coords[row], basis, band[i].T, square[i])
    return kernels
