"""Domain types for the hierarchical regression and its basis expansion.

The observation model for an active index i is

    Y_i = x_i' beta + sum_j K(c_i, c_j) eta_j + xi_i + eps_i

where K is an exponential kernel over the row coordinates and the sum
ranges over whichever index set is in play (the current subset for the
likelihood, the prediction set for prediction).  This module owns the
value types and the kernel (dense, or banded through its tridiagonal
inverse for the absolute-difference metric); the sampler and the
prediction rule live in ``gibbs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidParameterError, NumericalError

__all__ = [
    "DatasetView",
    "BasisConfig",
    "SubsetMask",
    "ChainState",
    "FixedVariances",
    "SamplerConfig",
    "kernel_matrix",
    "BandedKernel",
    "banded_kernel",
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
            raise InvalidParameterError(f"rho must be > 0, got {self.rho}")
        if self.metric not in (METRIC_ABS, METRIC_GREAT_CIRCLE):
            raise InvalidParameterError(
                f"metric must be '{METRIC_ABS}' or '{METRIC_GREAT_CIRCLE}', got {self.metric!r}"
            )


@dataclass(frozen=True)
class SubsetMask:
    """Inclusion indicators with the active index list kept alongside.

    ``active`` is redundant with ``delta``; both representations are
    maintained and checked against each other.  The chain itself works
    from the sorted active indices alone.
    """

    delta: np.ndarray
    active: np.ndarray

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=bool)
        active = np.asarray(self.active, dtype=np.int64)
        if delta.ndim != 1:
            raise InvalidParameterError("delta must be a 1-d bit vector")
        if active.ndim != 1 or active.size < 1:
            raise InvalidParameterError("active must be a nonempty 1-d index list")
        if np.any(np.diff(active) <= 0):
            raise InvalidParameterError("active indices must be strictly increasing")
        if active[0] < 0 or active[-1] >= delta.shape[0]:
            raise InvalidParameterError("active indices out of range")
        if int(delta.sum()) != active.size or not np.all(delta[active]):
            raise InvalidParameterError("delta and active disagree")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "active", active)

    @property
    def n_active(self) -> int:
        return self.active.size

    @property
    def size(self) -> int:
        return self.delta.shape[0]


@dataclass
class ChainState:
    """Current values of the sampled quantities for one chain.

    Mutable by design: exactly one chain owns a state instance and
    updates it in place between iterations.
    """

    beta: np.ndarray
    eta: np.ndarray
    xi: np.ndarray
    sigma2: float
    sigma2_eta: float
    sigma2_xi: float
    sigma2_beta: float

    @staticmethod
    def initial(n_obs: int, n_covariates: int, fixed: Optional["FixedVariances"] = None) -> "ChainState":
        """Neutral starting point: zero effects, unit variances.

        Pinned variances, when given, replace the unit ones so the first
        iteration already conditions on them.
        """
        fixed = fixed or FixedVariances(1.0, 1.0, 1.0, 1.0)
        return ChainState(
            beta=np.zeros(n_covariates),
            eta=np.zeros(n_obs),
            xi=np.zeros(n_obs),
            sigma2=fixed.sigma2,
            sigma2_eta=fixed.sigma2_eta,
            sigma2_xi=fixed.sigma2_xi,
            sigma2_beta=fixed.sigma2_beta,
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
        object.__setattr__(
            self, "prediction_set", np.asarray(self.prediction_set, dtype=np.int64)
        )
        if self.iterations < 1 or not (0 <= self.burn_in < self.iterations):
            raise InvalidParameterError(
                f"need 0 <= burn_in < iterations, got burn_in={self.burn_in}, "
                f"iterations={self.iterations}"
            )
        a = self.prediction_set
        if a.ndim != 1 or a.size < 1:
            raise InvalidParameterError("prediction_set must be a nonempty 1-d index list")
        if np.any(np.diff(a) <= 0) or a[0] < 0:
            raise InvalidParameterError("prediction_set must be sorted, unique and nonnegative")
        if self.prediction_refresh not in (REFRESH_PRIOR, REFRESH_CARRY):
            raise InvalidParameterError(
                f"prediction_refresh must be '{REFRESH_PRIOR}' or '{REFRESH_CARRY}', "
                f"got {self.prediction_refresh!r}"
            )
        if not (0 <= int(self.seed) < 2**64):
            raise InvalidParameterError("seed must be a 64-bit unsigned integer")


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
    ``diag`` and ``off`` hold T in sorted order and ``order`` sorts the
    caller's coordinates (None when they already are); the methods without
    ``sorted`` in their name take and return vectors in the caller's order.
    ``coords`` and ``basis`` are kept for a dense fallback.  ``kernel @ v``
    is Psi v, computed as a tridiagonal solve, so the object stands in for
    the dense matrix wherever only products with it are taken.
    """

    def __init__(self, coords: np.ndarray, basis: BasisConfig, diag: np.ndarray,
                 off: np.ndarray, order: Optional[np.ndarray]):
        self.coords = coords
        self.basis = basis
        self.diag = diag
        self.off = off
        self.order = order
        self._factor = None

    def to_sorted(self, v: np.ndarray) -> np.ndarray:
        return v if self.order is None else v[self.order]

    def from_sorted(self, v: np.ndarray) -> np.ndarray:
        if self.order is None:
            return v
        out = np.empty_like(v)
        out[self.order] = v
        return out

    def sorted_inverse_matvec(self, v: np.ndarray) -> np.ndarray:
        """T v for v (1-d, or 2-d by rows) already in sorted order."""
        diag, off = self.diag, self.off
        if v.ndim == 2:
            diag, off = diag[:, None], off[:, None]
        out = diag * v
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
        return out

    def inverse_matvec(self, v) -> np.ndarray:
        """T v = Psi^-1 v."""
        v = np.asarray(v, dtype=float)
        return self.from_sorted(self.sorted_inverse_matvec(self.to_sorted(v)))

    def __matmul__(self, v) -> np.ndarray:
        # Psi v solves T x = v; T is factored once (LDL') on first use
        if self._factor is None:
            # the LAPACK wrapper insists on a length-1 off-diagonal at n = 1
            off = self.off if self.off.size else np.zeros(1)
            d, e, info = lapack.dpttrf(self.diag, off)
            if info != 0:
                raise NumericalError("tridiagonal kernel inverse is not positive definite")
            self._factor = (d, e)
        v = np.asarray(v, dtype=float)
        x, _ = lapack.dpttrs(*self._factor, self.to_sorted(v))
        return self.from_sorted(x)


def banded_kernel(coords: np.ndarray, basis: BasisConfig) -> Optional[BandedKernel]:
    """The kernel on ``coords`` as a :class:`BandedKernel`, or None.

    None means the dense kernel must be used: for the great-circle metric
    (both the 2-d and the circular case), and for coordinates whose
    smallest rho * gap lies below ``_BANDED_MIN_RHO_GAP``, where the
    tridiagonal inverse loses accuracy (duplicates are the limit).
    """
    coords = np.asarray(coords, dtype=float)
    if basis.metric != METRIC_ABS or coords.ndim != 1:
        return None
    order = None
    if np.any(coords[1:] < coords[:-1]):
        order = np.argsort(coords, kind="stable")
    scaled_gap = basis.rho * np.diff(coords if order is None else coords[order])
    if scaled_gap.size and scaled_gap.min() < _BANDED_MIN_RHO_GAP:
        return None
    a = np.exp(-scaled_gap)
    # 1 - a^2 through expm1: exact for small gaps, exactly 1 for large ones
    one_minus_a2 = -np.expm1(-2.0 * scaled_gap)
    ratio = a * a / one_minus_a2
    diag = np.ones(coords.size)
    diag[:-1] += ratio
    diag[1:] += ratio
    return BandedKernel(coords, basis, diag, -a / one_minus_a2, order)

