"""Composite Gibbs sampler over a freshly resampled data subset.

Each sweep draws a new without-replacement subset of size n, then updates
every block from its conjugate full conditional given that subset:

    1. delta  ~ SRSWOR(n, N)                       (uses no data values)
    2. eta restricted to the subset: multivariate normal.  For the
       absolute-difference metric on scalar coordinates the kernel Psi has
       a tridiagonal inverse T (see ``model.BandedKernel``), and the draw
       is O(n): v = Psi eta ~ N(M^-1 r / sigma2, M^-1) with the
       pentadiagonal M = I / sigma2 + T^2 / sigma2_eta, sampled through
       one banded Cholesky factor and one banded solve, then eta = T v.
       Because Psi eta = v, steps 3-5 need no kernel matrix.  The
       great-circle metric and coordinates closer than
       ``model._BANDED_MIN_RHO_GAP`` (in rho * gap) use the dense path: a
       Cholesky factor of Psi'Psi / sigma2 + I / sigma2_eta.
    3. xi restricted to the subset: independent normals
    4. beta: p-dimensional normal
    5. the four variances: inverse gamma under an IG(1, 1) prior each,
       unless SamplerConfig.fixed_variances pins all four
    6. prediction-set components outside the subset: prior refresh
       (``draw_inactive_prediction_components``) or carry-over, per
       SamplerConfig.prediction_refresh
    7. per-index predictions over the prediction set, accumulated after
       burn-in; the kernel product there is a tridiagonal solve whenever
       the prediction set qualifies for the banded path

Variance lags follow the update order exactly: steps 2-4 condition on the
previous sweep's variances, and step 6's prior refresh also uses the
previous sweep's variances even though step 5 has already produced new
ones.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import lapack

from .distributions import make_rng, sample_active_indices
from .errors import InvalidParameterError, NumericalError
from .model import (
    REFRESH_PRIOR,
    BandedKernel,
    BasisConfig,
    ChainState,
    DatasetView,
    FixedVariances,
    SamplerConfig,
    SubsetMask,
    banded_kernel,
    kernel_matrix,
)

# subsets are enumerable below this count, so their designs are memoized
_DESIGN_CACHE_LIMIT = 64

__all__ = [
    "Clock",
    "ChainOutput",
    "update_eta_active",
    "update_xi_active",
    "update_beta",
    "update_variances",
    "draw_inactive_prediction_components",
    "predict_mu",
    "run_chain",
]


@dataclass(frozen=True)
class Clock:
    """Injectable time source; the default reads the process clocks."""

    wall: Callable[[], float] = time.perf_counter
    cpu: Callable[[], float] = time.process_time


@dataclass
class ChainOutput:
    """Result of one chain: predictions, timings and bookkeeping.

    ``mu_hat`` is the running mean of the per-sweep predictions over the
    kept iterations and ``mu_var`` the matching sample variance (NaN when
    only one sweep is kept).  ``trace``, when requested, holds one row per
    sweep: beta components followed by the four variances.
    """

    mu_hat: np.ndarray
    mu_var: np.ndarray
    prediction_indices: np.ndarray
    elapsed_cpu_seconds: float
    elapsed_wall_seconds: float
    n_used: int
    iterations_kept: int
    jitter_events: int = 0
    trace: Optional[np.ndarray] = None


def _cholesky_with_jitter(precision: np.ndarray, *, n: int, iteration: Optional[int]):
    """Lower Cholesky factor, adding 1e-10 * trace/dim jitter on failure.

    Returns (lower, jitter_events); raises NumericalError when two
    escalating jitters still leave the matrix numerically indefinite.
    """
    dim = precision.shape[0]
    jitter_events = 0
    jitter = 1e-10 * np.trace(precision) / dim
    attempt = precision
    for _ in range(3):
        try:
            return np.linalg.cholesky(attempt), jitter_events
        except np.linalg.LinAlgError:
            jitter_events += 1
            attempt = attempt + jitter * np.eye(dim)
            jitter *= 10.0
    raise NumericalError(
        "precision matrix not positive definite after jitter",
        n=n, iteration=iteration,
    )


def _sample_mvn_precision(chol: np.ndarray, linear: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Draw from N(P^-1 h, P^-1) given the lower Cholesky factor of P and h."""
    # LAPACK directly: the scipy.linalg wrappers cost more than the
    # solves themselves at the small sizes most sweeps use
    mean, _ = lapack.dpotrs(chol, linear, lower=1)
    z = rng.standard_normal(chol.shape[0])
    noise, _ = lapack.dtrtrs(chol, z, lower=1, trans=1)
    return mean + noise


def _kernel_operator(coords: np.ndarray, basis):
    """The kernel on ``coords``: a BandedKernel where exact, else dense."""
    banded = banded_kernel(coords, basis)
    return banded if banded is not None else kernel_matrix(coords, coords, basis)


def _beta_precision(state: ChainState, xtx: np.ndarray) -> np.ndarray:
    """Precision of the beta block, X'X / sigma2 + I / sigma2_beta."""
    return xtx / state.sigma2 + np.eye(xtx.shape[0]) / state.sigma2_beta


def _banded_eta_factor(kernel: BandedKernel, sigma2: float, sigma2_eta: float):
    """Upper band Cholesky factor of M = I/sigma2 + T^2/sigma2_eta.

    M is pentadiagonal; it is stored and factored in LAPACK's upper band
    layout (row 2 the diagonal, rows 1 and 0 the first and second
    superdiagonals).  Returns None when the factorization fails.
    """
    d, e = kernel.diag, kernel.off
    band = np.zeros((3, d.shape[0]))
    band[2] = d * d
    band[2, :-1] += e * e
    band[2, 1:] += e * e
    band[1, 1:] = e * (d[:-1] + d[1:])
    band[0, 2:] = e[:-1] * e[1:]
    band /= sigma2_eta
    band[2] += 1.0 / sigma2
    factor, info = lapack.dpbtrf(band)
    return factor if info == 0 else None


def _factor_eta_precision(psi_delta, sigma2: float, sigma2_eta: float,
                          *, n: int, iteration: Optional[int]):
    """Factor the eta block's precision for the kernel at hand.

    Returns (psi_delta, factor, jitter_events).  A BandedKernel yields the
    banded factor of M (see :func:`_banded_eta_factor`); when that fails
    the kernel is replaced by its dense matrix, the failure counts as one
    jitter event, and the dense path below takes over.  A dense kernel
    yields the lower Cholesky factor of Psi'Psi/sigma2 + I/sigma2_eta,
    jittered if needed.
    """
    jitter_events = 0
    if isinstance(psi_delta, BandedKernel):
        factor = _banded_eta_factor(psi_delta, sigma2, sigma2_eta)
        if factor is not None:
            return psi_delta, factor, 0
        psi_delta = kernel_matrix(psi_delta.coords, psi_delta.coords, psi_delta.basis)
        jitter_events = 1
    precision = psi_delta.T @ psi_delta / sigma2 + np.eye(n) / sigma2_eta
    lower, jitter = _cholesky_with_jitter(precision, n=n, iteration=iteration)
    return psi_delta, lower, jitter_events + jitter


def update_eta_active(state: ChainState, y_delta: np.ndarray, x_delta: np.ndarray,
                      psi_delta, xi_delta: np.ndarray,
                      rng: np.random.Generator, *, iteration: Optional[int] = None,
                      chol: Optional[np.ndarray] = None,
                      with_product: bool = False):
    """Draw the subset's basis coefficients from their full conditional.

    The conditional is normal with covariance
    ``((1/sigma2) Psi'Psi + (1/sigma2_eta) I)^-1`` and mean
    ``(Psi'Psi + (sigma2/sigma2_eta) I)^-1 Psi'(y - X beta - xi)``.

    ``psi_delta`` is the dense kernel matrix or a ``BandedKernel``.  The
    banded draw takes v = Psi eta ~ N(M^-1 r / sigma2, M^-1) with
    M = I/sigma2 + T^2/sigma2_eta = U'U, as v = M^-1 (r / sigma2 + U'z),
    and returns eta = T v.  ``chol`` is a precomputed factor of the
    matching kind (lower dense factor of the precision, or U in band
    storage).  With ``with_product`` the return value is (eta, Psi eta).
    """
    n = y_delta.shape[0]
    if chol is None:
        psi_delta, chol, _ = _factor_eta_precision(
            psi_delta, state.sigma2, state.sigma2_eta, n=n, iteration=iteration)
    residual = y_delta - x_delta @ state.beta - xi_delta
    if isinstance(psi_delta, BandedKernel):
        z = rng.standard_normal(n)
        rhs = psi_delta.to_sorted(residual) / state.sigma2
        rhs += chol[2] * z
        rhs[1:] += chol[1, 1:] * z[:-1]
        rhs[2:] += chol[0, 2:] * z[:-2]
        product, _ = lapack.dpbtrs(chol, rhs)
        draw = psi_delta.from_sorted(psi_delta.sorted_inverse_matvec(product))
        product = psi_delta.from_sorted(product)
    else:
        linear = psi_delta.T @ residual / state.sigma2
        draw = _sample_mvn_precision(chol, linear, rng)
        product = psi_delta @ draw if with_product else None
    return (draw, product) if with_product else draw


def update_xi_active(state: ChainState, y_delta: np.ndarray, x_delta: np.ndarray,
                     psi_delta, eta_delta: np.ndarray,
                     rng: np.random.Generator, *,
                     psi_eta: Optional[np.ndarray] = None) -> np.ndarray:
    """Draw the subset's fine-scale effects: independent normals.

    Mean ``(s_xi / (s + s_xi)) * (y - X beta - Psi eta)`` and common
    variance ``s * s_xi / (s + s_xi)`` with s = sigma2, s_xi = sigma2_xi.
    ``psi_eta`` (Psi eta) may be supplied when the caller has it.
    """
    if psi_eta is None:
        psi_eta = psi_delta @ eta_delta
    shrink = state.sigma2_xi / (state.sigma2 + state.sigma2_xi)
    mean = shrink * (y_delta - x_delta @ state.beta - psi_eta)
    variance = state.sigma2 * state.sigma2_xi / (state.sigma2 + state.sigma2_xi)
    return mean + np.sqrt(variance) * rng.standard_normal(mean.shape[0])


def update_beta(state: ChainState, y_delta: np.ndarray, x_delta: np.ndarray,
                psi_delta, eta_delta: np.ndarray, xi_delta: np.ndarray,
                rng: np.random.Generator, *, iteration: Optional[int] = None,
                chol: Optional[np.ndarray] = None,
                psi_eta: Optional[np.ndarray] = None) -> np.ndarray:
    """Draw the regression coefficients from their full conditional.

    Normal with covariance ``((1/sigma2) X'X + (1/sigma2_beta) I_p)^-1``
    and mean ``(X'X + (sigma2/sigma2_beta) I_p)^-1 X'(y - Psi eta - xi)``.
    ``chol``, the lower Cholesky factor of that precision, and ``psi_eta``
    (Psi eta) may be supplied when the caller has them.
    """
    if psi_eta is None:
        psi_eta = psi_delta @ eta_delta
    if chol is None:
        chol, _ = _cholesky_with_jitter(_beta_precision(state, x_delta.T @ x_delta),
                                        n=y_delta.shape[0], iteration=iteration)
    residual = y_delta - psi_eta - xi_delta
    linear = x_delta.T @ residual / state.sigma2
    return _sample_mvn_precision(chol, linear, rng)


def update_variances(state: ChainState, residual: Optional[np.ndarray], eta_delta: np.ndarray,
                     xi_delta: np.ndarray, beta: np.ndarray, rng: np.random.Generator,
                     *, fixed: Optional[FixedVariances] = None):
    """Draw the four variance components from their inverse-gamma conditionals.

    With the IG(1, 1) prior on each component the conditionals are

        sigma2      ~ IG(1 + n/2, 1 + ||residual||^2 / 2)
        sigma2_eta  ~ IG(1 + n/2, 1 + eta'eta / 2)
        sigma2_xi   ~ IG(1 + n/2, 1 + xi'xi / 2)
        sigma2_beta ~ IG(1 + p/2, 1 + beta'beta / 2)

    where ``residual = y - X beta - Psi eta - xi`` on the subset.  With
    ``fixed`` the pinned values are returned and no randomness is
    consumed; ``residual`` may then be None.
    """
    if fixed is not None:
        return fixed.sigma2, fixed.sigma2_eta, fixed.sigma2_xi, fixed.sigma2_beta
    n = eta_delta.shape[0]

    def _draw(half_df: float, vector: np.ndarray) -> float:
        return 1.0 / rng.gamma(1.0 + half_df, 1.0 / (1.0 + 0.5 * float(vector @ vector)))

    return (_draw(n / 2.0, residual), _draw(n / 2.0, eta_delta), _draw(n / 2.0, xi_delta),
            _draw(beta.shape[0] / 2.0, beta))


def draw_inactive_prediction_components(state: ChainState, prediction_set: np.ndarray,
                                        subset, rng: np.random.Generator,
                                        *, sigma2_eta: Optional[float] = None,
                                        sigma2_xi: Optional[float] = None):
    """Prior draws of (eta_i, xi_i) for prediction indices outside the subset.

    ``subset`` is the sorted array of active indices or a ``SubsetMask``;
    the lookup costs O(m log n) for m prediction indices, whatever N is.
    Both vectors are independent normals with mean zero, eta drawn first;
    the variances default to the ones in ``state`` but the chain passes the
    previous sweep's values explicitly, honoring the update-order lag.
    Indices already in the subset are untouched.  Returns the refreshed
    index set with the two draws (empty arrays when the subset covers the
    set).
    """
    s_eta = state.sigma2_eta if sigma2_eta is None else sigma2_eta
    s_xi = state.sigma2_xi if sigma2_xi is None else sigma2_xi
    if s_eta <= 0.0 or s_xi <= 0.0:
        raise InvalidParameterError("variances must be strictly positive")
    active = subset.active if isinstance(subset, SubsetMask) else subset
    position = np.minimum(np.searchsorted(active, prediction_set), active.size - 1)
    outside = prediction_set[active[position] != prediction_set]
    if outside.size == 0:
        return outside, np.empty(0), np.empty(0)
    eta_draw = np.sqrt(s_eta) * rng.standard_normal(outside.size)
    xi_draw = np.sqrt(s_xi) * rng.standard_normal(outside.size)
    return outside, eta_draw, xi_draw


def _predict_from_design(x_pred: np.ndarray, psi_pred, pred_indices: np.ndarray,
                         state: ChainState) -> np.ndarray:
    # shared by predict_mu and the chain; psi_pred is a dense matrix or a
    # BandedKernel
    return x_pred @ state.beta + psi_pred @ state.eta[pred_indices] + state.xi[pred_indices]


def predict_mu(state: ChainState, data: DatasetView, basis: BasisConfig,
               prediction_set: Sequence[int]) -> np.ndarray:
    """Per-index prediction over the prediction set.

    For each i in the set: ``x_i' beta + sum_{j in set} K(c_i, c_j) eta_j
    + xi_i``; components of eta outside the set are masked out, matching
    the sampler's prediction rule.
    """
    pred = np.asarray(prediction_set, dtype=np.int64)
    if pred.ndim != 1 or pred.size < 1:
        raise InvalidParameterError("prediction_set must be a nonempty 1-d index list")
    if pred[0] < 0 or pred[-1] >= data.n_obs or np.any(np.diff(pred) <= 0):
        raise InvalidParameterError("prediction_set must be sorted, unique and in range")
    psi_pred = _kernel_operator(data.index_coords[pred], basis)
    return _predict_from_design(data.x[pred], psi_pred, pred, state)


def run_chain(data: DatasetView, config: SamplerConfig, n: int,
              *, collect_trace: bool = False, clock: Optional[Clock] = None) -> ChainOutput:
    """Run one chain of the subset-resampling sampler.

    Parameters
    ----------
    data : DatasetView
    config : SamplerConfig
    n : int
        Subset size, 1 <= n <= N.  n = N recovers the ordinary
        full-data sampler (the subset draw then always returns the full
        index set).
    collect_trace : bool
        Record (beta, sigma2, sigma2_eta, sigma2_xi, sigma2_beta) per
        sweep for trace export and diagnostics.
    clock : Clock, optional
        Injectable time source for the recorded wall/CPU durations.

    Returns
    -------
    ChainOutput

    Raises
    ------
    NumericalError
        If a precision Cholesky fails even after jitter; the failing
        sweep index and n are attached.
    """
    n = int(n)
    N = data.n_obs
    if not (1 <= n <= N):
        raise InvalidParameterError(f"subset size must satisfy 1 <= n <= N, got n={n}, N={N}")
    pred = config.prediction_set
    if pred[-1] >= N:
        raise InvalidParameterError("prediction_set contains indices beyond the dataset")
    clock = clock or Clock()
    wall_start = clock.wall()
    cpu_start = clock.cpu()

    rng = make_rng(config.seed)
    fixed = config.fixed_variances
    state = ChainState.initial(N, data.n_covariates, fixed)
    refresh_prior = config.prediction_refresh == REFRESH_PRIOR

    # prediction design is fixed across sweeps
    psi_pred = _kernel_operator(data.index_coords[pred], config.basis)
    x_pred = data.x[pred]

    m = pred.size
    kept = 0
    mu_mean = np.zeros(m)
    mu_m2 = np.zeros(m)
    jitter_events = 0
    trace = np.empty((config.iterations, data.n_covariates + 4)) if collect_trace else None

    # Pinned variances leave each subset's design and precision factors
    # (banded or dense) constant, so with an enumerable mask space they are
    # reused across sweeps.  Cache hits are arithmetically identical to
    # recomputation.
    design_cache = {} if fixed is not None and math.comb(N, n) <= _DESIGN_CACHE_LIMIT else None

    for g in range(1, config.iterations + 1):
        active = sample_active_indices(n, N, rng)
        design = None if design_cache is None else design_cache.get(active.tobytes())
        if design is None:
            x_delta = data.x[active]
            psi_delta, chol_eta, jitter = _factor_eta_precision(
                _kernel_operator(data.index_coords[active], config.basis),
                state.sigma2, state.sigma2_eta, n=n, iteration=g)
            chol_beta, jitter_beta = _cholesky_with_jitter(
                _beta_precision(state, x_delta.T @ x_delta), n=n, iteration=g)
            jitter_events += jitter + jitter_beta
            design = (x_delta, psi_delta, chol_eta, chol_beta)
            if design_cache is not None:
                design_cache[active.tobytes()] = design
        x_delta, psi_delta, chol_eta, chol_beta = design
        y_delta = data.y[active]

        prev_sigma2_eta = state.sigma2_eta
        prev_sigma2_xi = state.sigma2_xi

        eta_delta, psi_eta = update_eta_active(
            state, y_delta, x_delta, psi_delta, state.xi[active], rng, iteration=g,
            chol=chol_eta, with_product=True)
        state.eta[active] = eta_delta

        xi_delta = update_xi_active(state, y_delta, x_delta, psi_delta, eta_delta, rng,
                                    psi_eta=psi_eta)
        state.xi[active] = xi_delta

        beta = update_beta(state, y_delta, x_delta, psi_delta, eta_delta, xi_delta,
                           rng, iteration=g, chol=chol_beta, psi_eta=psi_eta)
        state.beta = beta

        residual = y_delta - x_delta @ beta - psi_eta - xi_delta if fixed is None else None
        (state.sigma2, state.sigma2_eta,
         state.sigma2_xi, state.sigma2_beta) = update_variances(
            state, residual, eta_delta, xi_delta, beta, rng, fixed=fixed)

        if refresh_prior:
            outside, eta_outside, xi_outside = draw_inactive_prediction_components(
                state, pred, active, rng,
                sigma2_eta=prev_sigma2_eta, sigma2_xi=prev_sigma2_xi)
            state.eta[outside] = eta_outside
            state.xi[outside] = xi_outside

        mu_g = _predict_from_design(x_pred, psi_pred, pred, state)

        if collect_trace:
            trace[g - 1, :-4] = state.beta
            trace[g - 1, -4:] = (state.sigma2, state.sigma2_eta,
                                 state.sigma2_xi, state.sigma2_beta)

        if g > config.burn_in:
            kept += 1
            delta_mu = mu_g - mu_mean
            mu_mean += delta_mu / kept
            mu_m2 += delta_mu * (mu_g - mu_mean)

    mu_var = mu_m2 / (kept - 1) if kept > 1 else np.full(m, np.nan)
    return ChainOutput(
        mu_hat=mu_mean,
        mu_var=mu_var,
        prediction_indices=pred.copy(),
        elapsed_cpu_seconds=clock.cpu() - cpu_start,
        elapsed_wall_seconds=clock.wall() - wall_start,
        n_used=n,
        iterations_kept=kept,
        jitter_events=jitter_events,
        trace=trace,
    )
