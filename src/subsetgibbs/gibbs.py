"""Composite Gibbs sampler over a freshly resampled data subset.

Each sweep draws a new without-replacement subset of size n, then updates
every block from its conjugate full conditional given that subset:

    1. delta  ~ SRSWOR(n, N)                       (uses no data values),
       held in coordinate order (see ``run_chain``)
    2. eta restricted to the subset: multivariate normal.  For the
       absolute-difference metric on scalar coordinates the kernel Psi has
       a tridiagonal inverse T (see ``model.BandedKernel``), and the draw
       is O(n): v = Psi eta ~ N(M^-1 r / sigma2, M^-1) with the
       pentadiagonal M = I / sigma2 + T^2 / sigma2_eta = LL', sampled
       through one banded Cholesky factor and two banded triangular
       solves, v = L'^-1 (L^-1 r / sigma2 + z), then eta = T v by one
       banded product.  M, its factor, the solves and T all stay in
       LAPACK's lower band layout, where ``dpbtrf``'s per-column BLAS
       calls run on unit-stride vectors (see ``_banded_eta_factor``).
       Because Psi eta = v, steps 3-6 need no kernel matrix.  The
       great-circle metric and coordinates closer than
       ``model._BANDED_MIN_RHO_GAP`` (in rho * gap) use the dense path: a
       Cholesky factor of Psi'Psi / sigma2 + I / sigma2_eta and the same
       two-solve draw (see ``_sample_mvn_precision``).
    3. xi restricted to the subset: independent normals
    4. beta: p-dimensional normal
    5. prediction-set components outside the subset: prior refresh
       or carry-over, per SamplerConfig.prediction_refresh.  The prior
       refresh draws (eta, xi) from the prior for the whole prediction
       set (``draw_inactive_prediction_components``), 2m normals drawn
       in one call every sweep, and the subset's own draws of steps 2-3
       then overwrite its indices, so the normals it draws for indices in
       the subset (all of them at n = N) go unused
    6. the four variances: inverse gamma under an IG(1, 1) prior each;
       skipped when SamplerConfig.fixed_variances pins all four
    7. per-index predictions over the prediction set, computed and
       accumulated on kept sweeps only; the kernel product there is a
       tridiagonal solve whenever the prediction set qualifies for the
       banded path.  Under carry-over, (Psi eta, xi) on the prediction set
       is reused until a subset meets the set, since only the subset's
       components change

Steps 2-5 condition on the previous sweep's variances.

Each variate kind has its own generator, ``make_rng(spawn_seed(seed, k))``
for k = 0-3: the subsets, the 2n + p standard normals of steps 2-4, the
four standard gammas of step 6 and the 2m normals of the prior refresh.
``run_chain`` works in blocks of sweeps.  A block first draws the
variates whose count is set by n: one ``sample_active_indices`` call for
the block's (B, n) stack of subsets, one call for its normals and one for
its gammas, which draw what the block's sweeps would draw one at a time,
so the block size changes no variate.  The refresh's normals, whose count is set by m, are drawn in
their own sweep.  The block then builds what depends on its subsets alone
in one vectorized pass over the (B, n) stack of subsets: the gathers of y
and x, every subset's X'X, and, for every subset whose scalar coordinates
qualify, T and the band of T^2 (``model.banded_kernels``).
Its sweeps do only the work that depends on the chain's state.  A subset
that does not qualify (great-circle or too-close coordinates) gets the
dense kernel matrix in its own sweep.  ``_sweeps_per_block`` caps a block
at ``_BLOCK_ENTRIES`` subset entries, so its stacks stay small; the cap
depends on n alone, so both refresh policies run the same blocks.

Each step is a conditional draw that takes values, not a chain state:
the residual it conditions on, the variances it needs and its standard
normals (standard-gamma draws for the variances).  ``run_chain`` holds
beta, eta, xi and the four variances as locals and computes
fit = y - X beta on the subset once per sweep; step 2 takes fit - xi,
step 3 takes fit - Psi eta, step 4 takes y - Psi eta - xi, and step 6
that residual less X beta for the new beta.  The
factors of the eta and beta precisions are computed once per sweep, pinned
variances or not.  Every dense Cholesky factor comes from
``_cholesky_with_jitter``.

Calls made once per sweep or once per block take the short entry paths
that give the same bits: products of 1-D and 2-D arrays are
``ndarray.dot`` rather than ``@``, the LAPACK and BLAS wrappers get
positional arguments (a comment names them), and the block
gathers x with ``take``.  At the study's sizes a sweep is a few dozen
calls of a few µs each, so the entry path is a share of its cost (see
README, "Call paths").
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import blas, lapack

from .distributions import _checked_int, make_rng, sample_active_indices, spawn_seed
from .errors import InvalidParameterError, NumericalError
from .model import (
    METRIC_ABS,
    REFRESH_PRIOR,
    BandedKernel,
    DatasetView,
    FixedVariances,
    SamplerConfig,
    banded_kernels,
    kernel_matrix,
)

# subset entries per block of sweeps, at most (see _sweeps_per_block); the
# block's stacks take about 100 bytes per entry
_BLOCK_ENTRIES = 4096

__all__ = [
    "ChainOutput",
    "update_eta_active",
    "update_xi_active",
    "update_beta",
    "update_variances",
    "variance_shapes",
    "draw_inactive_prediction_components",
    "run_chain",
]


@dataclass
class ChainOutput:
    """Result of one chain: predictions, timings and numerical events.

    ``mu_hat`` is the running mean of the per-sweep predictions over the
    kept iterations, in the order of ``config.prediction_set``, and
    ``mu_var`` the matching sample variance (NaN when only one sweep is
    kept).  ``trace``, when requested, holds one row per sweep: beta
    components followed by the four variances.
    """

    mu_hat: np.ndarray
    mu_var: np.ndarray
    elapsed_cpu_seconds: float
    elapsed_wall_seconds: float
    jitter_events: int = 0
    trace: Optional[np.ndarray] = None


def _cholesky_with_jitter(precision: np.ndarray):
    """Lower Cholesky factor by LAPACK's dpotrf, jittered on failure.

    Each failure counts one jitter event and adds 1e-10 * trace/dim, then
    ten times that; returns (lower, jitter_events).  Raises NumericalError
    when the matrix is still numerically indefinite.
    """
    lower, info = lapack.dpotrf(precision, 1)  # a, lower
    if info == 0:
        return lower, 0
    dim = precision.shape[0]
    jitter = 1e-10 * np.trace(precision) / dim
    attempt = precision
    for jitter_events in (1, 2):
        attempt = attempt + jitter * np.eye(dim)
        jitter *= 10.0
        lower, info = lapack.dpotrf(attempt, 1)  # a, lower
        if info == 0:
            return lower, jitter_events
    raise NumericalError("precision matrix not positive definite after jitter")


def _sample_mvn_precision(chol: np.ndarray, linear: np.ndarray,
                          normals: np.ndarray) -> np.ndarray:
    """Draw from N(P^-1 h, P^-1) given the lower Cholesky factor L of P, h
    and one standard normal z per dimension.

    The draw is L'^-1 (L^-1 h + z), two triangular solves (Rue, JRSS B 63,
    2001); it equals P^-1 h + L'^-1 z, the mean plus the noise.
    """
    # LAPACK directly: the scipy.linalg wrappers cost more than the
    # solves themselves at the small sizes most sweeps use; at p = 1 an
    # in-place add, or overwriting the solve's input, is slower than this
    half, _ = lapack.dtrtrs(chol, linear, 1)  # a, b, lower
    draw, _ = lapack.dtrtrs(chol, half + normals, 1, 1)  # a, b, lower, trans
    return draw


def _sweeps_per_block(n: int) -> int:
    """Sweeps per block: as many as keep it within ``_BLOCK_ENTRIES`` subset entries.

    Only work whose size is set by n is done ahead in a block; the prior
    refresh draws its 2m normals in its own sweep, so both refresh
    policies run the same blocks.
    """
    return max(1, _BLOCK_ENTRIES // n)


def _kernel_operator(coords: np.ndarray, basis):
    """The prediction set's kernel: a BandedKernel where exact, else dense."""
    banded = banded_kernels(coords[None], basis)[0]
    return banded if banded is not None else kernel_matrix(coords, coords, basis)


def _beta_factor(xtx: np.ndarray, sigma2: float, sigma2_beta: float):
    """Lower Cholesky factor of the beta block's precision X'X/sigma2 + I/sigma2_beta.

    Returns (lower, jitter_events), as :func:`_cholesky_with_jitter` does.
    """
    precision = xtx / sigma2
    # ravel() of the fresh contiguous array is a view: this adds to its diagonal
    precision.ravel()[::precision.shape[0] + 1] += 1.0 / sigma2_beta
    return _cholesky_with_jitter(precision)


def _banded_eta_factor(kernel: BandedKernel, sigma2: float, sigma2_eta: float):
    """Lower band Cholesky factor L of M = I/sigma2 + T^2/sigma2_eta, M = LL'.

    M is pentadiagonal.  It is built from the kernel's band of T^2 in
    LAPACK's lower band layout (row 0 the diagonal, rows 1 and 2 the first
    and second subdiagonals) and factored there; L comes back in the same
    layout, which the triangular solves of :func:`update_eta_active` read.
    In that layout ``dpbtrf`` makes its two BLAS calls per column on
    unit-stride vectors; in the upper layout their stride is 2, and the
    factor takes about three times as long at n = 1,000.  Returns None
    when the factorization fails.
    """
    # Fortran order, so LAPACK factors the band in place without a copy
    band = (kernel.square_band / sigma2_eta).T
    band[0] += 1.0 / sigma2
    lower, info = lapack.dpbtrf(band, 1, 3, 1)  # ab, lower, ldab, overwrite_ab
    return lower if info == 0 else None


def _factor_eta_precision(psi_delta, sigma2: float, sigma2_eta: float):
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
    precision = psi_delta.T @ psi_delta / sigma2 + np.eye(psi_delta.shape[0]) / sigma2_eta
    lower, jitter = _cholesky_with_jitter(precision)
    return psi_delta, lower, jitter_events + jitter


def update_eta_active(residual: np.ndarray, psi_delta, chol: np.ndarray, sigma2: float,
                      normals: np.ndarray):
    """Draw the subset's basis coefficients from their full conditional.

    ``residual`` is y - X beta - xi on the subset.  The conditional is
    normal with covariance ``((1/sigma2) Psi'Psi + (1/sigma2_eta) I)^-1``
    and mean ``(Psi'Psi + (sigma2/sigma2_eta) I)^-1 Psi' residual``;
    sigma2_eta enters only through the factor.

    ``psi_delta`` and ``chol`` are the kernel and the factor that
    :func:`_factor_eta_precision` returns: the dense kernel matrix with
    the lower Cholesky factor of the precision, or a ``BandedKernel`` with
    L in lower band storage.  ``normals`` holds n standard normals z.  The
    banded draw takes v = Psi eta from N(M^-1 r / sigma2, M^-1) with
    M = I/sigma2 + T^2/sigma2_eta = LL', as v = L'^-1 (L^-1 r / sigma2 + z)
    by two banded triangular solves (Rue, JRSS B 63, 2001), and sets
    eta = T v by one banded product; the dense draw is the same two-solve
    form (:func:`_sample_mvn_precision`).  Returns (eta, Psi eta).
    """
    if isinstance(psi_delta, BandedKernel):
        # the residual over sigma2 is a fresh array: the solves overwrite it
        # k, a, x, incx, offx, lower, trans, diag, overwrite_x
        product = blas.dtbsv(2, chol, residual / sigma2, 1, 0, 1, 0, 0, 1)
        product += normals
        product = blas.dtbsv(2, chol, product, 1, 0, 1, 1, 0, 1)
        # k, alpha, a, x, incx, offx, beta, y, incy, offy, lower
        return blas.dsbmv(1, 1.0, psi_delta.band, product, 1, 0, 0.0, None, 1, 0, 1), product
    linear = psi_delta.T @ residual / sigma2
    draw = _sample_mvn_precision(chol, linear, normals)
    return draw, psi_delta @ draw


def update_xi_active(residual: np.ndarray, sigma2: float, sigma2_xi: float,
                     normals: np.ndarray) -> np.ndarray:
    """Draw the subset's fine-scale effects: independent normals.

    ``residual`` is y - X beta - Psi eta on the subset and ``normals`` one
    standard normal per entry.  Mean ``(s_xi / (s + s_xi)) * residual`` and
    common variance ``s * s_xi / (s + s_xi)`` with s = sigma2,
    s_xi = sigma2_xi.  A variance that is not finite (the product
    overflows once both variances pass about 1e154) raises NumericalError.
    """
    mean = sigma2_xi / (sigma2 + sigma2_xi) * residual
    variance = sigma2 * sigma2_xi / (sigma2 + sigma2_xi)
    if not math.isfinite(variance):
        raise NumericalError("xi conditional variance is not finite")
    return mean + math.sqrt(variance) * normals


def update_beta(x_delta: np.ndarray, residual: np.ndarray, chol: np.ndarray, sigma2: float,
                normals: np.ndarray) -> np.ndarray:
    """Draw the regression coefficients from their full conditional.

    ``residual`` is y - Psi eta - xi on the subset.  Normal with covariance
    ``((1/sigma2) X'X + (1/sigma2_beta) I_p)^-1`` and mean
    ``(X'X + (sigma2/sigma2_beta) I_p)^-1 X' residual``; ``chol`` is the
    lower Cholesky factor of that precision, as :func:`_beta_factor`
    returns it, and ``normals`` holds p standard normals.
    """
    linear = x_delta.T.dot(residual) / sigma2
    return _sample_mvn_precision(chol, linear, normals)


def update_variances(residual: np.ndarray, eta_delta: np.ndarray, xi_delta: np.ndarray,
                     beta: np.ndarray, gammas):
    """Draw the four variance components from their inverse-gamma conditionals.

    With the IG(1, 1) prior on each component the conditionals are

        sigma2      ~ IG(1 + n/2, 1 + ||residual||^2 / 2)
        sigma2_eta  ~ IG(1 + n/2, 1 + eta'eta / 2)
        sigma2_xi   ~ IG(1 + n/2, 1 + xi'xi / 2)
        sigma2_beta ~ IG(1 + p/2, 1 + beta'beta / 2)

    where ``residual = y - X beta - Psi eta - xi`` on the subset.
    ``gammas`` holds four standard-gamma draws, in that order, with the
    shapes above (see :func:`variance_shapes`); each variance is
    1 / (scale * draw), which is what ``Generator.gamma(shape, scale)``
    makes of the same variates.  A sum of squares that is not finite
    (overflowing data, or a NaN upstream) would give a zero or NaN gamma
    scale, so it raises NumericalError.
    """
    ss = float(residual.dot(residual))
    ss_eta = float(eta_delta.dot(eta_delta))
    ss_xi = float(xi_delta.dot(xi_delta))
    ss_beta = float(beta.dot(beta))
    if not (math.isfinite(ss) and math.isfinite(ss_eta) and math.isfinite(ss_xi)
            and math.isfinite(ss_beta)):
        raise NumericalError("variance conditionals have a sum of squares that is not finite")
    gamma, gamma_eta, gamma_xi, gamma_beta = gammas
    return (1.0 / ((1.0 / (1.0 + 0.5 * ss)) * gamma),
            1.0 / ((1.0 / (1.0 + 0.5 * ss_eta)) * gamma_eta),
            1.0 / ((1.0 / (1.0 + 0.5 * ss_xi)) * gamma_xi),
            1.0 / ((1.0 / (1.0 + 0.5 * ss_beta)) * gamma_beta))


def variance_shapes(n: int, p: int) -> np.ndarray:
    """Shapes of the four standard-gamma draws :func:`update_variances` takes."""
    return np.array([1.0 + n / 2.0] * 3 + [1.0 + p / 2.0])


def draw_inactive_prediction_components(indices: np.ndarray, sigma2_eta: float,
                                        sigma2_xi: float, normals: np.ndarray):
    """Prior draws of (eta_i, xi_i) for the prediction indices ``indices``.

    Both vectors are independent normals with mean zero and variances
    ``sigma2_eta`` and ``sigma2_xi``; ``normals`` holds two standard
    normals per index, eta's first.  Returns (eta_draw, xi_draw), one
    entry per index.  ``run_chain`` passes the whole prediction set and
    then writes the subset's own draws over it, so the indices outside
    the subset keep these.
    """
    if sigma2_eta <= 0.0 or sigma2_xi <= 0.0:
        raise InvalidParameterError("variances must be strictly positive")
    eta_draw = math.sqrt(sigma2_eta) * normals[:indices.size]
    xi_draw = math.sqrt(sigma2_xi) * normals[indices.size:]
    return eta_draw, xi_draw


def run_chain(data: DatasetView, config: SamplerConfig, n: int,
              *, collect_trace: bool = False) -> ChainOutput:
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

    Returns
    -------
    ChainOutput

    Raises
    ------
    NumericalError
        If a factorization fails (a precision Cholesky even after
        jitter, or the prediction set's tridiagonal kernel inverse); n
        and the failing sweep index are attached.
    """
    n = _checked_int(n, "subset size n")
    N = data.n_obs
    if not (1 <= n <= N):
        raise InvalidParameterError(f"subset size must satisfy 1 <= n <= N, got n={n}, N={N}")
    pred = config.prediction_set
    if pred[-1] >= N:
        raise InvalidParameterError("prediction_set contains indices beyond the dataset")
    wall_start = time.perf_counter()
    cpu_start = time.process_time()

    # the banded kernel needs sorted coordinates: when scalar coordinates
    # are not sorted, each drawn subset maps through their stable sorting
    # permutation (a bijection, so the law stays SRSWOR(n, N)), the
    # prediction set is held in coordinate order, and the outputs go back
    # to the order of config.prediction_set at the end
    coords = data.index_coords
    rank = pred_order = None
    if (config.basis.metric == METRIC_ABS and coords.ndim == 1
            and np.any(coords[1:] < coords[:-1])):
        rank = np.argsort(coords, kind="stable")
        pred_order = np.argsort(coords[pred], kind="stable")
        pred = pred[pred_order]

    # one generator per variate kind (see the module docstring)
    subset_rng, normal_rng, gamma_rng, refresh_rng = (
        make_rng(spawn_seed(config.seed, k)) for k in range(4))
    fixed = config.fixed_variances
    p = data.n_covariates
    # zero effects; unit variances unless pinned, so that the first sweep
    # already conditions on the pins
    start = fixed or FixedVariances(1.0, 1.0, 1.0, 1.0)
    sigma2, sigma2_eta = start.sigma2, start.sigma2_eta
    sigma2_xi, sigma2_beta = start.sigma2_xi, start.sigma2_beta
    beta = np.zeros(p)
    eta = np.zeros(N)
    xi = np.zeros(N)
    refresh_prior = config.prediction_refresh == REFRESH_PRIOR

    # prediction design is fixed across sweeps
    psi_pred = _kernel_operator(coords[pred], config.basis)
    x_pred = data.x[pred]

    # Under carry, a sweep changes eta and xi only on its subset, so the
    # prediction set's (Psi eta, xi) stays valid until a subset meets the
    # set; under prior refresh it is recomputed on every kept sweep.
    in_pred = np.zeros(N, dtype=bool)
    in_pred[pred] = True
    pred_parts = None

    m = pred.size
    kept = 0
    mu_mean = np.zeros(m)
    mu_m2 = np.zeros(m)
    jitter_events = 0
    trace = np.empty((config.iterations, p + 4)) if collect_trace else None

    # blocks of sweeps: variates first, then the subsets' designs, then
    # the sweeps (see the module docstring)
    sweeps_per_block = _sweeps_per_block(n)
    g = 0
    # every NumericalError a sweep raises gets its context here, once
    try:
        while g < config.iterations:
            size = min(sweeps_per_block, config.iterations - g)
            actives = sample_active_indices(n, N, subset_rng, size)
            if rank is not None:
                actives = rank[actives]
            normals = normal_rng.standard_normal((size, 2 * n + p))
            if fixed is None:
                gammas = gamma_rng.standard_gamma(variance_shapes(n, p), (size, 4)).tolist()
            kernels = banded_kernels(coords[actives], config.basis)
            x_block = data.x.take(actives, axis=0)
            xtx_block = np.matmul(x_block.transpose(0, 2, 1), x_block)
            y_block = data.y[actives]
            stale = (in_pred[actives].any(axis=1) | refresh_prior).tolist()

            for b in range(size):
                g += 1
                active = actives[b]
                x_delta = x_block[b]
                psi_delta = kernels[b]
                if psi_delta is None:
                    active_coords = coords[active]
                    psi_delta = kernel_matrix(active_coords, active_coords, config.basis)
                psi_delta, chol_eta, jitter = _factor_eta_precision(psi_delta, sigma2, sigma2_eta)
                chol_beta, jitter_beta = _beta_factor(xtx_block[b], sigma2, sigma2_beta)
                jitter_events += jitter + jitter_beta
                y_delta = y_block[b]
                z = normals[b]
                fit = y_delta - x_delta.dot(beta)

                eta_delta, psi_eta = update_eta_active(
                    fit - xi[active], psi_delta, chol_eta, sigma2, z[:n])
                xi_delta = update_xi_active(fit - psi_eta, sigma2, sigma2_xi, z[n:2 * n])
                resid = y_delta - psi_eta - xi_delta
                beta = update_beta(x_delta, resid, chol_beta, sigma2, z[2 * n:])

                if refresh_prior:
                    # the whole set from the prior; the subset's own draws go over it next
                    eta[pred], xi[pred] = draw_inactive_prediction_components(
                        pred, sigma2_eta, sigma2_xi, refresh_rng.standard_normal(2 * m))
                eta[active] = eta_delta
                xi[active] = xi_delta
                if stale[b]:
                    pred_parts = None

                if fixed is None:
                    sigma2, sigma2_eta, sigma2_xi, sigma2_beta = update_variances(
                        resid - x_delta.dot(beta), eta_delta, xi_delta, beta, gammas[b])

                if collect_trace:
                    trace[g - 1, :-4] = beta
                    trace[g - 1, -4:] = (sigma2, sigma2_eta, sigma2_xi, sigma2_beta)

                if g > config.burn_in:
                    if pred_parts is None:
                        pred_parts = (psi_pred @ eta[pred], xi[pred])
                    # Welford's update, in place
                    mu_g = x_pred.dot(beta)
                    mu_g += pred_parts[0]
                    mu_g += pred_parts[1]
                    kept += 1
                    delta_mu = mu_g - mu_mean
                    mu_mean += delta_mu / kept
                    mu_g -= mu_mean
                    mu_g *= delta_mu
                    mu_m2 += mu_g
    except NumericalError as exc:
        raise NumericalError(str(exc), n=n, iteration=g) from exc

    mu_var = mu_m2 / (kept - 1) if kept > 1 else np.full(m, np.nan)
    if pred_order is not None:
        by_index = np.empty((2, m))
        by_index[:, pred_order] = mu_mean, mu_var
        mu_mean, mu_var = by_index
    return ChainOutput(
        mu_hat=mu_mean,
        mu_var=mu_var,
        elapsed_cpu_seconds=time.process_time() - cpu_start,
        elapsed_wall_seconds=time.perf_counter() - wall_start,
        jitter_events=jitter_events,
        trace=trace,
    )
