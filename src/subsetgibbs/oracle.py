"""Small-instance verification oracles for the subset-resampling model.

The reweighted subset likelihood is built so that three things hold no
matter which subset is drawn:

* mixing the reweighted subset marginals over all subsets reproduces the
  full-data marginal (the model leaves the data's law untouched);
* the subset indicators are independent of the data;
* the conditional posterior given a subset depends on the data only
  through the selected sub-vector.

With the variance components pinned, every layer of the model is
Gaussian, so each identity can be checked numerically on instances small
enough to enumerate every subset: marginals come both from a closed-form
convolution and from tensor-grid Gauss-Hermite quadrature, and the checks
compare the two routes.  :func:`beta_given_variances` is the one closed
form with eta, xi and the noise integrated out, and
:func:`joint_posterior_given_mask` the independent route through the
full (beta, eta, xi) precision.  Everything here is deterministic except
:func:`sampled_variance_reference`, which is seeded Monte Carlo.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy import stats

from .distributions import make_rng
from .errors import InvalidParameterError, _checked_indices, _checked_int
from .model import BasisConfig, DatasetView, FixedVariances, kernel_matrix

__all__ = [
    "TinyModelSpec",
    "CheckReport",
    "enumerate_masks",
    "marginal_m",
    "marginal_m_quadrature",
    "check_marginal_preserved",
    "check_subset_independence",
    "check_posterior_equivalence",
    "beta_given_variances",
    "beta_posterior_given_mask",
    "beta_mixture_cdf",
    "joint_posterior_given_mask",
    "prediction_oracle",
    "sampled_variance_reference",
]

# tensor-grid quadrature is kept to (1 + n) dimensions; subsets larger
# than this fall back to the closed form on both sides of a check
MAX_QUADRATURE_SUBSET = 2
# Gauss-Hermite nodes per dimension of that grid
QUADRATURE_NODES = 48


@dataclass(frozen=True)
class TinyModelSpec:
    """An enumerable instance: N <= 4 rows, pinned variances, p = 1.

    Rows sit at coordinates 0..N-1 with a unit intercept covariate.  The
    variances and the kernel are the sampler's own value types, validated
    by their constructors: ``fixed_variances`` pins all four components
    and ``basis`` gives the kernel (exp(-rho * |i - j|) by default), so a
    chain configured with the same two values runs this very model.
    """

    N: int
    n: int
    fixed_variances: FixedVariances = FixedVariances(1.0, 1.0, 1.0, 1.0)
    basis: BasisConfig = BasisConfig(rho=0.3)

    def __post_init__(self):
        N = _checked_int(self.N, "N", 1, 4)
        _checked_int(self.n, "n", 1, N)
        if math.comb(self.N, self.n) > 6:
            raise InvalidParameterError("subset enumeration capped at 6 masks")
        if not isinstance(self.fixed_variances, FixedVariances):
            raise InvalidParameterError(
                f"fixed_variances must be a FixedVariances, got {self.fixed_variances!r}")
        if not isinstance(self.basis, BasisConfig):
            raise InvalidParameterError(f"basis must be a BasisConfig, got {self.basis!r}")

    def dataset(self, y: np.ndarray) -> DatasetView:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.N,):
            raise InvalidParameterError(f"y must have shape ({self.N},), got {y.shape}")
        return DatasetView(
            y=y, x=np.ones((self.N, 1)), index_coords=np.arange(self.N, dtype=float)
        )

    def full_kernel(self) -> np.ndarray:
        coords = np.arange(self.N, dtype=float)
        return kernel_matrix(coords, coords, self.basis)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one oracle check, printable as structured text."""

    name: str
    max_abs_error: float
    tolerance: float
    cases: int

    @property
    def passed(self) -> bool:
        return self.max_abs_error <= self.tolerance

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: max |error| = {self.max_abs_error:.3e} "
            f"(tolerance {self.tolerance:.1e}, {self.cases} cases)"
        )


def enumerate_masks(N: int, n: int) -> List[np.ndarray]:
    """Every size-n subset of range(N), in lexicographic order.

    Each subset is the sorted ``int64`` array of its indices, the form the
    sampler draws; the oracles below take a subset in that form.
    """
    return [np.array(c, dtype=np.int64) for c in itertools.combinations(range(N), n)]


def _subset(spec: TinyModelSpec, mask, y) -> Tuple[np.ndarray, np.ndarray]:
    """The subset's kernel Psi_delta and data y_delta, with y and the mask checked."""
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.N,):
        raise InvalidParameterError(f"y must have shape ({spec.N},), got {y.shape}")
    mask = _checked_indices(mask, "mask", spec.N)
    return spec.full_kernel()[np.ix_(mask, mask)], y[mask]


def beta_given_variances(psi, y_delta, variances) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log marginal of y_delta, and beta's conditional mean and variance,
    for each row (sigma2, sigma2_eta, sigma2_xi, sigma2_beta) of ``variances``.

    With eta, xi and the noise integrated out, y_delta | beta has
    covariance C = sigma2_eta Psi Psi' + (sigma2 + sigma2_xi) I, which one
    eigendecomposition of Psi Psi' diagonalizes for every row at once;
    adding sigma2_beta 1 1' for the marginal is a rank-one update.
    """
    lam, q = np.linalg.eigh(psi @ psi.T)
    ones, data = q.T @ np.ones(y_delta.size), q.T @ y_delta
    s2, s2_eta, s2_xi, s2_beta = variances.T
    diagonal = s2_eta[:, None] * lam + (s2 + s2_xi)[:, None]
    xcx = (ones**2 / diagonal).sum(axis=1)
    xcy = (ones * data / diagonal).sum(axis=1)
    ycy = (data**2 / diagonal).sum(axis=1)
    update = 1.0 + s2_beta * xcx
    log_marginal = -0.5 * (ycy - s2_beta * xcy**2 / update + np.log(diagonal).sum(axis=1)
                           + np.log(update) + y_delta.size * np.log(2.0 * np.pi))
    precision = xcx + 1.0 / s2_beta
    return log_marginal, xcy / precision, 1.0 / precision


def _at_pins(spec: TinyModelSpec, mask, y) -> Tuple[float, float, float]:
    """:func:`beta_given_variances` on one subset, at the spec's pins."""
    v = spec.fixed_variances
    pins = np.array([[v.sigma2, v.sigma2_eta, v.sigma2_xi, v.sigma2_beta]])
    return tuple(float(a[0]) for a in beta_given_variances(*_subset(spec, mask, y), pins))


def marginal_m(spec: TinyModelSpec, mask: np.ndarray, y: np.ndarray) -> float:
    """Closed-form marginal density of the selected sub-vector.

    Every layer is Gaussian with zero mean, so the selected observations
    are jointly normal with covariance

        sigma2_beta * X X' + sigma2_eta * Psi Psi' + (sigma2 + sigma2_xi) I

    evaluated on the active rows.
    """
    value = float(np.exp(_at_pins(spec, mask, y)[0]))
    if not np.isfinite(value) or value <= 0.0:
        raise InvalidParameterError("marginal density is not finite and positive")
    return value


@functools.lru_cache(maxsize=16)
def _gauss_hermite_grid(nodes: int, dims: int):
    # physicists' Gauss-Hermite: integral of f against N(0,1) is
    # sum_k w_k/sqrt(pi) * f(sqrt(2) t_k)
    t, w = np.polynomial.hermite.hermgauss(nodes)
    axes = np.meshgrid(*([t] * dims), indexing="ij")
    points = np.stack([a.ravel() for a in axes], axis=1)
    w_axes = np.meshgrid(*([w] * dims), indexing="ij")
    weights = np.prod(np.stack([a.ravel() for a in w_axes], axis=1), axis=1)
    return np.sqrt(2.0) * points, weights / np.pi ** (dims / 2.0)


def marginal_m_quadrature(spec: TinyModelSpec, mask: np.ndarray, y: np.ndarray,
                          nodes: int = QUADRATURE_NODES) -> float:
    """Quadrature route to the same marginal: integrate out (beta, eta).

    The fine-scale effect and observation noise are absorbed analytically
    into a diagonal variance; the remaining (1 + n)-dimensional integral
    over the regression coefficient and the active basis coefficients is
    a tensor-product Gauss-Hermite sum.  Only exact for Gaussian layers,
    which is the whole point: it must agree with :func:`marginal_m`.
    """
    psi, y_active = _subset(spec, mask, y)
    n = y_active.size
    if n > MAX_QUADRATURE_SUBSET:
        raise InvalidParameterError(
            f"quadrature limited to subsets of size <= {MAX_QUADRATURE_SUBSET}, got {n}"
        )
    v = spec.fixed_variances
    noise_var = v.sigma2 + v.sigma2_xi

    points, weights = _gauss_hermite_grid(nodes, 1 + n)
    beta = np.sqrt(v.sigma2_beta) * points[:, 0]
    eta = np.sqrt(v.sigma2_eta) * points[:, 1:]
    means = beta[:, None] + eta @ psi.T
    log_lik = -0.5 * np.sum((y_active[None, :] - means) ** 2, axis=1) / noise_var \
        - 0.5 * n * np.log(2.0 * np.pi * noise_var)
    return float(np.sum(weights * np.exp(log_lik)))


def _mixture_terms(spec: TinyModelSpec, y: np.ndarray) -> Tuple[float, List[float]]:
    """Full-data marginal plus each mask's reweighted quadrature marginal.

    Term for mask d:  Pr(d) * m_quad(d, y_d) * m(1_N, y) / m(d, y_d),
    with the quadrature route used wherever the dimension cap allows and
    the closed form otherwise.
    """
    masks = enumerate_masks(spec.N, spec.n)
    prob = 1.0 / len(masks)
    m_full = marginal_m(spec, np.arange(spec.N), y)
    terms = []
    for mask in masks:
        m_closed = marginal_m(spec, mask, y)
        if mask.size <= MAX_QUADRATURE_SUBSET:
            m_numeric = marginal_m_quadrature(spec, mask, y)
        else:
            m_numeric = m_closed
        terms.append(prob * m_numeric * m_full / m_closed)
    return m_full, terms


def check_marginal_preserved(spec: TinyModelSpec, y: np.ndarray) -> CheckReport:
    """The subset mixture must reproduce the full-data marginal.

    Sums, over every subset, the reweighted subset marginal times the
    subset probability and compares against the full-data marginal
    (relative error).  The subset marginals inside the sum come from
    quadrature, the anchor from the closed form, so agreement is not
    algebraically forced.
    """
    y = np.asarray(y, dtype=float)
    m_full, terms = _mixture_terms(spec, y)
    error = abs(sum(terms) - m_full) / m_full
    return CheckReport(
        name=f"marginal-preserved N={spec.N} n={spec.n}",
        max_abs_error=float(error),
        tolerance=1e-6,
        cases=len(terms),
    )


def check_subset_independence(spec: TinyModelSpec) -> CheckReport:
    """The joint law of (subset, data) must factorize.

    For each mask and each data vector on the grid {-1.5, 0, 1.5}^N, the
    joint density divided by the full-data marginal must equal the subset
    probability 1 / C(N, n).
    """
    y_grid = itertools.product(np.linspace(-1.5, 1.5, 3), repeat=spec.N)
    masks = enumerate_masks(spec.N, spec.n)
    prob = 1.0 / len(masks)
    worst = 0.0
    cases = 0
    for y in y_grid:
        m_full, terms = _mixture_terms(spec, np.array(y))
        for term in terms:
            worst = max(worst, abs(term / m_full - prob))
            cases += 1
    return CheckReport(
        name=f"subset-independence N={spec.N} n={spec.n}",
        max_abs_error=float(worst),
        tolerance=1e-6,
        cases=cases,
    )


def _conditional_log_posterior_grid(spec: TinyModelSpec, mask: np.ndarray,
                                    y: np.ndarray, grid_points: np.ndarray) -> np.ndarray:
    """Normalized log conditional of (beta, eta_active) on a fixed grid.

    Includes the reweighting ratio m(1_N, y) / m(mask, y_mask), which
    depends on the full data vector but not on the parameters; the check
    verifies it cancels under normalization.
    """
    psi, y_active = _subset(spec, mask, y)
    v = spec.fixed_variances
    noise_var = v.sigma2 + v.sigma2_xi
    beta = grid_points[:, 0]
    eta = grid_points[:, 1:]
    means = beta[:, None] + eta @ psi.T
    log_unnorm = (
        -0.5 * np.sum((y_active[None, :] - means) ** 2, axis=1) / noise_var
        - 0.5 * beta**2 / v.sigma2_beta
        - 0.5 * np.sum(eta**2, axis=1) / v.sigma2_eta
    )
    log_unnorm += np.log(marginal_m(spec, np.arange(spec.N), y)) - np.log(marginal_m(spec, mask, y))
    log_norm = np.log(np.sum(np.exp(log_unnorm - log_unnorm.max()))) + log_unnorm.max()
    return log_unnorm - log_norm


def check_posterior_equivalence(spec: TinyModelSpec, y: np.ndarray,
                                perturbations: int = 10) -> CheckReport:
    """Conditioned on a subset, the posterior must ignore unselected data.

    Evaluates the normalized conditional of (beta, eta_active) on a fixed
    parameter grid, then perturbs the data outside the mask and asserts
    the grid values are unchanged.  Masks covering everything pass
    vacuously (there is nothing to perturb).
    """
    y = np.asarray(y, dtype=float)
    rng = make_rng(0)
    axis = np.linspace(-2.0, 2.0, 9)
    worst = 0.0
    cases = 0
    for mask in enumerate_masks(spec.N, spec.n):
        outside = np.setdiff1d(np.arange(spec.N), mask, assume_unique=True)
        if outside.size == 0:
            continue
        dims = 1 + mask.size
        grid = np.array(list(itertools.product(axis, repeat=dims)))
        reference = _conditional_log_posterior_grid(spec, mask, y, grid)
        for _ in range(perturbations):
            perturbed = y.copy()
            perturbed[outside] += rng.normal(0.0, 5.0, outside.size)
            shifted = _conditional_log_posterior_grid(spec, mask, perturbed, grid)
            worst = max(worst, float(np.max(np.abs(shifted - reference))))
            cases += 1
    return CheckReport(
        name=f"posterior-equivalence N={spec.N} n={spec.n}",
        max_abs_error=worst,
        tolerance=1e-10,
        cases=max(cases, 1),
    )


def beta_posterior_given_mask(spec: TinyModelSpec, mask: np.ndarray,
                              y: np.ndarray) -> Tuple[float, float]:
    """Exact (mean, variance) of the coefficient given one subset.

    With the other layers integrated out, y_active | beta is normal with
    mean X beta, so beta's posterior is the usual Gaussian update.
    """
    _, mean, var = _at_pins(spec, mask, y)
    return mean, var


def beta_mixture_cdf(spec: TinyModelSpec, y: np.ndarray, points: np.ndarray) -> np.ndarray:
    """CDF of the coefficient's posterior mixed over all equally likely subsets."""
    points = np.atleast_1d(np.asarray(points, dtype=float))
    moments = np.array([beta_posterior_given_mask(spec, mask, y)
                        for mask in enumerate_masks(spec.N, spec.n)])
    return stats.norm.cdf(points[:, None], moments[:, 0], np.sqrt(moments[:, 1])).mean(axis=1)


def joint_posterior_given_mask(spec: TinyModelSpec, mask, y) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of (beta, eta_delta, xi_delta) given one subset.

    Given the subset and the pins the three blocks are jointly Gaussian:
    y_delta = beta + Psi_delta eta_delta + xi_delta + noise, with the
    independent priors N(0, sigma2_beta), N(0, sigma2_eta I) and
    N(0, sigma2_xi I).  Its beta block is the independent route to beta.
    """
    psi, y_active = _subset(spec, mask, y)
    v = spec.fixed_variances
    n = y_active.size
    design = np.hstack([np.ones((n, 1)), psi, np.eye(n)])
    prior = np.concatenate([[v.sigma2_beta], np.full(n, v.sigma2_eta), np.full(n, v.sigma2_xi)])
    cov = np.linalg.inv(np.diag(1.0 / prior) + design.T @ design / v.sigma2)
    return cov @ design.T @ y_active / v.sigma2, cov


def prediction_oracle(spec: TinyModelSpec, y, pred) -> Tuple[np.ndarray, np.ndarray]:
    """Exact mixture mean and variance of mu_i over the prediction set ``pred``.

    mu_i = beta + sum_{j in pred} K(i, j) eta_j + xi_i, as the chain
    predicts it.  Given a subset, the terms inside it come from
    :func:`joint_posterior_given_mask` and the eta_j and xi_i outside it
    from their priors, as under the ``prior`` refresh; the pins make every
    subset equally likely a posteriori (criterion 1), so the mixture
    weights the subsets equally.  ``pred`` is sorted, as a prediction set is.
    """
    pred = _checked_indices(pred, "pred", spec.N)
    v = spec.fixed_variances
    kernel = spec.full_kernel()
    masks = enumerate_masks(spec.N, spec.n)
    first = second = 0.0
    for mask in masks:
        mean, cov = joint_posterior_given_mask(spec, mask, y)
        n = mask.size
        inside = np.isin(pred, mask)
        at = np.searchsorted(mask, pred[inside])
        load = np.zeros((pred.size, 1 + 2 * n))
        load[:, 0] = 1.0
        load[:, 1 + at] = kernel[np.ix_(pred, pred[inside])]
        load[inside, 1 + n + at] = 1.0
        prior_var = (v.sigma2_eta * (kernel[np.ix_(pred, pred[~inside])] ** 2).sum(axis=1)
                     + v.sigma2_xi * ~inside)
        given = load @ mean
        first = first + given
        second = second + np.einsum("ij,jk,ik->i", load, cov, load) + prior_var + given**2
    first, second = first / len(masks), second / len(masks)
    return first, second - first**2


def sampled_variance_reference(spec: TinyModelSpec, y: np.ndarray, draws: int, seed: int,
                               replicates: int = 10) -> Tuple[np.ndarray, np.ndarray]:
    """Mixture mean and variance of beta with IG(1, 1) priors on all four
    variances, and their standard errors.

    Each replicate estimates, for every subset, beta's posterior mean and
    second moment by self-normalized importance sampling from the prior:
    ``draws // replicates`` prior draws of the variances, each weighted by
    the Gaussian marginal of y_delta and contributing beta's conditional
    moments (:func:`beta_given_variances`).  The subsets mix equally.  The
    estimate is the mean over the independent replicates and its standard
    error their spread over sqrt(replicates).  ``spec``'s pins are unused.
    """
    draws, replicates = _checked_int(draws, "draws"), _checked_int(replicates, "replicates")
    if not 2 <= replicates <= draws:
        raise InvalidParameterError(
            f"need 2 <= replicates <= draws, got replicates={replicates}, draws={draws}")
    rng = make_rng(seed)
    masks = enumerate_masks(spec.N, spec.n)
    estimates = np.empty((replicates, 2))
    for replicate in range(replicates):
        first = second = 0.0
        for mask in masks:
            variances = 1.0 / rng.standard_exponential((draws // replicates, 4))
            log_weight, mean, var = beta_given_variances(*_subset(spec, mask, y), variances)
            weight = np.exp(log_weight - log_weight.max())
            first += weight @ mean / weight.sum()
            second += weight @ (var + mean**2) / weight.sum()
        first, second = first / len(masks), second / len(masks)
        estimates[replicate] = first, second - first**2
    return estimates.mean(axis=0), estimates.std(axis=0, ddof=1) / np.sqrt(replicates)
