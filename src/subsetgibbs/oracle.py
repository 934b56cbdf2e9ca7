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
compare the two routes.  Everything here is deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy import stats

from .distributions import _checked_int, make_rng
from .errors import InvalidParameterError
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
    "beta_posterior_given_mask",
    "beta_mixture_cdf",
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
        if not (1 <= _checked_int(self.N, "N") <= 4):
            raise InvalidParameterError(f"N must be in [1, 4], got {self.N}")
        if not (1 <= _checked_int(self.n, "n") <= self.N):
            raise InvalidParameterError(f"n must be in [1, N], got n={self.n}, N={self.N}")
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


def _subset_theta_free_cov(spec: TinyModelSpec, mask: np.ndarray) -> np.ndarray:
    # covariance of y_active given beta only: eta, xi and the observation
    # noise are all Gaussian and integrate out in closed form
    v = spec.fixed_variances
    psi = spec.full_kernel()[np.ix_(mask, mask)]
    return v.sigma2_eta * (psi @ psi.T) + (v.sigma2 + v.sigma2_xi) * np.eye(mask.size)


def marginal_m(spec: TinyModelSpec, mask: np.ndarray, y: np.ndarray) -> float:
    """Closed-form marginal density of the selected sub-vector.

    Every layer is Gaussian with zero mean, so the selected observations
    are jointly normal with covariance

        sigma2_beta * X X' + sigma2_eta * Psi Psi' + (sigma2 + sigma2_xi) I

    evaluated on the active rows.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.N,):
        raise InvalidParameterError(f"y must have shape ({spec.N},), got {y.shape}")
    if mask.size < 1 or mask.min() < 0 or mask.max() >= spec.N:
        raise InvalidParameterError("mask must select at least one of the N indices")
    x = np.ones((mask.size, 1))
    cov = spec.fixed_variances.sigma2_beta * (x @ x.T) + _subset_theta_free_cov(spec, mask)
    value = float(stats.multivariate_normal(mean=np.zeros(mask.size), cov=cov).pdf(y[mask]))
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
    y = np.asarray(y, dtype=float)
    n = mask.size
    if n > MAX_QUADRATURE_SUBSET:
        raise InvalidParameterError(
            f"quadrature limited to subsets of size <= {MAX_QUADRATURE_SUBSET}, got {n}"
        )
    psi = spec.full_kernel()[np.ix_(mask, mask)]
    y_active = y[mask]
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
    psi = spec.full_kernel()[np.ix_(mask, mask)]
    v = spec.fixed_variances
    noise_var = v.sigma2 + v.sigma2_xi
    y_active = y[mask]
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
    y = np.asarray(y, dtype=float)
    cov = _subset_theta_free_cov(spec, mask)
    x = np.ones(mask.size)
    solve = np.linalg.solve(cov, np.column_stack([x, y[mask]]))
    precision = float(x @ solve[:, 0]) + 1.0 / spec.fixed_variances.sigma2_beta
    mean = float(x @ solve[:, 1]) / precision
    return mean, 1.0 / precision


def beta_mixture_cdf(spec: TinyModelSpec, y: np.ndarray, points: np.ndarray) -> np.ndarray:
    """CDF of the coefficient's posterior mixed over all equally likely subsets."""
    points = np.atleast_1d(np.asarray(points, dtype=float))
    masks = enumerate_masks(spec.N, spec.n)
    total = np.zeros(points.shape[0])
    for mask in masks:
        mean, var = beta_posterior_given_mask(spec, mask, y)
        total += stats.norm.cdf(points, loc=mean, scale=np.sqrt(var))
    return total / len(masks)
