"""Seeded variate generation and density evaluation.

Every generator the package uses comes from ``make_rng``, seeded with a
64-bit seed or with a worker seed that ``spawn_seed`` derives from a
master seed, so a run is a pure function of its seed: same seed and same
call sequence means a bit-identical variate stream, and concurrency
cannot perturb results.  Streams are ``numpy.random.Generator``
instances (PCG64); ``run_chain`` draws each variate kind from its own
generator (see ``gibbs``).  A data subset is the ``int64`` array of its
indices in coordinate order (``run_chain`` maps the sorted draw of
``sample_active_indices`` through the coordinates' sorting permutation
when they are not sorted); no other representation exists.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import InvalidParameterError

__all__ = [
    "make_rng",
    "spawn_seed",
    "sample_active_indices",
    "MlbParams",
    "mlb_log_density",
]


def _checked_int(value, name: str) -> int:
    """``value`` as an int; raises InvalidParameterError unless it is an integer.

    ``operator.index`` accepts Python and NumPy integers and rejects
    floats, 2.0 included, so a count of 2.7 is an error rather than 2.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None


def _checked_seed(seed) -> int:
    """The seed as an int; raises unless it is a 64-bit unsigned integer."""
    value = _checked_int(seed, "seed")
    if not (0 <= value < 2**64):
        raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return value


def make_rng(seed: int) -> np.random.Generator:
    """Create a deterministic generator from a 64-bit unsigned seed."""
    return np.random.default_rng(_checked_seed(seed))


def spawn_seed(master_seed: int, index: int) -> int:
    """Derive the ``index``-th worker seed from a master seed.

    The derivation is a pure function of ``(master_seed, index)``, so a
    sweep's per-task streams do not depend on scheduling order or on the
    number of workers.
    """
    master_seed = _checked_seed(master_seed)
    index = _checked_int(index, "spawn index")
    if index < 0:
        raise InvalidParameterError(f"spawn index must be nonnegative, got {index}")
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sample_active_indices(n: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of a uniform size-n subset of range(N); ``run_chain``
    reads them as positions in coordinate order.

    ``Generator.choice`` without replacement and without shuffling: NumPy
    draws with Floyd's algorithm over a hash set unless n exceeds N/50 of
    a population above 10,000, so the cost follows n, not N.
    """
    n = _checked_int(n, "subset size n")
    N = _checked_int(N, "population size N")
    if not (1 <= n <= N):
        raise InvalidParameterError(f"subset size must satisfy 1 <= n <= N, got n={n}, N={N}")
    active = rng.choice(N, n, replace=False, shuffle=False)
    active.sort()
    return active


@dataclass(frozen=True)
class MlbParams:
    """Parameters of the multivariate logit-beta density.

    Attributes
    ----------
    mu : ndarray
        Location vector.
    v_inverse : ndarray
        Lower-triangular precision-like matrix, applied as given (it is
        not inverted); the diagonal must be strictly positive.
    alpha, kappa : ndarray
        Shape vectors with ``kappa > alpha > 0`` elementwise.
    """

    mu: np.ndarray
    v_inverse: np.ndarray
    alpha: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        v_inv = np.atleast_2d(np.asarray(self.v_inverse, dtype=float))
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        kappa = np.atleast_1d(np.asarray(self.kappa, dtype=float))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "v_inverse", v_inv)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "kappa", kappa)
        d = mu.shape[0]
        if v_inv.shape != (d, d):
            raise InvalidParameterError(
                f"v_inverse must be {d}x{d} to match mu, got {v_inv.shape}"
            )
        if alpha.shape != (d,) or kappa.shape != (d,):
            raise InvalidParameterError("alpha and kappa must match mu's length")
        if not np.all(np.isfinite(mu)) or not np.all(np.isfinite(v_inv)):
            raise InvalidParameterError("mu and v_inverse must be finite")
        if np.any(np.triu(v_inv, k=1) != 0.0):
            raise InvalidParameterError("v_inverse must be lower triangular")
        if np.any(np.diag(v_inv) <= 0.0):
            raise InvalidParameterError("v_inverse must have a strictly positive diagonal")
        if np.any(alpha <= 0.0) or np.any(kappa <= alpha):
            raise InvalidParameterError("shape vectors must satisfy kappa > alpha > 0")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def _log1pexp(x: np.ndarray) -> np.ndarray:
    # max(x, 0) + log1p(exp(-|x|)) never overflows and is exact in both tails
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def mlb_log_density(eta: np.ndarray, params: MlbParams) -> float:
    """Log density of the multivariate logit-beta distribution at ``eta``.

    Evaluates

    ``log det(V^-1) + sum_i [lgamma(kappa_i) - lgamma(alpha_i)
    - lgamma(kappa_i - alpha_i)] + alpha' z - kappa' log(1 + exp(z))``

    with ``z = V^-1 (eta - mu)``.  The final term uses the overflow-safe
    ``log(1 + exp(x)) = max(x, 0) + log(1 + exp(-|x|))``, so the result is
    finite for any finite input.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if eta.shape != (params.dim,):
        raise InvalidParameterError(
            f"eta must have length {params.dim}, got shape {eta.shape}"
        )
    if not np.all(np.isfinite(eta)):
        raise InvalidParameterError("eta must be finite")
    z = params.v_inverse @ (eta - params.mu)
    log_det = float(np.sum(np.log(np.diag(params.v_inverse))))
    log_gamma = float(
        np.sum(gammaln(params.kappa) - gammaln(params.alpha) - gammaln(params.kappa - params.alpha))
    )
    return log_det + log_gamma + float(params.alpha @ z) - float(params.kappa @ _log1pexp(z))
