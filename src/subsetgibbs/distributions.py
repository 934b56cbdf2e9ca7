"""Seeded variate generation and density evaluation.

Every generator the package uses comes from ``make_rng``, seeded with a
64-bit seed or with a worker seed that ``spawn_seed`` derives from a
master seed, so a run is a pure function of its seed: same seed and same
call sequence means a bit-identical variate stream, and concurrency
cannot perturb results.  Streams are ``numpy.random.Generator``
instances (PCG64); ``run_chain`` draws each variate kind from its own
generator (see ``gibbs``).  A data subset is the ``int64`` array of its
indices in coordinate order (``run_chain`` maps the sorted rows of
``sample_active_indices``, one block of sweeps' subsets per call, through
the coordinates' sorting permutation when they are not sorted); no other
representation exists.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

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


def sample_active_indices(n: int, N: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniform size-n subsets of range(N), one sorted row each;
    ``run_chain`` reads them as positions in coordinate order.

    Row b is what the b-th of ``count`` successive calls of
    ``rng.choice(N, n, replace=False, shuffle=False)`` returns, sorted,
    and ``rng`` ends in the same state, so the number of rows drawn at
    once changes no subset.  NumPy draws with Floyd's algorithm (Bentley
    and Floyd, CACM 30(9), 1987) unless n exceeds N/50 of a population
    above 10,000, so the cost follows n, not N.  Where
    :func:`_floyd_block_pays` says so, all rows come from one
    vectorized pass over the same variates (:func:`_floyd_subsets`);
    otherwise ``choice`` draws each row.
    """
    n = _checked_int(n, "subset size n")
    N = _checked_int(N, "population size N")
    count = _checked_int(count, "subset count")
    if not (1 <= n <= N):
        raise InvalidParameterError(f"subset size must satisfy 1 <= n <= N, got n={n}, N={N}")
    if count < 1:
        raise InvalidParameterError(f"subset count must be positive, got {count}")
    if _floyd_block_pays(n, N):
        return _floyd_subsets(n, N, rng, count)
    return _choice_subsets(n, N, rng, count)


def _floyd_block_pays(n: int, N: int) -> bool:
    """Whether :func:`_floyd_subsets` beats one ``choice`` call per subset.

    Its cost per subset grows with n log n and with the draws a row
    repeats, about n^2 / 2N (at most 20 here), while ``choice`` spends
    some 7 µs per call in Python before its C loop (README, "Cost per
    sweep", has the measured table).  n <= 200 also keeps the draw inside ``choice``'s
    Floyd regime, which a population above 10,000 leaves only for
    n > N // 50 >= 200.
    """
    return n <= 200 and n * n <= 40 * N


def _choice_subsets(n: int, N: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` sorted rows from one ``choice`` call each."""
    actives = np.empty((count, n), dtype=np.int64)
    for b in range(count):
        actives[b] = rng.choice(N, n, replace=False, shuffle=False)
    actives.sort(axis=1)
    return actives


def _floyd_subsets(n: int, N: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` sorted rows of Floyd's algorithm from one ``integers`` call.

    Floyd's loop takes, for j = N - n, ..., N - 1, a draw d uniform on
    0..j and keeps d unless an earlier step kept it, in which case it
    keeps j.  ``choice`` draws each d by ``random_bounded_uint64(0, j)``;
    ``integers(0, j + 1)`` over the (count, n) grid of loop values makes
    the same calls in the same order.  A row without a repeated draw is
    its draws, sorted; the rows that repeat one are resolved by
    :func:`_resolve_repeats`.
    """
    base = N - n
    draws = rng.integers(0, np.arange(base + 1, N + 1), size=(count, n))
    actives = np.sort(draws, axis=1)
    repeats = (actives[:, 1:] == actives[:, :-1]).any(axis=1)
    if repeats.any():
        actives[repeats] = _resolve_repeats(draws[repeats], base)
    return actives


def _resolve_repeats(draws: np.ndarray, base: int) -> np.ndarray:
    """Floyd's kept values, sorted, for rows of draws in loop order.

    Step k of a row (loop value j = base + k) keeps j in place of its draw
    when the draw repeats an earlier one, or when it equals the loop
    value that an earlier replaced step kept; a replacement can so set
    off a chain of them, followed here one link per pass.
    """
    rows, n = draws.shape
    # sort by value, then by step: each later occurrence of a value repeats it
    key = draws * n + np.arange(n)
    key.sort(axis=1)
    value, step = np.divmod(key, n)
    later = value[:, 1:] == value[:, :-1]
    replaced = np.zeros((rows, n), dtype=bool)
    replaced[np.nonzero(later)[0], step[:, 1:][later]] = True
    # the draws that equal a loop value, and the step that owns it
    row, at = np.nonzero(draws >= base)
    owner = draws[row, at] - base
    while True:
        chained = replaced[row, owner] & ~replaced[row, at]
        if not chained.any():
            break
        replaced[row[chained], at[chained]] = True
    kept = np.where(replaced, base + np.arange(n), draws)
    kept.sort(axis=1)
    return kept


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
    # imported here: scipy.special alone adds hundreds of modules to every import
    from scipy.special import gammaln

    z = params.v_inverse @ (eta - params.mu)
    log_det = float(np.sum(np.log(np.diag(params.v_inverse))))
    log_gamma = float(
        np.sum(gammaln(params.kappa) - gammaln(params.alpha) - gammaln(params.kappa - params.alpha))
    )
    return log_det + log_gamma + float(params.alpha @ z) - float(params.kappa @ _log1pexp(z))
