"""Gaussian-process Bayesian optimization with Expected Improvement.

Search dimensions (continuous, log-continuous, discrete) map into the unit
cube where a Matern 5/2 GP with per-dimension lengthscales models the
objective. Its hyperparameters maximize the log marginal likelihood, and
candidates maximize EI, both by multi-start L-BFGS-B search with analytic
gradients. Candidates are snapped back to the raw space; discrete dimensions
snap to the nearest listed value. All objectives are maximized (validation
accuracies).

The surrogate's matrices are small (n ≤ 60 evaluations), so per-call
overhead, not arithmetic, sets the cost of a search. Its inner loop calls
the LAPACK routines behind scipy.linalg's cholesky, cho_solve and
solve_triangular directly, with the arguments those wrappers pass, and
drives scipy's L-BFGS-B routine (setulb) with the loop, settings and
evaluation caching of scipy.optimize.minimize(method="L-BFGS-B", jac=True).
Both come from scipy's compiled modules (_flapack, _lbfgsb), loaded without
the scipy.linalg and scipy.optimize packages. The starts of a multi-start
search run in lockstep, each with its own setulb state: every round, the
starts that need the objective at a new point are evaluated together by one
call of a batched objective, which takes a stack of points and returns a
value and a gradient per row. The batched objectives compute each row
exactly as that point alone: matrix products keep their per-row shapes,
scalars that math.exp gave stay from math.exp, and factorizations and solves
run per row. What a fit or a posterior holds fixed (pairwise differences,
the identity, the standardized values, the Cholesky factor) is computed and
checked for finiteness once. Proposals, traces and reports are bit-identical
to scipy.optimize.minimize run from each start in turn on the wrapped calls.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ._scipy import extension
from .errors import DataError, NumericalError

__all__ = [
    "Continuous",
    "LogContinuous",
    "Discrete",
    "SearchSpace",
    "GpPosterior",
    "BoState",
    "gp_fit",
    "expected_improvement",
    "propose_next",
    "optimize",
    "write_trace_csv",
]

NOISE_FLOOR = 1e-6
GP_RESTARTS = 3  # random starts of the marginal-likelihood fit, after the default one
EI_RESTARTS = 10  # random starts of the EI search, before the one near the best point


def _within(value: float, u: float, low: float, high: float) -> float:
    """Decodes the unit edges to the bounds exactly and keeps the rest inside.

    Rounding would otherwise put edge proposals just outside the range that
    the configs accept: exp(log(1e-5)) is 9.999999999999997e-06.
    """
    if u == 0.0:
        return low
    if u == 1.0:
        return high
    return min(max(value, low), high)


def _check_range(dim, value, owner: str) -> None:
    """DataError unless value is a number (not a bool) in [dim.low, dim.high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not dim.low <= value <= dim.high:
        raise DataError(f"{owner} {dim.name} must lie in ({dim.low}, {dim.high}), got {value!r}")


@dataclass(frozen=True)
class Continuous:
    name: str
    low: float
    high: float

    def __post_init__(self):
        if not self.low < self.high:
            raise DataError(f"dimension '{self.name}': need low < high")

    def to_unit(self, value: float) -> float:
        return (float(value) - self.low) / (self.high - self.low)

    def from_unit(self, u: float) -> float:
        u = min(max(float(u), 0.0), 1.0)
        return _within(self.low + u * (self.high - self.low), u, self.low, self.high)

    check = _check_range


@dataclass(frozen=True)
class LogContinuous:
    name: str
    low: float
    high: float

    def __post_init__(self):
        if not 0.0 < self.low < self.high:
            raise DataError(f"dimension '{self.name}': need 0 < low < high")

    def to_unit(self, value: float) -> float:
        return (math.log(float(value)) - math.log(self.low)) / (
            math.log(self.high) - math.log(self.low)
        )

    def from_unit(self, u: float) -> float:
        u = min(max(float(u), 0.0), 1.0)
        value = math.exp(math.log(self.low) + u * (math.log(self.high) - math.log(self.low)))
        return _within(value, u, self.low, self.high)

    check = _check_range


@dataclass(frozen=True)
class Discrete:
    name: str
    values: tuple

    def __post_init__(self):
        values = tuple(self.values)
        if not values:
            raise DataError(f"dimension '{self.name}': empty value list")
        if list(values) != sorted(values):
            raise DataError(f"dimension '{self.name}': values must be sorted")
        object.__setattr__(self, "values", values)

    def to_unit(self, value) -> float:
        values = self.values
        if len(values) == 1:
            return 0.5
        if value in values:
            idx = values.index(value)
        else:
            try:
                idx = int(np.argmin([abs(v - value) for v in values]))
            except TypeError:
                raise DataError(
                    f"dimension '{self.name}': {value!r} not in {values}"
                ) from None
        return idx / (len(values) - 1)

    def from_unit(self, u: float):
        values = self.values
        if len(values) == 1:
            return values[0]
        u = min(max(float(u), 0.0), 1.0)
        return values[int(round(u * (len(values) - 1)))]

    def check(self, value, owner: str) -> None:
        """DataError unless value is one of the listed values, an integer where they are (never a bool)."""
        wrong_type = isinstance(value, bool) or (
            isinstance(self.values[0], int) and not isinstance(value, numbers.Integral))
        if wrong_type or value not in self.values:
            raise DataError(f"{owner} {self.name} must be in {self.values}, got {value!r}")


@dataclass(frozen=True)
class SearchSpace:
    """Ordered mixed-type dimensions; configurations are {name: raw value} dicts."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(self.dims)
        names = [d.name for d in dims]
        if len(set(names)) != len(names):
            raise DataError("duplicate dimension names")
        object.__setattr__(self, "dims", dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    def to_unit(self, config: dict) -> np.ndarray:
        return np.array([d.to_unit(config[d.name]) for d in self.dims])

    def from_unit(self, u) -> dict:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (len(self.dims),):
            raise DataError(f"expected {len(self.dims)} coordinates, got {u.shape}")
        return {d.name: d.from_unit(v) for d, v in zip(self.dims, u)}


# ---------------------------------------------------------------------------
# Gaussian process surrogate

SQRT5 = math.sqrt(5.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def _matern52(xa: np.ndarray, xb: np.ndarray, lengthscales: np.ndarray, signal_var: float):
    sa = xa / lengthscales
    sb = xb / lengthscales
    return _matern52_scaled(sa, (sa * sa).sum(axis=1), sb, (sb * sb).sum(axis=1), signal_var)


def _matern52_scaled(
    sa: np.ndarray, sa_norms: np.ndarray, sb: np.ndarray, sb_norms: np.ndarray, signal_var
):
    """The kernel between points already divided by the lengthscales, given their squared row norms.

    Either side may be a stack of point sets along leading axes (signal_var
    then broadcasts against the stack): each pair of sets is multiplied as
    its own matrix product, so every slice equals the unstacked kernel.
    """
    d2 = (
        sa_norms[..., :, None]
        + sb_norms[..., None, :]
        - 2.0 * (sa @ np.swapaxes(sb, -1, -2))
    )
    r = np.sqrt(np.maximum(d2, 0.0))
    sq5r = SQRT5 * r
    return signal_var * (1.0 + sq5r + 5.0 * d2 / 3.0) * np.exp(-sq5r)


# The double-precision LAPACK routines that scipy.linalg's cholesky, cho_solve
# and solve_triangular call: the objects get_lapack_funcs returns, taken from
# scipy's compiled _flapack module on first use (the first GP fit or EI
# search). That module loads alone, without the scipy.linalg package: a fresh
# process's first gp_fit (n = 9, d = 3) took 42-51 ms and peaked at 43 MB RSS
# this way, against 0.38-0.42 s and 83 MB through scipy.linalg and
# scipy.optimize (five runs each, one CPU, scipy 1.17.1). Each helper below
# passes the arguments its wrapper passes (lower factor, clean=True, no
# overwrite) and raises what the wrapper raises (scipy.linalg.LinAlgError is
# numpy's), so results are bit-identical; the wrappers' batching, validation
# and lookups cost more than the solves on these sizes. Callers that hold a
# factor or a right-hand side fixed for a whole fit or posterior check it once
# and pass check_finite=False, as scipy allows.
@functools.cache
def _lapack():
    """(potrf, potrs, trtrs) for float64 arrays."""
    flapack = extension("scipy.linalg._flapack")
    return flapack.dpotrf, flapack.dpotrs, flapack.dtrtrs


def _check_finite(*arrays: np.ndarray) -> None:
    """What check_finite=True does to float arrays."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def _cholesky(a: np.ndarray, check_finite: bool = True) -> np.ndarray:
    """sp_linalg.cholesky(a, lower=True, check_finite=check_finite)."""
    if check_finite:
        _check_finite(a)
    c, info = _lapack()[0](a, lower=True, overwrite_a=False, clean=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f'LAPACK reported an illegal value in {-info}-th argument on entry to "POTRF".')
    return c


def _cho_solve(lower: np.ndarray, b: np.ndarray, check_finite: bool = True) -> np.ndarray:
    """sp_linalg.cho_solve((lower, True), b, check_finite=check_finite)."""
    if check_finite:
        _check_finite(b, lower)
    x, info = _lapack()[1](lower, b, lower=True, overwrite_b=False)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _solve_lower(lower: np.ndarray, b: np.ndarray, trans: int = 0, check_finite: bool = True) -> np.ndarray:
    """sp_linalg.solve_triangular(lower, b, lower=True, trans=trans, check_finite=check_finite), trans 0 or 1."""
    if check_finite:
        _check_finite(lower, b)
    trtrs = _lapack()[2]
    if lower.flags.f_contiguous:
        x, info = trtrs(lower, b, overwrite_b=False, lower=True, trans=trans, unitdiag=False)
    else:  # trtrs expects Fortran order: solve the transposed system
        x, info = trtrs(lower.T, b, overwrite_b=False, lower=False, trans=not trans, unitdiag=False)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _chol_with_jitter(k: np.ndarray, noise_var: float):
    n = k.shape[0]
    jitter = 0.0
    for _ in range(8):
        try:
            lower = _cholesky(k + (noise_var + jitter) * np.eye(n))
            return lower, jitter
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 10.0
    raise NumericalError(
        f"covariance not positive definite even with jitter {jitter:g}"
    )


# scipy.optimize.minimize(method="L-BFGS-B")'s defaults: maxcor, ftol / eps,
# gtol, maxls, maxiter and maxfun.
_LBFGSB_M = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
_LBFGSB_MAXITER = _LBFGSB_MAXFUN = 15000
_FG, _NEW_X, _STOP = 3, 1, 5  # setulb's task codes


def _lbfgsb_run(x: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """One start of _lbfgsb_lockstep: yields each x it needs (f, g) at, is sent them, returns (x, f, nfev)."""
    setulb = extension("scipy.optimize._lbfgsb").setulb
    n = x.size
    m = _LBFGSB_M
    nbd = np.full(n, 2, np.int32)  # bounded below and above
    x_seen = x.copy()
    f_seen, g_seen = yield x_seen
    nfev = 1
    f, g = f_seen, g_seen
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    n_iterations = 0
    while True:
        g = g.astype(np.float64)  # a copy, as scipy passes it: the cached gradient is never written
        setulb(m, x, lower, upper, nbd, f, g, _LBFGSB_FACTR, _LBFGSB_PGTOL, wa, iwa, task,
               lsave, isave, dsave, _LBFGSB_MAXLS, ln_task)
        if task[0] == _FG:
            if x.tolist() != x_seen.tolist():  # not np.array_equal (elementwise ==: 0.0 == -0.0, nan != nan)
                x_seen = x.copy()
                f_seen, g_seen = yield x_seen
                nfev += 1
            f, g = f_seen, g_seen
        elif task[0] == _NEW_X:
            n_iterations += 1
            if n_iterations >= _LBFGSB_MAXITER:
                task[:] = _STOP, 504
            elif nfev > _LBFGSB_MAXFUN:
                task[:] = _STOP, 502
        else:
            return x, f, nfev


def _lbfgsb_lockstep(fun, starts, lower: np.ndarray, upper: np.ndarray, args=()) -> list:
    """minimize(fun, x0, args, method="L-BFGS-B", jac=True, bounds=zip(lower, upper)) from each x0 in starts.

    Returns the final x, f and the number of objective evaluations of each
    start. Each start runs _minimize_lbfgsb's loop reduced to its core: x0
    is clipped to the (finite) bounds and evaluated first, the objective is
    not evaluated again while x is unchanged, and the iteration and
    evaluation limits stop the run after the iteration that reaches them.
    The starts advance in lockstep: in each round every unfinished start
    runs until it needs the objective at a new x, and one call of fun
    evaluates all of those points. fun takes the points as the rows of a
    stack and returns a value and a gradient per row.
    """
    runs = [_lbfgsb_run(np.clip(x0, lower, upper), lower, upper) for x0 in starts]
    results = [None] * len(runs)
    asking = {i: next(run) for i, run in enumerate(runs)}
    while asking:
        values, grads = fun(np.array(list(asking.values())), *args)
        replies = zip(list(asking), values, grads)
        asking = {}
        for i, f, g in replies:
            try:
                asking[i] = runs[i].send((f, g))
            except StopIteration as done:
                results[i] = done.value
    return results


def _lowest(results) -> np.ndarray:
    """x of the lockstep result with the lowest f (the first of equals); a non-finite f never beats a finite one."""
    return min(results, key=lambda r: r[1] if math.isfinite(r[1]) else math.inf)[0]


@dataclass
class GpPosterior:
    """Fitted GP over unit-cube points; predicts standardized-then-descaled values."""

    x_train: np.ndarray
    lengthscales: np.ndarray
    signal_var: float
    noise_var: float
    y_mean: float
    y_scale: float
    chol_lower: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    jitter: float = 0.0  # what the diagonal needed on top of noise_var before the kernel matrix factored
    # x_train / lengthscales and its squared row norms, fixed for the posterior
    _scaled: np.ndarray = field(init=False, repr=False, compare=False)
    _scaled_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_finite(self.chol_lower)  # once: every solve below passes check_finite=False for it
        self._scaled = self.x_train / self.lengthscales
        self._scaled_norms = (self._scaled * self._scaled).sum(axis=1)

    def predict(self, x_query) -> tuple[np.ndarray, np.ndarray]:
        mu, var, _, _ = self._posterior(np.atleast_2d(np.asarray(x_query, dtype=np.float64)))
        return mu, var

    def _posterior(self, xq: np.ndarray):
        """Mean and variance at xq, plus k(X, xq) and v = L⁻¹k(X, xq) for gradients.

        xq is one set of query rows, or a stack of sets along a leading axis,
        whose results equal those of each set alone.
        """
        sq = xq / self.lengthscales
        k_star = _matern52_scaled(self._scaled, self._scaled_norms, sq, (sq * sq).sum(axis=-1), self.signal_var)
        mu = self.y_mean + self.y_scale * (np.swapaxes(k_star, -1, -2) @ self.alpha)
        _check_finite(k_star)
        if xq.ndim == 2:
            v = _solve_lower(self.chol_lower, k_star, check_finite=False)
        else:
            v = np.array([_solve_lower(self.chol_lower, ks, check_finite=False) for ks in k_star])
        var = self.signal_var - (v * v).sum(axis=-2)
        var = np.maximum(var, 0.0) * self.y_scale**2
        return mu, var, k_star, v

    @property
    def hyperparams(self) -> dict:
        return {
            "lengthscales": self.lengthscales.tolist(),
            "signal_var": self.signal_var,
            "noise_var": self.noise_var,
            "jitter": self.jitter,
        }


def _neg_log_marginal(log_params, x, y_std, fixed_noise, diffs, eye):
    """Negative log marginal likelihood and its gradient in log_params, at each row of a stack.

    Each row holds the log lengthscales, the log signal variance and, when
    fixed_noise is None, the log noise variance. Each gradient entry is
    0.5·tr((ααᵀ − K⁻¹) ∂K/∂θ) (Rasmussen & Williams 2006, eq. 5.9). A
    covariance that cannot be factored scores 1e9 with a zero gradient.
    diffs (x[:, None] − x[None]) and eye (the n×n identity) depend on x
    alone, and the caller checks y_std for finiteness. Returns the values
    (floats) and the gradients (rows).

    Every row equals its evaluation alone, bit for bit: the kernel and
    gradient algebra runs on the whole stack with each matrix product
    keeping its per-row shape, the variances come from math.exp per row
    (np.exp differs from it in the last bit now and then), and the
    factorization and solves run per row.
    """
    n, d = x.shape
    ls = np.exp(log_params[:, :d])
    variances = []  # per row: signal variance, noise variance, ∂(noise variance)/∂log
    for row in log_params[:, d:].tolist():
        if fixed_noise is None:
            fitted_noise = math.exp(row[1])
            sn = max(fitted_noise, NOISE_FLOOR)
            variances.append((math.exp(row[0]), sn, sn if fitted_noise >= NOISE_FLOOR else 0.0))
        else:
            variances.append((math.exp(row[0]), fixed_noise, 0.0))
    sf, sn, dsn = np.array(variances).T[:, :, None, None]
    scaled = x / ls[:, None, :]
    norms = (scaled * scaled).sum(axis=2)
    k = _matern52_scaled(scaled, norms, scaled, norms, sf)
    shifted = k + (sn + 1e-12) * eye
    _check_finite(shifted)
    rows, lowers = [], []
    for i, a in enumerate(shifted):
        try:
            lowers.append(_cholesky(a, check_finite=False))
            rows.append(i)
        except np.linalg.LinAlgError:
            pass
    values, grads = [1e9] * len(log_params), np.zeros_like(log_params)
    if not rows:
        return values, grads
    lower = np.array(lowers)
    _check_finite(lower)
    alpha = np.array([_cho_solve(c, y_std, check_finite=False) for c in lowers])
    lml = (
        -0.5 * (y_std @ alpha[:, :, None])[:, 0]
        - np.log(np.diagonal(lower, axis1=1, axis2=2)).sum(axis=1)
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    finite = np.isfinite(lml)
    if not finite.all():
        rows, lowers = [i for i, ok in zip(rows, finite) if ok], [c for c, ok in zip(lowers, finite) if ok]
        alpha, lml = alpha[finite], lml[finite]
        if not rows:
            return values, grads
    on = slice(None) if len(rows) == len(log_params) else rows  # the rows that scored
    w = alpha[:, :, None] * alpha[:, None, :] - np.array([_cho_solve(c, eye, check_finite=False) for c in lowers])
    # dk/dlog l_i = sf·(5/3)(1 + √5 r)e^(−√5 r)·(Δ_i/l_i)²
    scaled_sq = (diffs / ls[on, None, None, :]) ** 2
    r = np.sqrt(scaled_sq.sum(axis=3))
    radial = sf[on] * (5.0 / 3.0) * (1.0 + SQRT5 * r) * np.exp(-SQRT5 * r)
    grad = np.empty((len(rows), log_params.shape[1]))
    grad[:, :d] = 0.5 * np.einsum("rab,rabi->ri", w * radial, scaled_sq)
    grad[:, d] = 0.5 * (w * k[on]).sum(axis=(1, 2))
    if fixed_noise is None:
        grad[:, d + 1] = 0.5 * np.trace(w, axis1=1, axis2=2) * dsn[on, 0, 0]
    grads[on] = -grad
    for i, value in zip(rows, (-lml).tolist()):
        values[i] = value
    return values, grads


def gp_fit(points, values, noise: float | None = None, seed: int = 0) -> GpPosterior:
    """Fit the surrogate on unit-cube points.

    Kernel hyperparameters maximize the log marginal likelihood over the
    default start and GP_RESTARTS random ones. When noise is None the
    observation noise is fit jointly (floored at NOISE_FLOOR); a given noise
    value is held fixed, which makes tiny noises behave as interpolation.
    """
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    y = np.asarray(values, dtype=np.float64).ravel()
    if x.shape[0] != y.size or y.size < 1:
        raise DataError("points and values must align and be non-empty")
    d = x.shape[1]
    y_mean = float(y.mean())
    y_scale = float(y.std())
    if y_scale < 1e-12:
        y_scale = 1.0
    y_std = (y - y_mean) / y_scale
    _check_finite(y_std)

    default = np.concatenate([np.log(np.full(d, 0.3)), [0.0]])
    if noise is None:
        default = np.concatenate([default, [math.log(0.1)]])
    best_params = default
    if x.shape[0] >= 2:
        rng = np.random.default_rng(seed)
        bounds = [(math.log(0.03), math.log(30.0))] * d + [(math.log(0.01), math.log(100.0))]
        if noise is None:
            bounds.append((math.log(NOISE_FLOOR), math.log(1.0)))
        starts = [default]
        for _ in range(GP_RESTARTS):
            starts.append(np.array([rng.uniform(lo, hi) for lo, hi in bounds]))
        low, high = (np.array(b) for b in zip(*bounds))
        args = (x, y_std, noise, x[:, None, :] - x[None, :, :], np.eye(x.shape[0]))
        best_params = _lowest(_lbfgsb_lockstep(_neg_log_marginal, starts, low, high, args))

    ls = np.exp(best_params[:d])
    sf = math.exp(best_params[d])
    if noise is not None:
        sn = max(float(noise), 0.0)
    else:
        sn = max(math.exp(best_params[d + 1]), NOISE_FLOOR)
    k = _matern52(x, x, ls, sf)
    lower, jitter = _chol_with_jitter(k, sn)
    alpha = _cho_solve(lower, y_std, check_finite=False)  # GpPosterior checks lower
    return GpPosterior(
        x_train=x,
        lengthscales=ls,
        signal_var=sf,
        noise_var=sn,
        y_mean=y_mean,
        y_scale=y_scale,
        chol_lower=lower,
        alpha=alpha,
        jitter=jitter,
    )


def expected_improvement(gp: GpPosterior, x_query, best_value: float):
    """EI for maximization; non-negative, zero when no improvement is possible.

    Accepts one point (1-D, returns a float) or a stack of points (2-D,
    returns an array).
    """
    single = np.asarray(x_query).ndim == 1
    mu, var = gp.predict(x_query)
    ei = _ei(mu, var, best_value)[0]
    return float(ei[0]) if single else ei


def _ei(mu, var, best_value):
    """EI from posterior moments, with σ, the live mask (σ > 1e-12), Φ(z) and φ(z)."""
    sigma = np.sqrt(var)
    improve = mu - best_value
    ei = np.maximum(improve, 0.0)
    live = sigma > 1e-12
    cdf = pdf = None
    if np.any(live):
        from scipy.special import ndtr

        z = improve[live] / sigma[live]
        cdf = ndtr(z)
        pdf = np.exp(-z**2 / 2.0) / SQRT_2PI  # scipy.stats.norm.pdf's formula
        ei = ei.copy()
        ei[live] = improve[live] * cdf + sigma[live] * pdf
    return np.maximum(ei, 0.0), sigma, live, cdf, pdf


def _neg_ei_and_grad(u, gp: GpPosterior, best_value: float):
    """-EI and its gradient at each row of a stack of unit-cube points, for the L-BFGS-B search.

    Returns the values (floats) and the gradients (rows). A value is what
    expected_improvement gives for that point alone. The gradient is
    Φ(z)·∂μ/∂u + φ(z)·∂σ/∂u where σ > 1e-12, else ∂μ/∂u while μ beats the
    best value, else 0; ∂σ/∂u takes one extra triangular solve for
    K⁻¹k(X, u). Each point's kernel column, solves and products keep the
    shapes of its evaluation alone, so every row equals that evaluation bit
    for bit.
    """
    mu, var, _, v = gp._posterior(u[:, None, :])
    ei, sigma, live, cdf, pdf = _ei(mu[:, 0], var[:, 0], best_value)
    # dk(x_a, u)/du = −sf·(5/3)(1 + √5 r_a)e^(−√5 r_a)·(u − x_a)/l²
    delta = u[:, None, :] - gp.x_train
    r = np.sqrt(((delta / gp.lengthscales) ** 2).sum(axis=2))
    radial = gp.signal_var * (5.0 / 3.0) * (1.0 + SQRT5 * r) * np.exp(-SQRT5 * r)
    dk = -(radial[:, :, None] * delta) / gp.lengthscales**2
    dmu = gp.y_scale * (gp.alpha @ dk)
    grads = -dmu
    if cdf is not None:
        on = slice(None) if cdf.size == len(u) else live
        v = v[on, :, 0]
        _check_finite(v)
        k_inv_k = np.array([_solve_lower(gp.chol_lower, col, trans=1, check_finite=False) for col in v])
        dsigma = -(gp.y_scale**2) * (k_inv_k[:, None, :] @ dk[on])[:, 0] / sigma[on, None]
        grads[on] = -(cdf[:, None] * dmu[on] + pdf[:, None] * dsigma)
    grads[~live & (mu[:, 0] - best_value <= 0.0)] = 0.0  # EI is 0 around these points
    return (-ei).tolist(), grads


# ---------------------------------------------------------------------------
# acquisition loop

@dataclass
class BoState:
    """Trace of one optimization run: evaluated points, values, surrogate state."""

    space: SearchSpace
    seed: int
    unit_points: list = field(default_factory=list)
    raw_configs: list = field(default_factory=list)
    values: list = field(default_factory=list)
    gp_hyperparams: dict | None = None
    failures: list = field(default_factory=list)

    @property
    def best_index(self) -> int:
        if not self.values:
            raise DataError("no evaluations recorded")
        return int(np.argmax(self.values))

    @property
    def best_value(self) -> float:
        return float(self.values[self.best_index])

    @property
    def best_config(self) -> dict:
        return dict(self.raw_configs[self.best_index])


def propose_next(state: BoState, space: SearchSpace) -> dict:
    """Maximize EI over the unit cube and map the winner to a raw configuration.

    The winner is the start whose search ends at the lowest −EI (_lowest);
    setulb keeps every x in the cube. Deterministic given the state contents
    and seed. Discrete dimensions snap to their nearest listed value; a
    proposal that duplicates an evaluated configuration is nudged to the
    nearest unevaluated discrete neighbor.
    """
    if not state.values:
        raise DataError("propose_next requires at least one prior evaluation")
    gp = gp_fit(np.array(state.unit_points), np.array(state.values), seed=state.seed)
    state.gp_hyperparams = gp.hyperparams
    d = space.n_dims
    rng = np.random.default_rng(np.random.SeedSequence([state.seed, len(state.values)]))
    starts = list(rng.random((EI_RESTARTS, d)))
    starts.append(np.clip(np.array(state.unit_points[state.best_index]) + 0.05 * rng.standard_normal(d), 0, 1))
    best_u = _lowest(_lbfgsb_lockstep(_neg_ei_and_grad, starts, np.zeros(d), np.ones(d), (gp, state.best_value)))
    return _dedup_discrete(space.from_unit(best_u), space, state)


def _dedup_discrete(raw: dict, space: SearchSpace, state: BoState) -> dict:
    """Nudge duplicate proposals to the nearest unevaluated discrete neighbor."""

    def snapped(cfg):
        return tuple(space.to_unit(cfg).round(12))

    seen = {tuple(space.to_unit(c).round(12)) for c in state.raw_configs}
    if snapped(raw) not in seen:
        return raw
    discrete = [(i, dim) for i, dim in enumerate(space.dims) if isinstance(dim, Discrete)]
    for radius in range(1, max((len(d.values) for _, d in discrete), default=0) + 1):
        for i, dim in discrete:
            current = dim.values.index(raw[dim.name])
            for step in (-radius, radius):
                j = current + step
                if 0 <= j < len(dim.values):
                    candidate = dict(raw)
                    candidate[dim.name] = dim.values[j]
                    if snapped(candidate) not in seen:
                        return candidate
    return raw


def _initial_design(space: SearchSpace, n_init: int, rng: np.random.Generator) -> np.ndarray:
    """Latin-hypercube style stratified draw in the unit cube."""
    d = space.n_dims
    u = np.empty((n_init, d))
    for j in range(d):
        perm = rng.permutation(n_init)
        u[:, j] = (perm + rng.random(n_init)) / n_init
    return u


def optimize(
    objective: Callable[[dict], float],
    space: SearchSpace,
    n_init: int = 5,
    n_acquisitions: int = 50,
    seed: int = 0,
) -> tuple[dict, BoState]:
    """Quasi-random exploration followed by EI-driven acquisitions.

    An objective that raises one of OBJECTIVE_FAILURES scores 0.0, is recorded
    in state.failures and the run continues; any other exception propagates.
    Returns the best raw configuration and the full trace.
    """
    if n_init < 1:
        raise DataError("n_init must be >= 1")
    if n_acquisitions < 0:
        raise DataError("n_acquisitions must be >= 0")
    state = BoState(space=space, seed=seed)
    if space.n_dims == 0:
        _record(state, space, {}, _evaluate(objective, {}, state))
        return {}, state
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    for u in _initial_design(space, n_init, rng):
        raw = space.from_unit(u)
        _record(state, space, raw, _evaluate(objective, raw, state))
    for _ in range(n_acquisitions):
        raw = propose_next(state, space)
        _record(state, space, raw, _evaluate(objective, raw, state))
    return state.best_config, state


# What an objective may raise for one configuration: rejected input or settings
# (DataError), a numerical breakdown (NumericalError), or a ValueError from
# numpy or scipy, such as LinAlgError. Anything else is a bug and propagates.
OBJECTIVE_FAILURES = (DataError, NumericalError, ValueError)


def _evaluate(objective, raw, state: BoState) -> float:
    try:
        return float(objective(dict(raw)))
    except OBJECTIVE_FAILURES as exc:  # scored 0.0 and recorded; the run goes on
        state.failures.append({"iteration": len(state.values), "config": dict(raw), "error": str(exc)})
        return 0.0


def _record(state: BoState, space: SearchSpace, raw: dict, value: float) -> None:
    state.unit_points.append(space.to_unit(raw))
    state.raw_configs.append(dict(raw))
    state.values.append(value)


def write_trace_csv(state: BoState, path: str | Path) -> None:
    """(iteration, raw values..., objective, cumulative best, failure) per evaluation.

    failure is empty, or the message of the error that scored the evaluation 0.
    """
    names = state.space.names
    failures = {f["iteration"]: f["error"] for f in state.failures}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", *names, "objective", "cumulative_best", "failure"])
        best = -math.inf
        for i, (cfg, value) in enumerate(zip(state.raw_configs, state.values)):
            best = max(best, value)
            writer.writerow([i, *(cfg[n] for n in names), repr(float(value)), repr(best), failures.get(i, "")])
