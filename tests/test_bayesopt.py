import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy
from scipy import linalg as sp_linalg
from scipy import optimize as sp_optimize
from scipy.optimize import _lbfgsb, approx_fprime
from scipy.stats import norm

from specsiam import bayesopt
from specsiam.bayesopt import (
    BoState,
    Continuous,
    Discrete,
    LogContinuous,
    SearchSpace,
    expected_improvement,
    gp_fit,
    optimize,
    propose_next,
    write_trace_csv,
)
from specsiam.classify import ClassifierKind, classifier_search_space
from specsiam.errors import DataError, NumericalError
from specsiam.evaluate import snn_search_space


def oracle_matern52(xa, xb, lengthscales, signal_var):
    """Dense-formula kernel written independently for oracle solves."""
    out = np.zeros((xa.shape[0], xb.shape[0]))
    for i in range(xa.shape[0]):
        for j in range(xb.shape[0]):
            r2 = float((((xa[i] - xb[j]) / lengthscales) ** 2).sum())
            r = math.sqrt(r2)
            out[i, j] = signal_var * (1 + math.sqrt(5) * r + 5 * r2 / 3) * math.exp(-math.sqrt(5) * r)
    return out


def oracle_predict(gp, xq):
    """Posterior mean/variance by direct dense solves with the fitted hyperparameters."""
    x = gp.x_train
    k = oracle_matern52(x, x, gp.lengthscales, gp.signal_var) + gp.noise_var * np.eye(x.shape[0])
    k_star = oracle_matern52(x, xq, gp.lengthscales, gp.signal_var)
    # reconstruct standardized targets from alpha, then solve densely
    y_std = k @ gp.alpha
    alpha = np.linalg.solve(k, y_std)
    mu = gp.y_mean + gp.y_scale * (k_star.T @ alpha)
    kxx = np.diag(oracle_matern52(xq, xq, gp.lengthscales, gp.signal_var))
    var = (kxx - np.einsum("ij,ji->i", k_star.T, np.linalg.solve(k, k_star))) * gp.y_scale**2
    return mu, np.maximum(var, 0.0)


def oracle_neg_log_marginal(log_params, x, y_std, fixed_noise):
    """The value-only objective gp_fit searched with finite-difference gradients."""
    d = x.shape[1]
    ls = np.exp(log_params[:d])
    sf = math.exp(log_params[d])
    sn = fixed_noise if fixed_noise is not None else max(math.exp(log_params[d + 1]), bayesopt.NOISE_FLOOR)
    k = bayesopt._matern52(x, x, ls, sf)
    n = x.shape[0]
    try:
        lower = sp_linalg.cholesky(k + (sn + 1e-12) * np.eye(n), lower=True)
    except sp_linalg.LinAlgError:
        return 1e9
    alpha = sp_linalg.cho_solve((lower, True), y_std)
    lml = (
        -0.5 * float(y_std @ alpha)
        - float(np.log(np.diag(lower)).sum())
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    if not math.isfinite(lml):
        return 1e9
    return -lml


def dense_neg_log_marginal(log_params, x, y_std, fixed_noise):
    """The objective from the loop-built kernel and scipy's cho_factor/cho_solve,
    sharing no code with bayesopt beyond the noise floor."""
    n, d = x.shape
    sn = fixed_noise if fixed_noise is not None else max(math.exp(log_params[d + 1]), bayesopt.NOISE_FLOOR)
    k = oracle_matern52(x, x, np.exp(log_params[:d]), math.exp(log_params[d])) + (sn + 1e-12) * np.eye(n)
    factor = sp_linalg.cho_factor(k, lower=True)
    alpha = sp_linalg.cho_solve(factor, y_std)
    return 0.5 * float(y_std @ alpha) + float(np.log(np.diag(factor[0])).sum()) + 0.5 * n * math.log(2.0 * math.pi)


def oracle_ei(gp, xq, best_value):
    """EI through scipy.stats.norm, as expected_improvement computed it before."""
    mu, var = gp.predict(xq)
    sigma = np.sqrt(var)
    improve = mu - best_value
    ei = np.maximum(improve, 0.0)
    live = sigma > 1e-12
    z = improve[live] / sigma[live]
    ei[live] = improve[live] * norm.cdf(z) + sigma[live] * norm.pdf(z)
    return np.maximum(ei, 0.0)


def marginal_args(x, y_std, noise):
    """_neg_log_marginal's arguments after the points, built as gp_fit builds them."""
    return x, y_std, noise, x[:, None, :] - x[None, :, :], np.eye(x.shape[0])


def one_point(fun):
    """The single-point objective behind a batched one: its batch of one."""

    def single(point, *args):
        values, grads = fun(point[None, :], *args)
        return values[0], grads[0]

    return single


class TestSpaceMappings:
    def test_continuous_round_trip(self):
        dim = Continuous("x", -2.0, 6.0)
        for v in (-2.0, 0.0, 3.3, 6.0):
            assert dim.from_unit(dim.to_unit(v)) == pytest.approx(v, abs=1e-12)

    def test_log_round_trip(self):
        dim = LogContinuous("lr", 1e-6, 1e-3)
        for v in (1e-6, 1e-5, 3.7e-4, 1e-3):
            assert dim.from_unit(dim.to_unit(v)) == pytest.approx(v, rel=1e-12)

    @pytest.mark.parametrize(
        "low, high",
        [(1e-5, 1.0), (1e-6, 1e-3), (1e-3, 1e-1), (1e-2, 1.0), (0.3, 7.0), (1e-9, 1e9)],
    )
    def test_edges_decode_exactly_to_bounds(self, low, high):
        # exp(log(1e-5)) is 9.999999999999997e-06: without clamping, an edge
        # proposal fell outside the range the classifier specs accept.
        for dim in (LogContinuous("x", low, high), Continuous("x", low, high)):
            assert dim.from_unit(0.0) == low
            assert dim.from_unit(1.0) == high
            assert dim.from_unit(-0.5) == low
            assert dim.from_unit(1.5) == high

    def test_discrete_snap_idempotent(self):
        dim = Discrete("k", (3, 4, 5, 6, 7, 8, 9, 10, 11, 12))
        for u in np.linspace(0, 1, 23):
            v = dim.from_unit(u)
            assert v in dim.values
            assert dim.from_unit(dim.to_unit(v)) == v

    def test_discrete_nearest_value(self):
        dim = Discrete("n", (10, 50, 100, 200))
        assert dim.from_unit(dim.to_unit(60)) == 50
        assert dim.from_unit(dim.to_unit(160)) == 200

    def test_string_discrete(self):
        dim = Discrete("kernel", ("linear", "rbf"))
        assert dim.from_unit(0.0) == "linear"
        assert dim.from_unit(1.0) == "rbf"
        assert dim.from_unit(dim.to_unit("rbf")) == "rbf"
        with pytest.raises(DataError):
            dim.to_unit("poly")

    def test_bad_dims_rejected(self):
        with pytest.raises(DataError):
            Continuous("x", 1.0, 1.0)
        with pytest.raises(DataError):
            LogContinuous("x", 0.0, 1.0)
        with pytest.raises(DataError):
            Discrete("x", ())
        with pytest.raises(DataError):
            Discrete("x", (3, 2))

    def test_check_accepts_the_domain_and_never_a_bool(self):
        binary = Discrete("b", (0, 1))
        binary.check(1, "owner")
        for dim, bad in ((binary, True), (binary, False), (binary, 2), (binary, 1.0),
                         (Continuous("c", 0.0, 1.0), True), (LogContinuous("g", 1e-3, 1.0), np.nan),
                         (LogContinuous("g", 1e-3, 1.0), "0.1")):
            with pytest.raises(DataError, match=f"^owner {dim.name} must (be in|lie in)"):
                dim.check(bad, "owner")
        Continuous("c", 0.0, 1.0).check(np.float64(1.0), "owner")
        LogContinuous("g", 1e-3, 1.0).check(np.float32(0.5), "owner")

    @given(u=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_space_round_trip_property(self, u):
        space = SearchSpace(
            (
                Continuous("a", 0.5, 5.0),
                LogContinuous("b", 1e-5, 1.0),
                Discrete("c", (2, 3, 4, 5, 6, 7, 8)),
            )
        )
        raw = space.from_unit(np.array(u))
        again = space.from_unit(space.to_unit(raw))
        assert again["a"] == pytest.approx(raw["a"], abs=1e-9)
        assert again["b"] == pytest.approx(raw["b"], rel=1e-9)
        assert again["c"] == raw["c"]


class TestGp:
    def test_interpolates_with_tiny_noise(self):
        rng = np.random.default_rng(0)
        x = rng.random((5, 1))
        y = np.sin(3.0 * x[:, 0])
        gp = gp_fit(x, y, noise=1e-10)
        mu, var = gp.predict(x)
        assert np.abs(mu - y).max() < 1e-6
        assert var.max() <= 1e-10 + 1e-6

    def test_posterior_variance_nonnegative(self):
        rng = np.random.default_rng(1)
        x = rng.random((12, 2))
        y = rng.random(12)
        gp = gp_fit(x, y)
        _, var = gp.predict(rng.random((200, 2)))
        assert (var >= 0.0).all()

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        x = np.linspace(0.0, 1.0, 5)[:, None]
        y = np.sin(2.5 * x[:, 0]) + 0.1 * rng.standard_normal(5)
        gp = gp_fit(x, y, noise=1e-6)
        midpoints = (x[:-1] + x[1:]) / 2.0
        mu, var = gp.predict(midpoints)
        mu_o, var_o = oracle_predict(gp, midpoints)
        np.testing.assert_allclose(mu, mu_o, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(var, var_o, rtol=1e-6, atol=1e-9)

    def test_posterior_mean_close_to_smooth_function(self):
        # leave-one-out style sanity: midpoint predictions track the function
        x = np.linspace(0.0, 1.0, 7)[:, None]
        y = np.cos(2.0 * np.pi * x[:, 0] / 2.0)
        gp = gp_fit(x, y, noise=1e-8)
        mid = (x[:-1] + x[1:]) / 2.0
        mu, _ = gp.predict(mid)
        truth = np.cos(2.0 * np.pi * mid[:, 0] / 2.0)
        loo_err = []
        for i in range(len(x)):
            keep = [j for j in range(len(x)) if j != i]
            gp_i = gp_fit(x[keep], y[keep], noise=1e-8)
            mu_i, _ = gp_i.predict(x[i : i + 1])
            loo_err.append(abs(float(mu_i[0]) - y[i]))
        assert np.abs(mu - truth).max() <= 10.0 * max(np.mean(loo_err), 1e-6)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            gp_fit(np.zeros((0, 1)), np.zeros(0))

    def test_the_fit_records_the_jitter_its_factorisation_needed(self):
        twice = gp_fit(np.array([[0.5], [0.5], [0.2]]), np.array([1.0, 2.0, 0.0]), noise=0.0)
        assert twice.jitter >= 1e-10 and twice.hyperparams["jitter"] == twice.jitter
        distinct = gp_fit(np.array([[0.1], [0.5], [0.9]]), np.array([1.0, 2.0, 0.0]), noise=0.0)
        assert distinct.jitter == 0.0 and distinct.hyperparams["jitter"] == 0.0


class TestAnalyticGradients:
    def data(self, n=9, d=3, seed=4):
        rng = np.random.default_rng(seed)
        x = rng.random((n, d))
        y = np.sin(4.0 * x[:, 0]) + x[:, 1] ** 2 + 0.1 * rng.standard_normal(n)
        return x, y

    @pytest.mark.parametrize("noise", [None, 1e-4], ids=["fitted-noise", "fixed-noise"])
    def test_log_marginal_value_exact_and_gradient_matches_finite_differences(self, noise):
        x, y = self.data()
        y_std = (y - y.mean()) / y.std()
        rng = np.random.default_rng(8)
        for _ in range(6):
            params = [*rng.uniform(math.log(0.05), math.log(3.0), 3), rng.uniform(-2.0, 2.0)]
            if noise is None:
                params.append(rng.uniform(math.log(1e-5), 0.0))
            params = np.array(params)
            value, grad = one_point(bayesopt._neg_log_marginal)(params, *marginal_args(x, y_std, noise))
            assert value == oracle_neg_log_marginal(params, x, y_std, noise)
            fd = approx_fprime(params, oracle_neg_log_marginal, 1e-7, x, y_std, noise)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-5 * max(1.0, abs(value)))

    @pytest.mark.parametrize("noise", [None, 1e-4], ids=["fitted-noise", "fixed-noise"])
    @pytest.mark.parametrize("n, d", [(18, 3), (18, 6), (55, 3), (55, 6)])
    def test_log_marginal_matches_a_dense_cholesky_beyond_nine_points(self, n, d, noise):
        # n = 55, d = 6 is the network search space at its default budget
        x, y = self.data(n, d, seed=n + d)
        y_std = (y - y.mean()) / y.std()
        rng = np.random.default_rng(10 * n + d)
        h = 1e-6
        for _ in range(4):
            params = [*rng.uniform(math.log(0.05), math.log(3.0), d), rng.uniform(-2.0, 2.0)]
            if noise is None:
                params.append(rng.uniform(math.log(1e-5), 0.0))
            params = np.array(params)
            value, grad = one_point(bayesopt._neg_log_marginal)(params, *marginal_args(x, y_std, noise))
            assert value == pytest.approx(dense_neg_log_marginal(params, x, y_std, noise), rel=1e-12, abs=0.0)
            central = [(dense_neg_log_marginal(params + h * e, x, y_std, noise)
                        - dense_neg_log_marginal(params - h * e, x, y_std, noise)) / (2.0 * h)
                       for e in np.eye(params.size)]
            np.testing.assert_allclose(grad, central, rtol=1e-4, atol=1e-5 * max(1.0, abs(value)))

    def test_ei_value_is_expected_improvement_and_gradient_matches_finite_differences(self):
        x, y = self.data()
        gp = gp_fit(x, y, seed=1)
        rng = np.random.default_rng(9)
        checked = 0
        for best in (float(y.min()), float(np.median(y)), float(y.max())):
            for u in rng.random((8, 3)):
                value, grad = one_point(bayesopt._neg_ei_and_grad)(u, gp, best)
                assert -value == expected_improvement(gp, u, best)
                if -value < 1e-6:  # EI underflows far below the best value
                    continue
                fd = approx_fprime(u, lambda q: -expected_improvement(gp, q, best), 1e-8)
                np.testing.assert_allclose(grad, fd, rtol=1e-3, atol=1e-5)
                checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("offset", [-0.5, 0.5], ids=["improving", "not-improving"])
    def test_ei_gradient_where_sigma_vanishes(self, offset):
        # Near-interpolating GP: sigma ~ 0 at the training points, so EI is
        # max(mu - best, 0) there and its gradient dmu/du or 0.
        x, y = self.data()
        gp = gp_fit(x, y, noise=1e-10, seed=1)
        best = float(y.min() if offset < 0 else y.max()) + offset
        for u in x[:4]:
            _, var = gp.predict(u)
            assert var[0] < 1e-9
            value, grad = one_point(bayesopt._neg_ei_and_grad)(u, gp, best)
            assert -value == expected_improvement(gp, u, best)
            fd = approx_fprime(u, lambda q: -expected_improvement(gp, q, best), 1e-8)
            np.testing.assert_allclose(grad, fd, rtol=1e-3, atol=1e-5)

    def test_ei_gradient_on_the_zero_sigma_branch(self):
        gp = gp_fit(np.array([[0.5]]), np.array([2.0]), noise=0.0)
        for best, ei in ((1.8, pytest.approx(0.2, abs=1e-9)), (2.0, 0.0)):
            value, grad = one_point(bayesopt._neg_ei_and_grad)(np.array([0.5]), gp, best)
            assert -value == ei
            assert grad.tolist() == [0.0]  # the mean is flat at its training point

    def test_expected_improvement_equals_the_scipy_stats_formula(self):
        x, y = self.data(n=12)
        gp = gp_fit(x, y, seed=2)
        queries = np.vstack([np.random.default_rng(3).random((500, 3)), x])
        for best in (float(y.max()), float(y.mean())):
            np.testing.assert_array_equal(expected_improvement(gp, queries, best), oracle_ei(gp, queries, best))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestBatchedObjectives:
    """Each row of a batched objective equals its batch of one, bit for bit."""

    @given(n=st.integers(1, 20), d=st.integers(1, 6), rows=st.integers(1, 12),
           noise=st.sampled_from([None, 1e-4, -0.5]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_log_marginal_rows_equal_batches_of_one(self, n, d, rows, noise, seed):
        # Log parameters over [-5, 5] reach near-singular covariances, and a
        # negative fixed noise makes some rows unfactorable (1e9).
        rng = np.random.default_rng(seed)
        x = rng.random((n, d))
        if n > 2 and rng.random() < 0.3:
            x[1] = x[0]
        args = marginal_args(x, rng.standard_normal(n), noise)
        points = rng.uniform(-5.0, 5.0, (rows, d + 1 + (noise is None)))
        values, grads = bayesopt._neg_log_marginal(points, *args)
        assert len(values) == rows and grads.shape == points.shape
        for point, value, grad in zip(points, values, grads):
            alone_values, alone_grads = bayesopt._neg_log_marginal(point[None, :], *args)
            assert type(value) is float and repr(value) == repr(alone_values[0])
            assert_same_bits(grad, alone_grads[0])

    @given(n=st.integers(1, 20), d=st.integers(1, 6), rows=st.integers(1, 12),
           interpolating=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ei_rows_equal_batches_of_one(self, n, d, rows, interpolating, seed):
        # Queries at training points of a near-interpolating GP take the σ ≈ 0
        # branches; offsets of the best value take every branch of the gradient.
        rng = np.random.default_rng(seed)
        x = rng.random((n, d))
        y = rng.standard_normal(n)
        gp = gp_fit(x, y, noise=1e-10 if interpolating else None, seed=1)
        points = rng.random((rows, d))
        points[: min(rows, n) // 2] = x[: min(rows, n) // 2]
        for best in (float(y.max()), float(np.median(y)), float(y.max()) + 1.0, float(y.min()) - 1.0):
            values, grads = bayesopt._neg_ei_and_grad(points, gp, best)
            assert len(values) == rows and grads.shape == points.shape
            for point, value, grad in zip(points, values, grads):
                alone_values, alone_grads = bayesopt._neg_ei_and_grad(point[None, :], gp, best)
                assert type(value) is float and repr(value) == repr(alone_values[0])
                assert -value == expected_improvement(gp, point, best)
                assert_same_bits(grad, alone_grads[0])


def scipy_lbfgsb(fun, x0, lower, upper, args=()):
    """The scipy call that each start of bayesopt._lbfgsb_lockstep stands for: final x, f and evaluation count."""
    res = sp_optimize.minimize(fun, x0, args=args, method="L-BFGS-B", jac=True, bounds=list(zip(lower, upper)))
    return res.x, res.fun, res.nfev


def scipy_lockstep(fun, starts, lower, upper, args=()):
    """bayesopt._lbfgsb_lockstep as one scipy run per start, each on the batch-of-one objective."""
    return [scipy_lbfgsb(one_point(fun), start, lower, upper, args) for start in starts]


class TestLbfgsbDriver:
    """The lockstep L-BFGS-B driver against scipy.optimize.minimize per start, bit for bit."""

    def assert_same_runs(self, fun, starts, lower, upper, args):
        """Every start through the driver at once, each equal to its own minimize run.

        Returns the evaluation count of each start. Each objective call
        evaluates every start that has not stopped, so there are as many
        calls as the longest run has evaluations.
        """
        batches = []

        def recorded(points, *a):
            batches.append(len(points))
            return fun(points, *a)

        got = bayesopt._lbfgsb_lockstep(recorded, [start.copy() for start in starts], lower, upper, args)
        assert len(got) == len(starts)
        for (x, f, nfev), start in zip(got, starts):
            want_x, want_f, want_nfev = scipy_lbfgsb(one_point(fun), start.copy(), lower, upper, args)
            assert_same_bits(x, want_x)
            assert type(f) is type(want_f) and repr(f) == repr(want_f)
            assert nfev == want_nfev
        nfevs = [nfev for _, _, nfev in got]
        assert len(batches) == max(nfevs) and sum(batches) == sum(nfevs)
        assert batches == sorted(batches, reverse=True)  # a stopped start never comes back
        return nfevs

    def marginal_bounds(self, d, fitted_noise):
        bounds = [(math.log(0.03), math.log(30.0))] * d + [(math.log(0.01), math.log(100.0))]
        if fitted_noise:
            bounds.append((math.log(bayesopt.NOISE_FLOOR), 0.0))
        return [np.array(b) for b in zip(*bounds)]

    @pytest.mark.parametrize("noise", [None, 1e-4], ids=["fitted-noise", "fixed-noise"])
    def test_log_marginal_runs_equal_minimize(self, noise):
        x, y = TestAnalyticGradients().data()
        y_std = (y - y.mean()) / y.std()
        lower, upper = self.marginal_bounds(3, noise is None)
        rng = np.random.default_rng(12)
        starts = [np.array([math.log(0.3)] * 3 + [0.0] + [math.log(0.1)] * (noise is None))]
        starts += [rng.uniform(lower, upper) for _ in range(6)]
        starts.append(lower - 1.0)  # clipped to the lower corner
        nfevs = self.assert_same_runs(bayesopt._neg_log_marginal, starts, lower, upper,
                                      marginal_args(x, y_std, noise))
        assert len(set(nfevs)) > 1  # the starts stop at different rounds

    def test_log_marginal_runs_through_unfactorable_covariances_equal_minimize(self):
        # A negative fixed noise makes the covariance indefinite wherever the
        # signal variance is small: those points score 1e9 with a zero gradient.
        x, y = TestAnalyticGradients().data()
        y_std = (y - y.mean()) / y.std()
        lower, upper = self.marginal_bounds(3, False)
        values = []

        def recorded(params, *args):
            out = bayesopt._neg_log_marginal(params, *args)
            values.extend(out[0])
            return out

        rng = np.random.default_rng(13)
        starts = [np.array([math.log(0.3)] * 3 + [math.log(0.02)])]  # fails at the start
        starts += [rng.uniform(lower, upper) for _ in range(8)]
        self.assert_same_runs(recorded, starts, lower, upper, marginal_args(x, y_std, -0.5))
        assert 1e9 in values and any(v != 1e9 for v in values)

    def test_ei_runs_on_and_outside_the_faces_equal_minimize(self):
        x, y = TestAnalyticGradients().data()
        gp = gp_fit(x, y, seed=1)
        lower, upper = np.zeros(3), np.ones(3)
        rng = np.random.default_rng(14)
        starts = [rng.random(3) for _ in range(6)]
        starts += [np.array([0.0, 0.4, 1.0]), np.zeros(3), np.ones(3), np.array([1.0, 0.0, 0.7])]  # on faces
        starts += [np.array([-0.3, 0.5, 1.4]), np.array([2.0, -1.0, 0.2])]  # outside: clipped
        starts.append(x[int(np.argmax(y))].copy())  # at the best training point
        for best in (float(y.max()), float(np.median(y))):
            nfevs = self.assert_same_runs(bayesopt._neg_ei_and_grad, starts, lower, upper, (gp, best))
            assert len(set(nfevs)) > 1

    def test_a_batch_of_one_runs_as_in_a_batch(self):
        x, y = TestAnalyticGradients().data()
        gp = gp_fit(x, y, seed=1)
        lower, upper = np.zeros(3), np.ones(3)
        starts = list(np.random.default_rng(15).random((5, 3)))
        together = self.assert_same_runs(bayesopt._neg_ei_and_grad, starts, lower, upper, (gp, float(y.max())))
        alone = [self.assert_same_runs(bayesopt._neg_ei_and_grad, [start], lower, upper, (gp, float(y.max())))[0]
                 for start in starts]
        assert alone == together

    def test_setulb_has_the_verified_signature(self):
        signature = "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
        assert (_lbfgsb.setulb.__doc__ or "").strip().startswith(signature), (
            f"scipy {scipy.__version__} changed scipy.optimize._lbfgsb.setulb (verified on scipy 1.17.1): "
            f"{_lbfgsb.setulb.__doc__!r}; bayesopt._lbfgsb_run must follow its _minimize_lbfgsb"
        )


class TestDirectLapack:
    """The direct LAPACK helpers against the scipy.linalg wrappers they stand for, bit for bit."""

    def spd(self, n, seed):
        a = np.random.default_rng(seed).standard_normal((n, n))
        return a @ a.T + n * np.eye(n)

    def right_hand_sides(self, n, seed):
        rng = np.random.default_rng(seed)
        wide = rng.standard_normal((n, 5))
        return [rng.standard_normal(n), wide, wide[:, 2], np.eye(n)]  # wide[:, 2] is a strided view

    def test_the_routines_are_those_scipy_linalg_picks(self):
        picked = sp_linalg.get_lapack_funcs(("potrf", "potrs", "trtrs"), (np.empty((1, 1)),))
        assert all(mine is theirs for mine, theirs in zip(bayesopt._lapack(), picked, strict=True))

    @pytest.mark.parametrize("n", [1, 2, 9, 55])
    def test_cholesky_and_cho_solve_match_scipy(self, n):
        a = self.spd(n, seed=n)
        lower = bayesopt._cholesky(a)
        assert_same_bits(lower, sp_linalg.cholesky(a, lower=True))
        for b in self.right_hand_sides(n, seed=n + 1):
            before = b.copy()
            assert_same_bits(bayesopt._cho_solve(lower, b), sp_linalg.cho_solve((lower, True), b))
            assert_same_bits(b, before)  # the right-hand side is not overwritten

    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 9, 55])
    def test_solve_lower_matches_scipy(self, n, order, trans):
        lower = np.array(sp_linalg.cholesky(self.spd(n, seed=n), lower=True), order=order)
        assert lower.flags.f_contiguous == (order == "F" or n == 1)
        for b in self.right_hand_sides(n, seed=n + 2):
            before = b.copy()
            want = sp_linalg.solve_triangular(lower, b, lower=True, trans=trans)
            assert_same_bits(bayesopt._solve_lower(lower, b, trans=trans), want)
            assert_same_bits(b, before)

    def test_non_finite_input_raises_the_wrappers_value_error(self):
        a = self.spd(3, seed=0)
        lower = sp_linalg.cholesky(a, lower=True)
        bad = a.copy()
        bad[1, 2] = np.nan
        b = np.array([1.0, np.inf, 0.0])
        for ours, theirs in (
            (lambda: bayesopt._cholesky(bad), lambda: sp_linalg.cholesky(bad, lower=True)),
            (lambda: bayesopt._cho_solve(lower, b), lambda: sp_linalg.cho_solve((lower, True), b)),
            (lambda: bayesopt._cho_solve(bad, b[[0, 2, 0]]), lambda: sp_linalg.cho_solve((bad, True), b[[0, 2, 0]])),
            (lambda: bayesopt._solve_lower(lower, b), lambda: sp_linalg.solve_triangular(lower, b, lower=True)),
            (lambda: bayesopt._solve_lower(bad, b[[0, 2, 0]]), lambda: sp_linalg.solve_triangular(bad, b[[0, 2, 0]], lower=True)),
        ):
            with pytest.raises(ValueError) as want:
                theirs()
            with pytest.raises(ValueError) as got:
                ours()
            assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_values_and_queries_raise_the_wrappers_value_error(self):
        # y_std and the Cholesky factor are checked once per fit and per
        # posterior, not in every solve; the error is the one scipy.linalg raises.
        x, y = TestAnalyticGradients().data()
        message = r"^array must not contain infs or NaNs$"
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=message):
                gp_fit(x, np.where(np.arange(y.size) == 3, bad, y))
            with pytest.raises(ValueError, match=message):
                gp_fit(x[:1], np.array([bad]))  # one point: no hyperparameter search
        gp = gp_fit(x, y, seed=1)
        for query in ([np.nan, 0.5, 0.5], [0.2, np.inf, 0.5]):
            with pytest.raises(ValueError, match=message):
                gp.predict(np.array(query))
            with pytest.raises(ValueError, match=message):
                expected_improvement(gp, np.array(query), float(y.max()))
        lower = gp.chol_lower.copy()
        lower[2, 1] = np.nan
        with pytest.raises(ValueError, match=message):
            bayesopt.GpPosterior(gp.x_train, gp.lengthscales, gp.signal_var, gp.noise_var,
                                 gp.y_mean, gp.y_scale, lower, gp.alpha)

    def test_not_positive_definite_takes_the_jitter_path(self):
        k = np.ones((3, 3))  # rank one: the bare factorisation fails
        with pytest.raises(sp_linalg.LinAlgError, match="not positive definite"):
            bayesopt._cholesky(k)
        lower, jitter = bayesopt._chol_with_jitter(k, 0.0)
        assert jitter > 0.0
        assert_same_bits(lower, sp_linalg.cholesky(k + jitter * np.eye(3), lower=True))
        x = np.array([[0.1], [0.5], [0.9]])
        value, grad = one_point(bayesopt._neg_log_marginal)(
            np.log([0.3, 1.0]), *marginal_args(x, np.array([-1.0, 0.0, 1.0]), -10.0))
        assert value == 1e9 and grad.tolist() == [0.0, 0.0]

    def test_posterior_kernel_equals_the_unhoisted_kernel(self):
        x = np.random.default_rng(5).random((9, 3))
        gp = gp_fit(x, np.sin(4.0 * x[:, 0]), seed=1)
        xq = np.random.default_rng(6).random((7, 3))
        _, _, k_star, _ = gp._posterior(xq)
        assert_same_bits(k_star, bayesopt._matern52(x, xq, gp.lengthscales, gp.signal_var))

    def test_optimize_on_the_svm_space_equals_the_scipy_wrapper_run(self, monkeypatch):
        space = classifier_search_space(ClassifierKind.SVM)

        def objective(raw):
            u = space.to_unit(raw)
            return float(np.exp(-3.0 * ((u - 0.3) ** 2).sum()))

        def run():
            _, state = optimize(objective, space, n_init=5, n_acquisitions=4, seed=11)
            return [u.tolist() for u in state.unit_points], state.values, state.gp_hyperparams

        direct = run()
        monkeypatch.setattr(
            bayesopt, "_cholesky",
            lambda a, check_finite=True: sp_linalg.cholesky(a, lower=True, check_finite=check_finite),
        )
        monkeypatch.setattr(
            bayesopt, "_cho_solve",
            lambda lower, b, check_finite=True: sp_linalg.cho_solve((lower, True), b, check_finite=check_finite),
        )
        monkeypatch.setattr(
            bayesopt, "_solve_lower",
            lambda lower, b, trans=0, check_finite=True: sp_linalg.solve_triangular(
                lower, b, lower=True, trans=trans, check_finite=check_finite),
        )
        assert run() == direct
        monkeypatch.setattr(bayesopt, "_lbfgsb_lockstep", scipy_lockstep)
        assert run() == direct


class TestExpectedImprovement:
    def test_zero_sigma_no_improvement(self):
        gp = gp_fit(np.array([[0.5]]), np.array([2.0]), noise=0.0)
        assert expected_improvement(gp, np.array([0.5]), 2.0) == 0.0

    def test_zero_sigma_positive_improvement(self):
        gp = gp_fit(np.array([[0.5]]), np.array([2.0]), noise=0.0)
        assert expected_improvement(gp, np.array([0.5]), 1.8) == pytest.approx(0.2, abs=1e-9)

    def test_phi_zero_closed_form(self):
        gp = gp_fit(np.array([[0.5]]), np.array([2.0]), noise=0.0)
        # far away the posterior reverts to mean 2.0 with unit variance
        got = expected_improvement(gp, np.array([80.0]), 2.0)
        assert got == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-9)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(3)
        x = rng.random((15, 2))
        y = rng.random(15)
        gp = gp_fit(x, y)
        queries = rng.random((1000, 2))
        ei = expected_improvement(gp, queries, float(y.max()))
        assert (ei >= 0.0).all()


def ei_search(state, space):
    """propose_next's GP, its EI search's starts, and the lockstep result of each start."""
    gp = gp_fit(np.array(state.unit_points), np.array(state.values), seed=state.seed)
    d = space.n_dims
    rng = np.random.default_rng(np.random.SeedSequence([state.seed, len(state.values)]))
    starts = list(rng.random((bayesopt.EI_RESTARTS, d)))
    starts.append(np.clip(np.array(state.unit_points[state.best_index]) + 0.05 * rng.standard_normal(d), 0, 1))
    args = (gp, state.best_value)
    return gp, starts, bayesopt._lbfgsb_lockstep(bayesopt._neg_ei_and_grad, starts, np.zeros(d), np.ones(d), args)


def oracle_propose_next(state, space):
    """propose_next with its former selection: after the search, every start's x is clipped to the
    cube and scored by expected_improvement, and the first maximum wins."""
    gp, _, results = ei_search(state, space)
    best_u, best_ei = None, -math.inf
    for u, _, _ in results:
        u = np.clip(u, 0.0, 1.0)
        ei = expected_improvement(gp, u, state.best_value)
        if ei > best_ei:
            best_ei, best_u = ei, u
    return bayesopt._dedup_discrete(space.from_unit(best_u), space, state)


def state_of(space, seed, evaluations):
    state = BoState(space=space, seed=seed)
    for raw, value in evaluations:
        state.unit_points.append(space.to_unit(raw))
        state.raw_configs.append(dict(raw))
        state.values.append(value)
    return state


PROPOSAL_SPACES = {
    "svm": classifier_search_space(ClassifierKind.SVM),
    "xgb": classifier_search_space(ClassifierKind.XGB),
    "knn": classifier_search_space(ClassifierKind.KNN),
    "network": snn_search_space(),
}


class TestProposalSelection:
    """propose_next takes its winner from the search's own values, as the former EI pass chose it."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", sorted(PROPOSAL_SPACES))
    def test_the_proposal_equals_the_former_ei_pass(self, name, seed, monkeypatch):
        space = PROPOSAL_SPACES[name]
        rng = np.random.default_rng([seed, len(name)])
        n = int(rng.integers(1, 20))
        raws = [space.from_unit(rng.random(space.n_dims)) for _ in range(n)]
        if seed % 3 == 0:  # ties between the values
            values = [float(v) / 2 for v in rng.integers(0, 3, n)]
        else:
            values = [float(v) for v in rng.random(n)]
        state = state_of(space, int(rng.integers(0, 10**6)), zip(raws, values))
        want = oracle_propose_next(state, space)
        monkeypatch.setattr(bayesopt, "expected_improvement", None)  # propose_next never calls it
        assert propose_next(state, space) == want

    def test_a_state_where_every_start_ends_at_zero_ei_proposes_the_first_start(self):
        # every k scored 0 three times and k=5 once 1.0: the GP takes the 1.0 for noise,
        # so EI underflows to 0 everywhere and all eleven starts tie
        space = PROPOSAL_SPACES["knn"]
        evaluations = [({"k": k}, 0.0) for k in space.dims[0].values] * 3 + [({"k": 5}, 1.0)]
        state = state_of(space, 0, evaluations)
        _, starts, results = ei_search(state, space)
        assert [f for _, f, _ in results] == [0.0] * 11
        assert propose_next(state, space) == oracle_propose_next(state, space)
        assert propose_next(state, space) == bayesopt._dedup_discrete(space.from_unit(starts[0]), space, state)

    def test_lowest_prefers_the_first_of_equal_finite_values(self):
        a, b, c = np.zeros(1), np.ones(1), np.full(1, 0.5)
        assert bayesopt._lowest([(a, math.nan, 1), (b, 2.0, 1), (c, 2.0, 1)]) is b
        assert bayesopt._lowest([(a, 3.0, 1), (b, -math.inf, 1), (c, 1.0, 1)]) is c
        assert bayesopt._lowest([(a, math.nan, 1), (b, math.inf, 1)]) is a


class TestProposeAndOptimize:
    def one_point_state(self, space):
        state = BoState(space=space, seed=0)
        raw = space.from_unit(np.array([0.5]))
        state.unit_points.append(space.to_unit(raw))
        state.raw_configs.append(raw)
        state.values.append(1.0)
        return state

    def test_proposal_within_bounds(self, monkeypatch):
        monkeypatch.setattr(bayesopt, "EI_RESTARTS", 6)
        space = SearchSpace((Continuous("x", -5.0, 5.0),))
        state = self.one_point_state(space)
        raw = propose_next(state, space)
        assert -5.0 <= raw["x"] <= 5.0

    def test_proposal_moves_away_from_single_point(self, monkeypatch):
        monkeypatch.setattr(bayesopt, "EI_RESTARTS", 8)
        space = SearchSpace((Continuous("x", 0.0, 1.0),))
        state = self.one_point_state(space)
        raw = propose_next(state, space)
        gp = gp_fit(np.array(state.unit_points), np.array(state.values), seed=0)
        grid = np.linspace(0.0, 1.0, 501)[:, None]
        grid_ei = expected_improvement(gp, grid, 1.0)
        proposal_ei = expected_improvement(gp, space.to_unit(raw), 1.0)
        assert abs(raw["x"] - 0.5) > 0.05
        assert proposal_ei >= grid_ei.max() * (1.0 - 1e-6)

    def test_discrete_proposals_stay_listed(self, monkeypatch):
        monkeypatch.setattr(bayesopt, "EI_RESTARTS", 6)
        space = SearchSpace((Discrete("k", tuple(range(3, 13))),))
        state = BoState(space=space, seed=1)
        for v, score in ((3, 0.2), (7, 0.9), (12, 0.1)):
            state.unit_points.append(space.to_unit({"k": v}))
            state.raw_configs.append({"k": v})
            state.values.append(score)
        raw = propose_next(state, space)
        assert raw["k"] in range(3, 13)

    def test_duplicate_discrete_proposals_jittered(self, monkeypatch):
        monkeypatch.setattr(bayesopt, "EI_RESTARTS", 6)
        space = SearchSpace((Discrete("k", (3, 4, 5)),))
        state = BoState(space=space, seed=2)
        for v, score in ((3, 0.1), (4, 0.9)):
            state.unit_points.append(space.to_unit({"k": v}))
            state.raw_configs.append({"k": v})
            state.values.append(score)
        raw = propose_next(state, space)
        assert raw["k"] == 5  # the only unevaluated value

    def test_optimize_constant_objective(self):
        space = SearchSpace((Continuous("x", 0.0, 1.0),))
        best, state = optimize(lambda cfg: 0.7, space, n_init=3, n_acquisitions=4, seed=0)
        assert state.best_value == 0.7
        assert len(state.values) == 7

    def test_optimize_quadratic_fixture(self):
        space = SearchSpace((Continuous("x", 0.0, 1.0),))
        best, state = optimize(
            lambda cfg: 1.0 - (cfg["x"] - 0.63) ** 2, space, n_init=5, n_acquisitions=20, seed=5
        )
        assert abs(best["x"] - 0.63) <= 0.05
        assert len(state.values) == 25

    def test_optimize_deterministic_per_seed(self):
        space = SearchSpace((Continuous("x", 0.0, 1.0), Discrete("k", (1, 2, 3))))

        def objective(cfg):
            return -((cfg["x"] - 0.4) ** 2) - 0.1 * abs(cfg["k"] - 2)

        runs = [optimize(objective, space, n_init=4, n_acquisitions=6, seed=9) for _ in range(2)]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1].values == runs[1][1].values
        assert [c for c in runs[0][1].raw_configs] == [c for c in runs[1][1].raw_configs]

    def test_objective_failure_penalized_not_fatal(self, tmp_path):
        space = SearchSpace((Continuous("x", 0.0, 1.0),))

        def objective(cfg):
            if cfg["x"] > 0.5:
                raise DataError("boom")
            return cfg["x"]

        best, state = optimize(objective, space, n_init=4, n_acquisitions=4, seed=3)
        assert len(state.values) == 8
        assert state.failures
        assert all(v == 0.0 for v, c in zip(state.values, state.raw_configs) if c["x"] > 0.5)
        assert best["x"] <= 0.5
        write_trace_csv(state, tmp_path / "trace.csv")
        rows = [line.split(",") for line in (tmp_path / "trace.csv").read_text().splitlines()[1:]]
        assert [row[-1] == "boom" for row in rows] == [float(row[1]) > 0.5 for row in rows]

    @pytest.mark.parametrize("error", [NumericalError, ValueError])
    def test_numerical_objective_failures_penalized(self, error):
        def objective(cfg):
            raise error("diverged")

        _, state = optimize(objective, SearchSpace((Continuous("x", 0.0, 1.0),)), n_init=2,
                            n_acquisitions=1, seed=0)
        assert state.values == [0.0, 0.0, 0.0]
        assert [f["error"] for f in state.failures] == ["diverged"] * 3

    def test_objective_bug_propagates(self):
        def objective(cfg):
            return cfg["x"] + "1"  # TypeError: a bug, not a bad configuration

        with pytest.raises(TypeError):
            optimize(objective, SearchSpace((Continuous("x", 0.0, 1.0),)), n_init=3, n_acquisitions=2, seed=0)

    @pytest.mark.parametrize("n_init, n_acquisitions, message",
                             [(0, 2, "n_init must be >= 1"), (3, -1, "n_acquisitions must be >= 0")])
    def test_a_budget_that_cannot_run_is_a_data_error(self, n_init, n_acquisitions, message):
        calls = []
        with pytest.raises(DataError, match=message):
            optimize(calls.append, SearchSpace((Continuous("x", 0.0, 1.0),)), n_init=n_init,
                     n_acquisitions=n_acquisitions, seed=0)
        assert not calls

    def test_zero_dim_space_single_evaluation(self):
        best, state = optimize(lambda cfg: 0.4, SearchSpace(()), n_init=5, n_acquisitions=50, seed=0)
        assert best == {}
        assert state.values == [0.4]

    def test_trace_csv(self, tmp_path):
        space = SearchSpace((Continuous("x", 0.0, 1.0),))
        _, state = optimize(lambda cfg: cfg["x"], space, n_init=3, n_acquisitions=2, seed=1)
        path = tmp_path / "trace.csv"
        write_trace_csv(state, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,x,objective,cumulative_best,failure"
        assert len(lines) == 6
        best_col = [float(line.split(",")[-2]) for line in lines[1:]]
        assert best_col == sorted(best_col)

    def test_propose_requires_history(self):
        space = SearchSpace((Continuous("x", 0.0, 1.0),))
        with pytest.raises(DataError):
            propose_next(BoState(space=space, seed=0), space)
