import json
import math

import numpy as np
import pytest

from specsiam import classify, evaluate, signals
from specsiam.classify import (
    ClassifierKind,
    ClassifierSpec,
    GaussianNbClassifier,
    GradientBoostingClassifier,
    KnnClassifier,
    LabeledFeatures,
    RandomForestClassifier,
    SmoSvmClassifier,
    _tree_predict,
    classifier_search_space,
    default_spec,
    fit,
    model_to_dict,
)
from specsiam.errors import DataError, NumericalError


# ---------------------------------------------------------------------------
# oracles

def knn_oracle(x_train, y_train, x, k):
    """Exhaustive neighbor enumeration; distance ties keep the lower row index."""
    preds = []
    for row in np.atleast_2d(x):
        dists = sorted(
            (float(((row - t) ** 2).sum()), i) for i, t in enumerate(x_train)
        )
        votes = [int(y_train[i]) for _, i in dists[:k]]
        case_votes = sum(votes)
        preds.append(1 if 2 * case_votes >= k else 0)
    return np.array(preds)


def nb_oracle(x_train, y_train, x):
    """Log-posterior computed term by term with the same variance floor."""
    stats = {}
    for cls in (0, 1):
        rows = x_train[y_train == cls]
        stats[cls] = (
            rows.mean(axis=0),
            np.maximum(rows.var(axis=0), 1e-9),
            rows.shape[0] / x_train.shape[0],
        )
    preds = []
    for row in np.atleast_2d(x):
        scores = {}
        for cls in (0, 1):
            mu, var, prior = stats[cls]
            ll = math.log(prior)
            for j in range(row.size):
                ll += -0.5 * math.log(2 * math.pi * var[j]) - (row[j] - mu[j]) ** 2 / (2 * var[j])
            scores[cls] = ll
        preds.append(1 if scores[1] >= scores[0] else 0)
    return np.array(preds)


def kkt_violation(model, x, y):
    s = np.where(y == 1, 1.0, -1.0)
    f = model.decision_function(x)
    worst = abs(float((model.alphas * s).sum()))
    for i in range(len(x)):
        margin = s[i] * f[i]
        if model.alphas[i] <= 1e-8:
            worst = max(worst, max(0.0, 1.0 - margin))
        elif model.alphas[i] >= model.c - 1e-8:
            worst = max(worst, max(0.0, margin - 1.0))
        else:
            worst = max(worst, abs(margin - 1.0))
    return worst


def oracle_smo_fit(model, x, y, seed):
    """The simplified SMO (Platt 1998) that SmoSvmClassifier.fit replaced, on numpy arrays
    and scalars: each KKT violator is paired with a random second index. (alphas, b)."""
    s = np.where(y == 1, 1.0, -1.0)
    n = x.shape[0]
    k = model._gram(x, x)
    alphas = np.zeros(n)
    b = 0.0
    rng = np.random.default_rng(seed)
    c, tol = model.c, classify.SVM_TOL
    for _ in range(100):  # its pass limit
        changed = 0
        for i in range(n):
            err_i = float(alphas * s @ k[:, i]) + b - s[i]
            if not ((s[i] * err_i < -tol and alphas[i] < c) or (s[i] * err_i > tol and alphas[i] > 0)):
                continue
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
            err_j = float(alphas * s @ k[:, j]) + b - s[j]
            ai_old, aj_old = alphas[i], alphas[j]
            if s[i] != s[j]:
                lo, hi = max(0.0, aj_old - ai_old), min(c, c + aj_old - ai_old)
            else:
                lo, hi = max(0.0, ai_old + aj_old - c), min(c, ai_old + aj_old)
            if lo >= hi:
                continue
            eta = 2.0 * k[i, j] - k[i, i] - k[j, j]
            if eta >= 0:
                continue
            aj = np.clip(aj_old - s[j] * (err_i - err_j) / eta, lo, hi)
            if abs(aj - aj_old) < 1e-5:
                continue
            ai = ai_old + s[i] * s[j] * (aj_old - aj)
            b1 = b - err_i - s[i] * (ai - ai_old) * k[i, i] - s[j] * (aj - aj_old) * k[i, j]
            b2 = b - err_j - s[i] * (ai - ai_old) * k[i, j] - s[j] * (aj - aj_old) * k[j, j]
            alphas[i], alphas[j] = ai, aj
            if 0.0 < ai < c:
                b = b1
            elif 0.0 < aj < c:
                b = b2
            else:
                b = 0.5 * (b1 + b2)
            changed += 1
        if changed == 0:
            break
    return alphas, b


def oracle_column_split(xcol, y, mode):
    """Best split of one column: the per-feature argsort search trees used before presorting."""
    order = np.argsort(xcol, kind="stable")
    xs, ys = xcol[order], y[order]
    boundaries = np.nonzero(xs[1:] != xs[:-1])[0]
    if boundaries.size == 0:
        return None
    n = xs.size
    n_left = boundaries + 1
    n_right = n - n_left
    if mode == "gini":
        ones = np.cumsum(ys == 1)
        left1 = ones[boundaries]
        right1 = ones[-1] - left1
        cost = (n_left * classify._gini(left1, n_left) + n_right * classify._gini(right1, n_right)) / n
    else:
        s = np.cumsum(ys)
        s2 = np.cumsum(ys * ys)
        sl, sl2 = s[boundaries], s2[boundaries]
        sr, sr2 = s[-1] - sl, s2[-1] - sl2
        var_left = sl2 / n_left - (sl / n_left) ** 2
        var_right = sr2 / n_right - (sr / n_right) ** 2
        cost = (n_left * var_left + n_right * var_right) / n
    best = int(np.argmin(cost))
    threshold = 0.5 * (xs[boundaries[best]] + xs[boundaries[best] + 1])
    return float(cost[best]), float(threshold)


def oracle_node_split(x, y, features, mode):
    """Scan features in order; a later one wins only when cheaper by more than 1e-15."""
    best = None
    for j in features:
        found = oracle_column_split(x[:, j], y, mode)
        if found is None:
            continue
        cost, threshold = found
        if best is None or cost < best[0] - 1e-15:
            best = (cost, int(j), threshold)
    return best


def oracle_build_tree(x, y, mode, max_depth, rng, subsample_features, presorted=None, depth=0):
    """The tree builder as it was before presorting, with classify._build_tree's signature."""
    n, d = x.shape
    if n < 2 or (max_depth is not None and depth >= max_depth):
        return {"leaf": classify._leaf_value(y, mode)}
    parent = classify._node_impurity(y, mode)
    if parent <= 1e-15:
        return {"leaf": classify._leaf_value(y, mode)}
    if subsample_features and rng is not None:
        m = max(1, int(round(math.sqrt(d))))
        features = np.sort(rng.choice(d, size=min(m, d), replace=False))
    else:
        features = np.arange(d)
    best = oracle_node_split(x, y, features, mode)
    if best is None or best[0] >= parent - 1e-12:
        return {"leaf": classify._leaf_value(y, mode)}
    _, j, threshold = best
    mask = x[:, j] <= threshold
    return {
        "feature": j,
        "threshold": threshold,
        "left": oracle_build_tree(x[mask], y[mask], mode, max_depth, rng, subsample_features, depth=depth + 1),
        "right": oracle_build_tree(x[~mask], y[~mask], mode, max_depth, rng, subsample_features, depth=depth + 1),
    }


def split_tables():
    """(name, x, binary y): random, tie-heavy, constant-column and duplicated-row tables."""
    rng = np.random.default_rng(21)
    out = []
    for n, d in ((10, 301), (24, 7), (9, 2)):
        x = rng.standard_normal((n, d))
        y = rng.integers(0, 2, n)
        y[:2] = (0, 1)
        constant = x.copy()
        constant[:, ::2] = 1.5
        out += [
            (f"random-{n}x{d}", x, y),
            (f"ties-{n}x{d}", np.round(0.7 * x), y),
            (f"constant-{n}x{d}", constant, y),
            (f"duplicated-{n}x{d}", np.vstack([x, x[::2]]), np.concatenate([y, y[::2]])),
        ]
    out.append(("all-constant", np.ones((6, 4)), np.array([0, 1, 0, 1, 1, 0])))
    return out


# ---------------------------------------------------------------------------

class TestTreeSplits:
    @pytest.mark.parametrize("block_bytes", [classify.SPLIT_BLOCK_BYTES, 1], ids=["one-block", "per-feature"])
    @pytest.mark.parametrize("mode", ["gini", "mse"])
    @pytest.mark.parametrize("name, x, y", split_tables(), ids=[t[0] for t in split_tables()])
    def test_presorted_split_equals_per_column_search(self, name, x, y, mode, block_bytes, monkeypatch):
        monkeypatch.setattr(classify, "SPLIT_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(5)
        target = y if mode == "gini" else np.round(y - rng.random(y.size), 1)  # tie-prone residuals
        xt, order = classify._presort(x)
        n, d = x.shape
        masks = [np.ones(n, dtype=bool)] + [rng.random(n) < 0.6 for _ in range(4)]
        subsets = [np.arange(d), np.sort(rng.choice(d, size=max(1, d // 3), replace=False))]
        for in_node in masks:
            if in_node.sum() < 2:
                continue
            for features in subsets:
                rows = order[features]
                rows = rows[in_node[rows]].reshape(features.size, int(in_node.sum()))
                got = classify._best_split(xt, target, rows, features, mode)
                want = oracle_node_split(x[in_node], target[in_node], features, mode)
                if want is None:
                    assert got is None
                else:
                    assert got == (want[0], want[1], want[2])

    def test_feature_cheaper_by_less_than_1e_15_does_not_win(self):
        # Both columns split the rows into the same halves; the rounding of
        # their in-half order makes column 1 cheaper by about 2.6e-16, which
        # the scan's 1e-15 margin ignores, where a plain argmin would not.
        x = np.array([[0.274, 0.368], [0.361, 0.453], [0.245, 0.433], [0.08, 0.273],
                      [1.202, 1.347], [1.41, 1.336], [1.301, 1.148], [1.158, 1.198]])
        y = np.array([0.036, 1.655, 0.603, -0.595, 1.461, 1.827, 1.65, 2.004])
        cost0, _ = oracle_column_split(x[:, 0], y, "mse")
        cost1, _ = oracle_column_split(x[:, 1], y, "mse")
        assert cost0 - 1e-15 < cost1 < cost0
        xt, order = classify._presort(x)
        assert classify._best_split(xt, y, order, np.arange(2), "mse") == (cost0, 0, 0.3175)

    @pytest.mark.parametrize("name, x, y", split_tables(), ids=[t[0] for t in split_tables()])
    def test_whole_models_equal_the_per_column_builder(self, name, x, y, monkeypatch):
        specs = [
            (GradientBoostingClassifier, {"n_estimators": 20, "max_depth": 3, "learning_rate": 0.1}),
            (GradientBoostingClassifier, {"n_estimators": 5, "max_depth": 7, "learning_rate": 0.05}),
            (RandomForestClassifier, {"n_estimators": 6, "seed": 3}),
        ]
        for cls, params in specs:
            got = json.dumps(model_to_dict(cls(**params).fit(x, y)))
            with monkeypatch.context() as patch:
                patch.setattr(classify, "_build_tree", oracle_build_tree)
                want = json.dumps(model_to_dict(cls(**params).fit(x, y)))
            assert got == want, (cls.__name__, params)


# Two values per table whose midpoint rounds up to the larger one (adjacent
# floats) or overflows to -inf; labels follow the value.
THRESHOLD_TABLES = {
    "adjacent-floats": np.array([1.0000000000000002, 1.0000000000000002, 1.0000000000000004, 1.0000000000000004]),
    "overflowing-midpoint": np.array([-1.7976931348623157e308, -9.9792015476736e+291,
                                      -1.7976931348623157e308, -9.9792015476736e+291]),
}


@pytest.mark.parametrize("kind", [ClassifierKind.RF, ClassifierKind.XGB], ids=["rf", "xgb"])
@pytest.mark.parametrize("name", THRESHOLD_TABLES)
def test_split_threshold_separates_its_rows(name, kind):
    column = THRESHOLD_TABLES[name]
    lo, hi = np.unique(column)
    y = (column == hi).astype(np.int64)
    table = LabeledFeatures(tuple(f"s{i}" for i in range(4)), (0,) * 4, column[:, None], y)
    model = fit(default_spec(kind), table)
    thresholds, leaves = [], []

    def walk(node):
        if "leaf" in node:
            leaves.append(node["leaf"])
        else:
            thresholds.append(node["threshold"])
            walk(node["left"])
            walk(node["right"])

    for tree in model.trees:
        walk(tree)
    assert thresholds and all(lo <= t < hi for t in thresholds)
    assert all(math.isfinite(v) for v in leaves)
    assert (model.predict(table.x) == y).all()
    json.dumps(model_to_dict(model), allow_nan=False)


class TestKnn:
    def fixture(self, seed=0, n=8, d=3):
        rng = np.random.default_rng(seed)
        x = rng.random((n, d))
        y = rng.integers(0, 2, n)
        if len(set(y.tolist())) < 2:
            y[0] = 1 - y[0]
        return x, y

    def test_stores_training_set_verbatim(self):
        x, y = self.fixture()
        model = KnnClassifier(k=3).fit(x, y)
        np.testing.assert_array_equal(model.x_train, x)
        np.testing.assert_array_equal(model.y_train, y)

    def test_k1_returns_exact_nearest_label(self):
        x, y = self.fixture(1)
        model = KnnClassifier(k=1).fit(x, y)
        preds = model.predict(x + 1e-9)
        np.testing.assert_array_equal(preds, y)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_matches_enumeration_oracle(self, k):
        x, y = self.fixture(2)
        queries = np.random.default_rng(3).random((20, 3))
        model = KnnClassifier(k=k).fit(x, y)
        np.testing.assert_array_equal(model.predict(queries), knn_oracle(x, y, queries, k))

    def test_even_k_tie_breaks_toward_case(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = KnnClassifier(k=2).fit(x, y)
        assert model.predict(np.array([[0.5]]))[0] == 1

    def test_permutation_invariance(self):
        x, y = self.fixture(4)
        queries = np.random.default_rng(5).random((10, 3))
        base = KnnClassifier(k=3).fit(x, y).predict(queries)
        perm = np.random.default_rng(6).permutation(len(x))
        shuffled = KnnClassifier(k=3).fit(x[perm], y[perm]).predict(queries)
        np.testing.assert_array_equal(base, shuffled)

    def test_k_larger_than_train_rejected(self):
        x, y = self.fixture()
        with pytest.raises(DataError):
            KnnClassifier(k=100).fit(x, y)


class TestNaiveBayes:
    def test_decision_boundary_at_half(self):
        # class 0 values {-1, 1}: mean 0, var 1; class 1 values {0, 2}: mean 1, var 1
        x = np.array([[-1.0], [1.0], [0.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = GaussianNbClassifier().fit(x, y)
        assert model.predict(np.array([[0.49]]))[0] == 0
        assert model.predict(np.array([[0.51]]))[0] == 1
        assert model.predict(np.array([[0.5]]))[0] == 1  # exact tie goes to case

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.random((8, 4))
        y = np.array([0, 0, 0, 1, 1, 1, 0, 1])
        queries = rng.random((25, 4))
        model = GaussianNbClassifier().fit(x, y)
        np.testing.assert_array_equal(model.predict(queries), nb_oracle(x, y, queries))

    def test_zero_variance_feature_stays_finite(self):
        x = np.array([[1.0, 0.2], [1.0, 0.4], [1.0, 0.9], [1.0, 1.1]])
        y = np.array([0, 0, 1, 1])
        model = GaussianNbClassifier().fit(x, y)
        preds = model.predict(np.array([[1.0, 0.3], [1.0, 1.0], [55.0, 1.0]]))
        assert preds.tolist() == [0, 1, 1]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.random((8, 2))
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        queries = rng.random((10, 2))
        base = GaussianNbClassifier().fit(x, y).predict(queries)
        perm = rng.permutation(8)
        np.testing.assert_array_equal(
            base, GaussianNbClassifier().fit(x[perm], y[perm]).predict(queries)
        )

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="single class"):
            GaussianNbClassifier().fit(np.zeros((3, 1)), np.ones(3))


def dual_objective(model, x, y, alphas):
    """Σα - ½ (α·s)ᵀ K (α·s), which SMO maximizes over 0 <= α <= C, Σ s·α = 0."""
    v = alphas * np.where(y == 1, 1.0, -1.0)
    return float(alphas.sum() - 0.5 * v @ model._gram(x, x) @ v)


@pytest.fixture(scope="module")
def served_svm_tables():
    """Tables the pipeline fits SVMs on: raw FFT magnitudes of a 3+3 and of an 8+8 x 16-channel
    cohort, and 1062 rows on the 8-simplex like twin-network features, every 7th label flipped."""
    max_freq_hz = evaluate.PipelineConfig().max_freq_hz
    small = signals.generate_synthetic_cohort(3, 3, 2, 10.0, 64.0, seed=5)
    large = signals.generate_synthetic_cohort(8, 8, 16, 60.0, 128.0, seed=3)
    x = np.random.default_rng(0).dirichlet(np.ones(8), 1062)
    y = (x[:, 0] > 1.0 / 8).astype(np.int64) ^ (np.arange(1062) % 7 == 0)
    tables = {name: evaluate.fft_feature_table(cohort, max_freq_hz)
              for name, cohort in (("fft-12x301", small), ("fft-256x1801", large))}
    return {**{name: (t.x, t.y) for name, t in tables.items()}, "simplex-1062x8": (x, y)}


class TestSvm:
    def separable(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 3.0], [3.0, 4.0]])
        y = np.array([0, 0, 1, 1])
        return x, y

    def test_linear_separable_fixture(self):
        x, y = self.separable()
        model = SmoSvmClassifier(kernel="linear", c=5.0).fit(x, y)
        np.testing.assert_array_equal(model.predict(x), y)
        assert kkt_violation(model, x, y) <= 1e-3
        assert (model.alphas >= -1e-12).all()
        assert (model.alphas <= model.c + 1e-12).all()

    def test_rbf_ring_fixture(self):
        rng = np.random.default_rng(9)
        inner = rng.normal(0.0, 0.2, (6, 2))
        angles = np.linspace(0, 2 * np.pi, 6, endpoint=False)
        outer = 3.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        x = np.vstack([inner, outer])
        y = np.array([1] * 6 + [0] * 6)
        model = SmoSvmClassifier(kernel="rbf", c=5.0, gamma=0.5).fit(x, y)
        np.testing.assert_array_equal(model.predict(x), y)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        x = rng.random((12, 3))
        y = rng.integers(0, 2, 12)
        y[:2] = [0, 1]
        a = SmoSvmClassifier(kernel="rbf", c=2.0, gamma=1.0).fit(x, y)
        b = SmoSvmClassifier(kernel="rbf", c=2.0, gamma=1.0).fit(x, y)
        np.testing.assert_array_equal(a.alphas, b.alphas)
        assert a.b == b.b

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="single class"):
            SmoSvmClassifier().fit(np.zeros((3, 1)), np.zeros(3))

    def test_a_fit_stopped_at_the_step_cap_says_so(self, monkeypatch):
        rng = np.random.default_rng(10)
        x = rng.random((12, 3))
        y = rng.integers(0, 2, 12)
        y[:2] = [0, 1]
        converged = SmoSvmClassifier(kernel="rbf", c=2.0, gamma=1.0).fit(x, y)
        assert converged.converged and model_to_dict(converged)["converged"] is True
        monkeypatch.setattr(classify, "SVM_MAX_ITER", 2)
        capped = SmoSvmClassifier(kernel="rbf", c=2.0, gamma=1.0).fit(x, y)
        assert kkt_violation(capped, x, y) > classify.SVM_TOL
        assert not capped.converged and model_to_dict(capped)["converged"] is False

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    @pytest.mark.parametrize("n", [2, 8, 16, 128, 300])
    def test_dual_objective_is_at_least_the_random_partner_loops(self, n, kernel):
        # C and gamma from 1e-2 to 1e2 and feature scales from 1e-2 to 1e2, whose
        # fits mix zero, interior and bound alphas; a few low-dimensional linear
        # fits at C = 100 stop at SVM_MAX_ITER, and those too must not fall below.
        rng = np.random.default_rng(n + len(kernel))
        for case in range(4 if n <= 16 else 2):
            x = rng.standard_normal((n, 1 + case)) * 10.0 ** rng.uniform(-2, 2)
            y = rng.integers(0, 2, n)
            y[:2] = [0, 1]
            s = np.where(y == 1, 1.0, -1.0)
            for c in (1e-2, float(10.0 ** rng.uniform(-1, 1)), 1e2):
                gamma = float(10.0 ** rng.uniform(-2, 2))
                model = SmoSvmClassifier(kernel=kernel, c=c, gamma=gamma).fit(x, y)
                old = dual_objective(model, x, y, oracle_smo_fit(model, x, y, seed=case)[0])
                assert dual_objective(model, x, y, model.alphas) >= old - 1e-9 * abs(old), (case, c, gamma)
                assert ((model.alphas >= 0.0) & (model.alphas <= c)).all(), (case, c, gamma)
                assert abs(float(s @ model.alphas)) <= 1e-9 * c * n, (case, c, gamma)
                again = SmoSvmClassifier(kernel=kernel, c=c, gamma=gamma).fit(x, y)
                assert again.alphas.tobytes() == model.alphas.tobytes() and again.b == model.b

    @pytest.mark.parametrize("c", [0.5, 5.0])
    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    @pytest.mark.parametrize("table", ["fft-12x301", "fft-256x1801", "simplex-1062x8"])
    def test_kkt_violation_within_tolerance_on_served_tables(self, served_svm_tables, table, kernel, c):
        x, y = served_svm_tables[table]
        model = SmoSvmClassifier(kernel=kernel, c=c, gamma=0.1).fit(x, y)
        assert kkt_violation(model, x, y) <= classify.SVM_TOL


class TestRandomForest:
    def fixture(self):
        rng = np.random.default_rng(11)
        x0 = rng.normal(0.0, 0.3, (10, 2))
        x1 = rng.normal(2.0, 0.3, (10, 2))
        return np.vstack([x0, x1]), np.array([0] * 10 + [1] * 10)

    def test_single_tree_forest_equals_its_tree(self):
        x, y = self.fixture()
        model = RandomForestClassifier(n_estimators=1, seed=4).fit(x, y)
        np.testing.assert_array_equal(model.predict(x), _tree_predict(model.trees[0], x).astype(int))

    def test_deterministic_per_seed(self):
        x, y = self.fixture()
        a = RandomForestClassifier(n_estimators=5, seed=7).fit(x, y)
        b = RandomForestClassifier(n_estimators=5, seed=7).fit(x, y)
        assert a.trees == b.trees
        c = RandomForestClassifier(n_estimators=5, seed=8).fit(x, y)
        assert a.trees != c.trees

    def test_separates_easy_classes(self):
        x, y = self.fixture()
        model = RandomForestClassifier(n_estimators=10, seed=0).fit(x, y)
        assert (model.predict(x) == y).mean() == 1.0

    def test_single_class_allowed(self):
        model = RandomForestClassifier(n_estimators=2, seed=0).fit(np.zeros((3, 1)), np.ones(3))
        assert model.predict(np.zeros((2, 1))).tolist() == [1, 1]


class TestGradientBoosting:
    def fixture(self):
        rng = np.random.default_rng(12)
        x = rng.random((16, 3))
        y = (x[:, 0] > 0.5).astype(int)
        if y.sum() in (0, len(y)):
            y[0] = 1 - y[0]
        return x, y

    def test_training_loss_non_increasing(self):
        x, y = self.fixture()
        model = GradientBoostingClassifier(n_estimators=30, max_depth=3, learning_rate=0.1).fit(x, y)
        trace = np.array(model.train_loss_trace)
        assert trace.size == 31
        assert (np.diff(trace) <= 1e-12).all()

    def test_round_additivity(self):
        x, y = self.fixture()
        model = GradientBoostingClassifier(n_estimators=8, max_depth=2, learning_rate=0.05).fit(x, y)
        for r in range(1, 9):
            prev = model.decision_function(x, n_rounds=r - 1)
            step = model.learning_rate * _tree_predict(model.trees[r - 1], x)
            np.testing.assert_allclose(model.decision_function(x, n_rounds=r), prev + step, rtol=1e-12)

    def test_fits_simple_rule(self):
        x, y = self.fixture()
        model = GradientBoostingClassifier(n_estimators=50, max_depth=2, learning_rate=0.3).fit(x, y)
        assert (model.predict(x) == y).mean() == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="single class"):
            GradientBoostingClassifier().fit(np.zeros((3, 1)), np.zeros(3))


class TestSpecAndFactory:
    def test_default_specs_valid(self):
        for kind in ClassifierKind:
            spec = default_spec(kind)
            assert spec.kind is kind

    @pytest.mark.parametrize(
        "kind,params",
        [
            (ClassifierKind.KNN, {"k": 1}),
            (ClassifierKind.KNN, {"k": 9}),
            (ClassifierKind.SVM, {"kernel": "poly", "c": 1.0, "gamma": 0.1}),
            (ClassifierKind.SVM, {"kernel": "linear", "c": 10.0, "gamma": 0.1}),
            (ClassifierKind.RF, {"n_estimators": 7}),
            (ClassifierKind.XGB, {"max_depth": 8, "learning_rate": 0.05, "n_estimators": 50}),
            (ClassifierKind.XGB, {"max_depth": 3, "learning_rate": 0.5, "n_estimators": 50}),
            (ClassifierKind.NB, {"smoothing": 1.0}),
        ],
    )
    def test_out_of_domain_params_rejected(self, kind, params):
        with pytest.raises(DataError):
            ClassifierSpec(kind, params)

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"kernel": "linear", "c": 99.0, "gamma": 0.1}, "svm c must lie in (0.5, 5.0), got 99.0"),
            ({"kernel": "linear", "c": "abc", "gamma": 0.1}, "svm c must lie in (0.5, 5.0), got 'abc'"),
            ({"kernel": "linear", "c": None, "gamma": 0.1}, "svm c must lie in (0.5, 5.0), got None"),
            ({"kernel": "linear", "c": True, "gamma": 0.1}, "svm c must lie in (0.5, 5.0), got True"),
            ({"kernel": "linear", "c": float("nan"), "gamma": 0.1}, "svm c must lie in (0.5, 5.0), got nan"),
            ({"kernel": "linear", "c": 1.0, "gamma": [0.1]}, "svm gamma must lie in (1e-05, 1.0), got [0.1]"),
            ({"kernel": "poly", "c": 1.0, "gamma": 0.1}, "svm kernel must be in ('linear', 'rbf'), got 'poly'"),
            ({"kernel": "linear", "c": 1.0},
             "expected hyperparameters ['c', 'gamma', 'kernel'], got ['c', 'kernel']"),
        ],
        ids=["range", "text", "none", "bool", "nan", "list", "choice", "missing-key"],
    )
    def test_rejection_names_kind_dimension_and_value(self, params, message):
        with pytest.raises(DataError) as info:
            ClassifierSpec(ClassifierKind.SVM, params)
        assert str(info.value) == message

    def test_discrete_rejects_bools_and_unlisted_values_cleanly(self):
        for value in (True, "3", 3.0, 3.5, None, (3,)):
            with pytest.raises(DataError, match=r"^knn k must be in \(2, 3, 4, 5, 6, 7, 8\), got "):
                ClassifierSpec(ClassifierKind.KNN, {"k": value})

    def test_numpy_numbers_and_range_edges_are_accepted(self):
        spec = ClassifierSpec(ClassifierKind.SVM, {"kernel": "rbf", "c": np.float64(0.5), "gamma": 1.0})
        assert spec.params["c"] == 0.5
        ClassifierSpec(ClassifierKind.XGB,
                       {"max_depth": np.int64(7), "learning_rate": 0.001, "n_estimators": 200})
        ClassifierSpec(ClassifierKind.SVM, {"kernel": "linear", "c": 5, "gamma": 1e-5})

    def test_every_search_space_value_makes_a_spec(self):
        rng = np.random.default_rng(3)
        for kind in ClassifierKind:
            space = classifier_search_space(kind)
            for u in [np.zeros(space.n_dims), np.ones(space.n_dims), *rng.random((20, space.n_dims))]:
                ClassifierSpec(kind, space.from_unit(u))
            assert set(default_spec(kind).params) == set(space.names)

    def test_search_spaces_cover_domains(self):
        knn = classifier_search_space(ClassifierKind.KNN)
        assert knn.dims[0].values == (2, 3, 4, 5, 6, 7, 8)
        svm = classifier_search_space(ClassifierKind.SVM)
        assert svm.names == ("kernel", "c", "gamma")
        assert svm.dims[1].low == 0.5 and svm.dims[1].high == 5.0
        assert svm.dims[2].low == 1e-5 and svm.dims[2].high == 1.0
        rf = classifier_search_space(ClassifierKind.RF)
        assert rf.dims[0].values == (5, 10, 15, 20, 25)
        xgb = classifier_search_space(ClassifierKind.XGB)
        assert xgb.dims[0].values == (3, 4, 5, 6, 7)
        assert xgb.dims[2].values == (10, 50, 100, 200)
        assert classifier_search_space(ClassifierKind.NB).n_dims == 0

    def test_factory_fits_and_serializes_all_kinds(self):
        rng = np.random.default_rng(13)
        x = rng.random((12, 3))
        y = np.array([0, 1] * 6)
        table = LabeledFeatures(
            tuple(f"s{i}" for i in range(12)), tuple([0] * 12), x, y
        )
        classes = {ClassifierKind.KNN: KnnClassifier, ClassifierKind.NB: GaussianNbClassifier,
                   ClassifierKind.SVM: SmoSvmClassifier, ClassifierKind.RF: RandomForestClassifier,
                   ClassifierKind.XGB: GradientBoostingClassifier}
        for kind in ClassifierKind:
            spec = default_spec(kind)
            model = fit(spec, table, seed=1)
            assert type(model) is classes[kind]
            assert {name: getattr(model, name) for name in spec.params} == spec.params
            assert getattr(model, "seed", 1) == 1
            assert model.predict(x).shape == (12,)
            payload = json.loads(json.dumps(model_to_dict(model)))
            assert payload["model"] == kind.value

    def test_dimension_mismatch_rejected(self):
        x = np.random.default_rng(0).random((6, 2))
        y = np.array([0, 1, 0, 1, 0, 1])
        model = KnnClassifier(k=1).fit(x, y)
        with pytest.raises(DataError, match="dimension"):
            model.predict(np.zeros((2, 5)))


class TestOverflowedFeatures:
    """Features of about 1e200 overflow squared distances, kernels and log densities."""

    X = np.array([[1e200, -3e200], [2e200, 1e200], [-1e200, 2e200], [3e200, -1e200]])
    Y = np.array([1, 1, 0, 0])

    @pytest.mark.parametrize(
        "model, what",
        [(KnnClassifier(k=3), "knn: distance"), (GaussianNbClassifier(), "nb: log posterior"),
         (SmoSvmClassifier(kernel="rbf", gamma=0.1), "svm: rbf kernel"),
         (SmoSvmClassifier(kernel="linear"), "svm: linear kernel")],
        ids=["knn", "nb", "svm-rbf", "svm-linear"],
    )
    def test_fit_or_predict_raises_numerical_error_naming_the_classifier(self, model, what):
        # nb fits on finite-variance rows: on X its variances overflow, so the fit itself raises.
        train = self.X / 1e200 if isinstance(model, GaussianNbClassifier) else self.X
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match=f"^{what} value is not finite"):
            model.fit(train, self.Y).predict(self.X)

    def test_overflowed_nb_variance_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="^nb: variance value is not finite"):
            GaussianNbClassifier().fit(self.X, self.Y)

    def test_overflowed_kernel_distance_is_a_numerical_error(self):
        # The linear kernel of these rows is finite; K_ii + K_jj - 2K_ij is not.
        x = np.array([[1.2e154], [-1.2e154], [0.5e154], [-0.7e154]])
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="^svm: kernel distance value is not finite"):
            SmoSvmClassifier(kernel="linear").fit(x, np.array([0, 1, 0, 1]))

    def test_non_finite_svm_decision_value_is_a_numerical_error(self):
        model = SmoSvmClassifier(kernel="linear").fit(np.array([[0.0], [1.0], [2.0], [3.0]]), self.Y)
        model.alphas = np.full(4, 1e308)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="^svm: decision value"):
            model.predict(np.array([[3.0]]))

    def test_trees_still_fit_and_predict(self):
        for model in (RandomForestClassifier(n_estimators=3), GradientBoostingClassifier(n_estimators=3)):
            assert model.fit(self.X, self.Y).predict(self.X).shape == (4,)


class TestLabeledFeatures:
    def make(self):
        x = np.array([[0.1, 0.9], [0.8, 0.2], [0.4, 0.6], [0.3, 0.7]])
        return LabeledFeatures(("a", "a", "b", "b"), (0, 1, 0, 1), x, np.array([1, 1, 0, 0]))

    def test_subjects_and_subset(self):
        table = self.make()
        assert table.subjects() == ("a", "b")
        sub = table.subset(["b"])
        assert sub.n_rows == 2
        assert set(sub.subject_ids) == {"b"}

    def test_csv_round_trip_exact(self, tmp_path):
        table = self.make()
        path = tmp_path / "features.csv"
        table.to_csv(path)
        back = LabeledFeatures.from_csv(path)
        assert back.subject_ids == table.subject_ids
        assert back.channels == table.channels
        np.testing.assert_array_equal(back.x, table.x)
        np.testing.assert_array_equal(back.y, table.y)

    def test_validation(self):
        with pytest.raises(DataError):
            LabeledFeatures(("a",), (0,), np.zeros((1, 2)), np.array([2]))
        with pytest.raises(DataError):
            LabeledFeatures(("a", "b"), (0,), np.zeros((2, 2)), np.array([0, 1]))
