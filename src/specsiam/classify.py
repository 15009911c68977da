"""Downstream classifiers over extracted feature vectors.

All five are self-contained numpy implementations: k-nearest neighbors,
Gaussian naive Bayes, an SMO-trained SVM (linear and RBF kernels), a random
forest of Gini trees, and gradient-boosted regression trees on logistic-loss
gradients. Labels are binary with case = 1 as the positive class; every tie
breaks toward case.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .bayesopt import Continuous, Discrete, LogContinuous, SearchSpace
from .errors import DataError, NumericalError
from .signals import Label

__all__ = [
    "LabeledFeatures",
    "ClassifierKind",
    "ClassifierSpec",
    "KnnClassifier",
    "GaussianNbClassifier",
    "SmoSvmClassifier",
    "RandomForestClassifier",
    "GradientBoostingClassifier",
    "fit",
    "default_spec",
    "classifier_search_space",
    "model_to_dict",
]


@dataclass(frozen=True)
class LabeledFeatures:
    """Per-(subject, channel) feature rows with binary labels (1 = case)."""

    subject_ids: tuple[str, ...]
    channels: tuple[int, ...]
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if x.ndim != 2:
            raise DataError("feature matrix must be 2-D")
        n = x.shape[0]
        if not (len(self.subject_ids) == len(self.channels) == n == y.size):
            raise DataError("subject_ids, channels, x and y must agree in length")
        if n and not np.isin(y, (0, 1)).all():
            raise DataError("labels must be 0 (control) or 1 (case)")
        if not np.isfinite(x).all():
            raise DataError("non-finite feature value")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "subject_ids", tuple(self.subject_ids))
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    def subjects(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for sid in self.subject_ids:
            seen.setdefault(sid)
        return tuple(seen)

    def subject_labels(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for sid, label in zip(self.subject_ids, self.y):
            out[sid] = int(label)
        return out

    def subset(self, subject_ids) -> "LabeledFeatures":
        wanted = set(subject_ids)
        keep = [i for i, sid in enumerate(self.subject_ids) if sid in wanted]
        return LabeledFeatures(
            subject_ids=tuple(self.subject_ids[i] for i in keep),
            channels=tuple(self.channels[i] for i in keep),
            x=self.x[keep],
            y=self.y[keep],
        )

    def to_csv(self, path: str | Path) -> None:
        q = self.n_features
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject_id", "channel"] + [f"f_{i+1}" for i in range(q)] + ["label"])
            for i in range(self.n_rows):
                label = Label.CASE.value if self.y[i] == 1 else Label.CONTROL.value
                writer.writerow(
                    [self.subject_ids[i], self.channels[i]]
                    + [repr(float(v)) for v in self.x[i]]
                    + [label]
                )

    @staticmethod
    def from_csv(path: str | Path) -> "LabeledFeatures":
        path = Path(path)
        if not path.is_file():
            raise DataError(f"feature table not found: {path}")
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                lines = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise DataError(f"feature table {path} is not UTF-8 text ({exc})") from None
        header = lines[0] if lines else None
        if not header or header[0] != "subject_id" or header[-1] != "label":
            raise DataError(f"{path} is not a feature table CSV")
        if len(header) < 4:
            raise DataError(f"{path}: no feature columns between 'channel' and 'label'")
        sids, chans, rows, labels = [], [], [], []
        first_label: dict[str, tuple[str, int]] = {}  # subject -> (label, line)
        for lineno, row in enumerate(lines[1:], start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: ragged row at line {lineno}")
            sids.append(row[0])
            try:
                chans.append(int(row[1]))
            except ValueError:
                raise DataError(f"{path}: non-integer channel {row[1]!r} at line {lineno}") from None
            try:
                rows.append([float(v) for v in row[2:-1]])
            except ValueError as exc:
                raise DataError(f"{path}: non-numeric feature at line {lineno}") from exc
            if not all(map(math.isfinite, rows[-1])):
                j = next(j for j, v in enumerate(rows[-1]) if not math.isfinite(v))
                raise DataError(f"{path}: non-finite value {row[2 + j]!r} in column "
                                f"'{header[2 + j]}' at line {lineno}")
            try:
                labels.append(1 if Label(row[-1]) is Label.CASE else 0)
            except ValueError:
                raise DataError(f"{path}: bad label {row[-1]!r} at line {lineno}") from None
            label, line = first_label.setdefault(row[0], (row[-1], lineno))
            if label != row[-1]:
                raise DataError(f"{path}: subject {row[0]!r} is labelled {row[-1]!r} at line {lineno} "
                                f"but {label!r} at line {line}")
        if not rows:
            raise DataError(f"{path}: no feature rows")
        return LabeledFeatures(tuple(sids), tuple(chans), np.asarray(rows), np.asarray(labels))


class ClassifierKind(Enum):
    KNN = "knn"
    NB = "nb"
    SVM = "svm"
    RF = "rf"
    XGB = "xgb"


SVM_KERNELS = ("linear", "rbf")
SVM_TOL = 1e-3  # SMO stops once its largest KKT violation, m(α) - M(α), is at most this
SVM_MAX_ITER = 50_000  # SMO steps before a fit stops unconverged, with feasible alphas

NB_VARIANCE_FLOOR = 1e-9

# The one definition of each classifier's hyperparameters: the tuning domain,
# which also bounds the values a spec accepts and names the CLI flags, and the
# values an untuned classifier runs with. Naive Bayes has nothing to tune.
_SEARCH_SPACES = {
    ClassifierKind.KNN: SearchSpace((Discrete("k", (2, 3, 4, 5, 6, 7, 8)),)),
    ClassifierKind.NB: SearchSpace(()),
    ClassifierKind.SVM: SearchSpace((Discrete("kernel", SVM_KERNELS), Continuous("c", 0.5, 5.0),
                                     LogContinuous("gamma", 1e-5, 1.0))),
    ClassifierKind.RF: SearchSpace((Discrete("n_estimators", (5, 10, 15, 20, 25)),)),
    ClassifierKind.XGB: SearchSpace((Discrete("max_depth", (3, 4, 5, 6, 7)),
                                     LogContinuous("learning_rate", 0.001, 0.1),
                                     Discrete("n_estimators", (10, 50, 100, 200)))),
}
_DEFAULT_PARAMS = {
    ClassifierKind.KNN: {"k": 3},
    ClassifierKind.NB: {},
    ClassifierKind.SVM: {"kernel": "linear", "c": 1.0, "gamma": 0.1},
    ClassifierKind.RF: {"n_estimators": 10},
    ClassifierKind.XGB: {"max_depth": 3, "learning_rate": 0.1, "n_estimators": 50},
}


def classifier_search_space(kind: ClassifierKind) -> SearchSpace:
    """The tuning domain of a classifier kind, which also bounds its specs."""
    if kind not in _SEARCH_SPACES:
        raise DataError(f"unknown classifier kind {kind}")
    return _SEARCH_SPACES[kind]


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier kind plus one value in each dimension of its search space."""

    kind: ClassifierKind
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        p = dict(self.params)
        space = classifier_search_space(self.kind)
        if set(p) != set(space.names):
            raise DataError(f"expected hyperparameters {sorted(space.names)}, got {sorted(p)}")
        for dim in space.dims:
            dim.check(p[dim.name], self.kind.value)
        object.__setattr__(self, "params", p)


def default_spec(kind: ClassifierKind) -> ClassifierSpec:
    return ClassifierSpec(kind, _DEFAULT_PARAMS[kind])


# ---------------------------------------------------------------------------
# decision trees shared by the forest and the boosting ensemble
#
# Exact greedy splits over presorted columns, as in the column blocks of exact
# greedy XGBoost (Chen & Guestrin 2016). A fit argsorts every column once,
# stably, so equal values keep their row order. A node takes its own rows out
# of that order with a membership mask, which keeps the order, and scores all
# of its candidate features at every value boundary with 2-D array passes,
# one block of about SPLIT_BLOCK_BYTES of sorted values at a time (unblocked,
# a default fit at 1344x1801 peaked at twice the memory). Ties
# break as a scan over single columns would: the first minimum within a
# column; then, over features in ascending order, a later feature replaces
# the best so far only when its cost is lower by more than 1e-15. A feature
# can pass that test only if its cost is below that of every earlier feature,
# so the scan visits those features alone.

SPLIT_BLOCK_BYTES = 1 << 20


def _gini(counts1: np.ndarray, totals: np.ndarray) -> np.ndarray:
    p1 = counts1 / totals
    return 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)


def _presort(x: np.ndarray):
    """The columns of x as rows, (d, n), and each one's stable ascending row order."""
    xt = np.ascontiguousarray(x.T)
    return xt, np.argsort(xt, axis=1, kind="stable")


def _best_split(xt: np.ndarray, y: np.ndarray, rows: np.ndarray, features: np.ndarray, mode: str):
    """(cost, feature, threshold) of a node's best split, or None if no column varies.

    rows[i] lists the node's rows in ascending order of feature features[i].
    """
    d, m = rows.shape
    col_cost = np.empty(d)
    at = np.empty(d, dtype=np.int64)
    step = max(1, SPLIT_BLOCK_BYTES // (8 * m))
    for lo in range(0, d, step):
        block = slice(lo, lo + step)
        xs = xt[features[block, None], rows[block]]
        col_cost[block], at[block] = _column_minima(xs, y[rows[block]], mode)
    earlier = np.concatenate(([np.inf], np.minimum.accumulate(col_cost)[:-1]))
    best = None
    for i in np.flatnonzero(col_cost < earlier):
        if best is None or col_cost[i] < col_cost[best] - 1e-15:
            best = i
    if best is None:
        return None
    j, k = features[best], at[best]
    lo, hi = float(xt[j, rows[best, k]]), float(xt[j, rows[best, k + 1]])
    threshold = 0.5 * (lo + hi)
    if not lo <= threshold < hi:  # rounded up to hi (adjacent floats) or overflowed
        threshold = lo
    return float(col_cost[best]), int(j), threshold


def _column_minima(xs: np.ndarray, ys: np.ndarray, mode: str):
    """Lowest split cost of each row of sorted values xs (targets ys) and its position.

    A row without two distinct values costs inf.
    """
    m = xs.shape[1]
    n_left = np.arange(1, m)
    n_right = m - n_left
    if mode == "gini":
        ones = np.cumsum(ys == 1, axis=1)
        left1 = ones[:, :-1]
        right1 = ones[:, -1:] - left1
        cost = (n_left * _gini(left1, n_left) + n_right * _gini(right1, n_right)) / m
    else:
        s = np.cumsum(ys, axis=1)
        s2 = np.cumsum(ys * ys, axis=1)
        sl, sl2 = s[:, :-1], s2[:, :-1]
        sr, sr2 = s[:, -1:] - sl, s2[:, -1:] - sl2
        var_left = sl2 / n_left - (sl / n_left) ** 2
        var_right = sr2 / n_right - (sr / n_right) ** 2
        cost = (n_left * var_left + n_right * var_right) / m
    cost[xs[:, 1:] == xs[:, :-1]] = np.inf  # no threshold between equal values
    at = np.argmin(cost, axis=1)
    return cost[np.arange(at.size), at], at


def _leaf_value(y: np.ndarray, mode: str) -> float:
    if mode == "gini":
        ones = int((y == 1).sum())
        return 1.0 if 2 * ones >= y.size else 0.0  # tie breaks toward case
    return float(y.mean())


def _node_impurity(y: np.ndarray, mode: str) -> float:
    if mode == "gini":
        p1 = float((y == 1).mean())
        return 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)
    return float(np.var(y))


def _build_tree(x, y, mode, max_depth, rng, subsample_features, presorted=None):
    """Grow one tree on (x, y); presorted is _presort(x), passed when x is reused."""
    xt, order = presorted if presorted is not None else _presort(x)
    in_node = np.ones(y.size, dtype=bool)
    return _grow(xt, order, y, in_node, mode, max_depth, rng, subsample_features, 0)


def _grow(xt, order, y, in_node, mode, max_depth, rng, subsample_features, depth):
    y_node = y[in_node]
    n = y_node.size
    if n < 2 or (max_depth is not None and depth >= max_depth):
        return {"leaf": _leaf_value(y_node, mode)}
    parent = _node_impurity(y_node, mode)
    if parent <= 1e-15:
        return {"leaf": _leaf_value(y_node, mode)}
    d = xt.shape[0]
    if subsample_features and rng is not None:
        m = max(1, int(round(math.sqrt(d))))
        features = np.sort(rng.choice(d, size=min(m, d), replace=False))
        rows = order[features]
    else:
        features, rows = np.arange(d), order
    if n < y.size:
        rows = rows[in_node[rows]].reshape(features.size, n)
    found = _best_split(xt, y, rows, features, mode)
    if found is None or found[0] >= parent - 1e-12:
        return {"leaf": _leaf_value(y_node, mode)}
    _, j, threshold = found
    goes_left = xt[j] <= threshold
    left = _grow(xt, order, y, in_node & goes_left, mode, max_depth, rng, subsample_features, depth + 1)
    right = _grow(xt, order, y, in_node & ~goes_left, mode, max_depth, rng, subsample_features, depth + 1)
    return {"feature": j, "threshold": threshold, "left": left, "right": right}


def _tree_predict(node: dict, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[0])

    def descend(nd, idx):
        if "leaf" in nd:
            out[idx] = nd["leaf"]
            return
        mask = x[idx, nd["feature"]] <= nd["threshold"]
        descend(nd["left"], idx[mask])
        descend(nd["right"], idx[~mask])

    descend(node, np.arange(x.shape[0]))
    return out


# ---------------------------------------------------------------------------
# classifiers

class KnnClassifier:
    """Lazy euclidean k-NN; ties break toward case, then toward lower row index."""

    def __init__(self, k: int = 3):
        if k < 1:
            raise DataError("k must be >= 1")
        self.k = k
        self.x_train: np.ndarray | None = None
        self.y_train: np.ndarray | None = None

    def fit(self, x, y):
        x, y = _check_training(x, y, require_both_classes=False)
        if self.k > x.shape[0]:
            raise DataError(f"k={self.k} exceeds {x.shape[0]} training rows")
        self.x_train, self.y_train = x, y
        return self

    def predict(self, x):
        x = _check_features(x, self.x_train.shape[1])
        with _unchecked():
            d2 = ((x[:, None, :] - self.x_train[None, :, :]) ** 2).sum(axis=2)
        _require_finite(d2, "knn: distance")
        order = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        votes_case = (self.y_train[order] == 1).sum(axis=1)
        return (2 * votes_case >= self.k).astype(np.int64)


class GaussianNbClassifier:
    """Per-feature Gaussian likelihoods with a variance floor; priors from counts."""

    def __init__(self):
        self.priors: np.ndarray | None = None  # [control, case]
        self.means: np.ndarray | None = None
        self.variances: np.ndarray | None = None

    def fit(self, x, y):
        x, y = _check_training(x, y, require_both_classes=True)
        means, variances, priors = [], [], []
        for cls in (0, 1):
            rows = x[y == cls]
            with _unchecked():  # an overflowed mean leaves its variance non-finite too
                means.append(rows.mean(axis=0))
                variances.append(np.maximum(rows.var(axis=0), NB_VARIANCE_FLOOR))
            priors.append(rows.shape[0] / x.shape[0])
        self.means = np.array(means)
        self.variances = _require_finite(np.array(variances), "nb: variance")
        self.priors = np.array(priors)
        return self

    def _log_posterior(self, x):
        out = np.empty((x.shape[0], 2))
        for cls in (0, 1):
            mu, var = self.means[cls], self.variances[cls]
            ll = -0.5 * (np.log(2.0 * np.pi * var) + (x - mu) ** 2 / var).sum(axis=1)
            out[:, cls] = ll + np.log(self.priors[cls])
        return out

    def predict(self, x):
        x = _check_features(x, self.means.shape[1])
        with _unchecked():
            post = self._log_posterior(x)
        _require_finite(post, "nb: log posterior")
        return (post[:, 1] >= post[:, 0]).astype(np.int64)


class SmoSvmClassifier:
    """Soft-margin SVM trained by pairwise coordinate ascent on the dual."""

    def __init__(self, kernel: str = "linear", c: float = 1.0, gamma: float = 0.1):
        if kernel not in SVM_KERNELS:
            raise DataError(f"kernel must be one of {SVM_KERNELS}")
        if c <= 0:
            raise DataError("c must be positive")
        if kernel == "rbf" and gamma <= 0:
            raise DataError("gamma must be positive for the rbf kernel")
        self.kernel = kernel
        self.c = c
        self.gamma = gamma
        self.x_train = self.s_train = self.alphas = self.converged = None
        self.b = 0.0

    def _gram(self, xa, xb):
        with _unchecked():
            if self.kernel == "linear":
                return _require_finite(xa @ xb.T, "svm: linear kernel")
            d2 = (
                (xa * xa).sum(axis=1)[:, None]
                + (xb * xb).sum(axis=1)[None, :]
                - 2.0 * (xa @ xb.T)
            )
            return _require_finite(np.exp(-self.gamma * np.maximum(d2, 0.0)), "svm: rbf kernel")

    def fit(self, x, y):
        """SMO with second-order working-set selection (Fan, Chen & Lin 2005), as in libsvm.

        score = -s·∇f for the dual f(α) = ½αᵀQα - Σα with Q = ssᵀ∘K. Each
        step takes the i of largest score in I_up and the j of I_low whose
        pair lowers f most, moves both alphas along Σ s·α = 0 to the minimum
        of f on that line, cut at the box (an alpha cut at a bound is set to
        it exactly), and updates score with kernel rows i and j. The fit
        stops when the largest score over I_up exceeds the smallest over
        I_low by at most SVM_TOL (converged), or after SVM_MAX_ITER steps
        with the feasible alphas it has (not converged). b is the mean score
        of the free alphas, or with none free, the midpoint of those two
        scores.
        """
        x, y = _check_training(x, y, require_both_classes=True)
        s = np.where(y == 1, 1.0, -1.0)
        k = self._gram(x, x)
        diag = k.diagonal()
        with _unchecked():
            curv = _require_finite(diag[:, None] + diag[None, :] - 2.0 * k, "svm: kernel distance")
        curv = np.maximum(curv, 1e-12)
        c, labels = self.c, s.tolist()
        alphas = [0.0] * s.size
        score = s.copy()
        up, low = s > 0, s < 0  # I_up and I_low, kept in step with alphas
        for step in range(SVM_MAX_ITER + 1):
            i = int(np.argmax(np.where(up, score, -np.inf)))
            gap = np.where(low, score[i] - score, -np.inf)
            widest = gap.max()
            if widest <= SVM_TOL or step == SVM_MAX_ITER:
                break
            j = int(np.argmax(np.where(gap > 0, gap * gap / curv[i], -np.inf)))
            bound_i = c if labels[i] > 0 else 0.0
            bound_j = 0.0 if labels[j] > 0 else c
            room_i, room_j = abs(bound_i - alphas[i]), abs(bound_j - alphas[j])
            t = min(gap.item(j) / curv.item(i, j), room_i, room_j)
            alphas[i] = bound_i if t == room_i else min(max(alphas[i] + labels[i] * t, 0.0), c)
            alphas[j] = bound_j if t == room_j else min(max(alphas[j] - labels[j] * t, 0.0), c)
            for m in (i, j):
                up[m], low[m] = (alphas[m] < c, alphas[m] > 0) if labels[m] > 0 else (alphas[m] > 0, alphas[m] < c)
            score -= t * (k[i] - k[j])
        free = up & low
        b = score[free].mean() if free.any() else score[i] - 0.5 * widest
        self.x_train, self.s_train, self.alphas, self.b = x, s, np.array(alphas), float(b)
        self.converged = bool(widest <= SVM_TOL)
        return self

    def decision_function(self, x):
        x = _check_features(x, self.x_train.shape[1])
        k = self._gram(self.x_train, x)
        with _unchecked():
            return _require_finite((self.alphas * self.s_train) @ k + self.b, "svm: decision")

    def predict(self, x):
        return (self.decision_function(x) >= 0.0).astype(np.int64)


class RandomForestClassifier:
    """Bagged, fully grown Gini trees with sqrt(d) feature subsampling per split."""

    def __init__(self, n_estimators: int = 10, seed: int = 0):
        if n_estimators < 1:
            raise DataError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.seed = seed
        self.trees: list[dict] = []
        self.n_features_ = None

    def fit(self, x, y):
        x, y = _check_training(x, y, require_both_classes=False)
        self.n_features_ = x.shape[1]
        self.trees = []
        for seq in np.random.SeedSequence(self.seed).spawn(self.n_estimators):
            rng = np.random.default_rng(seq)
            idx = rng.integers(0, x.shape[0], x.shape[0])  # bootstrap of exactly n rows
            self.trees.append(
                _build_tree(x[idx], y[idx], "gini", None, rng, subsample_features=True)
            )
        return self

    def predict(self, x):
        x = _check_features(x, self.n_features_)
        votes = np.zeros(x.shape[0])
        for tree in self.trees:
            votes += _tree_predict(tree, x)
        return (2.0 * votes >= len(self.trees)).astype(np.int64)


class GradientBoostingClassifier:
    """Shrunken regression trees fit to logistic-loss gradients (residuals)."""

    def __init__(self, n_estimators: int = 50, max_depth: int = 3, learning_rate: float = 0.1):
        if n_estimators < 1 or max_depth < 1:
            raise DataError("n_estimators and max_depth must be >= 1")
        if learning_rate <= 0:
            raise DataError("learning_rate must be positive")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.f0 = 0.0
        self.trees: list[dict] = []
        self.train_loss_trace: list[float] = []
        self.n_features_ = None

    @staticmethod
    def _log_loss(y, scores):
        p = 1.0 / (1.0 + np.exp(-scores))
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())

    def fit(self, x, y):
        x, y = _check_training(x, y, require_both_classes=True)
        self.n_features_ = x.shape[1]
        yf = y.astype(np.float64)
        p0 = yf.mean()
        self.f0 = float(np.log(p0 / (1.0 - p0)))
        scores = np.full(x.shape[0], self.f0)
        self.trees = []
        self.train_loss_trace = [self._log_loss(yf, scores)]
        presorted = _presort(x)  # every round splits the same x
        for _ in range(self.n_estimators):
            residual = yf - 1.0 / (1.0 + np.exp(-scores))
            tree = _build_tree(x, residual, "mse", self.max_depth, None, subsample_features=False,
                               presorted=presorted)
            self.trees.append(tree)
            scores = scores + self.learning_rate * _tree_predict(tree, x)
            self.train_loss_trace.append(self._log_loss(yf, scores))
        return self

    def decision_function(self, x, n_rounds: int | None = None):
        x = _check_features(x, self.n_features_)
        if n_rounds is None:
            n_rounds = len(self.trees)
        scores = np.full(x.shape[0], self.f0)
        for tree in self.trees[:n_rounds]:
            scores = scores + self.learning_rate * _tree_predict(tree, x)
        return scores

    def predict(self, x):
        return (self.decision_function(x) >= 0.0).astype(np.int64)


def _check_training(x, y, require_both_classes: bool):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise DataError("x must be (n, d) with one label per row")
    if x.shape[0] < 2:
        raise DataError("need at least 2 training examples")
    if require_both_classes and len(np.unique(y)) < 2:
        raise DataError("training set contains a single class")
    return x, y


def _unchecked():
    """The scope of an expression whose result goes to _require_finite.

    numpy's overflow, invalid and divide warnings are off inside it, so a
    value that overflows is reported once, by the NumericalError.
    """
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _require_finite(values: np.ndarray, what: str) -> np.ndarray:
    """values, or NumericalError when one overflowed (features of huge magnitude)."""
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} value is not finite; feature magnitudes are too large")
    return values


def _check_features(x, n_features):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != n_features:
        raise DataError(f"feature dimension {x.shape[1]} does not match training {n_features}")
    return x


_MODEL_CLASSES = {
    ClassifierKind.KNN: KnnClassifier,
    ClassifierKind.NB: GaussianNbClassifier,
    ClassifierKind.SVM: SmoSvmClassifier,
    ClassifierKind.RF: RandomForestClassifier,
    ClassifierKind.XGB: GradientBoostingClassifier,
}


def fit(spec: ClassifierSpec, train: LabeledFeatures, seed: int = 0):
    """Train a classifier of the given spec on the feature table; its params are the model's keywords,
    and seed that of the one kind that draws at random (RF)."""
    seeded = {"seed": seed} if spec.kind is ClassifierKind.RF else {}
    return _MODEL_CLASSES[spec.kind](**spec.params, **seeded).fit(train.x, train.y)


# ---------------------------------------------------------------------------
# serialization

def model_to_dict(model) -> dict:
    if isinstance(model, KnnClassifier):
        return {
            "model": "knn",
            "k": model.k,
            "x": model.x_train.tolist(),
            "y": model.y_train.tolist(),
        }
    if isinstance(model, GaussianNbClassifier):
        return {
            "model": "nb",
            "priors": model.priors.tolist(),
            "means": model.means.tolist(),
            "variances": model.variances.tolist(),
        }
    if isinstance(model, SmoSvmClassifier):
        return {
            "model": "svm",
            "kernel": model.kernel,
            "c": model.c,
            "gamma": model.gamma,
            "x": model.x_train.tolist(),
            "s": model.s_train.tolist(),
            "alphas": model.alphas.tolist(),
            "b": model.b,
            "converged": model.converged,
        }
    if isinstance(model, RandomForestClassifier):
        return {
            "model": "rf",
            "n_estimators": model.n_estimators,
            "max_depth": None,  # fully grown trees
            "seed": model.seed,
            "n_features": model.n_features_,
            "trees": model.trees,
        }
    if isinstance(model, GradientBoostingClassifier):
        return {
            "model": "xgb",
            "n_estimators": model.n_estimators,
            "max_depth": model.max_depth,
            "learning_rate": model.learning_rate,
            "n_features": model.n_features_,
            "f0": model.f0,
            "trees": model.trees,
        }
    raise DataError(f"cannot serialize model of type {type(model).__name__}")
