"""Machine-learning detectors over the 88-feature vectors.

Three classifiers are implemented here directly (k-nearest neighbours, random
forest, linear SVM trained by Pegasos-style subgradient descent) so that every
tie-break and random draw is pinned:

* all randomness flows from one integer seed (per-tree generators are spawned
  deterministically from it);
* vote and margin ties always resolve to Fall, like the threshold detector;
* KNN distance ties resolve to the lower training index;
* RF split ties go to the feature drawn first, then to the lowest split.

Feature scales are wildly heterogeneous (g vs deg/s), so inputs are
standardized per feature with statistics fitted on development data only;
constant features map to 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .core import Label, is_int, is_real
from .errors import DataError, NonFiniteSignal, read_json, reading
from .features import FEATURE_NAMES, FEATURE_VIEWS, N_FEATURES

MODEL_KINDS = ("knn", "rf", "svm")

CONSTANT_STD = 1e-9

MODEL_FORMAT = "wristfall-model"
MODEL_VERSION = 1

_FALL, _ADL = 1, 0

# The most SVM epochs and RF trees a classifier may have, so that the work of `train` is bounded. On 630 windows
# of the Erciyes replica (2 CPUs), `train` took 1.6 s at 1000 epochs and 1.6 s at 1000 trees (0.5 s and 0.4 s at
# the defaults).
MAX_EPOCHS = 1000
MAX_TREES = 1000


@dataclass
class Standardizer:
    """Per-feature (x - mean) / std, fitted on development data only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves inf or nan, which train refuses
            return cls(mean=X.mean(axis=0), std=X.std(axis=0))

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        out = np.zeros_like(X, dtype=float)
        live = self.std >= CONSTANT_STD
        out[:, live] = (X[:, live] - self.mean[live]) / self.std[live]
        return out


def _check_int(name: str, value, least: int, most: float = math.inf) -> None:
    if not (is_int(value) and least <= value <= most):
        bound = f">= {least}" if most == math.inf else f"in [{least}, {most}]"
        raise DataError(f"hyperparameter {name} must be an integer {bound}, got {value!r}")


def _finite_array(name: str, value, width: int, ndim: int = 1) -> np.ndarray:
    """`value` as a non-empty float array of `ndim` axes, the last `width` long; DataError unless it is finite."""
    array = np.asarray(value, dtype=float)
    if not (array.ndim == ndim and array.shape[-1] == width and array.size and np.isfinite(array).all()):
        raise DataError(f"{name} must be a finite array of {ndim} axes, the last {width} long; got shape {array.shape}")
    return array


def _majority(y: np.ndarray) -> int:
    return _FALL if 2 * int(y.sum()) >= y.shape[0] else _ADL


@dataclass
class KNNClassifier:
    k: int = 5
    X: np.ndarray | None = field(init=False, default=None)
    y: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        _check_int("k", self.k, 1)

    def check_state(self, width: int) -> None:
        self.X = _finite_array("knn X", self.X, width, ndim=2)
        y = np.asarray(self.y)
        if y.shape != self.X.shape[:1] or y.dtype.kind != "i" or not np.isin(y, (_ADL, _FALL)).all():
            raise DataError(f"knn y must be {self.X.shape[0]} labels of 0 or 1")
        self.y = y

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int) -> None:
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=int)

    def predict_one(self, x: np.ndarray) -> tuple[int, float]:
        with np.errstate(over="ignore"):  # a huge row gives inf, which the check below rejects
            diff = self.X - x  # squared in place, one temporary: numpy computes `** 2` as this product, bit for bit
            d2 = np.sum(np.multiply(diff, diff, out=diff), axis=1)
        if not np.isfinite(d2).all():
            raise NonFiniteSignal("knn distance to a training row is not finite: the feature row is too large")
        # lexsort: primary key distance, secondary key training index
        order = np.lexsort((np.arange(d2.shape[0]), d2))
        k = min(self.k, d2.shape[0])
        fall_votes = int(self.y[order[:k]].sum())
        label = _FALL if 2 * fall_votes >= k else _ADL
        return label, fall_votes / k


def _best_split(X, codes, y, rows, feats, min_leaf):
    """The (feature, threshold) of least weighted Gini over the columns `feats` of the rows `rows`, or None when no
    split is valid.

    `codes` holds each column of `X` as dense ranks, so a stable sort of a column's codes orders `rows` as a stable
    sort of its values would, and takes numpy's radix path. A split is valid between unequal neighbours with
    `min_leaf` rows on each side. Ties go to the first of `feats`, then to the lowest split.
    """
    n = rows.shape[0]
    order = rows[np.argsort(codes[np.ix_(rows, feats)], axis=0, kind="stable")]
    xs = X[order, feats]  # column c sorted: xs[r, c] = X[order[r, c], feats[c]]
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    fl = np.cumsum(y[order], axis=0)[:-1].astype(float)
    fr = int(y[rows].sum()) - fl
    gini_l = 1.0 - (fl / nl) ** 2 - ((nl - fl) / nl) ** 2
    gini_r = 1.0 - (fr / nr) ** 2 - ((nr - fr) / nr) ** 2
    weighted = (nl * gini_l + nr * gini_r) / n
    weighted[~(xs[:-1] < xs[1:]) | (nl < min_leaf) | (nr < min_leaf)] = np.inf
    i, j = divmod(int(np.argmin(weighted.T)), n - 1)
    if weighted[j, i] == np.inf:
        return None
    return int(feats[i]), 0.5 * (float(xs[j, i]) + float(xs[j + 1, i]))


def _grow_tree(X, codes, y, rows, rng, depth, max_depth, mtry, min_leaf):
    """The tree grown on the rows `rows` of `X` (repeats allowed); a split partitions `rows` and copies no row."""
    n = rows.shape[0]
    n_fall = int(y[rows].sum())
    if depth >= max_depth or n < 2 * min_leaf or n_fall == 0 or n_fall == n:
        return {"leaf": _majority(y[rows])}
    split = _best_split(X, codes, y, rows, rng.choice(X.shape[1], size=min(mtry, X.shape[1]), replace=False), min_leaf)
    if split is not None:
        f, thr = split
        mask = X[rows, f] <= thr
        if mask.any() and not mask.all():  # else the midpoint rounded onto a sample value
            return {
                "f": f,
                "thr": thr,
                "l": _grow_tree(X, codes, y, rows[mask], rng, depth + 1, max_depth, mtry, min_leaf),
                "r": _grow_tree(X, codes, y, rows[~mask], rng, depth + 1, max_depth, mtry, min_leaf),
            }
    return {"leaf": _majority(y[rows])}


def _rank_codes(X: np.ndarray) -> np.ndarray:
    """Each column of `X` as dense ranks (equal values, -0.0 and 0.0 too, share one) in the smallest unsigned type
    that holds the row count less one: 8 or 16 bits up to 65 536 rows, where a stable sort is a radix sort."""
    codes = np.empty(X.shape, np.min_scalar_type(max(X.shape[0] - 1, 0)))
    for c in range(X.shape[1]):
        codes[:, c] = np.unique(X[:, c], return_inverse=True)[1]
    return codes


def _tree_predict(node: dict, x: np.ndarray) -> int:
    while "leaf" not in node:
        node = node["l"] if x[node["f"]] <= node["thr"] else node["r"]
    return node["leaf"]


@dataclass
class RandomForestClassifier:
    n_trees: int = 100
    max_depth: int = 16
    mtry: int | None = None
    min_leaf: int = 1
    trees: list[dict] = field(init=False, default_factory=list)

    def __post_init__(self):
        _check_int("n_trees", self.n_trees, 1, MAX_TREES)
        _check_int("max_depth", self.max_depth, 0)
        if self.mtry is not None:
            _check_int("mtry", self.mtry, 1)
        _check_int("min_leaf", self.min_leaf, 1)

    def check_state(self, width: int) -> None:
        if len(self.trees) != self.n_trees:
            raise DataError(f"rf must hold n_trees = {self.n_trees} trees")
        nodes = list(self.trees)
        while nodes:
            node = nodes.pop()
            if "leaf" in node:
                if not (is_int(node["leaf"]) and node["leaf"] in (_ADL, _FALL)):
                    raise DataError(f"rf leaf must be 0 or 1, got {node['leaf']!r}")
            elif is_int(node["f"]) and 0 <= node["f"] < width and is_real(node["thr"]):
                nodes += [node["l"], node["r"]]
            else:
                raise DataError(f"rf split needs f in [0, {width}) and a finite thr: {node['f']!r}, {node['thr']!r}")

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int) -> None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        n = y.shape[0]
        mtry = self.mtry if self.mtry is not None else max(1, int(math.isqrt(X.shape[1])))
        codes = _rank_codes(X)
        self.trees = []
        for child_seq in np.random.SeedSequence(seed).spawn(self.n_trees):
            rng = np.random.default_rng(child_seq)
            rows = rng.integers(0, n, size=n)  # the bootstrap
            self.trees.append(_grow_tree(X, codes, y, rows, rng, 0, self.max_depth, mtry, self.min_leaf))

    def predict_one(self, x: np.ndarray) -> tuple[int, float]:
        fall_votes = sum(_tree_predict(tree, x) for tree in self.trees)
        label = _FALL if 2 * fall_votes >= len(self.trees) else _ADL
        return label, fall_votes / len(self.trees)


@dataclass
class LinearSVM:
    """L2-regularized hinge loss, epoch-based subgradient descent, lr = 1/(lam*t).

    Two stabilizers over the textbook update: the bias is folded into the
    regularized weights as a constant feature (an unregularized bias at this
    learning-rate schedule takes a 1/lam jump on the first step and never
    recovers), and the returned weights are the average over the final epoch
    rather than the noisy last iterate.
    """

    lam: float = 1e-3
    epochs: int = 50
    w: np.ndarray | None = field(init=False, default=None)
    b: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not (is_real(self.lam) and self.lam > 0):
            raise DataError(f"hyperparameter lam must be finite and > 0, got {self.lam!r}")
        _check_int("epochs", self.epochs, 1, MAX_EPOCHS)

    def check_state(self, width: int) -> None:
        self.w = _finite_array("svm w", self.w, width)
        if not is_real(self.b):
            raise DataError(f"svm b must be finite, got {self.b!r}")

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int) -> None:
        X = np.asarray(X, dtype=float)
        y_pm = np.where(np.asarray(y, dtype=int) == _FALL, 1.0, -1.0)
        n, d = X.shape
        Xa = np.hstack([X, np.ones((n, 1))])
        rng = np.random.default_rng(seed)
        w = np.zeros(d + 1)
        tail = np.zeros(d + 1)
        t = 0
        with np.errstate(over="ignore", invalid="ignore"):  # a tiny lam overflows to inf or nan, refused below
            for epoch in range(self.epochs):
                for i in rng.permutation(n):
                    t += 1
                    eta = 1.0 / (self.lam * t)
                    margin = y_pm[i] * (Xa[i] @ w)
                    w *= 1.0 - eta * self.lam
                    if margin < 1.0:
                        w += eta * y_pm[i] * Xa[i]
                    if epoch == self.epochs - 1:
                        tail += w
            w = tail / n
        if not np.isfinite(w).all():
            raise DataError(f"hyperparameter lam = {self.lam!r} is too small: the svm weights are not finite")
        self.w = w[:-1]
        self.b = float(w[-1])

    def predict_one(self, x: np.ndarray) -> tuple[int, float]:
        with np.errstate(over="ignore", invalid="ignore"):  # a huge row or huge weights give inf or nan, refused below
            score = float(x @ self.w + self.b)
        if not math.isfinite(score):
            raise NonFiniteSignal("svm margin is not finite: the feature row is too large for the weights")
        return (_FALL if score >= 0.0 else _ADL), score


_CLASSIFIERS = {"knn": KNNClassifier, "rf": RandomForestClassifier, "svm": LinearSVM}


@dataclass
class ClassifierModel:
    """A fitted classifier; `train` and `load_model` build it, and both get its state checked here."""

    kind: str
    feature_view: str
    standardizer: Standardizer
    classifier: KNNClassifier | RandomForestClassifier | LinearSVM
    seed: int = 0

    def __post_init__(self):
        if not (is_int(self.seed) and self.seed >= 0):
            raise DataError(f"seed must be an integer >= 0, got {self.seed!r}")
        width = len(range(N_FEATURES)[FEATURE_VIEWS[self.feature_view]])
        self.standardizer.mean = _finite_array("standardizer mean", self.standardizer.mean, width)
        self.standardizer.std = _finite_array("standardizer std", self.standardizer.std, width)
        self.classifier.check_state(width)

    @property
    def params(self) -> dict:
        """The classifier's hyperparameters."""
        return {f.name: getattr(self.classifier, f.name) for f in fields(self.classifier) if f.init}

    def describe(self) -> str:
        return f"{self.kind}({self.feature_view})"


def make_classifier(kind: str, feature_view: str, params: dict) -> KNNClassifier | RandomForestClassifier | LinearSVM:
    """The unfitted classifier of `kind` with the hyperparameters `params`.

    An unknown kind, view or hyperparameter name, then a value outside its range, raises DataError naming it.
    """
    if kind not in _CLASSIFIERS:
        raise DataError(f"unknown classifier kind {kind!r}; expected one of {MODEL_KINDS}")
    if feature_view not in FEATURE_VIEWS:
        raise DataError(f"unknown feature view {feature_view!r}; expected one of {tuple(FEATURE_VIEWS)}")
    cls = _CLASSIFIERS[kind]
    unknown = set(params) - {f.name for f in fields(cls) if f.init}
    if unknown:
        raise DataError(f"unknown {kind} hyperparameters: {sorted(unknown)}")
    return cls(**params)


def _check_rows(X: np.ndarray) -> None:
    """Raise DataError unless X is a (windows, 88) matrix of finite values."""
    if X.ndim != 2 or X.shape[1] != N_FEATURES or not np.all(np.isfinite(X)):
        raise DataError(f"expected rows of {N_FEATURES} finite values, got shape {X.shape}")


def train(
    kind: str,
    feature_view: str,
    X: np.ndarray,
    labels: Sequence[Label],
    seed: int,
    **params,
) -> ClassifierModel:
    """Fit one classifier on a (windows, 88) matrix of development features and their labels."""
    classifier = make_classifier(kind, feature_view, params)

    X = np.asarray(X, dtype=float)
    _check_rows(X)
    y = np.array([_FALL if label is Label.FALL else _ADL for label in labels], dtype=int)
    if y.shape[0] != X.shape[0]:
        raise DataError(f"{X.shape[0]} feature rows but {y.shape[0]} labels")
    if len(set(y.tolist())) < 2:
        raise DataError("training set must contain both falls and ADLs")
    X = X[:, FEATURE_VIEWS[feature_view]]
    standardizer = Standardizer.fit(X)
    if not (finite := np.isfinite(standardizer.mean) & np.isfinite(standardizer.std)).all():
        name = FEATURE_NAMES[FEATURE_VIEWS[feature_view]][np.argmin(finite)]
        raise NonFiniteSignal(f"feature {name}: its mean or spread over the training windows is not finite")
    classifier.fit(standardizer.transform(X), y, seed)
    return ClassifierModel(kind, feature_view, standardizer, classifier, seed)


def predict(model: ClassifierModel, values: np.ndarray) -> tuple[Label, float]:
    """Label plus score of one 88-value feature row: vote fraction for knn/rf, signed margin for svm."""
    values = np.asarray(values, dtype=float)
    _check_rows(values[np.newaxis])
    x = model.standardizer.transform(values[FEATURE_VIEWS[model.feature_view]])[0]
    label_int, score = model.classifier.predict_one(x)
    return (Label.FALL if label_int == _FALL else Label.ADL), score


def _fields_doc(obj) -> dict:
    """Every dataclass field of `obj`, arrays as lists: the JSON form `load_model` reads back."""
    return {f.name: (v.tolist() if isinstance(v := getattr(obj, f.name), np.ndarray) else v) for f in fields(obj)}


def save_model(model: ClassifierModel, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.kind,
        "feature_view": model.feature_view,
        "params": model.params,
        "seed": model.seed,
        "standardizer": _fields_doc(model.standardizer),
        "state": _fields_doc(model.classifier),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path) -> ClassifierModel:
    """The model `save_model` wrote to `path`; a file that is not one or does not fit raises DataError naming it."""
    doc = read_json(path)
    with reading(path):
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise DataError(f"not a {MODEL_FORMAT} file")
        if doc.get("version") != MODEL_VERSION:
            raise DataError(f"unsupported model version {doc.get('version')}")
        kind, feature_view, state = doc["kind"], doc["feature_view"], doc["state"]
        classifier = make_classifier(kind, feature_view, doc["params"])
        for f in fields(classifier):
            if not f.init:
                setattr(classifier, f.name, state[f.name])
            elif f.name in state and state[f.name] != getattr(classifier, f.name):
                raise DataError(f"state {f.name} = {state[f.name]!r} differs from params")
        standardizer = Standardizer(**doc["standardizer"])
        return ClassifierModel(kind, feature_view, standardizer, classifier, seed=doc.get("seed", 0))
