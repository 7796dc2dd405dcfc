import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wristfall.core import Label
from wristfall.errors import DataError, NonFiniteSignal
from wristfall.features import FEATURE_VIEWS, N_FEATURES
from wristfall.ml import (
    MAX_EPOCHS,
    MAX_TREES,
    KNNClassifier,
    LinearSVM,
    RandomForestClassifier,
    Standardizer,
    _grow_tree,
    _majority,
    load_model,
    predict,
    save_model,
    train,
)


def toy_features(rng, n=40, separation=4.0):
    """(X, labels): fall rows shifted up on a few accelerometer features, ADL rows shifted down."""
    rows, labels = [], []
    for i in range(n):
        label = Label.FALL if i % 2 else Label.ADL
        base = rng.normal(0, 1.0, N_FEATURES)
        shift = separation if label is Label.FALL else -separation
        base[0] += shift
        base[5] += shift
        base[50] += shift * 0.5
        rows.append(base)
        labels.append(label)
    return np.array(rows), labels


class TestStandardizer:
    def test_transform_centers_and_scales(self):
        rng = np.random.default_rng(30)
        X = rng.normal(3.0, 2.5, (200, 6))
        X[:, 4] = 7.7  # constant feature
        s = Standardizer.fit(X)
        Z = s.transform(X)
        live = [0, 1, 2, 3, 5]
        assert np.all(np.abs(Z[:, live].mean(axis=0)) < 1e-9)
        assert np.all(np.abs(Z[:, live].std(axis=0) - 1.0) < 1e-9)
        assert np.all(Z[:, 4] == 0.0)

    def test_single_row_transform(self):
        s = Standardizer(mean=np.array([1.0, 0.0]), std=np.array([2.0, 0.0]))
        z = s.transform(np.array([5.0, 9.0]))
        assert z.shape == (1, 2)
        assert z[0, 0] == 2.0
        assert z[0, 1] == 0.0


class TestKNN:
    def test_k1_returns_own_label(self):
        rng = np.random.default_rng(31)
        X, labels = toy_features(rng, n=20)
        model = train("knn", "combined88", X, labels, seed=0, k=1)
        for x, expected in zip(X, labels):
            label, _ = predict(model, x)
            assert label is expected

    def test_vote_majority(self):
        knn = KNNClassifier(k=3)
        knn.fit(np.array([[0.0], [0.1], [10.0]]), np.array([1, 1, 0]), seed=0)
        label, score = knn.predict_one(np.array([0.05]))
        assert label == 1
        assert score == pytest.approx(2.0 / 3.0)

    def test_vote_tie_resolves_to_fall(self):
        knn = KNNClassifier(k=2)
        knn.fit(np.array([[0.0], [1.0]]), np.array([0, 1]), seed=0)
        label, _ = knn.predict_one(np.array([0.5]))
        assert label == 1

    def test_matches_all_pairs_oracle_with_duplicates(self):
        rng = np.random.default_rng(32)
        n = 60
        X = np.round(rng.normal(0, 1, (n, 5)), 1)  # coarse values force distance ties
        X[10] = X[3]
        X[20] = X[3]
        y = (rng.random(n) < 0.5).astype(int)
        knn = KNNClassifier(k=5)
        knn.fit(X, y, seed=0)
        for q in range(n):
            x = X[q]
            dist = [(float(np.sum((X[i] - x) ** 2)), i) for i in range(n)]
            dist.sort()  # ties broken by lower training index
            votes = sum(y[i] for _, i in dist[:5])
            expected = 1 if 2 * votes >= 5 else 0
            label, score = knn.predict_one(x)
            assert label == expected
            assert score == pytest.approx(votes / 5)

    def test_featurewise_affine_rescaling_absorbed(self):
        rng = np.random.default_rng(33)
        X, labels = toy_features(rng, n=30)
        queries, _ = toy_features(rng, n=10)
        model_a = train("knn", "combined88", X, labels, seed=0)
        scale = rng.uniform(0.5, 20.0, N_FEATURES)
        offset = rng.uniform(-5.0, 5.0, N_FEATURES)
        model_b = train("knn", "combined88", X * scale + offset, labels, seed=0)
        for q in queries:
            la, _ = predict(model_a, q)
            lb, _ = predict(model_b, q * scale + offset)
            assert la is lb


def reference_grow_tree(X, y, rng, depth, max_depth, mtry, min_leaf):
    """`_grow_tree` with its split search as one loop over the drawn features, kept as the reference for the 2-D pass."""
    n = y.shape[0]
    n_fall = int(y.sum())
    if depth >= max_depth or n < 2 * min_leaf or n_fall == 0 or n_fall == n:
        return {"leaf": _majority(y)}

    n_feats = X.shape[1]
    feats = rng.choice(n_feats, size=min(mtry, n_feats), replace=False)
    best = None  # (weighted gini, feature, threshold); first feature wins ties
    for f in feats:
        xf = X[:, f]
        order = np.argsort(xf, kind="stable")
        xs = xf[order]
        ys = y[order]
        pos = np.arange(n - 1)
        valid = xs[pos] < xs[pos + 1]
        if min_leaf > 1:
            valid &= (pos + 1 >= min_leaf) & (n - pos - 1 >= min_leaf)
        if not valid.any():
            continue
        nl = (pos + 1).astype(float)
        nr = n - nl
        fl = np.cumsum(ys)[pos].astype(float)
        fr = n_fall - fl
        gini_l = 1.0 - (fl / nl) ** 2 - ((nl - fl) / nl) ** 2
        gini_r = 1.0 - (fr / nr) ** 2 - ((nr - fr) / nr) ** 2
        weighted = (nl * gini_l + nr * gini_r) / n
        weighted[~valid] = np.inf
        j = int(np.argmin(weighted))
        if best is None or weighted[j] < best[0]:
            best = (float(weighted[j]), int(f), 0.5 * (float(xs[j]) + float(xs[j + 1])))

    if best is None:
        return {"leaf": _majority(y)}
    _, f, thr = best
    mask = X[:, f] <= thr
    if not mask.any() or mask.all():  # midpoint rounded onto a sample value
        return {"leaf": _majority(y)}
    return {
        "f": f,
        "thr": thr,
        "l": reference_grow_tree(X[mask], y[mask], rng, depth + 1, max_depth, mtry, min_leaf),
        "r": reference_grow_tree(X[~mask], y[~mask], rng, depth + 1, max_depth, mtry, min_leaf),
    }


class TestRandomForest:
    @given(data=st.data(), n=st.integers(2, 40), d=st.integers(1, 6), integer=st.booleans(), seed=st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_tree_equals_the_per_feature_reference(self, data, n, d, integer, seed):
        """Tie-heavy columns: integers 0-2, or normals rounded to 0.1; every argument of the search is drawn."""
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, size=(n, d)).astype(float) if integer else np.round(rng.normal(size=(n, d)), 1)
        y = rng.integers(0, 2, size=n)
        mtry = data.draw(st.integers(1, d), label="mtry")
        min_leaf = data.draw(st.integers(1, 5), label="min_leaf")
        max_depth = data.draw(st.integers(0, 9), label="max_depth")
        args = (0, max_depth, mtry, min_leaf)
        want = reference_grow_tree(X, y, np.random.default_rng(seed), *args)
        assert _grow_tree(X, y, np.random.default_rng(seed), *args) == want

    def test_single_tree_memorizes_distinct_points(self):
        X = np.array([[float(i), float(i % 3)] for i in range(8)])
        y = np.array([0, 1, 1, 0, 1, 0, 0, 1])
        rf = RandomForestClassifier(n_trees=1, max_depth=64, mtry=2, min_leaf=1)
        # bypass the bootstrap so the tree sees every point exactly once
        from wristfall.ml import _grow_tree, _tree_predict

        rng = np.random.default_rng(0)
        tree = _grow_tree(X, y, rng, 0, 64, 2, 1)
        got = [_tree_predict(tree, x) for x in X]
        assert got == y.tolist()

    def test_fixed_seed_is_bit_reproducible(self):
        rng = np.random.default_rng(34)
        X, labels = toy_features(rng, n=40)
        queries, _ = toy_features(rng, n=12)
        m1 = train("rf", "combined88", X, labels, seed=99, n_trees=15)
        m2 = train("rf", "combined88", X, labels, seed=99, n_trees=15)
        assert m1.classifier.trees == m2.classifier.trees
        for q in queries:
            assert predict(m1, q) == predict(m2, q)

    def test_tree_vote_tie_resolves_to_fall(self):
        rf = RandomForestClassifier(n_trees=2)
        rf.trees = [{"leaf": 1}, {"leaf": 0}]
        label, score = rf.predict_one(np.zeros(3))
        assert label == 1
        assert score == 0.5

    def test_forest_separates_toy_data(self):
        rng = np.random.default_rng(35)
        X, labels = toy_features(rng, n=60)
        model = train("rf", "combined88", X, labels, seed=5, n_trees=25)
        correct = sum(predict(model, x)[0] is label for x, label in zip(X, labels))
        assert correct >= 58  # in-bag accuracy on a well-separated set


class TestLinearSVM:
    def test_separable_toy_set_reaches_full_training_accuracy(self):
        rng = np.random.default_rng(36)
        labels = [Label.FALL if i % 2 else Label.ADL for i in range(20)]
        X = np.zeros((20, N_FEATURES))
        for i, label in enumerate(labels):
            center = 2.0 if label is Label.FALL else -2.0
            X[i, :2] = center + rng.normal(0, 0.2, 2)
        model = train("svm", "combined88", X, labels, seed=1)
        assert all(predict(model, x)[0] is label for x, label in zip(X, labels))

    def test_zero_margin_resolves_to_fall(self):
        svm = LinearSVM()
        svm.w = np.zeros(4)
        svm.b = 0.0
        label, score = svm.predict_one(np.ones(4))
        assert label == 1
        assert score == 0.0

    def test_score_is_signed_margin(self):
        svm = LinearSVM()
        svm.w = np.array([1.0, -2.0])
        svm.b = 0.5
        label, score = svm.predict_one(np.array([2.0, 1.0]))
        assert score == pytest.approx(0.5)
        assert label == 1

    @pytest.mark.parametrize("x", [[1e5, -1e5], [1e5, 1e5]], ids=["inf", "nan"])
    def test_a_margin_that_is_not_finite_is_refused_without_a_warning(self, x):
        """Weights near 1e304 (a lam of 1e-307) times a large row overflow: the margin would be inf, or inf - inf."""
        svm = LinearSVM()
        svm.w = np.array([1e304, -1e304])
        svm.b = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert svm.predict_one(np.array([1.0, 2.0])) == (0, -1e304)
            with pytest.raises(
                NonFiniteSignal, match="^svm margin is not finite: the feature row is too large for the weights$"
            ):
                svm.predict_one(np.array(x))

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(37)
        X, labels = toy_features(rng, n=30)
        m1 = train("svm", "combined88", X, labels, seed=3)
        m2 = train("svm", "combined88", X, labels, seed=3)
        assert np.array_equal(m1.classifier.w, m2.classifier.w)
        assert m1.classifier.b == m2.classifier.b


class TestViews:
    def test_acc_view_ignores_gyroscope_features(self):
        rng = np.random.default_rng(38)
        model = train("knn", "acc44", *toy_features(rng, n=40), seed=0)
        for x in toy_features(rng, n=10)[0]:
            perturbed = x.copy()
            perturbed[44:] += rng.normal(0, 100.0, 44)
            assert predict(model, x) == predict(model, perturbed)

    def test_gyr_view_ignores_accelerometer_features(self):
        rng = np.random.default_rng(39)
        model = train("svm", "gyr44", *toy_features(rng, n=40), seed=0)
        for x in toy_features(rng, n=10)[0]:
            perturbed = x.copy()
            perturbed[:44] += rng.normal(0, 100.0, 44)
            assert predict(model, x) == predict(model, perturbed)

    def test_view_slices(self):
        assert FEATURE_VIEWS["acc44"] == slice(0, 44)
        assert FEATURE_VIEWS["gyr44"] == slice(44, 88)
        assert FEATURE_VIEWS["combined88"] == slice(0, 88)


class TestTrainErrors:
    def test_single_class_rejected(self):
        rng = np.random.default_rng(40)
        X, labels = toy_features(rng, n=20)
        adl = [i for i, label in enumerate(labels) if label is Label.ADL]
        with pytest.raises(DataError, match="^training set must contain both falls and ADLs$"):
            train("knn", "combined88", X[adl], [labels[i] for i in adl], seed=0)

    def test_incomplete_vector_rejected(self):
        rng = np.random.default_rng(41)
        X, labels = toy_features(rng, n=10)
        bad = np.vstack([X, np.full(N_FEATURES, np.nan)])
        with pytest.raises(DataError, match=r"^expected rows of 88 finite values, got shape \(11, 88\)$"):
            train("knn", "combined88", bad, [*labels, Label.FALL], seed=0)

    def test_unknown_kind_view_params(self):
        rng = np.random.default_rng(42)
        X, labels = toy_features(rng, n=10)
        with pytest.raises(DataError):
            train("boosting", "combined88", X, labels, seed=0)
        with pytest.raises(DataError):
            train("knn", "acc45", X, labels, seed=0)
        with pytest.raises(DataError):
            train("knn", "combined88", X, labels, seed=0, trees=5)

    @pytest.mark.parametrize("lam", [1e-320, 1e-308])
    def test_a_lam_too_small_for_finite_svm_weights_is_a_data_error_naming_it(self, lam):
        """Steps of 1/(lam*t) overflow the weights to inf or nan: refused by name, with no numpy warning."""
        X, labels = toy_features(np.random.default_rng(47), n=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"hyperparameter lam = {lam!r} is too small"):
                train("svm", "combined88", X, labels, seed=0, lam=lam)
            # the smallest power of ten that trains on these rows keeps finite weights
            assert np.isfinite(train("svm", "combined88", X, labels, seed=0, lam=1e-307).classifier.w).all()

    @pytest.mark.parametrize("kind,name,bound", [("svm", "epochs", MAX_EPOCHS), ("rf", "n_trees", MAX_TREES)])
    def test_work_is_bounded(self, kind, name, bound, tmp_path):
        """A classifier may have `bound` epochs or trees but no more, whether `train` fits it or a file holds it."""
        assert {"svm": LinearSVM, "rf": RandomForestClassifier}[kind](**{name: bound})
        rng = np.random.default_rng(46)
        X, labels = toy_features(rng, n=10)
        with pytest.raises(DataError, match=f"{name} must be an integer in \\[1, {bound}\\]"):
            train(kind, "combined88", X, labels, seed=0, **{name: bound + 1})
        path = tmp_path / "model.json"
        save_model(train(kind, "combined88", X, labels, seed=0, **{name: 1}), path)
        doc = json.loads(path.read_text())
        doc["params"][name] = bound + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=name):
            load_model(path)


class TestSerialization:
    @pytest.mark.parametrize("kind,params", [("knn", {}), ("rf", {"n_trees": 10}), ("svm", {})])
    def test_round_trip_preserves_predictions_bit_exactly(self, tmp_path, kind, params):
        rng = np.random.default_rng(43)
        X, labels = toy_features(rng, n=30)
        queries, _ = toy_features(rng, n=15)
        model = train(kind, "combined88", X, labels, seed=11, **params)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == model.kind
        assert loaded.feature_view == model.feature_view
        assert loaded.params == model.params
        for q in queries:
            assert predict(loaded, q) == predict(model, q)

    @pytest.mark.parametrize("kind", ["knn", "rf", "svm"])
    def test_save_of_load_gives_the_same_bytes(self, tmp_path, kind):
        rng = np.random.default_rng(45)
        model = train(kind, "gyr44", *toy_features(rng, n=30), seed=12, **({"n_trees": 10} if kind == "rf" else {}))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_versioned_header(self, tmp_path):
        rng = np.random.default_rng(44)
        model = train("svm", "acc44", *toy_features(rng, n=12), seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "wristfall-model"
        assert doc["version"] == 1

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(DataError):
            load_model(path)
