import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from specsiam import siamese
from specsiam.errors import DataError, NumericalError
from specsiam.pairing import PairBatch, PairExample
from specsiam.siamese import (
    NetConfig,
    base_forward,
    batch_loss,
    contrastive_loss,
    cosine_distance,
    extract_features,
    gradient,
    init_model,
    load_checkpoint,
    pair_accuracy,
    sample_dropout_masks,
    save_checkpoint,
    train,
)
from specsiam.signals import Dataset, EegRecording, Label
from specsiam.spectral import StftConfig, compute_images
from specsiam.pairing import build_pairs


# ---------------------------------------------------------------------------
# independent straight-line oracle

def scalar_forward(model, x):
    """Loop-by-loop forward pass, written independently of the model code."""
    cfg = model.config
    k = cfg.kernel_size

    def conv(inp, w, b):
        co, ci, _, _ = w.shape
        h, wd = inp.shape[1] - k + 1, inp.shape[2] - k + 1
        out = np.zeros((co, h, wd))
        for o in range(co):
            for i in range(h):
                for j in range(wd):
                    s = b[o]
                    for c in range(ci):
                        for p in range(k):
                            for q in range(k):
                                s += w[o, c, p, q] * inp[c, i + p, j + q]
                    out[o, i, j] = s
        return out

    def relu(a):
        return np.where(a > 0.0, a, 0.0)

    def pool2(a):
        co, h, wd = a.shape
        h2, w2 = h // 2, wd // 2
        out = np.zeros((co, h2, w2))
        for c in range(co):
            for i in range(h2):
                for j in range(w2):
                    out[c, i, j] = max(
                        a[c, 2 * i, 2 * j],
                        a[c, 2 * i, 2 * j + 1],
                        a[c, 2 * i + 1, 2 * j],
                        a[c, 2 * i + 1, 2 * j + 1],
                    )
        return out

    pool = cfg.pooling == "max2x2"
    a = relu(conv(x[None], model.conv1_w, model.conv1_b))
    if pool:
        a = pool2(a)
    a = relu(conv(a, model.conv2_w, model.conv2_b))
    if pool:
        a = pool2(a)
    z = model.fc_w @ a.reshape(-1) + model.fc_b
    e = np.exp(z - z.max())
    return e / e.sum()


def tiny_setup(seed: int, pooling: str = "none", n_pairs: int = 3):
    """Random tiny model plus a pair batch; weights bounded away from zero."""
    rng = np.random.default_rng(seed)
    if pooling == "max2x2":
        h = int(rng.integers(10, 13))
        w = int(rng.integers(10, 13))
    else:
        h = int(rng.integers(7, 10))
        w = int(rng.integers(7, 10))
    config = NetConfig(
        kernel_size=3,
        conv1_filters=int(rng.integers(1, 3)),
        conv2_filters=int(rng.integers(1, 3)),
        output_dim=int(rng.choice([2, 4])),
        l1_lambda=float(rng.choice([1e-3, 1e-2])),
        margin=float(rng.uniform(1.0, 2.0)),
        learning_rate=1e-4,
        dropout_p=0.5,
        epochs=1,
        pooling=pooling,
        seed=seed,
    )
    model = init_model(config, (h, w))
    for arr in model.params().values():
        arr[:] = rng.uniform(0.1, 0.6, arr.shape) * rng.choice([-1.0, 1.0], arr.shape)
    images = {}
    pairs = []
    for i in range(n_pairs):
        a, b = f"s{2 * i}", f"s{2 * i + 1}"
        images[(a, 0)] = rng.random((h, w))
        images[(b, 0)] = rng.random((h, w))
        pairs.append(PairExample(a, b, 0, int(rng.integers(0, 2))))
    batch = PairBatch(tuple(pairs))
    return model, batch, images


def finite_difference_check(model, batch, images, masks, h=1e-4, tol=1e-3):
    grads = gradient(model, batch, images, masks=masks)
    worst = 0.0
    for name, arr in model.params().items():
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = batch_loss(model, batch, images, masks=masks)
            arr[idx] = orig - h
            lm = batch_loss(model, batch, images, masks=masks)
            arr[idx] = orig
            fd = (lp - lm) / (2.0 * h)
            rel = abs(g[idx] - fd) / (abs(g[idx]) + 1e-8)
            worst = max(worst, rel)
    assert worst <= tol, f"gradient mismatch {worst:.2e} on {name}"
    return worst


# ---------------------------------------------------------------------------
# two-full-twin oracle: the training step before stage 1 was shared, which ran
# the whole base network once per twin on (B, H, W) stacks of pair members

def oracle_forward_base(model, x, masks):
    cfg = model.config
    pool = cfg.pooling == "max2x2"
    keep = 1.0 - cfg.dropout_p
    z1, conv1 = oracles._conv_forward(x[:, None, :, :], model.conv1_w, model.conv1_b)
    r1 = np.maximum(z1, 0.0)
    if pool:
        p1, pc1 = oracles._pool_forward(r1)
    else:
        p1, pc1 = r1, None
    a1 = p1 * masks[0] / keep if masks is not None else p1
    z2, conv2 = oracles._conv_forward(a1, model.conv2_w, model.conv2_b)
    r2 = np.maximum(z2, 0.0)
    if pool:
        p2, pc2 = oracles._pool_forward(r2)
    else:
        p2, pc2 = r2, None
    a2 = p2 * masks[1] / keep if masks is not None else p2
    flat = a2.reshape(a2.shape[0], -1)
    zf = flat @ model.fc_w.T + model.fc_b
    f = siamese._softmax_rows(zf)
    cache = (conv1, z1, pc1, a1.shape, conv2, z2, pc2, flat, f, masks)
    return f, cache


def oracle_backward_base(model, df, cache):
    cfg = model.config
    pool = cfg.pooling == "max2x2"
    keep = 1.0 - cfg.dropout_p
    conv1, z1, pc1, a1_shape, conv2, z2, pc2, flat, f, masks = cache
    dzf = f * (df - (f * df).sum(axis=1, keepdims=True))
    g_fc_w = dzf.T @ flat
    g_fc_b = dzf.sum(axis=0)
    h, w = z2.shape[2], z2.shape[3]
    da2 = (dzf @ model.fc_w).reshape(z2.shape[0], cfg.conv2_filters, *((h // 2, w // 2) if pool else (h, w)))
    dp2 = da2 * masks[1] / keep if masks is not None else da2
    dr2 = oracles._pool_backward(dp2, pc2) if pool else dp2
    dz2 = dr2 * (z2 > 0)
    g2w = oracles._conv_dw(conv2, dz2, model.conv2_w)
    g2b = dz2.sum(axis=(0, 2, 3))
    da1 = oracles._conv_dx(dz2, model.conv2_w, a1_shape)
    dp1 = da1 * masks[0] / keep if masks is not None else da1
    dr1 = oracles._pool_backward(dp1, pc1) if pool else dp1
    dz1 = dr1 * (z1 > 0)
    g1w = oracles._conv_dw(conv1, dz1, model.conv1_w)
    g1b = dz1.sum(axis=(0, 2, 3))
    return {"conv1_w": g1w, "conv1_b": g1b, "conv2_w": g2w, "conv2_b": g2b, "fc_w": g_fc_w, "fc_b": g_fc_b}


def oracle_loss_and_grads(model, xa, xb, y, masks):
    cfg = model.config
    masks_a, masks_b = (masks["a"], masks["b"]) if masks is not None else (None, None)
    fa, cache_a = oracle_forward_base(model, xa, masks_a)
    fb, cache_b = oracle_forward_base(model, xb, masks_b)
    d = siamese._pair_distances(fa, fb)
    gap = np.maximum(0.0, cfg.margin - d)
    losses = y * d * d + (1.0 - y) * gap * gap
    loss = float(losses.mean()) + siamese._l1_penalty(model)
    n = d.size
    dd = (2.0 * y * d - 2.0 * (1.0 - y) * gap) / n
    na = np.linalg.norm(fa, axis=1)
    nb = np.linalg.norm(fb, axis=1)
    cos = 1.0 - d
    dfa = dd[:, None] * (cos[:, None] * fa / (na * na)[:, None] - fb / (na * nb)[:, None])
    dfb = dd[:, None] * (cos[:, None] * fb / (nb * nb)[:, None] - fa / (na * nb)[:, None])
    grads_a = oracle_backward_base(model, dfa, cache_a)
    grads_b = oracle_backward_base(model, dfb, cache_b)
    grads = {k: grads_a[k] + grads_b[k] for k in grads_a}
    lam = cfg.l1_lambda
    if lam != 0.0:
        for name in ("conv1_w", "conv2_w", "fc_w"):
            grads[name] = grads[name] + lam * np.sign(model.params()[name])
    return loss, grads


def repeated_image_batch(model, n_subjects, n_channels, seed):
    """Every same-channel pair of n_subjects random subjects: each image recurs
    in n_subjects - 1 pairs, under twin a in some and twin b in others."""
    rng = np.random.default_rng(seed)
    subjects = [f"s{i}" for i in range(n_subjects)]
    images = {(s, ch): rng.random(model.input_shape) for s in subjects for ch in range(n_channels)}
    pairs = tuple(
        PairExample(a, b, ch, int(rng.integers(0, 2)))
        for i, a in enumerate(subjects) for b in subjects[i + 1:] for ch in range(n_channels)
    )
    return PairBatch(pairs), images


# ---------------------------------------------------------------------------

class TestSharedStageMatchesTwoTwinOracle:
    """The step that runs stage 1 once per distinct image equals the step that
    ran the whole network per twin, on batches where images repeat."""

    @pytest.mark.parametrize("dropout", [True, False])
    @pytest.mark.parametrize("pooling", ["none", "max2x2"])
    @pytest.mark.parametrize("k", [3, 12])
    def test_loss_and_every_gradient(self, k, pooling, dropout):
        shape = {(3, "none"): (9, 11), (3, "max2x2"): (13, 12), (12, "none"): (26, 25), (12, "max2x2"): (39, 38)}
        config = NetConfig(kernel_size=k, conv1_filters=2, conv2_filters=3, output_dim=4,
                           l1_lambda=1e-3, margin=1.2, dropout_p=0.4, pooling=pooling, seed=k)
        model = init_model(config, shape[(k, pooling)])
        # k=3 runs both convolutions directly, k=12 both through the FFT
        assert siamese._is_direct(model.conv1_w) == siamese._is_direct(model.conv2_w) == (k == 3)
        batch, images = repeated_image_batch(model, n_subjects=5, n_channels=2, seed=k + len(pooling))
        masks = sample_dropout_masks(model, batch.n_pairs) if dropout else None
        x, rows_a, rows_b, y = siamese._batch_arrays(batch, images)
        assert x.shape[0] == 10 and rows_a.size == 20
        xa = np.stack([images[(p.subject_a, p.channel_index)] for p in batch.pairs])
        xb = np.stack([images[(p.subject_b, p.channel_index)] for p in batch.pairs])
        np.testing.assert_array_equal(x[rows_a], xa)
        np.testing.assert_array_equal(x[rows_b], xb)
        loss, grads = siamese._loss_and_grads(model, x, rows_a, rows_b, y, masks)
        ref_loss, ref_grads = oracle_loss_and_grads(model, xa, xb, y, masks)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        assert list(grads) == list(ref_grads)
        for name in ref_grads:
            # the atol floor only spares entries that cancel to near zero
            atol = 1e-15 * np.abs(ref_grads[name]).max()
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-12, atol=atol, err_msg=name)

    def test_missing_image_names_the_member(self):
        model, batch, images = tiny_setup(61, n_pairs=3)
        del images[("s3", 0)]
        with pytest.raises(DataError, match=r"pair member \('s3', 0\)"):
            batch_loss(model, batch, images)


class TestForward:
    def test_zero_model_uniform_softmax(self):
        config = NetConfig(kernel_size=3, conv1_filters=1, conv2_filters=1,
                           output_dim=4, pooling="none", seed=0)
        model = init_model(config, (8, 8))
        for arr in model.params().values():
            arr[:] = 0.0
        out = base_forward(model, np.zeros((8, 8)))
        np.testing.assert_array_equal(out, np.full(4, 0.25))

    def test_eval_mode_deterministic(self):
        model, _, images = tiny_setup(1)
        image = images[("s0", 0)]
        a = base_forward(model, image)
        b = base_forward(model, image)
        np.testing.assert_array_equal(a, b)

    def test_train_mode_draws_dropout(self):
        model, _, images = tiny_setup(2)
        image = images[("s0", 0)]
        eval_out = base_forward(model, image)
        train_out = base_forward(model, image, train_mode=True)
        assert not np.allclose(eval_out, train_out)

    @pytest.mark.parametrize("pooling", ["none", "max2x2"])
    def test_matches_scalar_oracle(self, pooling):
        model, _, images = tiny_setup(3 if pooling == "none" else 4, pooling=pooling)
        for image in images.values():
            got = base_forward(model, image)
            expected = scalar_forward(model, image)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        model, _, _ = tiny_setup(5)
        with pytest.raises(DataError, match="shape"):
            base_forward(model, np.zeros((50, 50)))

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_activation_reported(self):
        model, _, images = tiny_setup(6)
        model.fc_w[:] = np.inf
        with pytest.raises(NumericalError, match="non-finite"):
            base_forward(model, images[("s0", 0)])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_softmax_simplex_property(self, seed):
        model, _, images = tiny_setup(7)
        rng = np.random.default_rng(seed)
        image = rng.uniform(-3.0, 3.0, model.input_shape)
        out = base_forward(model, image)
        assert (out >= 0.0).all()
        assert abs(out.sum() - 1.0) <= 1e-9


class TestDistanceAndLoss:
    def test_identical_vectors_zero_distance(self):
        f = np.array([0.2, 0.3, 0.5])
        assert cosine_distance(f, f) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_one_hots(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_hand_value(self):
        got = cosine_distance([0.5, 0.5], [1.0, 0.0])
        assert got == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f1 = rng.random(5) + 1e-3
            f2 = rng.random(5) + 1e-3
            assert cosine_distance(f1, f2) == cosine_distance(f2, f1)

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError, match="zero vector"):
            cosine_distance([0.0, 0.0], [1.0, 0.0])

    def test_contrastive_trivial_values(self):
        assert contrastive_loss(1, 0.0, 1.0) == 0.0
        assert contrastive_loss(0, 0.0, 1.0) == 1.0
        assert contrastive_loss(1, 0.5, 1.0) == 0.25

    def test_margin_never_clamps_for_simplex_distances(self):
        # d <= 1 and m >= 1 keeps the hinge active for non-neighbors
        assert contrastive_loss(0, 1.0, 1.0) == 0.0
        assert contrastive_loss(0, 0.9, 1.0) == pytest.approx(0.01)

    @given(
        d=st.floats(0.001, 0.999),
        m1=st.floats(1.0, 2.0),
        m2=st.floats(1.0, 2.0),
    )
    @example(d=0.7871313779373493, m1=2.0, m2=1.9999999999999998)  # one ulp apart: equal losses
    @settings(max_examples=100, deadline=None)
    def test_margin_monotonicity(self, d, m1, m2):
        lo, hi = sorted((m1, m2))
        assert contrastive_loss(0, d, hi) >= contrastive_loss(0, d, lo)
        if hi - lo > 1e-9:  # margins closer than that may round to the same loss
            assert contrastive_loss(0, d, hi) > contrastive_loss(0, d, lo)


class TestBatchLoss:
    def test_identical_neighbors_leave_only_l1(self):
        model, _, _ = tiny_setup(8)
        rng = np.random.default_rng(0)
        image = rng.random(model.input_shape)
        images = {("a", 0): image, ("b", 0): image}
        batch = PairBatch((PairExample("a", "b", 0, 1),))
        expected_l1 = model.config.l1_lambda * (
            np.abs(model.conv1_w).sum() + np.abs(model.conv2_w).sum() + np.abs(model.fc_w).sum()
        )
        assert batch_loss(model, batch, images) == pytest.approx(expected_l1, rel=1e-12)

    def test_single_pair_reduces_to_contrastive(self):
        model, batch, images = tiny_setup(9, n_pairs=1)
        object.__setattr__(model, "config", NetConfig(
            kernel_size=3,
            conv1_filters=model.config.conv1_filters,
            conv2_filters=model.config.conv2_filters,
            output_dim=model.config.output_dim,
            l1_lambda=0.0,
            margin=model.config.margin,
            pooling="none",
            seed=0,
        ))
        p = batch.pairs[0]
        fa = base_forward(model, images[(p.subject_a, 0)])
        fb = base_forward(model, images[(p.subject_b, 0)])
        expected = contrastive_loss(p.y, cosine_distance(fa, fb), model.config.margin)
        assert batch_loss(model, batch, images) == pytest.approx(expected, rel=1e-12)

    def test_matches_scalar_oracle_loss(self):
        model, batch, images = tiny_setup(10)
        total = 0.0
        for p in batch.pairs:
            fa = scalar_forward(model, images[(p.subject_a, 0)])
            fb = scalar_forward(model, images[(p.subject_b, 0)])
            d = 1.0 - float(fa @ fb) / (np.linalg.norm(fa) * np.linalg.norm(fb))
            total += p.y * d * d + (1 - p.y) * max(0.0, model.config.margin - d) ** 2
        expected = total / len(batch.pairs) + model.config.l1_lambda * (
            np.abs(model.conv1_w).sum() + np.abs(model.conv2_w).sum() + np.abs(model.fc_w).sum()
        )
        assert batch_loss(model, batch, images) == pytest.approx(expected, rel=1e-12)


class TestGradient:
    @pytest.mark.parametrize("seed,pooling", [(21, "none"), (22, "max2x2"), (23, "none")])
    def test_finite_difference(self, seed, pooling):
        model, batch, images = tiny_setup(seed, pooling=pooling)
        masks = sample_dropout_masks(model, batch.n_pairs)
        finite_difference_check(model, batch, images, masks)

    def test_finite_difference_eval_mode(self):
        model, batch, images = tiny_setup(24)
        finite_difference_check(model, batch, images, masks=None)

    def test_l1_subgradient_and_flat_biases(self):
        model, _, _ = tiny_setup(25)
        rng = np.random.default_rng(1)
        image = rng.random(model.input_shape)
        images = {("a", 0): image, ("b", 0): image}
        batch = PairBatch((PairExample("a", "b", 0, 1),))
        lam = model.config.l1_lambda
        grads = gradient(model, batch, images)
        # identical neighbors sit at d=0, the loss minimum: only L1 remains
        np.testing.assert_allclose(grads["conv1_w"], lam * np.sign(model.conv1_w), atol=1e-12)
        np.testing.assert_allclose(grads["conv2_w"], lam * np.sign(model.conv2_w), atol=1e-12)
        np.testing.assert_allclose(grads["fc_w"], lam * np.sign(model.fc_w), atol=1e-12)
        np.testing.assert_allclose(grads["fc_b"], 0.0, atol=1e-12)
        np.testing.assert_allclose(grads["conv1_b"], 0.0, atol=1e-12)
        np.testing.assert_allclose(grads["conv2_b"], 0.0, atol=1e-12)


def separable_training_fixture(seed=0, n_channels=1):
    rng = np.random.default_rng(seed)
    h = w = 9
    images = {}
    recs = []
    names = tuple(f"c{i}" for i in range(n_channels))
    for i in range(4):
        sid = f"case{i}"
        recs.append(EegRecording(sid, Label.CASE, 8.0, names, np.zeros((n_channels, 16))))
        for ch in range(n_channels):
            img = np.zeros((h, w))
            img[:4] = 0.9 + 0.1 * rng.random((4, w))
            images[(sid, ch)] = img
    for i in range(4):
        sid = f"ctrl{i}"
        recs.append(EegRecording(sid, Label.CONTROL, 8.0, names, np.zeros((n_channels, 16))))
        for ch in range(n_channels):
            img = np.zeros((h, w))
            img[5:] = 0.9 + 0.1 * rng.random((4, w))
            images[(sid, ch)] = img
    dataset = Dataset(tuple(recs), names)
    pairs = build_pairs(dataset, images)
    return dataset, pairs, images


class TestTrain:
    def make_config(self, **kw):
        base = dict(
            kernel_size=3, conv1_filters=2, conv2_filters=2, output_dim=2,
            l1_lambda=1e-3, margin=1.0, learning_rate=1e-3, epochs=5,
            pooling="none", seed=3,
        )
        base.update(kw)
        return NetConfig(**base)

    def test_zero_learning_rate_keeps_parameters(self):
        _, pairs, images = separable_training_fixture()
        model = init_model(self.make_config(learning_rate=0.0, epochs=2), (9, 9))
        before = {k: v.copy() for k, v in model.params().items()}
        model, _ = train(model, pairs, images)
        for name, arr in model.params().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_same_seed_identical_parameters(self):
        _, pairs, images = separable_training_fixture()
        runs = []
        for _ in range(2):
            model = init_model(self.make_config(epochs=3), (9, 9))
            model, trace = train(model, pairs, images)
            runs.append(({k: v.copy() for k, v in model.params().items()}, trace))
        for name in runs[0][0]:
            np.testing.assert_array_equal(runs[0][0][name], runs[1][0][name])
        assert runs[0][1] == runs[1][1]

    def test_loss_improves_on_separable_fixture(self):
        _, pairs, images = separable_training_fixture()
        model = init_model(self.make_config(epochs=20), (9, 9))
        model, trace = train(model, pairs, images)
        assert len(trace) == 20
        assert trace[-1] < trace[0]

    def test_non_finite_loss_aborts_with_location(self):
        _, pairs, images = separable_training_fixture()
        model = init_model(self.make_config(epochs=1), (9, 9))
        model.fc_w[:] = np.nan
        with pytest.raises(NumericalError, match="epoch 0, batch 0"):
            train(model, pairs, images)

    def test_empty_pairs_rejected(self):
        model = init_model(self.make_config(), (9, 9))
        with pytest.raises(DataError):
            train(model, [], {})

    def test_larger_l1_no_fewer_near_zero_weights(self):
        _, pairs, images = separable_training_fixture()
        counts = {}
        for lam in (1e-3, 1e-1):
            model = init_model(self.make_config(l1_lambda=lam, epochs=40, learning_rate=1e-3), (9, 9))
            model, _ = train(model, pairs, images)
            weights = np.concatenate([model.conv1_w.ravel(), model.conv2_w.ravel(), model.fc_w.ravel()])
            counts[lam] = int((np.abs(weights) < 1e-4).sum())
        assert counts[1e-1] >= counts[1e-3]


class TestFeaturesAndAccuracy:
    def test_feature_rows_on_simplex_and_labels(self):
        dataset, pairs, images = separable_training_fixture(n_channels=2)
        model = init_model(NetConfig(kernel_size=3, conv1_filters=2, conv2_filters=2,
                                     output_dim=4, pooling="none", seed=1), (9, 9))
        table = extract_features(model, dataset, images)
        assert table.n_rows == dataset.n_subjects * dataset.n_channels
        np.testing.assert_allclose(table.x.sum(axis=1), 1.0, atol=1e-9)
        labels = dataset.labels()
        for sid, y in zip(table.subject_ids, table.y):
            assert (labels[sid] is Label.CASE) == (y == 1)

    def test_identical_channels_identical_features(self):
        model = init_model(NetConfig(kernel_size=3, conv1_filters=1, conv2_filters=1,
                                     output_dim=2, pooling="none", seed=5), (8, 8))
        names = ("c0",)
        shared = np.random.default_rng(3).random((8, 8))
        recs = (
            EegRecording("x", Label.CASE, 8.0, names, np.zeros((1, 16))),
            EegRecording("y", Label.CONTROL, 8.0, names, np.zeros((1, 16))),
        )
        dataset = Dataset(recs, names)
        images = {("x", 0): shared, ("y", 0): shared}
        table = extract_features(model, dataset, images)
        np.testing.assert_array_equal(table.x[0], table.x[1])

    def test_image_shape_other_than_model_input_is_data_error(self):
        model = init_model(NetConfig(kernel_size=3, conv1_filters=1, conv2_filters=1,
                                     output_dim=2, pooling="none", seed=5), (8, 8))
        names = ("c0",)
        recs = (EegRecording("x", Label.CASE, 8.0, names, np.zeros((1, 16))),)
        images = {("x", 0): np.zeros((8, 9))}
        with pytest.raises(DataError, match=r"subject 'x'.*\(8, 9\).*\(8, 8\)"):
            extract_features(model, Dataset(recs, names), images)

    def test_trained_model_separates_classes(self):
        dataset, pairs, images = separable_training_fixture()
        model = init_model(NetConfig(kernel_size=3, conv1_filters=4, conv2_filters=4,
                                     output_dim=4, l1_lambda=1e-3, margin=1.0,
                                     learning_rate=3e-3, epochs=60, pooling="none", seed=2), (9, 9))
        model, _ = train(model, pairs, images)
        table = extract_features(model, dataset, images)
        within, between = [], []
        for i in range(table.n_rows):
            for j in range(i + 1, table.n_rows):
                d = cosine_distance(table.x[i], table.x[j])
                (within if table.y[i] == table.y[j] else between).append(d)
        # wide margin so last-bit numeric changes cannot flip the outcome
        assert np.mean(between) - np.mean(within) > 0.5

    def test_pair_accuracy_trivial_cases(self):
        model, _, _ = tiny_setup(30)
        rng = np.random.default_rng(4)
        image = rng.random(model.input_shape)
        images = {("a", 0): image, ("b", 0): image}
        same = [PairExample("a", "b", 0, 1)]
        diff = [PairExample("a", "b", 0, 0)]
        assert pair_accuracy(model, same, images) == 1.0
        assert pair_accuracy(model, diff, images) == 0.0

    def test_pair_accuracy_label_frequency_with_constant_distance(self):
        model, _, _ = tiny_setup(31)
        rng = np.random.default_rng(5)
        image = rng.random(model.input_shape)
        images = {}
        pairs = []
        labels = [1, 1, 1, 1, 1, 1, 0, 0, 0, 0]
        for i, y in enumerate(labels):
            a, b = f"p{i}a", f"p{i}b"
            images[(a, 0)] = image
            images[(b, 0)] = image  # d = 0 for every pair
            pairs.append(PairExample(a, b, 0, y))
        assert pair_accuracy(model, pairs, images) == pytest.approx(0.6)

    def many_image_pairs(self, model, n_subjects=300, seed=6):
        """Two channels of n_subjects random subjects (more than one 512-image
        chunk) and pairs in which every image recurs."""
        rng = np.random.default_rng(seed)
        images = {(f"s{i}", ch): rng.random(model.input_shape) for i in range(n_subjects) for ch in (0, 1)}
        pairs = [
            PairExample(f"s{i}", f"s{(i + step) % n_subjects}", ch, int(rng.integers(0, 2)))
            for step in (1, 7) for i in range(n_subjects) for ch in (0, 1)
        ]
        return pairs, images

    def test_pair_accuracy_matches_per_pair_oracle(self):
        model, _, _ = tiny_setup(33)
        pairs, images = self.many_image_pairs(model)
        assert len({(p.subject_a, p.channel_index) for p in pairs}) > 512
        d = np.array([
            cosine_distance(base_forward(model, images[(p.subject_a, p.channel_index)]),
                            base_forward(model, images[(p.subject_b, p.channel_index)]))
            for p in pairs
        ])
        spread = np.sort(d)
        for q in (0.25, 0.5, 0.75):  # tau halfway between two neighbouring distances
            i = int(q * len(spread))
            tau = float(spread[i - 1] + spread[i]) / 2.0
            expected = sum(int((di < tau) == (p.y == 1)) for di, p in zip(d, pairs)) / len(pairs)
            assert pair_accuracy(model, pairs, images, tau=tau) == expected

    def test_pair_accuracy_missing_image_names_the_member(self):
        model, _, _ = tiny_setup(34)
        pairs, images = self.many_image_pairs(model)
        del images[("s299", 1)]
        with pytest.raises(DataError, match=r"pair member \('s299', 1\)"):
            pair_accuracy(model, pairs, images)

    def test_pair_accuracy_validation(self):
        model, batch, images = tiny_setup(32)
        with pytest.raises(DataError):
            pair_accuracy(model, list(batch.pairs), images, tau=1.5)
        with pytest.raises(DataError):
            pair_accuracy(model, [], images)


# (mutation of a saved checkpoint payload, field the error must name)
CHECKPOINT_DEFECTS = [
    (lambda p: p["config"].update(stride=2), "stride"),
    (lambda p: p["config"].pop("margin"), "margin"),
    (lambda p: p["config"].update(kernel_size="5"), "kernel_size"),
    (lambda p: p["params"].pop("fc_w"), "fc_w"),
    (lambda p: p["params"].update(conv2_w=[[1.0]]), "conv2_w"),
    (lambda p: p["params"].update(conv1_b=[[1.0], [2.0, 3.0]]), "conv1_b"),
    (lambda p: p["params"].update(extra=[1.0]), "extra"),
    (lambda p: p.pop("rng_state"), "rng_state"),
    (lambda p: p["rng_state"].pop("state"), "rng_state"),
    (lambda p: p.update(input_shape=[8]), "input_shape"),
    (lambda p: p.update(params=[]), "params"),
    (lambda p: p.pop("stft"), "stft"),
    (lambda p: p["stft"].update(window_fn="blackman"), "window_fn"),
    (lambda p: p["stft"].update(hop_s="1"), "hop_s"),
    (lambda p: p["stft"].pop("upper_value"), "upper_value"),
    (lambda p: p["config"].update(distance="cosine"), "distance"),
]

STFT = StftConfig(window_s=1.5, hop_s=0.5, upper_value=120.0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model, batch, images = tiny_setup(40)
        path = tmp_path / "model.json"
        save_checkpoint(model, STFT, path)
        loaded, stft = load_checkpoint(path)
        assert stft == STFT
        assert json.loads(path.read_text())["version"] == 2
        assert loaded.config == model.config
        assert loaded.input_shape == model.input_shape
        for name in model.params():
            np.testing.assert_array_equal(loaded.params()[name], model.params()[name])
        # rng state continues identically
        np.testing.assert_array_equal(model.rng.random(5), loaded.rng.random(5))

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{}")
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("defect, field", CHECKPOINT_DEFECTS,
                             ids=[field for _, field in CHECKPOINT_DEFECTS])
    def test_defects_name_file_and_field(self, tmp_path, defect, field):
        model, _, _ = tiny_setup(41)
        path = tmp_path / "model.json"
        save_checkpoint(model, STFT, path)
        payload = json.loads(path.read_text())
        defect(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=field) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("version", [0, 1, 3, "2", None])
    def test_unknown_version_is_rejected(self, tmp_path, version):
        model, _, _ = tiny_setup(44)
        path = tmp_path / "model.json"
        save_checkpoint(model, STFT, path)
        payload = json.loads(path.read_text())
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="version") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kernel_size": 2},
            {"kernel_size": 13},
            {"output_dim": 3},
            {"dropout_p": 1.0},
            {"pooling": "avg"},
            {"epochs": 0},
            {"margin": 0.0},
            {"conv1_filters": 0},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(DataError):
            NetConfig(**kwargs)

    def test_collapsed_shapes_rejected(self):
        with pytest.raises(DataError, match="collapses"):
            init_model(NetConfig(kernel_size=5, pooling="max2x2"), (10, 10))


def test_pinned_eight_by_eight_single_filter_oracle():
    # one filter per layer on an 8x8 image, two outputs
    config = NetConfig(kernel_size=3, conv1_filters=1, conv2_filters=1,
                       output_dim=2, l1_lambda=0.0, pooling="none", seed=17)
    model = init_model(config, (8, 8))
    image = np.random.default_rng(99).random((8, 8))
    np.testing.assert_allclose(
        base_forward(model, image), scalar_forward(model, image), rtol=1e-12, atol=1e-14
    )
