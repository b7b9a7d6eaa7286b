import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dicesm
from dicesm.core import LabelField, ProbField, ShapeMismatchError
from dicesm.losses import LossSpec, ReductionSpec, pairwise
from dicesm.softlabels import SoftLabelSpec, uniform_average
from dicesm.training import (
    CheckpointMismatchError,
    Conv2Net,
    KdSpec,
    ModelSpec,
    PerPixelLogistic,
    RaterNoise,
    SynthSpec,
    TrainSpec,
    build_model,
    distill,
    evaluate,
    forward,
    generate_synthetic,
    generate_with_clean,
    load_model,
    mean_pairwise_rater_dice,
    poly_lr,
    save_model,
    subset,
    train,
)
from dicesm.training import loop
from dicesm.training.loop import References, build_targets, run_sgd

from conftest import ece_float_sums, edge_confidences


def tiny_dataset(n=6, hw=16, k=3, noise=RaterNoise((0, 1), 0.1), seed=5):
    return generate_synthetic(SynthSpec(n_images=n, height=hw, width=hw,
                                        k_raters=k, noise=noise, seed=seed))


class TestSynth:
    def test_deterministic(self):
        a = tiny_dataset(seed=9)
        b = tiny_dataset(seed=9)
        for ia, ib in zip(a.images, b.images):
            np.testing.assert_array_equal(ia.image, ib.image)
            np.testing.assert_array_equal(ia.raters.masks, ib.raters.masks)

    def test_zero_noise_raters_equal_clean(self):
        ds = tiny_dataset(noise=RaterNoise((0, 0), 0.0))
        for im, clean in generate_with_clean(ds.spec):
            for m in im.raters.masks:
                np.testing.assert_array_equal(m[0], clean)
            assert uniform_average(im.raters).is_hard

    @pytest.mark.parametrize("n_classes", [1, 2])
    def test_generate_with_clean_yields_the_dataset(self, n_classes):
        spec = SynthSpec(n_images=3, height=16, width=16, n_classes=n_classes,
                         k_raters=3, noise=RaterNoise((0, 1), 0.2), seed=4)
        pairs = list(generate_with_clean(spec))
        ds = generate_synthetic(spec)
        assert len(pairs) == len(ds)
        for (im, clean), ref in zip(pairs, ds.images):
            np.testing.assert_array_equal(im.image, ref.image)
            np.testing.assert_array_equal(im.raters.masks, ref.raters.masks)
            assert clean.dtype == bool and clean.shape == ref.raters.dims[1:]

    def test_noise_confined_to_boundary_band(self):
        radius = 2
        ds = tiny_dataset(n=4, hw=32, noise=RaterNoise((0, radius), 0.3))
        from scipy.ndimage import binary_dilation, binary_erosion

        for im, clean in generate_with_clean(ds.spec):
            # rater masks may differ from clean only within radius+1 of the edge
            outer = binary_dilation(clean, np.ones((3, 3), bool), iterations=radius + 1)
            inner = binary_erosion(clean, np.ones((3, 3), bool), iterations=radius + 1)
            allowed = outer & ~inner
            for m in im.raters.masks:
                assert not np.any((m[0] != clean) & ~allowed)

    def test_flip_prob_lowers_agreement(self):
        dices = []
        for p in (0.0, 0.1, 0.3):
            ds = generate_synthetic(SynthSpec(n_images=100, height=32, width=32,
                                              k_raters=3, noise=RaterNoise((0, 1), p),
                                              seed=11))
            dices.append(mean_pairwise_rater_dice(ds))
        assert dices[0] > dices[1] > dices[2]

    @pytest.mark.parametrize("n_classes", [1, 2])
    def test_mean_pairwise_rater_dice_matches_hard_dice(self, n_classes):
        """Scoring the masks gives the bits of mask_dice on the 1s of the
        rater fields."""
        from dicesm.metrics import foreground_class, mask_dice

        for seed in (0, 3, 7):
            ds = generate_synthetic(SynthSpec(n_images=4, height=16, width=16,
                                              n_classes=n_classes, k_raters=4,
                                              noise=RaterNoise((0, 1), 0.2), seed=seed))
            c = foreground_class(n_classes)
            scores = [mask_dice(rs[i].array[c] == 1.0, rs[j].array[c] == 1.0)
                      for rs in ([LabelField.from_array(m) for m in im.raters.masks]
                                 for im in ds.images)
                      for i in range(len(rs)) for j in range(i + 1, len(rs))]
            assert mean_pairwise_rater_dice(ds) == float(np.mean(scores))

    def test_two_class_fields_validate(self):
        from dicesm.core import validate

        for im, _ in generate_with_clean(SynthSpec(n_images=2, height=12, width=12,
                                                  n_classes=2, k_raters=2, seed=0)):
            for m in im.raters.masks:
                validate(LabelField.from_array(m))


class TestModels:
    def test_zero_weight_logistic_outputs_half(self):
        m = PerPixelLogistic(ModelSpec(feature_set="intensity"))
        probs = forward(m, np.zeros((8, 8)))
        np.testing.assert_array_equal(probs.array, 0.5)

    def test_forward_deterministic(self):
        spec = ModelSpec(kind="conv2", channels=4, seed=3)
        m = build_model(spec)
        img = np.random.default_rng(0).random((10, 10))
        a = forward(m, img).array
        b = forward(m, img).array
        np.testing.assert_array_equal(a, b)

    def test_softmax_head_on_simplex(self):
        from dicesm.core import validate

        m = build_model(ModelSpec(kind="conv2", channels=3, n_classes=2, seed=1))
        probs = forward(m, np.random.default_rng(1).random((9, 9)))
        validate(probs)

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_softmax_in_place_equals_its_closed_form(self, c):
        from dicesm.training.models import _softmax

        rng = np.random.default_rng(c)
        z = rng.normal(0.0, 30.0, (c, 7, 5))
        z[:, 0, 0] = 0.0  # a pixel of equal logits
        z[:, 1, :2] = 700.0  # exp of the raw logit would overflow
        z[-1, 2, 0] = -800.0  # exp underflows to 0
        kept = z.copy()
        m = z.max(axis=0, keepdims=True)
        e = np.exp(z - m)
        expected = e / e.sum(axis=0, keepdims=True)
        got = _softmax(z)
        assert np.array_equal(got, expected)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(z, kept)

    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="per_pixel_logistic", feature_set="box_means", radii=(1, 2)),
        ModelSpec(kind="conv2", channels=3, seed=7),
        ModelSpec(kind="conv2", channels=3, n_classes=2, seed=7),
    ])
    def test_parameter_gradients_match_finite_differences(self, spec, rng):
        from dicesm.losses import compound

        model = build_model(spec)
        if spec.kind == "per_pixel_logistic":
            model.params["w"] = rng.normal(0, 0.5, model.params["w"].shape)
        img = rng.random((8, 8))
        if spec.n_classes == 1:
            target = LabelField.from_array(
                (rng.random((1, 8, 8)) < 0.5).astype(float))
        else:
            fg = (rng.random((8, 8)) < 0.5).astype(float)
            target = LabelField.from_array(np.stack([1 - fg, fg]))

        def total_loss():
            return compound(forward(model, img), target)

        pair = total_loss()
        _, cache = model.forward(model.prepare(img))
        grads = model.backward(cache, pair.grad.as_array())

        h = 1e-6
        for name in model.params:
            flat = model.params[name].reshape(-1)
            probe = rng.choice(flat.size, size=min(5, flat.size), replace=False)
            for j in probe:
                orig = flat[j]
                flat[j] = orig + h
                fp = total_loss().value
                flat[j] = orig - h
                fm = total_loss().value
                flat[j] = orig
                fd = (fp - fm) / (2 * h)
                an = grads[name].reshape(-1)[j]
                assert abs(fd - an) / max(abs(fd), abs(an), 1e-6) < 1e-4

    def test_radii_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="radii"):
            ModelSpec(radii=(1, -1))
        m = build_model(ModelSpec(radii=(0, 2)))
        assert forward(m, np.zeros((6, 6))).dims == (1, 6, 6)

    def test_save_load_round_trip(self, tmp_path):
        spec = ModelSpec(kind="conv2", channels=3, seed=2)
        m = build_model(spec)
        save_model(m, tmp_path / "ckpt")
        back = load_model(tmp_path / "ckpt")
        assert back.spec == spec
        img = np.random.default_rng(2).random((8, 8))
        # weights round through f32, so outputs agree to f32 precision
        np.testing.assert_allclose(forward(back, img).array,
                                   forward(m, img).array, atol=1e-6)

    def test_checkpoint_mismatch(self, tmp_path):
        save_model(build_model(ModelSpec()), tmp_path / "ckpt")
        manifest = (tmp_path / "ckpt" / "manifest.json")
        manifest.write_text(manifest.read_text().replace('"box_means"', '"bogus"'))
        with pytest.raises(CheckpointMismatchError):
            load_model(tmp_path / "ckpt")
        with pytest.raises(CheckpointMismatchError):
            load_model(tmp_path / "nowhere")


class TestSchedule:
    def test_poly_formula(self):
        assert poly_lr(0.01, 0, 100, 0.9) == 0.01
        assert poly_lr(0.01, 50, 100, 0.9) == pytest.approx(0.01 * 0.5 ** 0.9, abs=1e-15)
        assert poly_lr(0.01, 100, 100, 0.9) == 0.0

    def test_strictly_decreasing(self):
        vals = [poly_lr(0.01, t, 50, 0.9) for t in range(50)]
        assert np.all(np.diff(vals) < 0)


class TestTrainLoop:
    @pytest.mark.parametrize("batch_mode", ["per_image_then_mean", "pooled"])
    def test_step_arrays_die_with_their_step(self, monkeypatch, batch_mode):
        """Every probability array and loss gradient of a step is freed
        before the parameter update and before any evaluation."""
        import weakref

        ds = tiny_dataset(n=6)
        model = build_model(ModelSpec(feature_set="intensity"))
        live = []
        forward, backward = model.forward, model.backward

        def traced_forward(x):
            probs, cache = forward(x)
            live.append(weakref.ref(probs))
            return probs, cache

        def traced_backward(cache, g):
            live.append(weakref.ref(g))
            return backward(cache, g)

        checked = []

        def all_dead(fn):
            def wrapper(*args):
                assert all(r() is None for r in live)
                checked.append(len(live))
                live.clear()
                return fn(*args)
            return wrapper

        monkeypatch.setattr(model, "forward", traced_forward)
        monkeypatch.setattr(model, "backward", traced_backward)
        monkeypatch.setattr(loop, "_sgd_step", all_dead(loop._sgd_step))
        monkeypatch.setattr(loop, "evaluate", all_dead(loop.evaluate))
        spec = TrainSpec(epochs=2, batch_size=4, seed=1,
                         reduction=ReductionSpec(batch_mode=batch_mode))
        run_sgd(ds, build_targets(ds, spec.label_source), model, spec)
        # per epoch: two steps of four and two images (a forward pass and a
        # backward pass each), then an evaluation; its six forward passes
        # are checked with the next epoch's first step
        assert checked == [8, 4, 0, 6 + 8, 4, 0]

    def test_pooled_step_peak_is_two_batch_arrays_and_two_images(self):
        # Design bound, fixed before measuring: the forward outputs (one
        # batch array of probabilities, which the caches share), the loss's
        # returned gradients (one batch array) and the two image-sized
        # temporaries of the pooled loss. Each backward pass takes fewer:
        # _dlogits' product and dz, one image each, beside its half-image
        # class sum. 1 MiB covers that half image, the logits' class max,
        # the finiteness masks and the parameter gradients. A copy of the
        # batch in the loss would exceed it.
        import tracemalloc

        rng = np.random.default_rng(0)
        c, hw, n = 2, 192, 8
        model = build_model(ModelSpec(n_classes=c))
        model.params["w"] = rng.normal(0.0, 2.0, model.params["w"].shape)
        feats = [model.prepare(rng.random((hw, hw))) for _ in range(n)]
        ys = []
        for _ in range(n):
            q = rng.integers(0, 5, (hw, hw)) / 4.0
            ys.append(np.stack([1.0 - q, q]))
        spec = TrainSpec(batch_size=n, loss=LossSpec("compound", {"overlap": "dml2"}),
                         reduction=ReductionSpec(batch_mode="pooled"))
        params, _ = loop.parse_loss_params(spec.loss.name, spec.loss.params)
        image_bytes = 8 * c * hw * hw
        tracemalloc.start()
        try:
            loop._batch_step(model, feats, ys, np.arange(n), spec, params, None, 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (2 * n + 2) * image_bytes + 2 ** 20

    def test_zero_epochs_leaves_model_untouched(self):
        ds = tiny_dataset()
        ms = ModelSpec(feature_set="intensity")
        res = train(ds, ms, TrainSpec(epochs=0, seed=0))
        np.testing.assert_array_equal(res.model.params["w"], 0.0)
        assert res.trace == []

    def test_bit_identical_reruns(self):
        ds = tiny_dataset()
        ms = ModelSpec(feature_set="intensity")
        ts = TrainSpec(epochs=3, batch_size=4, seed=13)
        a = train(ds, ms, ts)
        b = train(ds, ms, ts)
        np.testing.assert_array_equal(a.model.params["w"], b.model.params["w"])
        assert a.trace == b.trace

    def test_sdl_and_dml1_agree_on_hard_labels(self):
        # one SGD step under both compounds must produce identical weights
        ds = tiny_dataset(n=2)
        ms = ModelSpec(feature_set="intensity")
        hard = SoftLabelSpec(strategy="majority")
        res_d = train(ds, ms, TrainSpec(epochs=1, batch_size=2, seed=1,
                                        loss=LossSpec(params={"overlap": "dml1"}),
                                        label_source=hard), eval_every=0)
        res_s = train(ds, ms, TrainSpec(epochs=1, batch_size=2, seed=1,
                                        loss=LossSpec(params={"overlap": "sdl"}),
                                        label_source=hard), eval_every=0)
        np.testing.assert_allclose(res_d.model.params["w"],
                                   res_s.model.params["w"], atol=1e-10)

    def test_free_model_convergence_soft_target(self):
        # unconstrained single-pixel model: dml1 descends to the soft value,
        # sdl saturates toward a vertex. The fixed-step dml1 iterate oscillates
        # around y, so its tail mean, not its last bit of np.exp, is judged.
        y = 0.3

        def descend(name):
            w, xs = 0.0, []
            for _ in range(4000):
                x = 1.0 / (1.0 + np.exp(-w))
                _, grads, _ = pairwise(name, np.array([[x]]), np.array([[y]]))
                w -= 1.0 * grads[0, 0] * x * (1.0 - x)
                xs.append(1.0 / (1.0 + np.exp(-w)))
            return np.array(xs)

        assert abs(descend("dml1")[-1000:].mean() - y) < 0.01
        assert descend("sdl")[-1] > 0.9

    @pytest.mark.parametrize("epochs,eval_every,calls", [(3, 1, 3), (3, 2, 2), (3, 0, 1),
                                                         (0, 1, 1)])
    def test_one_evaluation_per_model_state(self, epochs, eval_every, calls, monkeypatch):
        seen = []

        def counting(*args):
            seen.append(args)
            return evaluate(*args)

        monkeypatch.setattr(loop, "evaluate", counting)
        res = train(tiny_dataset(n=4), ModelSpec(feature_set="intensity"),
                    TrainSpec(epochs=epochs, batch_size=2, seed=3), eval_every=eval_every)
        assert len(seen) == calls
        scored = [row for row in res.trace if not np.isnan(row["dice"])]
        if scored:
            assert ({k: scored[-1][k] for k in ("dice", "bdice", "ece")}
                    == {k: res.final_metrics[k] for k in ("dice", "bdice", "ece")})

    @pytest.mark.parametrize("n_val", [0, 3])
    def test_features_prepared_once_per_image(self, n_val, monkeypatch):
        prepared = []
        prepare = PerPixelLogistic.prepare

        def counting(self, image):
            prepared.append(image)
            return prepare(self, image)

        monkeypatch.setattr(PerPixelLogistic, "prepare", counting)
        val = tiny_dataset(n=n_val, seed=6) if n_val else None
        train(tiny_dataset(n=4), ModelSpec(), TrainSpec(epochs=3, batch_size=2, seed=3),
              val, eval_every=1)
        assert len(prepared) == 4 + n_val

    @pytest.mark.parametrize("strategy", ["random_rater", "weighted_avg"])
    @pytest.mark.parametrize("epochs,eval_every,n_val", [(3, 1, 0), (3, 2, 3), (2, 0, 3),
                                                         (0, 1, 0)])
    def test_references_built_once_per_run(self, strategy, epochs, eval_every, n_val,
                                           monkeypatch):
        """One majority vote per scored image per run, plus one per training
        image where the targets need it (weighted_avg)."""
        from dicesm import softlabels

        built = []
        majority_map = softlabels.majority_map

        def counting(votes, *args):
            built.append(votes.shape)
            return majority_map(votes, *args)

        for mod in (softlabels, loop):
            monkeypatch.setattr(mod, "majority_map", counting)
        val = tiny_dataset(n=n_val, seed=6) if n_val else None
        train(tiny_dataset(n=4), ModelSpec(feature_set="intensity"),
              TrainSpec(epochs=epochs, batch_size=2, seed=3,
                        label_source=SoftLabelSpec(strategy=strategy)),
              val, eval_every=eval_every)
        n_targets = 4 if strategy == "weighted_avg" else 0
        assert len(built) == n_targets + (n_val or 4)

    def test_label_sources_change_targets(self):
        ds = tiny_dataset()
        soft = build_targets(ds, SoftLabelSpec(strategy="uniform_avg"))
        hard = build_targets(ds, SoftLabelSpec(strategy="majority"))
        assert any(not s.is_hard for s in soft)
        assert all(h.is_hard for h in hard)

    def test_smoke_learns_clean_task(self):
        ds = generate_synthetic(SynthSpec(n_images=50, height=64, width=64,
                                          k_raters=1, noise=RaterNoise((0, 0), 0.0),
                                          seed=3))
        ms = ModelSpec(feature_set="box_means", radii=(1, 2, 4))
        res = train(ds, ms, TrainSpec(epochs=30, seed=0,
                                      label_source=SoftLabelSpec(strategy="majority")),
                    eval_every=0)
        assert res.final_metrics["dice"] > 0.85


class FixedOutputs:
    """A model whose forward pass on feature i returns outputs[i]."""

    def __init__(self, outputs):
        self.outputs = outputs

    def forward(self, i):
        return self.outputs[i], None


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_specs_reject_a_non_finite_number(value):
    for name in ("lr0", "momentum", "weight_decay", "poly_power"):
        with pytest.raises(ValueError):
            TrainSpec(**{name: value})
    with pytest.raises(ValueError):
        KdSpec(kd_weight=value)


class TestEvaluate:
    @pytest.mark.parametrize("n_classes", [1, 2])
    def test_ece_matches_metrics_ece_on_bin_edges(self, n_classes):
        """The ECE over the filled vectors is metrics.ece of the same pixels,
        and the float-sum reference, bit for bit, on exact 0s, 1s and bin
        edges k / 15."""
        from dicesm.metrics import ece

        ds = generate_synthetic(SynthSpec(n_images=3, height=20, width=20, k_raters=3,
                                          n_classes=n_classes, seed=6))
        refs = [References.of(im.raters) for im in ds.images]
        labels = np.concatenate([ref.majority_fg.ravel() for ref in refs])
        for seed in range(4):
            rng = np.random.default_rng(seed)
            fgs = [edge_confidences(rng, 400).reshape(20, 20) for _ in ds.images]
            outputs = [np.stack([1.0 - p, p]) if n_classes == 2 else p[None] for p in fgs]
            conf = np.concatenate([p.ravel() for p in fgs])
            got = evaluate(FixedOutputs(outputs), range(3), refs)["ece"]
            assert got == ece(conf, labels) == ece_float_sums(conf, labels, 15)

    def test_confidence_outside_the_unit_interval_raises(self):
        from dicesm.core import OutOfRangeError

        ds = tiny_dataset(n=2)
        refs = [References.of(im.raters) for im in ds.images]
        outputs = [np.full((1, 16, 16), 0.5) for _ in refs]
        outputs[1][0, 3, 4] = 1.5
        with pytest.raises(OutOfRangeError):
            evaluate(FixedOutputs(outputs), range(2), refs)

    def test_peak_memory_is_one_confidence_and_one_index_vector(self):
        # Design bound, fixed before measuring: beside its inputs, evaluate
        # holds one float64 vector of confidences and ECE's int64 bin index,
        # each over every scored pixel; the 1 MiB covers the bool label
        # vector (460,800 bytes here) and one 48 x 48 image's forward pass
        # and scores. Per-image copies joined by np.concatenate, and float
        # labels, would need three more float64 vectors.
        import tracemalloc

        n, hw = 200, 48
        ds = generate_synthetic(SynthSpec(n_images=n, height=hw, width=hw, n_classes=2,
                                          k_raters=1, seed=8))
        model = build_model(ModelSpec(feature_set="intensity", n_classes=2))
        model.params["w"] = np.random.default_rng(8).normal(0.0, 2.0, model.params["w"].shape)
        feats = [model.prepare(im.image) for im in ds.images]
        refs = [References.of(im.raters) for im in ds.images]
        pixels = n * hw * hw
        bound = 8 * pixels + 8 * pixels + 2 ** 20
        tracemalloc.start()
        try:
            evaluate(model, feats, refs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_perfect_model_scores_one(self):
        ds = tiny_dataset(noise=RaterNoise((0, 0), 0.0))
        cleans = [clean for _, clean in generate_with_clean(ds.spec)]

        class Oracle:
            def forward(self, img):
                # look the clean mask up by matching the stored image
                for im, clean in zip(ds.images, cleans):
                    if im.image is img:
                        return np.clip(clean[None].astype(float), 0.02, 0.98), None
                raise AssertionError

        m = evaluate(Oracle(), [im.image for im in ds.images],
                     [References.of(im.raters) for im in ds.images])
        assert m["dice"] == 1.0
        assert m["bdice"] == 1.0

    @pytest.mark.parametrize("n_classes", [1, 2])
    def test_matches_the_field_references(self, n_classes):
        """Scores against compact references equal scores against the
        majority-vote and rater-average fields, bit for bit."""
        from dicesm.metrics import (BDiceSpec, bdice, class_map, ece, foreground_class,
                                    mask_dice, one_hot)
        from dicesm.softlabels import majority_vote

        ds = generate_synthetic(SynthSpec(n_images=4, height=12, width=12, k_raters=4,
                                          n_classes=n_classes, seed=2))
        model = build_model(ModelSpec(feature_set="box_means", radii=(1,),
                                      n_classes=n_classes))
        model.params["w"] = np.random.default_rng(4).normal(0, 2.0, model.params["w"].shape)
        feats = [model.prepare(im.image) for im in ds.images]
        m = evaluate(model, feats, [References.of(im.raters) for im in ds.images])
        fg = foreground_class(n_classes)
        dices, bdices, confs, labels = [], [], [], []
        for im, x in zip(ds.images, feats):
            probs = ProbField.from_array(model.forward(x)[0])
            maj = majority_vote(im.raters)
            hard = one_hot(class_map(probs.array), n_classes)
            dices.append(mask_dice(hard[fg], maj.array[fg] == 1.0))
            bdices.append(bdice(probs, uniform_average(im.raters), BDiceSpec(), fg))
            confs.append(probs.array[fg].ravel())
            labels.append(maj.array[fg].ravel() == 1.0)
        assert m["dice"] == float(np.mean(dices))
        assert m["bdice"] == float(np.mean(bdices))
        assert m["ece"] == ece(np.concatenate(confs), np.concatenate(labels))

    def test_class_count_must_match_the_references(self):
        ds = tiny_dataset(n=2)
        model = build_model(ModelSpec(feature_set="intensity", n_classes=2))
        with pytest.raises(ShapeMismatchError, match=r"dims \(2, 16, 16\) vs \(1, 16, 16\)"):
            evaluate(model, [model.prepare(im.image) for im in ds.images],
                     [References.of(im.raters) for im in ds.images])

    def test_references_are_smaller_than_a_float_channel(self):
        """References are kept for a whole run: every field together, fields
        counted by their arrays, stays below one float64 (H, W) channel."""
        import dataclasses

        ds = generate_synthetic(SynthSpec(n_images=3, height=20, width=24, k_raters=5,
                                          n_classes=2, seed=7))
        for im in ds.images:
            ref = References.of(im.raters)
            total = sum(np.asarray(getattr(v, "array", v)).nbytes
                        for v in (getattr(ref, f.name) for f in dataclasses.fields(ref)))
            assert total < 8 * 20 * 24


class TestDistill:
    def test_zero_weight_matches_plain_train(self):
        ds = tiny_dataset(n=4)
        teacher = build_model(ModelSpec(feature_set="box_means", radii=(1,)))
        ms = ModelSpec(feature_set="intensity")
        ts = TrainSpec(epochs=2, batch_size=2, seed=6,
                       label_source=SoftLabelSpec(strategy="majority"))
        plain = train(ds, ms, ts, eval_every=0)
        kd = distill(ds, teacher, ms, ts, KdSpec(kd_weight=0.0), eval_every=0)
        np.testing.assert_array_equal(plain.model.params["w"], kd.model.params["w"])

    def test_class_count_mismatch(self):
        ds = tiny_dataset(n=2)
        teacher = build_model(ModelSpec(feature_set="intensity", n_classes=2))
        ts = TrainSpec(epochs=1, batch_size=2, seed=0,
                       label_source=SoftLabelSpec(strategy="majority"))
        with pytest.raises(CheckpointMismatchError):
            distill(ds, teacher, ModelSpec(feature_set="intensity"), ts, KdSpec())

    def test_oracle_teacher_lifts_student(self):
        # a teacher that emits (a clipped version of) the clean mask should
        # carry a noisy-label student up to its clean-label upper bound;
        # needs enough steps to leave the early transient
        from dicesm.core import RaterStack
        from dicesm.training import SynthDataset, SynthImage

        ds = tiny_dataset(n=16, hw=32, noise=RaterNoise((0, 1), 0.2), seed=21)
        cleans = [clean for _, clean in generate_with_clean(ds.spec)]
        tr, va = subset(ds, range(12)), subset(ds, range(12, 16))

        class OracleTeacher:
            spec = ModelSpec(feature_set="intensity")

            def prepare(self, image):
                return image

            def forward(self, img):
                for im, clean in zip(ds.images, cleans):
                    if im.image is img:
                        return np.clip(clean[None].astype(float), 0.05, 0.95), None
                raise AssertionError

        ms = ModelSpec(feature_set="box_means", radii=(1, 2))
        ts = TrainSpec(epochs=80, batch_size=4, seed=3,
                       label_source=SoftLabelSpec(strategy="majority"))
        plain = train(tr, ms, ts, va, eval_every=0)
        kd = distill(tr, OracleTeacher(), ms, ts,
                     KdSpec(kd_weight=2.0, kd_terms="dml"), va, eval_every=0)
        clean_tr = SynthDataset(tr.spec, tuple(
            SynthImage(im.image, RaterStack(clean[None, None]))
            for im, clean in zip(tr.images, cleans)))
        upper = train(clean_tr, ms, ts, va, eval_every=0)
        assert kd.final_metrics["dice"] >= plain.final_metrics["dice"] - 0.02
        assert kd.final_metrics["dice"] >= upper.final_metrics["dice"] - 0.05

    def test_kde_signal_runs_and_stays_valid(self):
        from dicesm.calibration import KdeSpec as KSpec
        from dicesm.core import validate
        from dicesm.training.distill import TeacherSignal

        ds = tiny_dataset(n=4, hw=16, seed=8)
        teacher = build_model(ModelSpec(feature_set="box_means", radii=(1,)))
        teacher.params["w"] = np.random.default_rng(0).normal(0, 1.0,
                                                              teacher.params["w"].shape)
        spec = KdSpec(use_kde=True,
                      kde=KSpec(bandwidth=1e-2, n_key=16,
                                pixel_scope="misclassified_and_boundary"))
        signal = TeacherSignal(ds, teacher, spec)
        signals = signal._signals([0, 1, 2, 3], epoch=0, batch_idx=0)
        for a in signals:
            validate(LabelField.from_array(a))
        again = signal._signals([0, 1, 2, 3], epoch=0, batch_idx=0)
        for a, b in zip(signals, again):
            np.testing.assert_array_equal(a, b)

    def test_key_coefficients_built_once_per_batch(self, monkeypatch):
        # the benchmark's golden distill-kde size: 8 images of 32 x 32, 4
        # epochs of 2 batches of 4 images that share one key set
        from dicesm import calibration
        from dicesm.calibration import KdeSpec as KSpec

        distill_mod = sys.modules["dicesm.training.distill"]
        counts = {"_key_coef": 0, "kde_calibrate_batch": 0}
        for module, name in ((calibration, "_key_coef"), (distill_mod, "kde_calibrate_batch")):
            def counting(*args, _f=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        ds = generate_synthetic(SynthSpec(n_images=8, height=32, width=32, k_raters=3, seed=4))
        teacher = build_model(ModelSpec(feature_set="intensity", seed=1))
        kd = KdSpec(use_kde=True, kde=KSpec(n_key=128, seed=2))
        ts = TrainSpec(epochs=4, batch_size=4, lr0=2.0, seed=3)
        distill(ds, teacher, ModelSpec(feature_set="intensity"), ts, kd, eval_every=0)
        assert counts == {"_key_coef": 4 * 2, "kde_calibrate_batch": 4 * 8}


@pytest.fixture
def field_counts(monkeypatch):
    """Counts of core.validate calls and TensorF constructions, through every
    dicesm module that binds validate."""
    from dicesm import core

    counts = {"validate": 0, "tensorf": 0}
    validate, post_init = core.validate, core.TensorF.__post_init__

    def counted_validate(f):
        counts["validate"] += 1
        return validate(f)

    def counted_post_init(self):
        counts["tensorf"] += 1
        return post_init(self)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dicesm" and getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", counted_validate)
    monkeypatch.setattr(core.TensorF, "__post_init__", counted_post_init)
    return counts


class TestArrayLoop:
    """SGD steps and evaluations run on arrays: a run with one more epoch
    (its steps and one more evaluate) makes no more validate calls and
    builds no more TensorFs. Fields are checked where targets, teacher
    rows and files are built, once per run."""

    @staticmethod
    def _per_epoch(counts, run):
        seen = []
        for epochs in (1, 2):
            before = dict(counts)
            run(epochs)
            seen.append({k: counts[k] - before[k] for k in counts})
        assert seen[0]["validate"] > 0  # the counters do see the set-up
        return {k: seen[1][k] - seen[0][k] for k in counts}

    @pytest.mark.parametrize("batch_mode", ["per_image_then_mean", "pooled"])
    @pytest.mark.parametrize("n_classes", [1, 2])
    def test_train_steps_build_no_fields(self, field_counts, batch_mode, n_classes):
        ds = generate_synthetic(SynthSpec(n_images=5, height=12, width=12, k_raters=3,
                                          n_classes=n_classes, seed=3))
        ms = ModelSpec(feature_set="box_means", radii=(1,), n_classes=n_classes)

        def run(epochs):
            ts = TrainSpec(epochs=epochs, batch_size=3, lr0=0.5, seed=1,
                           loss=LossSpec(params={"overlap": "dml2"}),
                           reduction=ReductionSpec(batch_mode=batch_mode))
            train(ds, ms, ts, eval_every=1)

        assert self._per_epoch(field_counts, run) == {"validate": 0, "tensorf": 0}

    @pytest.mark.parametrize("scope", ["all", "misclassified_and_boundary"])
    def test_distill_steps_build_no_fields(self, field_counts, scope):
        from dicesm.calibration import KdeSpec as KSpec

        ds = tiny_dataset(n=5, hw=12, seed=8)
        teacher = build_model(ModelSpec(feature_set="box_means", radii=(1,)))
        teacher.params["w"] = np.random.default_rng(0).normal(0, 1.0, teacher.params["w"].shape)
        kd = KdSpec(use_kde=True, kde=KSpec(bandwidth=1e-2, n_key=16, pixel_scope=scope))

        def run(epochs):
            ts = TrainSpec(epochs=epochs, batch_size=3, lr0=0.5, seed=1)
            distill(ds, teacher, ModelSpec(feature_set="intensity"), ts, kd, eval_every=1)

        assert self._per_epoch(field_counts, run) == {"validate": 0, "tensorf": 0}


class TestTrainingGuards:
    """The loop's own checks, through the CLI: a loss that refuses soft
    labels exits 1 on soft targets unless allow_soft is set, and a run whose
    parameters overflow exits 1 with NonFiniteError and writes nothing."""

    @staticmethod
    def _config(tmp_path, loss, lr0=0.5, n_classes=1):
        (tmp_path / "c.json").write_text(json.dumps({
            "data": {"synth": {"n_images": 4, "height": 12, "width": 12, "k_raters": 3,
                               "n_classes": n_classes, "seed": 2}},
            "model": {"n_classes": n_classes},
            "train": {"epochs": 3, "batch_size": 2, "lr0": lr0, "loss": loss,
                      "label_source": {"strategy": "uniform_avg"}},
            "out_dir": "out"}))

    def test_stl_refuses_soft_targets(self, monkeypatch, tmp_path, capsys):
        from dicesm import cli

        monkeypatch.chdir(tmp_path)
        self._config(tmp_path, {"name": "stl"})
        assert cli.main(["train", "--config", "c.json"]) == 1
        assert capsys.readouterr().err.startswith("SoftLabelIncompatibleError: stl ")
        assert not (tmp_path / "out").exists()
        self._config(tmp_path, {"name": "stl", "params": {"allow_soft": True}})
        assert cli.main(["train", "--config", "c.json"]) == 0
        assert (tmp_path / "out" / "trace.csv").is_file()

    @pytest.mark.parametrize("n_classes", [1, 2])
    def test_diverging_run_exits_1(self, tmp_path, n_classes):
        # a subprocess: the overflow warnings on the way are not errors there
        self._config(tmp_path, {"name": "compound"}, lr0=1e300, n_classes=n_classes)
        env = {**os.environ, "PYTHONPATH": str(Path(dicesm.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "dicesm", "train", "--config", "c.json"],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1].startswith("NonFiniteError: non-finite value")
        assert not (tmp_path / "out").exists()
