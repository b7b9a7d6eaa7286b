import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dicesm
from dicesm.core import LabelField, ProbField, ShapeMismatchError
from dicesm.losses import ReductionSpec, pairwise
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
    binarize,
    build_model,
    distill,
    evaluate,
    forward,
    generate_synthetic,
    load_model,
    mean_pairwise_rater_dice,
    poly_lr,
    save_model,
    subset,
    train,
)
from dicesm.training import loop
from dicesm.training.loop import References, build_targets, run_sgd


def tiny_dataset(n=6, hw=16, k=3, noise=RaterNoise((0, 1), 0.1), seed=5):
    return generate_synthetic(SynthSpec(n_images=n, height=hw, width=hw,
                                        k_raters=k, noise=noise, seed=seed))


class TestSynth:
    def test_deterministic(self):
        a = tiny_dataset(seed=9)
        b = tiny_dataset(seed=9)
        for ia, ib in zip(a.images, b.images):
            np.testing.assert_array_equal(ia.image, ib.image)
            for ra, rb in zip(ia.raters.raters, ib.raters.raters):
                np.testing.assert_array_equal(ra.array, rb.array)

    def test_zero_noise_raters_equal_clean(self):
        ds = tiny_dataset(noise=RaterNoise((0, 0), 0.0))
        for im in ds.images:
            for r in im.raters.raters:
                np.testing.assert_array_equal(r.array, im.clean.array)
            assert uniform_average(im.raters).is_hard

    def test_noise_confined_to_boundary_band(self):
        radius = 2
        ds = tiny_dataset(n=4, hw=32, noise=RaterNoise((0, radius), 0.3))
        from scipy.ndimage import binary_dilation, binary_erosion

        for im in ds.images:
            clean = im.clean.array[0] == 1.0
            # rater masks may differ from clean only within radius+1 of the edge
            outer = binary_dilation(clean, np.ones((3, 3), bool), iterations=radius + 1)
            inner = binary_erosion(clean, np.ones((3, 3), bool), iterations=radius + 1)
            allowed = outer & ~inner
            for r in im.raters.raters:
                diff = (r.array[0] == 1.0) != clean
                assert not np.any(diff & ~allowed)

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
        """Scoring the masks gives the bits of hard_dice on the rater fields."""
        from dicesm.metrics import foreground_class, hard_dice

        for seed in (0, 3, 7):
            ds = generate_synthetic(SynthSpec(n_images=4, height=16, width=16,
                                              n_classes=n_classes, k_raters=4,
                                              noise=RaterNoise((0, 1), 0.2), seed=seed))
            c = foreground_class(n_classes)
            scores = [hard_dice(rs[i], rs[j], c)
                      for rs in (im.raters.raters for im in ds.images)
                      for i in range(len(rs)) for j in range(i + 1, len(rs))]
            assert mean_pairwise_rater_dice(ds) == float(np.mean(scores))

    def test_two_class_fields_validate(self):
        ds = generate_synthetic(SynthSpec(n_images=2, height=12, width=12,
                                          n_classes=2, k_raters=2, seed=0))
        from dicesm.core import validate

        for im in ds.images:
            validate(im.clean)
            for r in im.raters.raters:
                validate(r)


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
                                        loss_params={"overlap": "dml1"},
                                        label_source=hard), eval_every=0)
        res_s = train(ds, ms, TrainSpec(epochs=1, batch_size=2, seed=1,
                                        loss_params={"overlap": "sdl"},
                                        label_source=hard), eval_every=0)
        np.testing.assert_allclose(res_d.model.params["w"],
                                   res_s.model.params["w"], atol=1e-10)

    def test_free_model_convergence_soft_target(self):
        # unconstrained single-pixel model: dml1 descends to the soft value,
        # sdl saturates toward a vertex
        y = 0.3

        def descend(name):
            w = 0.0
            for _ in range(4000):
                x = 1.0 / (1.0 + np.exp(-w))
                _, grads, _ = pairwise(name, np.array([[x]]), np.array([[y]]))
                w -= 1.0 * grads[0, 0] * x * (1.0 - x)
            return 1.0 / (1.0 + np.exp(-w))

        assert abs(descend("dml1") - y) < 0.01
        assert descend("sdl") > 0.9

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
        image where the targets need it (weighted_avg), and no hard_dice."""
        import sys

        from dicesm import metrics, softlabels

        built = []
        majority_map = softlabels.majority_map

        def counting(votes, *args):
            built.append(votes.shape)
            return majority_map(votes, *args)

        for mod in (softlabels, loop):
            monkeypatch.setattr(mod, "majority_map", counting)
        dice_calls = []
        hard_dice = metrics.hard_dice

        def counting_dice(*args, **kwargs):
            dice_calls.append(args)
            return hard_dice(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("dicesm") and getattr(mod, "hard_dice", None) is hard_dice:
                monkeypatch.setattr(mod, "hard_dice", counting_dice)
        val = tiny_dataset(n=n_val, seed=6) if n_val else None
        train(tiny_dataset(n=4), ModelSpec(feature_set="intensity"),
              TrainSpec(epochs=epochs, batch_size=2, seed=3,
                        label_source=SoftLabelSpec(strategy=strategy)),
              val, eval_every=eval_every)
        n_targets = 4 if strategy == "weighted_avg" else 0
        assert len(built) == n_targets + (n_val or 4)
        assert dice_calls == []

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


class TestEvaluate:
    def test_binarize(self):
        p = ProbField.from_array(np.array([0.4, 0.6]).reshape(1, 1, 2))
        np.testing.assert_array_equal(binarize(p).array.ravel(), [0.0, 1.0])
        q = ProbField.from_array(np.array([[0.7, 0.2], [0.3, 0.8]]).reshape(2, 1, 2))
        np.testing.assert_array_equal(binarize(q).array[1].ravel(), [0.0, 1.0])

    def test_perfect_model_scores_one(self):
        ds = tiny_dataset(noise=RaterNoise((0, 0), 0.0))

        class Oracle:
            def forward(self, img):
                # look the clean mask up by matching the stored image
                for im in ds.images:
                    if im.image is img:
                        return np.clip(im.clean.array, 0.02, 0.98), None
                raise AssertionError

        m = evaluate(Oracle(), [im.image for im in ds.images],
                     [References.of(im.raters) for im in ds.images])
        assert m["dice"] == 1.0
        assert m["bdice"] == 1.0

    @pytest.mark.parametrize("n_classes", [1, 2])
    def test_matches_the_field_references(self, n_classes):
        """Scores against compact references equal scores against the
        majority-vote and rater-average fields, bit for bit."""
        from dicesm.metrics import BDiceSpec, CalibRecord, bdice, ece, foreground_class, hard_dice
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
            dices.append(hard_dice(binarize(probs), maj, fg))
            bdices.append(bdice(probs, uniform_average(im.raters), BDiceSpec(), fg))
            confs.append(probs.array[fg].ravel())
            labels.append(maj.array[fg].ravel())
        record = CalibRecord(np.concatenate(confs), np.concatenate(labels))
        assert m["dice"] == float(np.mean(dices))
        assert m["bdice"] == float(np.mean(bdices))
        assert m["ece"] == ece(record)

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
        tr, va = subset(ds, range(12)), subset(ds, range(12, 16))

        class OracleTeacher:
            spec = ModelSpec(feature_set="intensity")

            def prepare(self, image):
                return image

            def forward(self, img):
                for im in ds.images:
                    if im.image is img:
                        return np.clip(im.clean.array, 0.05, 0.95), None
                raise AssertionError

        ms = ModelSpec(feature_set="box_means", radii=(1, 2))
        ts = TrainSpec(epochs=80, batch_size=4, seed=3,
                       label_source=SoftLabelSpec(strategy="majority"))
        plain = train(tr, ms, ts, va, eval_every=0)
        kd = distill(tr, OracleTeacher(), ms, ts,
                     KdSpec(kd_weight=2.0, kd_terms="dml"), va, eval_every=0)
        clean_tr = SynthDataset(tr.spec, tuple(
            SynthImage(im.image, RaterStack((im.clean,)), im.clean)
            for im in tr.images))
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
            validate(LabelField.from_array(a, "soft"))
        again = signal._signals([0, 1, 2, 3], epoch=0, batch_idx=0)
        for a, b in zip(signals, again):
            np.testing.assert_array_equal(a, b)


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
                           loss_params={"overlap": "dml2"},
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
