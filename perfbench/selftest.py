"""Tests of the benchmark itself: the tracer's wiring and the traced run.

    python -m pytest perfbench/selftest.py

The file is not named test_*.py, so the repository's test suite does not
collect it; it runs each workload at full size and takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import compare
import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

# Per-layer metrics that must be non-zero on each workload, following the
# layer table the benchmark was designed from; calibration must be zero on
# train-wide-c2.
FIRES = {
    "distill-kde": (
        "calibration.kde_calibrate_batch.calls",
        "calibration.kde_calibrate_batch.pairs", "calibration.kde.pairs_per_s",
        "calibration.kde.bytes", "calibration.log_beta_kernel.s",
        "calibration.sample_key_points.s", "distill.teacher_init.s",
        "distill.batch_terms.self_s", "losses.field_op.calls",
        "models.forward.calls", "models.backward.s", "metrics.bdice.s",
        "loop.run_sgd.self_s", "cli.load_dataset_dir.s"),
    "train-wide-c2": (
        "core.validate.calls", "core.validate.elems", "core.tensorf.bytes",
        "core.read_tensor.bytes", "core.write_tensor.bytes",
        "losses.batch_loss.calls", "losses.field_op.s",
        "losses.field_op.self_s", "losses.validate_per_field_op",
        "models.forward.s", "softlabels.build.calls", "softlabels.build.s",
        "metrics.evaluate.calls", "metrics.evaluate.s", "metrics.ece.s",
        "loop.run_sgd.self_s"),
    "calibrate-c2": (
        "calibration.kde_calibrate_batch.s", "calibration.kde.bytes",
        "calibration.sample_key_points.s", "core.read_tensor.calls",
        "core.write_tensor.calls", "metrics.ece.s"),
}

# Minimum self-time share of the layers each workload was chosen to load.
SPLIT = {
    "distill-kde": (("calibration",), 0.85),
    "train-wide-c2": (("core", "losses", "metrics", "softlabels"), 0.60),
    "calibrate-c2": (("calibration",), 0.85),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run(name, tmp_path):
    job = workloads.WORKLOADS[name](tmp_path, 0, False)
    plain = run.run_in_process(job)
    t = tracer.Tracer()
    traced = run.run_in_process(job, t)
    assert plain.problems == [] and traced.problems == []
    assert traced.digest == plain.digest, "tracing changed the outputs"

    metrics = tracer.layer_metrics(t.spans, 0, tracer.degenerate_pixels(traced.caught))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(
        list(metrics) + ["trace.overhead_frac"])
    silent = [k for k in FIRES[name] if not metrics[k] > 0]
    assert silent == [], f"per-layer metrics that did not fire: {silent}"
    if name == "train-wide-c2":
        assert metrics["share.calibration"] == 0.0
    layers, floor = SPLIT[name]
    assert sum(metrics[f"share.{layer}"] for layer in layers) >= floor
    assert abs(sum(v for k, v in metrics.items() if k.startswith("share.")) - 1) < 1e-9


def test_kde_pairs_match_kernel_counter_contract(tmp_path):
    """pairs counts every (pixel, key) kernel evaluation: m * n per call."""
    job = workloads.distill_kde(tmp_path, 0, True)
    t = tracer.Tracer()
    assert run.run_in_process(job, t).problems == []
    calls = [s for s in t.spans if s[0] == "calibration.kde_calibrate_batch"]
    assert calls and all(s[4]["pairs"] * 8 == s[4]["bytes"] for s in calls)


def test_uninstall_restores_every_binding():
    from dicesm import cli, core, losses
    from dicesm.training import loop

    before = (core.validate, losses.validate, cli.kde_calibrate_batch,
              loop.batch_loss, core.TensorF.__post_init__)
    with tracer.Tracer():
        assert losses.validate is not before[1]
        assert cli.kde_calibrate_batch is not before[2]
    after = (core.validate, losses.validate, cli.kde_calibrate_batch,
             loop.batch_loss, core.TensorF.__post_init__)
    assert all(a is b for a, b in zip(before, after))


def test_mismatched_runs_fail_and_leave_the_samples(tmp_path):
    job = workloads.calibrate_c2(tmp_path, 0, True)
    outcomes = [run.run_in_process(job) for _ in range(3)]
    for o in outcomes:
        o.timing.update(setup=0.5, rss_mb=1.0)
    outcomes[1].digest = "0" * 64
    run.mark_mismatches(outcomes)
    assert [bool(o.problems) for o in outcomes] == [False, True, False]
    good = [o for o in outcomes if not o.problems]
    assert len(run.end_to_end_samples(job, good)["wall_s"]) == 2


def test_degenerate_pixels_are_counted():
    from dicesm.calibration import KeyPointSet, kde_calibrate_batch

    keys = KeyPointSet(np.array([[0.5]]), np.array([[1.0]]), np.array([0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kde_calibrate_batch(np.array([[0.0], [0.5], [1.0]]), keys, 1e-3)
    assert tracer.degenerate_pixels(caught) == 2


def test_fails_without_dicesm_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "distill-kde",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_keeps_every_run_of_a_seed(tmp_path):
    for i, wall in enumerate((2.0, 3.0)):
        result = {"environment": {"workload": "calibrate-c2", "trace": 0, "seed": 1},
                  "metrics": {"wall_s": {"median": wall}}}
        (tmp_path / f"r{i}.json").write_text(json.dumps(result))
    runs = compare.load(tmp_path)[("calibrate-c2", 0)]
    assert runs == {1: [{"wall_s": 2.0}, {"wall_s": 3.0}]}
    assert compare.pairs(runs, {1: [{"wall_s": 1.0}]}) == [
        ({"wall_s": 2.0}, {"wall_s": 1.0})]
