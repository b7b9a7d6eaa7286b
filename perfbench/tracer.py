"""Outside-in tracing of one in-process dicesm CLI run.

The tracer replaces the public functions of each dicesm layer with
wrappers that record a span (name, start, end, parent span, counters) and
restores them afterwards; dicesm's source is not touched. Three wiring
rules make every call land in a wrapper:

* a name imported with ``from ... import`` is a second binding in the
  importing module (``kde_calibrate_batch`` in ``cli`` and
  ``training.distill``, ``ce as ce_loss`` in ``training.distill``), so a
  function is replaced in every loaded dicesm module that binds it;
* ``dicesm.training.distill`` as an attribute is the *function* that
  ``training/__init__`` re-exports, so modules are looked up by name in
  ``sys.modules``, never by attribute;
* ``make_loss`` binds plain field ops when it is called, so wrapping must
  happen before the CLI starts, which ``Tracer.install`` does.

Per-layer metrics are derived from the spans: ``.s`` is inclusive time
(a span nested in one of the same name is not counted twice), ``.self_s``
is time minus the time of direct child spans, and layer shares are self
time per layer over the root span.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from collections import defaultdict

FIELD_OPS = ("sdl", "sjl", "jml1", "jml2", "dml1", "dml2", "stl", "ctl",
             "cftl", "ce", "compound")

# Layer of each span name prefix, named after the dicesm modules; the glue
# layer is training.loop, training.distill and cli.
LAYERS = {"core": "core", "losses": "losses", "models": "models",
          "calibration": "calibration", "softlabels": "softlabels",
          "metrics": "metrics", "loop": "glue", "distill": "glue", "cli": "glue"}

_DEGENERATE = re.compile(r"(\d+) pixel\(s\) matched no key point")


def _sdt_bytes(t) -> int:
    return 8 + 4 * len(t.dims) + 4 * t.size


def _kde_counters(calibration):
    before = []

    def pre(args):
        before.append(calibration.kernel_eval_count)

    def count(args, result):
        m, n = result.shape[0], len(args[1])
        return {"pairs": calibration.kernel_eval_count - before.pop(),
                "rows": m, "bytes": m * n * 8}

    return pre, count


def _targets():
    """(span name, owner, attribute, pre, count) for every traced callable.
    owner is a module (function, replaced in every binding module) or a
    class (method, replaced on the class)."""
    core = importlib.import_module("dicesm.core")
    losses = importlib.import_module("dicesm.losses")
    calibration = importlib.import_module("dicesm.calibration")
    metrics = importlib.import_module("dicesm.metrics")
    models = importlib.import_module("dicesm.training.models")
    loop = importlib.import_module("dicesm.training.loop")
    distill = importlib.import_module("dicesm.training.distill")
    cli = importlib.import_module("dicesm.cli")
    kde_pre, kde_count = _kde_counters(calibration)
    return [
        ("core.read_tensor", core, "read_tensor", None,
         lambda a, r: {"bytes": _sdt_bytes(r)}),
        ("core.write_tensor", core, "write_tensor", None,
         lambda a, r: {"bytes": _sdt_bytes(a[1])}),
        ("core.validate", core, "validate", None,
         lambda a, r: {"elems": a[0].tensor.size}),
        ("core.tensorf", core.TensorF, "__post_init__", None,
         lambda a, r: {"bytes": a[0].data.nbytes}),
        ("losses.batch_loss", losses, "batch_loss", None, None),
        *[("losses.field_op", losses, name, None, None) for name in FIELD_OPS],
        ("models.forward", models.PerPixelLogistic, "forward", None, None),
        ("models.forward", models.Conv2Net, "forward", None, None),
        ("models.backward", models.PerPixelLogistic, "backward", None, None),
        ("models.backward", models.Conv2Net, "backward", None, None),
        ("calibration.kde_calibrate_batch", calibration, "kde_calibrate_batch",
         kde_pre, kde_count),
        ("calibration.log_beta_kernel", calibration, "log_beta_kernel", None, None),
        ("calibration.sample_key_points", calibration, "sample_key_points", None, None),
        ("softlabels.build", loop, "build_targets", None, None),
        ("metrics.evaluate", loop, "evaluate", None, None),
        ("metrics.bdice", metrics, "bdice", None, None),
        ("metrics.ece", metrics, "ece", None, None),
        ("loop.run_sgd", loop, "run_sgd", None, None),
        ("distill.teacher_init", distill.TeacherSignal, "__init__", None, None),
        ("distill.batch_terms", distill.TeacherSignal, "batch_terms", None, None),
        ("cli.load_dataset_dir", cli, "load_dataset_dir", None, None),
    ]


class Tracer:
    """Spans of one run, kept in memory: [name, start, end, parent, counters]."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patches = []

    def wrap(self, name, fn, pre=None, count=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            if pre is not None:
                pre(args)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return wrapper

    def install(self):
        """Replace every traced callable; undo with uninstall()."""
        targets = _targets()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dicesm" or n.startswith("dicesm."))]
        for name, owner, attr, pre, count in targets:
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, pre, count)
            for o in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(o).items()):
                    if value is original:
                        self._patches.append((o, key, value))
                        setattr(o, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def degenerate_pixels(caught) -> int:
    """Pixels reported by DegenerateWeightsWarning in recorded warnings."""
    total = 0
    for w in caught:
        if type(w.message).__name__ == "DegenerateWeightsWarning":
            m = _DEGENERATE.search(str(w.message))
            total += int(m.group(1)) if m else 0
    return total


def layer_metrics(spans, root: int, degenerate: int) -> dict:
    """Per-layer metrics of one traced run; span `root` is the whole CLI call."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    agg = defaultdict(lambda: defaultdict(float))
    share = defaultdict(float)
    validate_in_ops = 0
    for i, s in enumerate(spans):
        name, counters = s[0], s[4] or {}
        a = agg[name]
        a["calls"] += 1
        a["self_s"] += dur[i] - child[i]
        anc = [spans[p][0] for p in ancestors(i)]
        if name not in anc:
            a["top"] += 1
            a["s"] += dur[i]
        for k, v in counters.items():
            a[k] += v
        if name == "core.validate" and "losses.field_op" in anc:
            validate_in_ops += 1
        share[LAYERS[name.split(".")[0]]] += dur[i] - child[i]

    def get(name, key):
        return float(agg[name][key]) if name in agg else 0.0

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    out = {}
    for name, keys in (
            ("core.read_tensor", ("calls", "s", "bytes")),
            ("core.write_tensor", ("calls", "s", "bytes")),
            ("core.validate", ("calls", "s", "elems")),
            ("core.tensorf", ("calls", "s", "bytes")),
            ("losses.batch_loss", ("calls", "s", "self_s")),
            ("losses.field_op", ("calls", "s", "self_s")),
            ("models.forward", ("calls", "s")),
            ("models.backward", ("calls", "s")),
            ("calibration.kde_calibrate_batch", ("calls", "s", "pairs")),
            ("calibration.log_beta_kernel", ("s",)),
            ("calibration.sample_key_points", ("s",)),
            ("softlabels.build", ("calls", "s")),
            ("metrics.evaluate", ("calls", "s")),
            ("metrics.bdice", ("s",)),
            ("metrics.ece", ("s",)),
            ("loop.run_sgd", ("self_s",)),
            ("distill.teacher_init", ("s",)),
            ("distill.batch_terms", ("self_s",)),
            ("cli.load_dataset_dir", ("s",))):
        for key in keys:
            out[f"{name}.{key}"] = get(name, key)
    out["losses.validate_per_field_op"] = ratio(
        validate_in_ops, get("losses.field_op", "top"))
    kde = "calibration.kde_calibrate_batch"
    out["calibration.kde.pairs_per_s"] = ratio(get(kde, "pairs"), get(kde, "s"))
    out["calibration.kde.bytes"] = get(kde, "bytes")
    out["calibration.degenerate_frac"] = ratio(degenerate, get(kde, "rows"))
    wall = dur[root]
    out["trace.wall_s"] = wall
    for layer in sorted(set(LAYERS.values())):
        out[f"share.{layer}"] = ratio(share[layer], wall)
    return out
