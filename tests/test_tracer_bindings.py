"""The benchmark's tracer, perfbench/tracer.py, wraps dicesm functions and
methods that it binds by name. Imported here by path and unchanged, it must
find every name it binds, trace a field built under it through its
wrappers, and put every binding back when it is uninstalled."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import dicesm.cli  # noqa: F401  (loads every module whose names the tracer binds)
from dicesm.core import ProbField

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_restored():
    tracer = _load_tracer()
    targets = tracer._targets()
    missing = [f"{name}: {attr}" for name, owner, attr, _, _ in targets
               if attr not in vars(owner)]
    assert missing == []
    originals = [vars(owner)[attr] for _, owner, attr, _, _ in targets]
    modules = {n: dict(vars(m)) for n, m in sys.modules.items()
               if n == "dicesm" or n.startswith("dicesm.")}
    t = tracer.Tracer()
    t.install()
    try:
        for (name, owner, attr, _, _), fn in zip(targets, originals):
            assert vars(owner)[attr].__wrapped__ is fn, name
        ProbField.from_array(np.full((2, 2, 2), 0.5))
    finally:
        t.uninstall()
    # the field's TensorF and its one validate call both ran through wrappers
    assert sorted(s[0] for s in t.spans) == ["core.tensorf", "core.validate"]
    for (name, owner, attr, _, _), fn in zip(targets, originals):
        assert vars(owner)[attr] is fn, name
    for n, before in modules.items():
        after = vars(sys.modules[n])
        assert [k for k, v in before.items() if after[k] is not v] == [], n
