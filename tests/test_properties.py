import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import dicesm
from dicesm import properties
from dicesm._special import gammaln
from dicesm.calibration import beta_kernel
from dicesm.properties import check_beta_normalization, run_suite


@pytest.mark.parametrize("trials", [100, 500])
def test_suite_passes(trials):
    report = run_suite(trials=trials, seed=3)
    assert report["all_pass"], [k for k, p in report["properties"].items() if not p["pass"]]


@pytest.mark.parametrize("trials", [100, 500])
def test_sign_mutation_fails_only_the_kink_check(trials):
    report = run_suite(trials=trials, seed=3, mutate="sign")
    assert not report["all_pass"]
    assert {k for k, p in report["properties"].items() if not p["pass"]} == {"gradients_at_kinks"}


def test_unknown_mutation_is_rejected():
    with pytest.raises(ValueError):
        run_suite(trials=10, mutate="bogus")


def test_suite_loads_no_scipy():
    src = Path(dicesm.__file__).resolve().parents[1]
    code = ("import sys\n"
            "from dicesm.properties import run_suite\n"
            "assert run_suite(trials=10)['all_pass']\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def _scaled_kernel(monkeypatch, factor):
    """Run check_beta_normalization on beta_kernel times factor(fi, h)."""
    monkeypatch.setattr(properties, "beta_kernel",
                        lambda t, fi, h: factor(fi, h) * beta_kernel(t, fi, h))
    return check_beta_normalization()


@pytest.mark.parametrize("factor", [
    lambda fi, h: 1.0 + 1e-5,
    # exp(-gammaln(a + b)) drops the gammaln(a + b) term of the log normaliser
    lambda fi, h: np.exp(-gammaln(np.float64(fi / h + (1.0 - fi) / h + 2.0))),
], ids=["scaled", "no_gammaln_a_plus_b"])
def test_broken_normaliser_fails_the_check(factor, monkeypatch):
    report = _scaled_kernel(monkeypatch, factor)
    assert (report["pass"], report["failures"], report["trials"]) == (False, 5, 5)


def test_quadrature_agrees_with_scipy_quad(monkeypatch):
    # dividing each kernel by quad's integral turns the check's gap into the
    # relative difference between its rule and quad on each of its five cases
    def quad(fi, h):
        return integrate.quad(lambda t: beta_kernel(t, fi, h), 0.0, 1.0,
                              points=[fi], limit=200)[0]

    report = _scaled_kernel(monkeypatch, lambda fi, h: 1.0 / quad(fi, h))
    assert report["trials"] == 5 and report["max_violation"] < 1e-10
