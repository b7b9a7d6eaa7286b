import pytest

from dicesm.properties import run_suite


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
