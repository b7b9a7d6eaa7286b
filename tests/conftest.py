import numpy as np
import pytest
from hypothesis import settings

from dicesm import LabelField, ProbField

# Property tests draw the same examples on every run; per-test settings keep
# their own max_examples and deadline on top of this profile.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def vec_prob(values) -> ProbField:
    """C == 1 prediction field from a flat vector."""
    a = np.asarray(values, dtype=np.float64).reshape(1, 1, -1)
    return ProbField.from_array(a)


def vec_label(values, hardness=None) -> LabelField:
    """C == 1 label field from a flat vector; hardness inferred unless given."""
    a = np.asarray(values, dtype=np.float64).reshape(1, 1, -1)
    if hardness is None:
        hardness = "hard" if np.all((a == 0.0) | (a == 1.0)) else "soft"
    return LabelField.from_array(a, hardness)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
