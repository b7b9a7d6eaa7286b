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


def vec_label(values) -> LabelField:
    """C == 1 label field from a flat vector."""
    return LabelField.from_array(np.asarray(values, dtype=np.float64).reshape(1, 1, -1))


def edge_confidences(rng, n, n_bins=15):
    """Seeded confidences with exact 0s, 1s, bin edges k / n_bins and the
    doubles next to each edge, which the truncated index sends to either
    side of it."""
    conf = rng.random(n)
    edges = np.arange(n_bins + 1) / n_bins
    edges = np.clip(np.concatenate([edges, np.nextafter(edges, -1.0),
                                    np.nextafter(edges, 2.0)]), 0.0, 1.0)
    pick = rng.random(n) < 0.4
    conf[pick] = rng.choice(edges, int(pick.sum()))
    return conf


def ece_float_sums(conf, labels, n_bins):
    """The binned ECE with the positive labels summed as 0.0/1.0 floats
    and the bin index made by astype: the reference for the integer
    counts and in-place index of metrics.ece."""
    idx = np.minimum((conf * n_bins).astype(np.int64), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    conf_sum = np.bincount(idx, weights=conf, minlength=n_bins)
    acc_sum = np.bincount(idx, weights=labels.astype(np.float64), minlength=n_bins)
    occupied = counts > 0
    gaps = np.abs(acc_sum[occupied] - conf_sum[occupied]) / counts[occupied]
    return float(np.sum(counts[occupied] * gaps) / conf.size)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
