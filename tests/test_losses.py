import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dicesm import losses
from dicesm.core import ProbField, LabelField, ShapeMismatchError
from dicesm.losses import (
    LOSS_NAMES,
    LOSSES,
    OVERLAP_NAMES,
    CompoundParams,
    GradPair,
    ReductionSpec,
    SoftLabelIncompatibleError,
    TverskyParams,
    batch_loss,
    ce,
    cftl,
    compound,
    ctl,
    dml1,
    dml2,
    jml1,
    jml2,
    loss,
    pairwise_values,
    sdl,
    sjl,
    stl,
)

from conftest import vec_prob, vec_label


def soft_ok(name):
    """JSON params that let `name` take soft labels."""
    return {"allow_soft": True} if LOSSES[name].hard_only else None


class TestHandValues:
    def test_sdl(self):
        assert sdl(vec_prob([1, 0]), vec_label([1, 0])).value == 0.0
        assert sdl(vec_prob([0.8, 0.2]), vec_label([1, 0])).value == pytest.approx(0.2, abs=1e-15)
        # vertex-seeking under a soft target: value at x=1 beats x=y=0.5
        assert sdl(vec_prob([1.0]), vec_label([0.5])).value == pytest.approx(1 / 3, abs=1e-15)
        assert sdl(vec_prob([0.5]), vec_label([0.5])).value == pytest.approx(0.5, abs=1e-15)

    def test_sdl_gradient_formula(self):
        # d/dx_i = -(2 y_i S - 2 P) / S^2 at x=[0.8,0.2], y=[1,0]: S=2, P=0.8
        g = sdl(vec_prob([0.8, 0.2]), vec_label([1, 0])).grad.as_array().ravel()
        np.testing.assert_allclose(g, [-(2 * 2 - 1.6) / 4, 1.6 / 4], atol=1e-15)

    def test_sjl(self):
        # reflexive on hard pairs only; soft reflexivity is what jml fixes
        assert sjl(vec_prob([1.0, 0.0]), vec_label([1, 0])).value == 0.0
        assert sjl(vec_prob([0.8, 0.2]), vec_label([1, 0])).value == pytest.approx(1 / 3, abs=1e-15)
        assert sjl(vec_prob([1.0]), vec_label([0.5])).value == pytest.approx(0.5, abs=1e-15)
        assert sjl(vec_prob([0.5]), vec_label([0.5])).value == pytest.approx(2 / 3, abs=1e-15)

    def test_jml(self):
        assert jml1(vec_prob([0.3, 0.7]), vec_label([0.3, 0.7])).value == 0.0
        assert jml2(vec_prob([0.3, 0.7]), vec_label([0.3, 0.7])).value == 0.0
        assert jml1(vec_prob([1.0]), vec_label([0.5])).value == pytest.approx(0.5, abs=1e-15)

    def test_jml_equals_sjl_on_hard(self, rng):
        x, y = vec_prob([0.8, 0.2]), vec_label([1, 0])
        assert jml1(x, y).value == pytest.approx(1 / 3, abs=1e-12)
        assert jml2(x, y).value == pytest.approx(1 / 3, abs=1e-12)
        for _ in range(200):
            p = int(rng.integers(1, 16))
            xv = rng.random(p)
            yv = (rng.random(p) < 0.5).astype(float)
            x, y = vec_prob(xv), vec_label(yv)
            ref = sjl(x, y).value
            assert jml1(x, y).value == pytest.approx(ref, abs=1e-12)
            assert jml2(x, y).value == pytest.approx(ref, abs=1e-12)

    def test_dml(self):
        assert dml1(vec_prob([0.5]), vec_label([0.5])).value == 0.0
        assert dml2(vec_prob([0.5]), vec_label([0.5])).value == 0.0
        assert dml1(vec_prob([1.0]), vec_label([0.5])).value == pytest.approx(1 / 3, abs=1e-15)
        assert dml2(vec_prob([1.0]), vec_label([0.5])).value == pytest.approx(1 / 3, abs=1e-15)

    def test_witness_triple(self):
        a, b, c = [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]
        for f in (dml1, dml2):
            ac = f(vec_prob(a), vec_label(c)).value
            ab = f(vec_prob(a), vec_label(b)).value
            bc = f(vec_prob(b), vec_label(c)).value
            assert ac == pytest.approx(1.0, abs=1e-15)
            assert ab == pytest.approx(1 / 3, abs=1e-15)
            assert bc == pytest.approx(1 / 3, abs=1e-15)

    def test_stl(self):
        x, y = vec_prob([0.8, 0.2]), vec_label([1, 0])
        assert stl(x, y, TverskyParams(0.7, 0.3)).value == pytest.approx(0.2, abs=1e-15)
        assert stl(vec_prob([1, 0]), vec_label([1, 0])).value == 0.0

    def test_stl_equals_sdl_at_half(self, rng):
        tp = TverskyParams(0.5, 0.5)
        for _ in range(200):
            p = int(rng.integers(1, 16))
            x = vec_prob(rng.random(p))
            y = vec_label((rng.random(p) < 0.5).astype(float))
            assert stl(x, y, tp).value == pytest.approx(sdl(x, y).value, abs=1e-12)

    def test_stl_soft_guard(self):
        x, y = vec_prob([0.5]), vec_label([0.5])
        with pytest.raises(SoftLabelIncompatibleError):
            stl(x, y)
        assert stl(x, y, allow_soft=True).value == pytest.approx(0.5, abs=1e-15)

    def test_ctl_reflexive_any_params(self):
        x, y = vec_prob([0.8]), vec_label([0.8])
        for a, b in [(0.5, 0.5), (0.7, 0.3), (1.0, 1.0), (0.2, 1.3)]:
            assert abs(ctl(x, y, TverskyParams(a, b)).value) < 1e-12
            for g in (1.0, 2.0, 4.0):
                assert abs(cftl(x, y, TverskyParams(a, b, g)).value) < 1e-12

    def test_cftl_zero_at_soft_match(self):
        # minimum of the focal curve sits at the soft label value
        for g in (1.0, 2.0, 4.0):
            v = cftl(vec_prob([0.8]), vec_label([0.8]), TverskyParams(0.7, 0.3, g)).value
            assert abs(v) < 1e-12

    def test_asymmetric_tversky_is_exactly_zero_at_x_equal_y(self):
        # at alpha + beta = 1 with alpha != beta, N / T rounds to one ulp
        # above 1; unclamped, ctl read -2.2e-16 and cftl (gamma 4) 2.4e-63
        params = TverskyParams(0.7, 0.3, 4.0)
        for name in ("ctl", "cftl"):
            assert pairwise_values(name, np.array([[0.8]]), np.array([[0.8]]), params)[0] == 0.0
        assert cftl(vec_prob([0.8]), vec_label([0.8]), params).value == 0.0

    def test_ce(self):
        one = ProbField.from_array(np.array([0.5, 0.5]).reshape(2, 1, 1))
        lab = LabelField.from_array(np.array([1.0, 0.0]).reshape(2, 1, 1))
        assert ce(one, lab).value == pytest.approx(np.log(2), abs=1e-12)
        # exact one-hot match costs only the clamp
        hot = ProbField.from_array(np.array([1.0, 0.0]).reshape(2, 1, 1))
        assert ce(hot, lab).value == pytest.approx(0.0, abs=1e-6)

    def test_ce_binary_uses_background(self):
        assert ce(vec_prob([0.5]), vec_label([1.0])).value == pytest.approx(np.log(2), abs=1e-12)
        assert ce(vec_prob([0.5]), vec_label([0.0])).value == pytest.approx(np.log(2), abs=1e-12)

    def test_ce_soft_minimizer_on_simplex(self):
        # grid over the 2-class simplex: minimum at x == y for soft y
        lab = LabelField.from_array(np.array([0.5, 0.5]).reshape(2, 1, 1))
        grid = np.linspace(0.001, 0.999, 999)
        vals = [ce(ProbField.from_array(np.array([q, 1 - q]).reshape(2, 1, 1)), lab).value
                for q in grid]
        assert grid[int(np.argmin(vals))] == pytest.approx(0.5, abs=2e-3)

    def test_compound(self):
        x, y = vec_prob([0.5]), vec_label([1.0])
        expect = 0.25 * np.log(2) + 0.75 * (0.5 / 1.5)
        assert compound(x, y).value == pytest.approx(expect, abs=1e-12)
        assert compound(x, y, w_ce=1.0, w_dml=0.0).value == pytest.approx(ce(x, y).value, abs=1e-15)
        exact = compound(vec_prob([1, 0]), vec_label([1, 0]))
        assert exact.value == pytest.approx(0.0, abs=1e-6)

    def test_compound_grad_is_mixture(self):
        x, y = vec_prob([0.6, 0.3]), vec_label([1, 0])
        g = compound(x, y).grad.as_array()
        ref = 0.25 * ce(x, y).grad.as_array() + 0.75 * dml1(x, y).grad.as_array()
        np.testing.assert_allclose(g, ref, atol=1e-15)


class TestProperties:
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_field_values_equal_pairwise(self, rng, name):
        """properties.check_* derive the paper's properties through pairwise;
        on C == 1 vectors the field path gives pairwise's values bit for bit,
        so they hold for it too."""
        params = soft_ok(name)
        bound, _ = losses.parse_loss_params(name, params)
        for kind in ("hard", "soft", "empty_both"):
            for _ in range(100):
                p = int(rng.integers(1, 33))
                xv, yv = rng.random(p), rng.random(p)
                if kind == "hard":
                    yv = (yv < 0.5).astype(float)
                elif kind == "empty_both":
                    xv, yv = np.zeros(p), np.zeros(p)
                value = loss(name, vec_prob(xv), vec_label(yv), params=params).value
                assert value == pairwise_values(name, xv, yv, bound)[0], (kind, xv, yv)


class TestGradients:
    LOSSES = ["sdl", "sjl", "jml1", "jml2", "dml1", "dml2",
              "stl", "ctl", "cftl", "ce", "compound"]

    @pytest.mark.parametrize("name", LOSSES)
    def test_matches_finite_differences(self, rng, name):
        params = TverskyParams(0.7, 0.3, 2.0) if name in ("stl", "ctl", "cftl") else None
        h = 1e-6
        for _ in range(20):
            p = int(rng.integers(2, 9))
            x = rng.uniform(0.02, 0.98, p)
            y = rng.uniform(0.02, 0.98, p)
            y = np.where(np.abs(x - y) <= 2e-3, np.clip(y + 0.05, 0.0, 1.0), y)
            _, grads, _ = losses.pairwise(name, x[None, :], y[None, :], params)
            for j in range(p):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fp = pairwise_values(name, xp[None, :], y[None, :], params)[0]
                fm = pairwise_values(name, xm[None, :], y[None, :], params)[0]
                fd = (fp - fm) / (2 * h)
                denom = max(abs(fd), abs(grads[0, j]), 1e-8)
                assert abs(fd - grads[0, j]) / denom < 1e-5

    def test_field_grad_matches_pairwise(self, rng):
        xv, yv = rng.random(6), rng.random(6)
        gp = dml1(vec_prob(xv), vec_label(yv))
        _, grads, _ = losses.pairwise("dml1", xv[None, :], yv[None, :])
        np.testing.assert_allclose(gp.grad.as_array().ravel(), grads[0], atol=1e-15)

    def test_kink_convention_sign_zero(self):
        # at x == y the subgradient convention gives exactly zero
        x = vec_prob([0.4, 0.6])
        y = vec_label([0.4, 0.6])
        for f in (jml1, jml2, dml1, dml2):
            np.testing.assert_array_equal(f(x, y).grad.as_array(), 0.0)


class TestReduction:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            sdl(vec_prob([0.5, 0.5]), vec_label([1.0]))

    def test_empty_both_value(self):
        x, y = vec_prob([0.0, 0.0]), vec_label([0.0, 0.0])
        assert sdl(x, y).value == 0.0
        spec = ReductionSpec(empty_both_value=1.0)
        assert sdl(x, y, spec).value == 1.0
        np.testing.assert_array_equal(sdl(x, y, spec).grad.as_array(), 0.0)

    def test_mean_present_vs_mean_all(self):
        # class 0 empty in both; class 1 has loss 0.2
        # build a C=1-style two-class stack without the simplex constraint:
        # use two separate single-class calls instead
        xa = np.zeros((2, 1, 2))
        xa[1] = [[0.8, 0.2]]
        ya = np.zeros((2, 1, 2))
        ya[1] = [[1.0, 0.0]]
        # C=2 fields must satisfy the simplex, so craft sums of 1
        xa[0] = 1.0 - xa[1]
        ya[0] = 1.0 - ya[1]
        x = ProbField.from_array(xa)
        y = LabelField.from_array(ya)
        present = sdl(x, y, ReductionSpec(class_mode="mean_present")).value
        both = sdl(x, y, ReductionSpec(class_mode="mean_all")).value
        # both classes are present here; values agree
        assert present == pytest.approx(both)

    def test_mean_all_counts_empty_classes(self):
        xa = np.zeros((1, 1, 3))
        ya = np.zeros((1, 1, 3))
        x, y = ProbField.from_array(xa), LabelField.from_array(ya)
        assert sdl(x, y, ReductionSpec(class_mode="mean_all", empty_both_value=0.7)).value == 0.7

    def test_batch_modes(self, rng):
        xs = [vec_prob(rng.random(4)) for _ in range(3)]
        ys = [vec_label((rng.random(4) < 0.5).astype(float)) for _ in range(3)]
        v1, g1 = batch_loss("dml1", xs, ys, ReductionSpec())
        per = [dml1(x, y).value for x, y in zip(xs, ys)]
        assert v1 == pytest.approx(np.mean(per), abs=1e-15)
        np.testing.assert_allclose(
            g1[0].as_array(), dml1(xs[0], ys[0]).grad.as_array() / 3, atol=1e-15)

        v2, g2 = batch_loss("dml1", xs, ys, ReductionSpec(batch_mode="pooled"))
        allx = np.concatenate([x.array.ravel() for x in xs])
        ally = np.concatenate([y.array.ravel() for y in ys])
        ref = dml1(vec_prob(allx), vec_label(ally)).value
        assert v2 == pytest.approx(ref, abs=1e-15)
        assert g2[0].dims == xs[0].dims


class TestRegistry:
    PAIR = (vec_prob([0.3, 0.9]), vec_label([1.0, 0.0]))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            loss("dice", *self.PAIR)

    def test_unknown_params(self):
        with pytest.raises(ValueError):
            loss("dml1", *self.PAIR, params={"alpha": 0.5})
        with pytest.raises(ValueError):
            loss("ctl", *self.PAIR, params={"alpha": 0.5, "bogus": 1})

    def test_bound_params(self):
        x, y = vec_prob([0.3, 0.9]), vec_label([0.7, 0.4])
        assert loss("ctl", x, y, params={"alpha": 0.5, "beta": 0.5}).value == pytest.approx(
            dml1(x, y).value, abs=1e-12)
        assert loss("compound", x, y, params={"w_ce": 1.0, "w_dml": 0.0}).value == \
            pytest.approx(ce(x, y).value, abs=1e-15)

    def test_allow_soft_takes_only_a_boolean(self):
        x, y = vec_prob([0.3, 0.9]), vec_label([0.7, 0.4])
        with pytest.raises(ValueError, match="allow_soft"):
            loss("stl", x, y, params={"allow_soft": "false"})
        assert loss("stl", x, y, params={"allow_soft": True}).value == \
            stl(x, y, allow_soft=True).value

    def test_every_name_constructs(self):
        for name in losses.LOSS_NAMES:
            params = {"alpha": 0.6, "beta": 0.4} if name in ("stl", "ctl", "cftl") else None
            assert isinstance(loss(name, *self.PAIR, params=params), GradPair)

    def test_tversky_param_validation(self):
        with pytest.raises(ValueError):
            TverskyParams(0.0, 0.0)
        with pytest.raises(ValueError):
            TverskyParams(0.5, 0.5, 0.0)
        with pytest.raises(ValueError):
            TverskyParams(-0.1, 0.5)

    def test_registry_derives_every_name_list(self):
        assert LOSS_NAMES == tuple(LOSSES)
        assert OVERLAP_NAMES == ("sdl", "sjl", "jml1", "jml2", "dml1", "dml2")
        assert [n for n, e in LOSSES.items() if e.params is TverskyParams] == ["stl", "ctl", "cftl"]
        assert [n for n, e in LOSSES.items() if e.hard_only] == ["stl"]

    def test_compound_params_validation(self):
        with pytest.raises(ValueError):
            CompoundParams(w_ce=-0.1)
        with pytest.raises(ValueError):
            CompoundParams(overlap="ce")
        with pytest.raises(ValueError):
            loss("compound", *self.PAIR, params={"overlap": "ctl"})
        with pytest.raises(ValueError):
            compound(vec_prob([0.5]), vec_label([1.0]), overlap="stl")

    def test_allow_soft_only_for_the_guarded_loss(self):
        x, y = vec_prob([0.5]), vec_label([0.5])
        assert loss("stl", x, y, params={"allow_soft": True}).value == pytest.approx(0.5)
        with pytest.raises(SoftLabelIncompatibleError):
            loss("stl", x, y)
        with pytest.raises(ValueError):
            loss("ctl", x, y, params={"allow_soft": True})


@pytest.fixture
def validated(monkeypatch):
    """The fields passed to core.validate, through every dicesm module that
    binds it."""
    from dicesm import core

    seen, validate = [], core.validate

    def counted(f):
        seen.append(f)
        return validate(f)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dicesm" and getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", counted)
    return seen


class TestSinglePath:
    """A field is validated once, when it is built; a field op or batch_loss
    on existing fields validates nothing again."""

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_validate_runs_once_per_field(self, validated, name):
        x, y = vec_prob([0.3, 0.9]), vec_label([1.0, 0.0])
        assert validated == [x, y]
        getattr(losses, name)(x, y)
        assert validated == [x, y]

    @pytest.mark.parametrize("batch_mode", [losses.PER_IMAGE_THEN_MEAN, losses.POOLED])
    def test_batch_loss_validates_each_field_once(self, validated, batch_mode):
        xs = [vec_prob([0.3, 0.9]), vec_prob([0.5]), vec_prob([0.2, 0.4, 0.6])]
        ys = [vec_label([1.0, 0.0]), vec_label([0.0]), vec_label([0.0, 1.0, 1.0])]
        assert validated == xs + ys
        batch_loss("dml1", xs, ys, ReductionSpec(batch_mode=batch_mode))
        assert validated == xs + ys

    @pytest.mark.parametrize("batch_mode", [losses.PER_IMAGE_THEN_MEAN, losses.POOLED])
    def test_batch_loss_guards_any_soft_target(self, batch_mode):
        red = ReductionSpec(batch_mode=batch_mode)
        hard, soft = vec_label([1.0, 0.0]), vec_label([0.5, 0.0])
        xs = [vec_prob([0.3, 0.9])] * 3
        for ys in ([soft, hard, hard], [hard, hard, soft]):
            with pytest.raises(SoftLabelIncompatibleError):
                batch_loss("stl", xs, ys, red)
            batch_loss("stl", xs, ys, red, {"allow_soft": True})
        batch_loss("stl", xs, [hard] * 3, red)

    def test_sign_at_zero_is_an_argument(self):
        X = np.array([[0.4, 0.6]])
        for name in ("jml1", "jml2", "dml1", "dml2", "ctl", "cftl", "compound"):
            _, flipped, _ = losses.pairwise(name, X, X, None, 1.0)
            _, grads, _ = losses.pairwise(name, X, X)
            assert np.any(flipped != grads), name
        np.testing.assert_array_equal(losses.pairwise("dml1", X, X)[1], 0.0)


@st.composite
def _simplex_field(draw, c, h, w, hard):
    """(c, h, w) array on the simplex. C == 1 holds the foreground value; for
    C >= 2 a pixel is a vertex (exact 0/1 entries) when hard, otherwise its
    drawn weights (exact 0 and 1 among them) normalised to sum 1."""
    unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    if c == 1:
        values = st.sampled_from([0.0, 1.0]) if hard else unit
        return draw(hnp.arrays(np.float64, (1, h, w), elements=values))
    if hard:
        winner = draw(hnp.arrays(np.int64, (h, w), elements=st.integers(0, c - 1)))
        return (np.arange(c)[:, None, None] == winner).astype(np.float64)
    raw = draw(hnp.arrays(np.float64, (c, h, w), elements=unit))
    raw[0][raw.sum(axis=0) == 0.0] = 1.0
    return raw / raw.sum(axis=0)


def _rounding_bound(k: int, value: float) -> float:
    """Largest |v1 - v2| between two evaluations of value whose terms are
    the same but summed in another order.

    Each evaluation is a sum of n same-sign terms followed by r more
    correctly rounded operations, k = n - 1 + r in all. In any summation
    order each term passes through at most k roundings (1 + delta),
    |delta| <= u = eps / 2, so each result is within gamma_k |v| of the
    exact v, gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 3-4); two results are within
    2 gamma_k |v| of each other, k eps |v| to first order. A product or
    quotient that underflows adds an absolute error of at most half the
    smallest subnormal instead; k of them on each side add k times that.
    """
    u = np.finfo(np.float64).eps / 2
    gamma = k * u / (1 - k * u)
    tiny = np.finfo(np.float64).smallest_subnormal
    return 2 * gamma / (1 - gamma) * abs(value) + k * tiny


class TestFieldOpFuzz:
    """Every registered loss on random fields: finite values and gradients,
    the loss's range, and class permutation equivariance. Relabelling the
    classes of x and y permutes the gradient bit for bit, because every
    per-class term is computed from its own class alone. The value moves
    only by the order of the class mean (n = C terms, then the division
    by the count: k = C) or of the categorical cross-entropy sum (n = C H W
    terms, then the division by H W: k = C H W); compound also scales and
    adds its two parts (k = C H W + 2)."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), name=st.sampled_from(LOSS_NAMES),
           class_mode=st.sampled_from([losses.MEAN_PRESENT, losses.MEAN_ALL]),
           c=st.integers(1, 4), h=st.integers(1, 4), w=st.integers(1, 4),
           hard=st.booleans())
    def test_range_and_class_permutation(self, data, name, class_mode, c, h, w, hard):
        xa = data.draw(_simplex_field(c, h, w, hard=False))
        ya = data.draw(_simplex_field(c, h, w, hard=hard))
        perm = data.draw(st.permutations(range(c)))
        red = ReductionSpec(class_mode=class_mode)

        def run(x, y):
            pair = loss(name, ProbField.from_array(x),
                        LabelField.from_array(y), red, soft_ok(name))
            return pair.value, pair.grad.as_array()

        value, grad = run(xa, ya)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        if name in ("ce", "compound"):
            assert value >= 0.0
        else:
            assert 0.0 <= value <= 1.0
        p_value, p_grad = run(xa[perm], ya[perm])
        np.testing.assert_array_equal(p_grad, grad[perm])
        if name == "compound" and c > 1:
            k = c * h * w + 2
        elif name == "ce" and c > 1:
            k = c * h * w
        else:
            k = c
        assert abs(p_value - value) <= _rounding_bound(k, value)

    @pytest.mark.parametrize("name", [n for n in LOSS_NAMES if n not in ("ce", "compound")])
    def test_disjoint_supports_stay_at_most_one(self, name):
        # D and S sum the same terms in another order; unclamped, D / S
        # read 1 + 2**-52 here for dml1, jml1, ctl and cftl
        a = 0.04097352393619469
        pair = loss(name, vec_prob([a, 0.0, 0.0]), vec_label([0.0, a, 1.0]),
                    params=soft_ok(name))
        assert pair.value <= 1.0


def _batch_arrays(rng, c, hard, empty):
    """Three (c, h, w) prediction/target pairs of different sizes, with
    exact 0 and 1 entries on both sides. With empty, the last class (the
    only class at c == 1) is 0 in every prediction and target."""
    xs, ys = [], []
    for h, w in ((4, 5), (3, 7), (6, 2)):
        r = rng.random((c, h, w))
        r[:, 0, 0] = 0.0
        r[0, 0, 0] = 1.0  # a vertex pixel
        if c == 1:
            r[0, 1, 1] = 0.0
            y = (rng.random((1, h, w)) < 0.5).astype(float) if hard else \
                rng.integers(0, 5, (1, h, w)) / 4.0
        else:
            if empty:
                r[-1] = 0.0  # before normalising, so each pixel sums to 1
            winner = rng.integers(0, c - 1 if empty else c, (h, w))
            onehot = (np.arange(c)[:, None, None] == winner).astype(float)
            if hard:
                y = onehot
            else:
                s = rng.integers(0, 3, (c, h, w)).astype(float)
                if empty:
                    s[-1] = 0.0
                s[:, 0, :] = onehot[:, 0, :]  # a row of vertex pixels
                s[0][s.sum(axis=0) == 0.0] = 1.0
                y = s / s.sum(axis=0)
            r = r / r.sum(axis=0)
        if empty:
            r[-1] = 0.0
            y[-1] = 0.0
        xs.append(r)
        ys.append(y)
    return xs, ys


def _parent_batch(name, params, xs, ys, red):
    """per_image_then_mean written out on the public loss: the mean of
    per-image values with each gradient divided by the batch size."""
    pairs = [loss(name, ProbField.from_array(x), LabelField.from_array(y), red, params)
             for x, y in zip(xs, ys)]
    return (float(np.mean([p.value for p in pairs])),
            [p.grad.data.reshape(x.shape) / len(xs) for x, p in zip(xs, pairs)])


def _concatenated(name, params, xs, ys, red):
    """One loss on every image's pixels concatenated class by class: its
    value and its (C, sum p) gradient rows."""
    c = xs[0].shape[0]
    pair = loss(name,
                ProbField.from_array(np.concatenate([x.reshape(c, 1, -1) for x in xs], axis=2)),
                LabelField.from_array(np.concatenate([y.reshape(c, 1, -1) for y in ys], axis=2)),
                red, params)
    return pair.value, pair.grad.as_array().reshape(c, -1)


def _pooled_batch(name, params, xs, ys, red):
    """pooled written out: each image's np.sum per class (over every class
    for the categorical ce's T), added in image order, are the sums that
    the loss's row kernel reads; each image's gradient rows come from the
    kernel on its own pixels, reduced over classes and mixed as the module
    docstring says."""
    bound, _ = losses.parse_loss_params(name, params)
    c = xs[0].shape[0]
    rows = [(x.reshape(c, -1), y.reshape(c, -1)) for x, y in zip(xs, ys)]

    def total(f, axis=1):
        parts = [np.sum(f(X, Y), axis=axis) for X, Y in rows]
        out = parts[0]
        for part in parts[1:]:
            out = out + part
        return out

    def clip(X):
        return np.clip(X, losses.CE_CLAMP, 1.0 - losses.CE_CLAMP)

    s = {"N": sum(X.shape[1] for X, _ in rows), "X": total(lambda X, Y: X),
         "Y": total(lambda X, Y: Y), "P": total(lambda X, Y: X * Y),
         "D": total(lambda X, Y: np.abs(X - Y)),
         "L": total(lambda X, Y: Y * np.log(clip(X)) + (1.0 - Y) * np.log1p(-clip(X))),
         "T": total(lambda X, Y: Y * np.log(clip(X)), None)}

    def term(n, p, X, Y):
        if n == "ce" and c > 1:
            return float(-s["T"] / s["N"]), -(Y / clip(X)) / s["N"]
        vals, grads, ok = LOSSES[n].kernel(s, X, Y, p, 0.0)
        if red.class_mode == losses.MEAN_ALL:
            return float(np.mean(np.where(ok, vals, red.empty_both_value))), grads / c
        if not ok.any():
            return red.empty_both_value, grads
        return float(np.mean(vals[ok])), grads / ok.sum()

    value, grads = None, []
    for x, (X, Y) in zip(xs, rows):
        if name == "compound":
            (ov, og), (cv, cg) = term(bound.overlap, None, X, Y), term("ce", None, X, Y)
            value, g = bound.w_ce * cv + bound.w_dml * ov, bound.w_ce * cg + bound.w_dml * og
        else:
            value, g = term(name, bound, X, Y)
        grads.append(g.reshape(x.shape))
    return value, grads


_ARRAY_PATH_LOSSES = [
    *[(n, None) for n in LOSS_NAMES if n not in ("stl", "ctl", "cftl", "compound")],
    ("stl", {"allow_soft": True}),
    ("ctl", {"alpha": 0.7, "beta": 0.3}),
    ("cftl", {"alpha": 0.3, "beta": 0.6, "gamma": 2.0}),
    *[("compound", {"overlap": o, "w_ce": 0.3}) for o in OVERLAP_NAMES],
]


class TestArrayPath:
    """The training loop's array path, _reduce_batch on parse_loss_params's
    bound params, gives batch_loss's values and gradients bit for bit, and
    those of its written-out oracles: per_image_then_mean on the public
    loss, pooled on each image's np.sum added in image order."""

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("name,params", _ARRAY_PATH_LOSSES)
    def test_matches_the_field_path(self, name, params, c):
        bound, _ = losses.parse_loss_params(name, params)
        rng = np.random.default_rng(c)
        for batch_mode in (losses.PER_IMAGE_THEN_MEAN, losses.POOLED):
            for class_mode in (losses.MEAN_PRESENT, losses.MEAN_ALL):
                red = ReductionSpec(class_mode=class_mode, batch_mode=batch_mode)
                for hard in (True, False):
                    for empty in (False, True):
                        xs, ys = _batch_arrays(rng, c, hard, empty)
                        kept = [x.copy() for x in xs] + [y.copy() for y in ys]
                        value, grads = losses._reduce_batch(name, bound, xs, ys, red)
                        oracle = _parent_batch if batch_mode == losses.PER_IMAGE_THEN_MEAN \
                            else _pooled_batch
                        ref_value, ref_grads = oracle(name, params, xs, ys, red)
                        fields = ([ProbField.from_array(x) for x in xs],
                                  [LabelField.from_array(y)
                                   for y in ys])
                        bl_value, bl_grads = batch_loss(name, *fields, red, params)
                        case = (batch_mode, class_mode, hard, empty)
                        assert value == ref_value == bl_value, case
                        for g, r, b in zip(grads, ref_grads, bl_grads):
                            assert np.array_equal(g, r), case
                            assert np.array_equal(g, b.as_array()), case
                        # the inputs are read, never written
                        for a, b in zip(xs + ys, kept):
                            assert np.array_equal(a, b), case

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("name,params", _ARRAY_PATH_LOSSES)
    def test_a_pooled_image_is_the_field_op(self, name, params, c):
        bound, _ = losses.parse_loss_params(name, params)
        rng = np.random.default_rng(c)
        for class_mode in (losses.MEAN_PRESENT, losses.MEAN_ALL):
            red = ReductionSpec(class_mode=class_mode, batch_mode=losses.POOLED)
            for hard in (True, False):
                for empty in (False, True):
                    for x, y in zip(*_batch_arrays(rng, c, hard, empty)):
                        value, (g,) = losses._reduce_batch(name, bound, [x], [y], red)
                        pair = loss(name, ProbField.from_array(x), LabelField.from_array(y),
                                    red, params)
                        case = (class_mode, hard, empty)
                        assert np.float64(value).tobytes() == np.float64(pair.value).tobytes(), case
                        assert g.tobytes() == pair.grad.as_array().tobytes(), case

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("name,params", _ARRAY_PATH_LOSSES)
    def test_pooled_stays_within_the_bound_of_the_concatenated_field(self, name, params, c,
                                                                     monkeypatch):
        """Both paths add the same n terms of one sign into each sum, in two
        orders, so the two sums differ by at most rho = 2 gamma_{n-1} / (1 -
        gamma_{n-1}) of the concatenated one (Higham 2002, section 4.2), with
        n the pixels per class (of every class for the categorical ce's T).
        Both then run the same kernel on their sums. Its outputs move over
        the box of sums s (1 +- rho) by at most their largest move at a
        corner, to first order; the bound doubles that for the second-order
        terms and for each path's own rounding of the closed form, a few
        ulps against rho >= 104 ulps at n = 53."""
        bound, _ = losses.parse_loss_params(name, params)
        rng = np.random.default_rng(c)
        sums, made = losses._Sums, []

        def recording(rows):
            made.append(sums(rows))
            return made[-1]

        for class_mode in (losses.MEAN_PRESENT, losses.MEAN_ALL):
            red = ReductionSpec(class_mode=class_mode, batch_mode=losses.POOLED)
            for hard in (True, False):
                for empty in (False, True):
                    xs, ys = _batch_arrays(rng, c, hard, empty)
                    value, grads = losses._reduce_batch(name, bound, xs, ys, red)
                    grad = np.concatenate([g.reshape(c, -1) for g in grads], axis=1)
                    ref_value, ref_grad = _concatenated(name, params, xs, ys, red)
                    xc, yc = (np.concatenate([a.reshape(c, 1, -1) for a in arrays], axis=2)
                              for arrays in (xs, ys))
                    # the concatenated field's sums, as many as the loss reads
                    monkeypatch.setattr(losses, "_Sums", recording)
                    losses._terms(name, [xc], [yc], red, bound)
                    ref = dict(made.pop())
                    n = xc.size if "T" in ref else xc.shape[2]
                    gamma = (n - 1) * 2.0 ** -53 / (1.0 - (n - 1) * 2.0 ** -53)
                    rho = 2.0 * gamma / (1.0 - gamma)
                    pooled = sums([(x.reshape(c, -1), y.reshape(c, -1)) for x, y in zip(xs, ys)])
                    for k in ref:
                        assert np.all(np.abs(pooled[k] - ref[k]) <= rho * np.abs(ref[k])), k
                    floats = [k for k in ref if k != "N"]
                    moved_value, moved_grad = 0.0, np.zeros_like(ref_grad)
                    for signs in itertools.product((-1.0, 1.0), repeat=len(floats)):
                        corner = {**ref, **{k: ref[k] * (1.0 + sg * rho)
                                            for k, sg in zip(floats, signs)}}
                        monkeypatch.setattr(losses, "_Sums", lambda rows: corner)
                        v, (g,) = losses._terms(name, [xc], [yc], red, bound)
                        moved_value = max(moved_value, abs(v - ref_value))
                        moved_grad = np.maximum(moved_grad, np.abs(g.reshape(c, -1) - ref_grad))
                    monkeypatch.setattr(losses, "_Sums", sums)
                    case = (class_mode, hard, empty)
                    assert abs(value - ref_value) <= 2.0 * moved_value, case
                    assert np.all(np.abs(grad - ref_grad) <= 2.0 * moved_grad), case

    def test_pooled_needs_a_common_class_count(self):
        xs = [np.full((1, 2, 2), 0.5), np.full((2, 2, 2), 0.5)]
        with pytest.raises(ShapeMismatchError, match="common class count"):
            losses._reduce_batch("dml1", None, xs, xs, ReductionSpec(batch_mode="pooled"))

    def test_shapes_must_match(self):
        with pytest.raises(ShapeMismatchError, match=r"dims \(1, 2, 2\) vs \(1, 2, 3\)"):
            losses._reduce_batch("dml1", None, [np.zeros((1, 2, 2))], [np.zeros((1, 2, 3))],
                                 ReductionSpec())


class TestScratchCopies:
    """No path writes to a caller's array, and a pooled batch holds its
    returned gradients and a fixed number of image-sized temporaries: it
    copies no batch."""

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("overlap", OVERLAP_NAMES)
    def test_every_path_leaves_the_inputs_bit_identical(self, overlap, c):
        rng = np.random.default_rng(c)
        xs, ys = _batch_arrays(rng, c, hard=False, empty=False)
        # exact 0s and 1s, which the clip would move
        assert any(((x < losses.CE_CLAMP) | (x > 1.0 - losses.CE_CLAMP)).any() for x in xs)
        kept = [a.copy() for a in xs + ys]
        params = {"overlap": overlap}
        bound, _ = losses.parse_loss_params("compound", params)
        fields = [ProbField.from_array(x) for x in xs], \
            [LabelField.from_array(y) for y in ys]
        for batch_mode in (losses.PER_IMAGE_THEN_MEAN, losses.POOLED):
            red = ReductionSpec(batch_mode=batch_mode)
            losses._reduce_batch("compound", bound, xs, ys, red)
            losses._reduce_batch("ce", None, xs, ys, red)
            batch_loss("compound", *fields, red, params)
        for x, y in zip(*fields):
            loss("compound", x, y, None, params)
        for a, b in zip(xs + ys, kept):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        for f, b in zip(fields[0] + fields[1], kept):
            assert np.array_equal(f.array.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("name,params", [("compound", None),
                                             ("compound", {"overlap": "dml2"}),
                                             ("dml2", None)])
    def test_pooled_peak_is_the_gradients_and_two_images(self, name, params):
        # Design bound, fixed before measuring: the returned gradients (one
        # batch array) and two image-sized arrays. While an image's overlap
        # kernel runs, its two buffers stand in for that image's gradient,
        # and compound's previous overlap gradient is still bound; the ce
        # term then writes its gradient into its own clip. The sums are
        # made while the first image is in hand, before any returned
        # gradient exists, with at most two image-sized temporaries.
        # 1 MiB covers the (C,)-sized sums and the lists. A copy of the
        # batch's x or y would exceed it.
        import tracemalloc

        rng = np.random.default_rng(0)
        c, hw, n = 2, 192, 8
        xs, ys = [], []
        for _ in range(n):
            p = rng.random((hw, hw))
            xs.append(np.stack([1.0 - p, p]))
            q = rng.integers(0, 5, (hw, hw)) / 4.0
            ys.append(np.stack([1.0 - q, q]))
        bound, _ = losses.parse_loss_params(name, params)
        red = ReductionSpec(batch_mode=losses.POOLED)
        image_bytes = 8 * c * hw * hw
        tracemalloc.start()
        try:
            losses._reduce_batch(name, bound, xs, ys, red)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (n + 2) * image_bytes + 2 ** 20


# The dml1 and dml2 kernels as closed forms with a new array per
# operation: the oracles of TestInPlaceKernels.

def _sign_ref(d, s0):
    s = np.sign(d)
    if s0 != 0.0:
        s = np.where(d == 0.0, s0, s)
    return s


def _safe_div_ref(num, den):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    np.copyto(out, 0.0, where=den == 0.0)
    return out


def _finish_ref(vals, grads, ok):
    np.clip(vals, 0.0, 1.0, out=vals)
    vals[~ok] = 0.0
    grads[~ok] = 0.0
    return vals, grads, ok


def _dml1_ref(X, Y, s0):
    S = np.sum(X, axis=1) + np.sum(Y, axis=1)
    diff = X - Y
    D = np.sum(np.abs(diff), axis=1)
    ok = S > 0.0
    vals = _safe_div_ref(D, S)
    sg = _sign_ref(diff, s0)
    grads = _safe_div_ref(sg * S[:, None] - D[:, None], (S * S)[:, None])
    return _finish_ref(vals, grads, ok)


def _dml2_ref(X, Y, s0):
    P = np.sum(X * Y, axis=1)
    diff = X - Y
    D = np.sum(np.abs(diff), axis=1)
    den = 2.0 * P + D
    ok = den > 0.0
    vals = _safe_div_ref(D, den)
    sg = _sign_ref(diff, s0)
    grads = _safe_div_ref(2.0 * (sg * P[:, None] - Y * D[:, None]), (den * den)[:, None])
    return _finish_ref(vals, grads, ok)


def _kernel_row(rng, kind, p=6):
    """One (x, y) row pair of a kind: "empty" (x = y = 0, so every
    denominator is 0), "tiny" (entries near 1e-170: the denominators are
    positive but their squares underflow to 0), "subnormal" (entries near
    1e-160, whose products are subnormal, and one x entry of 0.7), "hard"
    (0/1 entries) or "soft" (random, with exact 0 and 1 entries)."""
    if kind == "empty":
        return np.zeros(p), np.zeros(p)
    if kind in ("tiny", "subnormal"):
        scale = 1e-170 if kind == "tiny" else 1e-160
        x = scale * np.array([1.0, 0.0, 2.0, 3.0, 0.0, 1.0])[:p]
        y = scale * np.array([0.0, 1.0, 2.0, 1.0, 0.0, 0.0])[:p]
        if kind == "subnormal":
            x[4] = 0.7
        return x, y
    if kind == "hard":
        return (rng.integers(0, 2, p).astype(np.float64),
                rng.integers(0, 2, p).astype(np.float64))
    x, y = rng.random(p), rng.random(p)
    x[:2] = (0.0, 1.0)
    y[1:3] = (0.0, 1.0)
    return x, y


class TestInPlaceKernels:
    """dml1 and dml2 work in buffers of their own and must give the bits of
    their closed forms, for C in {1, 2, 3} rows of every kind."""

    KINDS = ("empty", "tiny", "subnormal", "hard", "soft")

    def test_tiny_rows_underflow_only_in_the_square(self):
        x, y = _kernel_row(None, "tiny")
        den2 = 2.0 * np.sum(x * y) + np.sum(np.abs(x - y))
        den1 = np.sum(x) + np.sum(y)
        for den in (den1, den2):
            assert den > 0.0 and den * den == 0.0

    @pytest.mark.parametrize("name,ref", [("dml1", _dml1_ref), ("dml2", _dml2_ref)])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_equal_to_the_closed_forms(self, name, ref, c):
        rng = np.random.default_rng(c)
        for kinds in np.ndindex(*(len(self.KINDS),) * c):
            rows = [_kernel_row(rng, self.KINDS[i]) for i in kinds]
            X = np.array([x for x, _ in rows])
            Y = np.array([y for _, y in rows])
            kept = X.copy(), Y.copy()
            for s0 in (0.0, 1.0):
                vals, grads, ok = losses.pairwise(name, X, Y, None, s0)
                r_vals, r_grads, r_ok = ref(X, Y, s0)
                case = (name, kinds, s0)
                assert (vals == r_vals).all(), case
                assert np.array_equal(vals.view(np.uint64), r_vals.view(np.uint64)), case
                assert np.array_equal(grads, r_grads), case
                assert np.array_equal(grads.view(np.uint64), r_grads.view(np.uint64)), case
                assert np.array_equal(ok, r_ok), case
                assert np.all(np.isfinite(grads)), case
                assert np.array_equal(X, kept[0]) and np.array_equal(Y, kept[1]), case
