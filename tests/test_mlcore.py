import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (
    batch_ridge,
    bayesian_update_reference,
    learn_transform,
    linear_sgd_update_reference,
    moments,
    passive_aggressive_update_reference,
)
from convergesim.mlcore import (
    _dot,
    _sample_values,
    BayesianLinear,
    DimensionMismatchError,
    LinearSGD,
    PassiveAggressive,
    RunningScaler,
    MODEL_VARIANTS,
    make_model,
    model_from_json,
    model_to_json,
    r_squared,
)


# --- running scaler -----------------------------------------------------------


def test_scaler_matches_batch_statistics_on_small_stream():
    scaler = RunningScaler()
    stream = [1.0, 2.0, 3.0]
    out = [learn_transform(scaler, {"v": x})["v"] for x in stream]
    batch = np.array(stream)
    assert moments(scaler, "v")[0] == pytest.approx(batch.mean(), abs=1e-15)
    assert moments(scaler, "v")[1] == pytest.approx(batch.var(), abs=1e-15)  # population
    assert out[-1] == pytest.approx((3.0 - batch.mean()) / batch.std(), abs=1e-12)
    assert out[-1] == pytest.approx(1.2247, abs=1e-4)


def test_scaler_first_sample_transforms_to_zero():
    scaler = RunningScaler()
    assert learn_transform(scaler, {"v": 17.3}) == {"v": 0.0}


def test_scaler_constant_stream_is_all_zeros():
    scaler = RunningScaler()
    outs = [learn_transform(scaler, {"v": 5.0})["v"] for _ in range(3)]
    assert outs == [0.0, 0.0, 0.0]


def test_scaler_equals_batch_over_long_random_stream():
    rng = np.random.default_rng(42)
    scaler = RunningScaler()
    xs = rng.normal(3.0, 10.0, size=10_000)
    for x in xs:
        learn_transform(scaler, {"v": float(x)})
    assert abs(moments(scaler, "v")[0] - xs.mean()) < 1e-10
    assert abs(moments(scaler, "v")[1] - xs.var()) < 1e-10


def test_scaler_transform_does_not_learn():
    scaler = RunningScaler()
    learn_transform(scaler, {"v": 1.0})
    learn_transform(scaler, {"v": 2.0})
    before = moments(scaler, "v")
    scaler.transform({"v": 100.0})
    assert moments(scaler, "v") == before


def test_scaler_rejects_non_finite():
    with pytest.raises(ValueError):
        learn_transform(RunningScaler(), {"v": float("nan")})


def test_scaler_rejects_a_new_key_set_and_keeps_its_state():
    scaler = RunningScaler()
    learn_transform(scaler, {"a": 1.0, "b": 2.0})
    learn_transform(scaler, {"a": 3.0, "b": 5.0})
    before = model_to_json(scaler)
    for sample in ({"a": 1e6}, {"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 1.0, "c": 2.0}):
        with pytest.raises(DimensionMismatchError):
            learn_transform(scaler, sample)
        with pytest.raises(DimensionMismatchError):
            scaler.transform(sample)
    assert model_to_json(scaler) == before
    assert scaler.feature_names == ("a", "b")


def test_scaler_rejects_a_sample_that_overflows_its_statistics():
    scaler = RunningScaler()
    learn_transform(scaler, {"v": -1e308})
    before = model_to_json(scaler)
    with pytest.raises(ValueError):
        learn_transform(scaler, {"v": 1e308})  # delta = 2e308 overflows
    assert model_to_json(scaler) == before


def test_scaler_state_with_unequal_feature_counts_is_rejected():
    state = {
        "format": "convergesim-model-v1",
        "kind": "running_scaler",
        "stats": {"a": {"n": 2, "mean": 1.0, "m2": 0.5},
                  "b": {"n": 1, "mean": 3.0, "m2": 0.0}},
    }
    with pytest.raises(ValueError):
        RunningScaler.from_state(state)


# --- passive aggressive -------------------------------------------------------


def test_pa_hand_worked_update():
    # from w=0: loss = |0-1| - 0.1 = 0.9; tau = min(1, 0.9/1) = 0.9
    model = PassiveAggressive(C=1.0, epsilon=0.1)
    model.learn({"a": 1.0}, 1.0)
    assert model.w[0] == pytest.approx(0.9, abs=1e-15)
    assert model.b == pytest.approx(0.9, abs=1e-15)
    assert model.samples_seen == 1


def test_pa_no_update_zone_is_bit_exact():
    model = PassiveAggressive(C=1.0, epsilon=0.5)
    model.learn({"a": 1.0, "b": -2.0}, 3.0)
    w_before = model.w.copy()
    b_before = model.b
    prediction = model.predict({"a": 1.0, "b": -2.0})
    model.learn({"a": 1.0, "b": -2.0}, prediction + 0.4)  # inside the band
    assert np.array_equal(model.w, w_before)
    assert model.b == b_before
    assert model.samples_seen == 2  # counter still advances


def test_pa_clipping_at_aggressiveness():
    clipped = PassiveAggressive(C=0.1, epsilon=0.0)
    clipped.learn({"a": 1.0}, 10.0)
    assert clipped.w[0] == pytest.approx(0.1)
    unclipped = PassiveAggressive(C=math.inf, epsilon=0.0)
    unclipped.learn({"a": 1.0}, 10.0)
    assert unclipped.w[0] == pytest.approx(10.0)


# --- bayesian -----------------------------------------------------------------


def test_bayesian_one_step_closed_form():
    model = BayesianLinear(alpha=1.0, beta=1.0)
    model.learn({"a": 1.0}, 2.0)
    assert model.A == [[2.0]] and type(model.A[0][0]) is float
    assert model.c == [2.0] and type(model.c[0]) is float
    assert model.weights().tolist() == [1.0]
    assert model.predict({"a": 1.0}) == pytest.approx(1.0, abs=1e-15)


# magnitudes from 1e-5 to 1e5, both signs
SIGNED = st.builds(math.copysign, st.floats(1e-5, 1e5), st.sampled_from([1.0, -1.0]))


@given(dim=st.integers(1, 4), alpha=st.floats(1e-3, 1e3), beta=st.floats(1e-3, 1e3),
       data=st.data())
def test_bayesian_list_update_is_bit_identical_to_numpy(dim, alpha, beta, data):
    model = BayesianLinear(alpha=alpha, beta=beta)
    names = [f"f{i}" for i in range(dim)]  # sorted, so in state order
    A, c = alpha * np.eye(dim), np.zeros(dim)
    for _ in range(data.draw(st.integers(1, 5))):
        x = data.draw(st.lists(SIGNED, min_size=dim, max_size=dim))
        y = data.draw(SIGNED)
        A, c = bayesian_update_reference(A, c, np.array(x), beta, y)
        model.learn(dict(zip(names, x)), y)
        assert np.array(model.A).tobytes() == A.tobytes()
        assert np.array(model.c).tobytes() == c.tobytes()


def vectors(dim: int):
    return st.lists(SIGNED, min_size=dim, max_size=dim)


def float_bytes(value: float) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.parametrize("variant", ["linear_sgd", "passive_aggressive"])
@given(dim=st.integers(1, 4), learning_rate=st.floats(1e-4, 1.0),
       C=st.floats(1e-3, 1e3) | st.just(math.inf), epsilon=st.floats(0.0, 10.0),
       data=st.data())
def test_linear_list_update_is_bit_identical_to_numpy(variant, dim, learning_rate, C,
                                                       epsilon, data):
    if variant == "linear_sgd":
        model = LinearSGD(learning_rate=learning_rate)
        def update(w, b, x, y):
            return linear_sgd_update_reference(w, b, x, learning_rate, y)
    else:
        model = PassiveAggressive(C=C, epsilon=epsilon)
        def update(w, b, x, y):
            return passive_aggressive_update_reference(w, b, x, C, epsilon, y)
    names = [f"f{i}" for i in range(dim)]  # sorted, so in state order
    w, b = np.zeros(dim), 0.0
    for _ in range(data.draw(st.integers(1, 5))):
        x = data.draw(vectors(dim))
        y = data.draw(SIGNED)
        w, b = update(w, b, np.array(x), y)
        model.learn(dict(zip(names, x)), y)
        assert np.array(model.w).tobytes() == w.tobytes()
        assert float_bytes(model.b) == float_bytes(b)
        probe = data.draw(vectors(dim))
        expected = w @ np.array(probe) + b
        assert float_bytes(model.predict(dict(zip(names, probe)))) == float_bytes(expected)


@given(st.integers(1, 8).flatmap(lambda dim: st.tuples(vectors(dim), vectors(dim))))
def test_dot_is_bit_identical_to_the_numpy_product(pair):
    a, b = pair
    assert float_bytes(_dot(a, b)) == float_bytes(np.array(a) @ np.array(b))


def test_bayesian_equals_batch_ridge():
    rng = np.random.default_rng(5)
    for _ in range(30):
        dim = int(rng.integers(1, 6))
        n = int(rng.integers(2, 201))
        alpha = float(rng.uniform(0.1, 5.0))
        beta = float(rng.uniform(0.1, 5.0))
        X = rng.normal(size=(n, dim))
        y = rng.normal(size=n)
        model = BayesianLinear(alpha=alpha, beta=beta)
        names = [f"f{i}" for i in range(dim)]
        for row, target in zip(X, y):
            model.learn(dict(zip(names, row)), float(target))
        expected = batch_ridge(X, y, alpha / beta)
        assert np.allclose(model.weights(), expected, atol=1e-8)


def test_bayesian_is_permutation_invariant():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    names = ["a", "b", "c"]

    def train(order):
        model = BayesianLinear()
        for i in order:
            model.learn(dict(zip(names, X[i])), float(y[i]))
        return model.weights()

    base = train(range(50))
    for _ in range(5):
        perm = rng.permutation(50)
        assert np.allclose(train(perm), base, atol=1e-9)


def test_bayesian_rejects_bad_hyperparameters():
    with pytest.raises(ValueError):
        BayesianLinear(alpha=0.0)


@pytest.mark.parametrize("variant, param, value", [
    ("linear_sgd", "learning_rate", 0.0),
    ("linear_sgd", "learning_rate", math.nan),
    ("linear_sgd", "learning_rate", math.inf),
    ("bayesian", "alpha", -1.0),
    ("bayesian", "beta", math.inf),
    ("bayesian", "beta", math.nan),
    ("passive_aggressive", "C", 0.0),
    ("passive_aggressive", "C", math.nan),
    ("passive_aggressive", "epsilon", -0.5),
    ("passive_aggressive", "epsilon", math.inf),
])
def test_a_regressor_refuses_parameters_its_update_does_not_define(variant, param, value):
    with pytest.raises(ValueError, match=f"{param} must be"):
        make_model(variant, **{param: value})


def solve_bytes(model) -> bytes:
    """The bytes of a fresh solve of the model's A w = c."""
    return np.linalg.solve(np.array(model.A), np.array(model.c)).tobytes()


@given(dim=st.integers(1, 4), alpha=st.floats(1e-3, 1e3), beta=st.floats(1e-3, 1e3),
       data=st.data())
def test_bayesian_weights_are_solved_once_per_state(dim, alpha, beta, data):
    model = BayesianLinear(alpha=alpha, beta=beta)
    names = tuple(f"f{i}" for i in range(dim))
    for _ in range(data.draw(st.integers(1, 5))):
        model.learn_values(names, data.draw(vectors(dim)), data.draw(SIGNED))
        weights = model.weights()
        assert weights.tobytes() == solve_bytes(model)  # after an accepted learn
        assert model.weights() is weights  # the same state is not solved again
    with pytest.raises(ValueError, match="overflows"):
        model.learn_values(names, [1e300] * dim, 1e300)
    assert model.weights() is weights and weights.tobytes() == solve_bytes(model)
    with pytest.raises(ValueError, match="read-only"):
        weights[0] = 1.0
    restored = model_from_json(model_to_json(model))
    assert restored.weights().tobytes() == weights.tobytes() == solve_bytes(restored)


# --- linear sgd ---------------------------------------------------------------


def test_sgd_update_rule():
    model = LinearSGD(learning_rate=0.1)
    model.learn({"a": 2.0}, 1.0)  # error = -1: w += 0.1*1*2, b += 0.1
    assert model.w[0] == pytest.approx(0.2, abs=1e-15)
    assert model.b == pytest.approx(0.1, abs=1e-15)


def test_sgd_zero_gradient_leaves_weights():
    model = LinearSGD()
    model.learn({"a": 1.0}, 5.0)
    w_before = model.w.copy()
    b_before = model.b
    prediction = model.predict({"a": 1.0})
    model.learn({"a": 1.0}, prediction)  # zero error
    assert np.array_equal(model.w, w_before)
    assert model.b == b_before


def test_sgd_converges_on_noiseless_line():
    rng = np.random.default_rng(2)
    model = LinearSGD(learning_rate=0.05)
    for _ in range(3000):
        x = float(rng.uniform(-1, 1))
        model.learn({"x": x}, 3.0 * x + 1.0)
    assert model.predict({"x": 0.5}) == pytest.approx(2.5, abs=0.01)


# --- shared model behavior ------------------------------------------------------


def test_cold_model_predicts_zero_with_flag():
    for variant in ("linear_sgd", "bayesian", "passive_aggressive"):
        model = make_model(variant)
        assert model.cold
        assert model.predict({"a": 1.0, "b": 2.0}) == 0.0
        model.learn({"a": 1.0, "b": 2.0}, 1.0)
        assert not model.cold


def test_dimension_fixed_by_first_learn():
    model = LinearSGD()
    model.learn({"a": 1.0, "b": 2.0}, 1.0)
    with pytest.raises(DimensionMismatchError):
        model.learn({"a": 1.0}, 1.0)
    with pytest.raises(DimensionMismatchError):
        model.predict({"a": 1.0, "c": 2.0})


@pytest.mark.parametrize("variant", sorted(MODEL_VARIANTS))
def test_learn_values_refuses_other_names_lengths_and_non_finite_values(variant):
    model = make_model(variant)
    with pytest.raises(DimensionMismatchError):  # fresh, but one value short
        model.learn_values(("a", "b"), [1.0], 1.0)
    assert model.feature_names is None
    model.learn_values(("a", "b"), [1.0, -1.0], 1.0)
    before = model_to_json(model)
    for names, values in ((("a", "c"), [1.0, 2.0]), (("a",), [1.0]), (("a", "b"), [1.0]),
                          (("a", "b"), [1.0, math.nan]), (("a", "b"), [math.inf, 1.0])):
        with pytest.raises((DimensionMismatchError, ValueError)):
            model.learn_values(names, values, 1.0)
    assert model_to_json(model) == before
    # learn(x) is learn_values over x's values in sorted name order
    twin = make_model(variant)
    twin.learn({"b": -1.0, "a": 1.0}, 1.0)
    assert model_to_json(twin) == before


def test_non_finite_target_is_rejected_before_any_change():
    for variant in ("linear_sgd", "bayesian", "passive_aggressive"):
        model = make_model(variant)
        model.learn({"a": 1.0}, 2.0)
        before = model_to_json(model)
        for y in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                model.learn({"a": 1.0}, y)
        assert model_to_json(model) == before, variant


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as err:
        return type(err), str(err)


FEATURE_VALUES = st.one_of(
    st.floats(), st.integers(-10**400, 10**400), st.booleans(), st.none(),
    st.sampled_from(["1.5", "nan", "abc"]))


@given(names=st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True),
       x=st.dictionaries(st.sampled_from("abcde"), FEATURE_VALUES, max_size=5))
def test_fixed_feature_values_equal_the_reference(names, x):
    # with the feature set fixed, the fast path must return the same values,
    # or raise the same error (ValueError before DimensionMismatchError)
    for fixed in (RunningScaler(), LinearSGD(), BayesianLinear(), PassiveAggressive()):
        fixed.feature_names = tuple(sorted(names))
        assert _outcome(fixed._values, x) == _outcome(_sample_values, x, fixed.feature_names)


def test_make_model_rejects_unknown_variant():
    with pytest.raises(ValueError):
        make_model("decision_tree")


def test_learn_order_of_samples_counts():
    model = LinearSGD()
    for i in range(5):
        model.learn({"a": float(i)}, float(i))
    assert model.samples_seen == 5


# --- serialization --------------------------------------------------------------


def test_model_state_roundtrip_is_exact():
    rng = np.random.default_rng(11)
    for variant in ("linear_sgd", "bayesian", "passive_aggressive"):
        model = make_model(variant)
        for _ in range(20):
            model.learn(
                {"a": float(rng.normal()), "b": float(rng.normal())},
                float(rng.normal()),
            )
        clone = model_from_json(model_to_json(model))
        probe = {"a": 0.37, "b": -1.2}
        assert clone.predict(probe) == model.predict(probe)
        assert clone.samples_seen == model.samples_seen


def test_scaler_state_roundtrip_is_exact():
    scaler = RunningScaler()
    for x in (1.0, 5.0, 2.5, -3.0):
        learn_transform(scaler, {"v": x})
    clone = model_from_json(model_to_json(scaler))
    assert clone.transform({"v": 4.2}) == scaler.transform({"v": 4.2})


def _golden_stream():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        a = float(rng.normal(5.0, 2.0))
        b = float(rng.uniform(0.0, 100.0))
        c = float(rng.integers(1, 9))
        yield {"c": c, "a": a, "b": b}, 0.5 * a - 0.02 * b + 1.5 * c + float(rng.normal(0.0, 0.3))


# sha256 of model_to_json after _golden_stream, recorded before the scaler
# moved from per-feature records to fixed-order lists and the regressors
# to one declared state codec
GOLDEN_STATE_SHA256 = {
    "running_scaler": "4fd5927a65b3d429f1f8f54d1acc29f957aa9667998938911bed6aadfa73af9b",
    "linear_sgd": "a0b1d455f61e0736d261d4338bf0bec1c4f6308a610c2b2398401dfd56f884a4",
    "bayesian": "2ffe6bcb7d68d5f4613f44cdab6b615a4983de201319e1be76479b31748e0dfa",
    "passive_aggressive": "b69e2eb610580454163fb8e0432fc8e9e74e5f8e250872ddaafafb8267fef98c",
}


def test_serialized_state_after_a_seeded_stream_is_pinned():
    scaler = RunningScaler()
    models = {variant: make_model(variant)
              for variant in ("linear_sgd", "bayesian", "passive_aggressive")}
    for x, y in _golden_stream():
        scaled = learn_transform(scaler, x)
        for model in models.values():
            model.learn(scaled, y)
    digests = {name: hashlib.sha256(model_to_json(obj).encode()).hexdigest()
               for name, obj in [("running_scaler", scaler), *models.items()]}
    assert digests == GOLDEN_STATE_SHA256
    for name, obj in [("running_scaler", scaler), *models.items()]:
        assert model_to_json(model_from_json(model_to_json(obj))) == model_to_json(obj), name


# --- r squared -------------------------------------------------------------------


def test_r_squared_perfect_and_constant_predictors():
    pairs = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    assert r_squared(pairs) == 1.0
    mean = 2.0
    assert r_squared([(1.0, mean), (2.0, mean), (3.0, mean)]) == 0.0


def test_r_squared_hand_arithmetic():
    # SS_res = (3-4)^2 = 1, SS_tot = (1-2)^2 + 0 + (3-2)^2 = 2
    assert r_squared([(1.0, 1.0), (2.0, 2.0), (3.0, 4.0)]) == pytest.approx(0.5)


def test_r_squared_undefined_for_constant_truth():
    assert r_squared([(2.0, 1.0), (2.0, 3.0)]) is None


def test_r_squared_undefined_when_the_total_sum_overflows():
    assert r_squared([(1e308, 0.0), (-1e308, 0.0)]) is None


def test_r_squared_needs_two_pairs():
    with pytest.raises(ValueError):
        r_squared([(1.0, 1.0)])
