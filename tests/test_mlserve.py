import contextlib
import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from convergesim import mlcore, mlserve, workloads
from convergesim.mlcore import model_to_json, r_squared
from convergesim.mlserve import (
    MLService,
    ServiceResponse,
    format_response,
    handle_line,
    parse_request,
    serve_tcp,
)

from helpers import moments, serving


def test_create_then_list():
    service = MLService()
    resp = service.create("linear", "linear_sgd")
    assert resp.status == "ok"
    listing = service.list_models()
    assert listing.get("models") == ["linear"]


def test_duplicate_create_is_bad_request():
    service = MLService()
    service.create("m", "bayesian")
    resp = service.create("m", "bayesian")
    assert resp.status == "bad_request"
    assert resp.get("error") == "duplicate_model"


def test_create_unknown_type_is_bad_request():
    service = MLService()
    resp = service.create("m", "forest")
    assert resp.status == "bad_request"


def test_train_echoes_samples_seen():
    # the 2x2x2 problem box prices at t_s + 8k on the reference rank count
    t_s, k = workloads.volumetric_fit()
    walltime = t_s + 8 * k
    assert walltime == pytest.approx(4.65, abs=0.01)
    service = MLService()
    service.create("linear", "linear_sgd")
    resp = service.train("linear", {"x": 2.0, "y": 2.0, "z": 2.0}, walltime)
    assert resp.status == "ok"
    assert resp.get("samples_seen") == 1
    assert resp.get("seq") == 1


def test_unknown_model_is_not_found():
    service = MLService()
    for verb in ("train", "predict", "metrics", "stats", "record_truth"):
        reply = handle_line(service, f"{verb} name=nope x:x=1.0 y=1.0 y_true=1.0 y_pred=1.0")
        assert reply.split()[0] == "not_found", verb


def test_predict_reports_cold_flag():
    service = MLService()
    service.create("m", "linear_sgd")
    resp = service.predict("m", {"x": 1.0})
    assert resp.status == "ok"
    assert resp.get("prediction") == 0.0
    assert resp.get("cold") is True
    service.train("m", {"x": 1.0}, 2.0)
    resp = service.predict("m", {"x": 1.0})
    assert resp.get("cold") is False


def test_predict_does_not_leak_into_scaler():
    service = MLService()
    service.create("m", "linear_sgd")
    service.train("m", {"x": 1.0}, 1.0)
    before = moments(service.entry("m").scaler, "x")[2]
    for _ in range(5):
        service.predict("m", {"x": 99.0})
    assert moments(service.entry("m").scaler, "x")[2] == before


def test_metrics_over_recorded_truths():
    service = MLService()
    service.create("m", "linear_sgd")
    resp = service.metrics("m")
    assert resp.get("r_squared") is None
    pairs = [(1.0, 1.1), (2.0, 1.9), (3.0, 3.2)]
    for y_true, y_pred in pairs:
        service.record_truth("m", y_true, y_pred)
    resp = service.metrics("m")
    assert resp.get("pairs") == 3
    assert resp.get("r_squared") == pytest.approx(r_squared(pairs))


def test_sequence_counter_marks_each_mutation():
    service = MLService()
    service.create("m", "linear_sgd")
    seqs = []
    for i in range(5):
        resp = service.train("m", {"x": float(i)}, float(i))
        seqs.append(resp.get("seq"))
    assert seqs == [1, 2, 3, 4, 5]  # strictly monotone: updates are atomic


def test_train_with_wrong_dimension_is_bad_request():
    service = MLService()
    service.create("m", "linear_sgd")
    service.train("m", {"x": 1.0}, 1.0)
    resp = service.train("m", {"x": 1.0, "y": 2.0}, 1.0)
    assert resp.status == "bad_request"


@pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
def test_train_with_non_finite_target_changes_nothing(y):
    service = MLService()
    handle_line(service, "create name=m type=linear_sgd")
    handle_line(service, "train name=m x:x=1.0 y=2.0")
    entry = service.entry("m")
    before = (model_to_json(entry.scaler), model_to_json(entry.model), entry.seq)
    assert handle_line(service, f"train name=m x:x=3.0 y={y}") == "bad_request error=ValueError"
    assert (model_to_json(entry.scaler), model_to_json(entry.model), entry.seq) == before
    assert math.isfinite(service.predict("m", {"x": 3.0}).get("prediction"))


def state_numbers(model) -> list[float]:
    """Every number in model_to_json(model), which renders inf and nan as
    Infinity and NaN."""
    def walk(value):
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, list):
            return [n for item in value for n in walk(item)]
        return [value] if isinstance(value, (int, float)) else []
    return walk(json.loads(model_to_json(model)))


def test_train_that_would_overflow_the_model_changes_nothing():
    service = MLService()
    handle_line(service, "create name=m type=bayesian")
    entry = service.entry("m")
    replies = []
    for i in range(6):
        before = (model_to_json(entry.scaler), model_to_json(entry.model))
        replies.append(handle_line(service, f"train name=m x:a={i} y=1e308"))
        if replies[-1].startswith("bad_request"):
            assert (model_to_json(entry.scaler), model_to_json(entry.model)) == before
    # the third sample would push c past the largest float
    assert replies == ["ok samples_seen=1 seq=1", "ok samples_seen=2 seq=2",
                       *["bad_request error=ValueError"] * 4]
    assert all(map(math.isfinite, state_numbers(entry.scaler) + state_numbers(entry.model)))
    assert math.isfinite(service.predict("m", {"a": 1.0}).get("prediction"))


def test_non_finite_prediction_is_bad_request():
    service = MLService()
    handle_line(service, "create name=m type=bayesian")
    for i in range(6):
        handle_line(service, f"train name=m x:a={i} y=1e308")
    entry = service.entry("m")
    before = (model_to_json(entry.scaler), model_to_json(entry.model), entry.seq)
    # a weight near 5e307 times a scaled feature of 5 overflows
    reply = handle_line(service, "predict name=m x:a=3")
    assert reply == "bad_request error=non_finite_prediction"
    assert (model_to_json(entry.scaler), model_to_json(entry.model), entry.seq) == before
    assert handle_line(service, "predict name=m x:a=1").startswith("ok prediction=")


@pytest.mark.parametrize("variant, expected", [
    ("bayesian", "bad_request error=non_finite_prediction"),  # its scaled features overflow
    ("linear_sgd", "bad_request error=non_finite_prediction"),
    ("passive_aggressive", "bad_request error=non_finite_prediction"),
])
def test_an_overflowing_predict_is_answered_without_a_warning(variant, expected):
    service = MLService()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        replies = [handle_line(service, f"create name=m type={variant}")]
        replies += [handle_line(service, f"train name=m x:a={i + 1} x:b={2 * i} y=1e308")
                    for i in range(6)]
        reply = handle_line(service, "predict name=m x:a=1e308 x:b=1e308")
    assert all(r.startswith(("ok ", "bad_request ")) for r in replies)
    assert reply == expected


# a spread of 1e-160 gives a scaled 1e200 of about 2e360, which overflows
_SCALED_OVERFLOW = dict(train=[(0.0, 1.0, 1.0), (1e-160, 1.0, 2.0)], query=(1e200, 1.0))
VALUES = st.floats(-1e308, 1e308) | st.sampled_from([0.0, -0.0, 1e-160, 1e200])


@pytest.mark.parametrize("variant", sorted(mlcore.MODEL_VARIANTS))
@settings(max_examples=60, deadline=None)
@given(train=st.lists(st.tuples(VALUES, VALUES, st.floats(-1e6, 1e6)), max_size=6),
       query=st.tuples(VALUES, VALUES))
@example(**_SCALED_OVERFLOW)
def test_the_list_predict_equals_the_dict_predict(variant, train, query):
    service = MLService()
    service.create("m", variant)
    for a, b, y in train:
        service.train("m", {"a": a, "b": b}, y)
    x = {"a": query[0], "b": query[1]}
    reply = service.predict("m", x)
    entry = service.entry("m")
    try:
        expected = entry.model.predict(entry.scaler.transform(x))
    except ValueError:  # a scaled value overflows
        expected = math.inf
    if math.isfinite(expected):
        assert reply.status == "ok" and reply.get("prediction").hex() == expected.hex()
    else:
        assert reply == ServiceResponse("bad_request", (("error", "non_finite_prediction"),))


def test_metrics_of_an_overflowing_spread_is_null_without_a_warning():
    service = MLService()
    handle_line(service, "create name=m type=linear_sgd")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y_true in ("1e200", "-1e200"):
            handle_line(service, f"record_truth name=m y_true={y_true} y_pred=0")
        assert handle_line(service, "metrics name=m") == "ok r_squared=null pairs=2"


def test_non_finite_truth_pair_is_bad_request():
    service = MLService()
    handle_line(service, "create name=m type=linear_sgd")
    pairs = [(1.0, 1.1), (2.0, 1.9)]
    for y_true, y_pred in pairs:
        handle_line(service, f"record_truth name=m y_true={y_true} y_pred={y_pred}")
    for bad in ("y_true=inf y_pred=1.0", "y_true=1.0 y_pred=nan", "y_true=-inf y_pred=inf"):
        reply = handle_line(service, f"record_truth name=m {bad}")
        assert reply == "bad_request error=non_finite_pair"
    assert handle_line(service, "metrics name=m") == f"ok r_squared={r_squared(pairs)!r} pairs=2"


# values float() refuses with an error other than ValueError; a None target
# or truth is a missing value, answered before any conversion
UNFLOATABLE = [10**400, -10**400, None, [1.0]]
REFUSALS = {
    "train_feature": lambda s, v: s.train("m", {"a": v}, 1.0),
    "train_target": lambda s, v: s.train("m", {"a": 1.0}, v),
    "predict": lambda s, v: s.predict("m", {"a": v}),
    "record_truth_true": lambda s, v: s.record_truth("m", v, 1.0),
    "record_truth_pred": lambda s, v: s.record_truth("m", 1.0, v),
}


@pytest.mark.parametrize("trained", [False, True], ids=["fresh", "trained"])
@pytest.mark.parametrize("value", UNFLOATABLE, ids=["big", "minus_big", "none", "list"])
@pytest.mark.parametrize("verb", sorted(REFUSALS))
def test_an_in_process_verb_answers_a_value_float_refuses(verb, value, trained):
    service = MLService()
    service.create("m", "linear_sgd")
    if trained:
        service.train("m", {"a": 2.0}, 1.0)
    entry = service.entry("m")
    before = (model_to_json(entry.scaler), model_to_json(entry.model), entry.seq,
              list(entry.truths))
    reply = format_response(REFUSALS[verb](service, value))
    if verb.startswith("record_truth"):
        expected = "missing_pair" if value is None else "non_finite_pair"
    else:
        expected = "missing_training_sample" if verb == "train_target" and value is None \
            else "ValueError"
    assert reply == f"bad_request error={expected}"
    assert (model_to_json(entry.scaler), model_to_json(entry.model), entry.seq,
            list(entry.truths)) == before


MODEL_NAMES = st.sampled_from(["m0", "m1"])
# every float: nan, +-inf, subnormals and magnitudes up to 1.8e308
VALUES = st.floats()
FEATURES = st.dictionaries(st.sampled_from("abc"), VALUES, min_size=1, max_size=3)
# the wire key of each verb parameter but `features`, which is x:<name> keys
WIRE_KEYS = {"name": "name", "model_type": "type", "y": "y", "y_true": "y_true",
             "y_pred": "y_pred"}


def wire_tokens(params: dict) -> list[str]:
    """The key=value tokens of a request line carrying `params`."""
    tokens = []
    for param, value in params.items():
        if param == "features":
            tokens += [f"x:{key}={v!r}" for key, v in value.items()]
        else:
            tokens.append(f"{WIRE_KEYS[param]}={value if isinstance(value, str) else repr(value)}")
    return tokens


def request_line(verb: str, **params) -> str:
    return " ".join([verb, *wire_tokens(params)])


class ServiceAtomicity(RuleBasedStateMachine):
    """Mixed valid and invalid requests through the line protocol: a
    rejected request leaves every model byte-identical, an accepted train
    leaves every number of the scaler and model state finite, an accepted
    predict answers a finite prediction, and replaying
    only the accepted lines into a fresh service rebuilds the same state."""

    def __init__(self):
        super().__init__()
        self.service = MLService()
        self.accepted = []

    @staticmethod
    def state(service):
        entries = [(name, service.entry(name)) for name in service.list_models().get("models")]
        return {name: (model_to_json(e.scaler), model_to_json(e.model), repr(e.truths), e.seq)
                for name, e in entries}

    def send(self, line):
        """The reply's status and its fields, as text."""
        before = self.state(self.service)
        status, *tokens = handle_line(self.service, line).split()
        if status == "ok":
            self.accepted.append(line)
        else:
            assert self.state(self.service) == before, line
        return status, dict(token.split("=", 1) for token in tokens)

    @rule(name=MODEL_NAMES,
          model_type=st.sampled_from([*mlcore.MODEL_VARIANTS, "forest"]))
    def create(self, name, model_type):
        self.send(request_line("create", name=name, model_type=model_type))

    @rule(name=MODEL_NAMES, features=FEATURES, y=VALUES)
    def train(self, name, features, y):
        if self.send(request_line("train", name=name, features=features, y=y))[0] == "ok":
            entry = self.service.entry(name)
            numbers = state_numbers(entry.scaler) + state_numbers(entry.model)
            assert all(map(math.isfinite, numbers)), numbers

    @rule(name=MODEL_NAMES, features=FEATURES)
    def predict(self, name, features):
        status, reply = self.send(request_line("predict", name=name, features=features))
        if status == "ok":
            assert math.isfinite(float(reply["prediction"])), reply

    @rule(name=MODEL_NAMES, y_true=VALUES, y_pred=VALUES)
    def record_truth(self, name, y_true, y_pred):
        self.send(request_line("record_truth", name=name, y_true=y_true, y_pred=y_pred))

    @rule(name=MODEL_NAMES)
    def metrics(self, name):
        r2 = self.send(request_line("metrics", name=name))[1].get("r_squared", "null")
        assert r2 == "null" or not math.isnan(float(r2))

    def teardown(self):
        replay = MLService()
        for line in self.accepted:
            handle_line(replay, line)
        assert self.state(replay) == self.state(self.service)


TestServiceAtomicity = ServiceAtomicity.TestCase
TestServiceAtomicity.settings = settings(max_examples=100, stateful_step_count=30,
                                         deadline=None)


# Parameters under which a y=1e308 sample overflows each model's update:
# 2 * 1e308 is inf for linear_sgd's step and bayesian's beta * y, and an
# unclipped passive-aggressive step overflows on a scaled sample of small
# norm, which the test builds from the scaler's statistics.
OVERFLOWING = {"linear_sgd": {"learning_rate": 2.0}, "bayesian": {"beta": 2.0},
               "passive_aggressive": {"C": math.inf}}
# distinct values per feature, so two samples give each a nonzero variance
PREFIX = st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000),
                            st.integers(-1000, 1000)),
                  max_size=6, unique_by=(lambda s: s[0], lambda s: s[1]))


@pytest.mark.parametrize("variant", sorted(mlcore.MODEL_VARIANTS))
@settings(max_examples=60, deadline=None)
@given(prefix=PREFIX, data=st.data(),
       refusal=st.sampled_from(["non_finite_y", "wrong_keys", "overflow", "unsendable_name"]))
def test_a_refused_train_changes_nothing(variant, prefix, refusal, data):
    service = MLService(model_defaults=OVERFLOWING)
    assert service.create("m", variant).status == "ok"
    for a, b, y in prefix:
        assert service.train("m", {"a": float(a), "b": float(b)}, float(y)).status == "ok"
    entry = service.entry("m")
    features, y = {"a": 1.0, "b": 2.0}, 1.0
    if refusal == "non_finite_y":
        y = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif refusal == "wrong_keys":
        assume(prefix)  # a fresh model takes any key set
        features = data.draw(st.sampled_from([{"a": 1.0}, {"a": 1.0, "c": 2.0},
                                              {"a": 1.0, "b": 2.0, "c": 3.0}]))
    elif refusal == "overflow":
        y = 1e308
        if variant == "passive_aggressive":
            assume(len(prefix) >= 2)
            # a thousandth of a standard deviation off the mean
            features = {k: moments(entry.scaler, k)[0]
                        + 1e-3 * math.sqrt(moments(entry.scaler, k)[1]) for k in features}
    else:
        features = {**features, data.draw(st.sampled_from(["a b", "", "x=1", "\u00e9"])): 1.0}
    before = (entry.scaler.to_state(), entry.model.to_state(), entry.seq)
    reply = service.train("m", features, y)
    assert reply.status == "bad_request", reply
    assert (entry.scaler.to_state(), entry.model.to_state(), entry.seq) == before
    if not prefix:  # the refused sample fixed no feature set
        assert entry.scaler.feature_names is None and entry.model.feature_names is None


class _Step(NamedTuple):
    """One request to every pipeline in turn. `items` builds a new feature
    dict in that insertion order, or is None to reuse the last one; before
    pipeline i's request, `edits[i]` (a key and a value, or None) is set in
    that dict in place. A "restore" step replaces pipeline `target`'s scaler
    with one restored from its state."""

    verb: str  # train | predict | restore
    items: tuple | None = None
    edits: tuple = ()
    y: float = 0.0
    target: int = 0


# zeros of both signs, ints and floats that compare equal, and running means
# that land on exactly 0, where the sign of a zero feature reaches the
# scaled value
PIPELINE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0, 1, -1, 1.0, -1.0, 2, 0.5]),
                            st.integers(-10**6, 10**6),
                            st.floats(-1e6, 1e6, allow_nan=False))
# 1e308 overflows bayesian's update under beta=2 and no other model's
PIPELINE_DEFAULTS = {"bayesian": {"beta": 2.0}}


@st.composite
def pipeline_runs(draw):
    variants = draw(st.lists(st.sampled_from(sorted(mlcore.MODEL_VARIANTS)),
                             min_size=2, max_size=4))
    key_sets = st.one_of(st.permutations("abc"), st.lists(st.sampled_from("abc"), min_size=1,
                                                          max_size=3, unique=True))
    items = key_sets.flatmap(lambda keys: st.tuples(
        *[st.tuples(st.just(k), PIPELINE_VALUES) for k in keys]))
    edit = st.one_of(st.none(), st.tuples(st.sampled_from("abc"), PIPELINE_VALUES))
    step = st.one_of(
        st.builds(_Step, verb=st.sampled_from(["train", "train", "predict"]),
                  items=st.one_of(st.none(), items),
                  edits=st.lists(edit, min_size=len(variants), max_size=len(variants))
                  .map(tuple),
                  y=st.one_of(st.floats(-1e3, 1e3), st.sampled_from([1e308, 0.0, -0.0]))),
        st.builds(_Step, verb=st.just("restore"), target=st.integers(0, len(variants) - 1)))
    return variants, draw(st.lists(step, max_size=14))


def _record_learned(model, log):
    """Log repr((names, values, y)) of every `learn_values` call on model."""
    learn_values = model.learn_values

    def recording(names, values, y):
        log.append(repr((names, values, y)))
        return learn_values(names, values, y)

    model.learn_values = recording


_ZERO_SIGN_RUN = (["linear_sgd", "linear_sgd"], [
    _Step("train", (("a", 1.0),), (None, None), 1.0),
    _Step("train", (("a", -1.0),), (None, None), 1.0),
    # the running mean is then exactly 0, so a's sign reaches the scaled value
    _Step("train", (("a", 0.0),), (None, ("a", -0.0)), 1.0),
])
_EDITED_RUN = (["bayesian", "bayesian"], [
    _Step("train", (("a", 1.0),), (None, ("a", 2.0)), 1.0),
])


@settings(max_examples=150, deadline=None)
@given(run=pipeline_runs())
@example(run=_ZERO_SIGN_RUN)
@example(run=_EDITED_RUN)
def test_pipelines_sharing_one_service_equal_pipelines_alone(run):
    # the reference: each pipeline in a service of its own, whose prepare
    # is never another pipeline's
    variants, steps = run
    names = [f"p{i}" for i in range(len(variants))]
    shared = MLService(model_defaults=PIPELINE_DEFAULTS)
    alone = [MLService(model_defaults=PIPELINE_DEFAULTS) for _ in variants]
    learned = {}
    for name, variant, service in zip(names, variants, alone):
        for side in (shared, service):
            assert side.create(name, variant).status == "ok"
            _record_learned(side.entry(name).model, learned.setdefault((side, name), []))
    features = {"a": 1.0}
    for step in steps:
        if step.verb == "restore":
            name = names[step.target]
            for side in (shared, alone[step.target]):
                entry = side.entry(name)
                entry.scaler = mlcore.model_from_json(model_to_json(entry.scaler))
            continue
        if step.items is not None:
            features = dict(step.items)
        for name, service, edit in zip(names, alone, step.edits):
            if edit is not None:
                features[edit[0]] = edit[1]
            args = (features, step.y) if step.verb == "train" else (features,)
            replies = [getattr(side, step.verb)(name, *args) for side in (shared, service)]
            assert format_response(replies[0]) == format_response(replies[1]), (name, step)
        for name, service in zip(names, alone):
            ours, theirs = shared.entry(name), service.entry(name)
            assert learned[shared, name] == learned[service, name], (name, step)
            assert model_to_json(ours.model) == model_to_json(theirs.model), (name, step)
            assert model_to_json(ours.scaler) == model_to_json(theirs.scaler), (name, step)
            # scaler and model fix their names from the same first accepted sample
            assert ours.scaler.feature_names == ours.model.feature_names, (name, step)


# --- wire protocol -------------------------------------------------------------


def test_request_line_roundtrip():
    line = "train name=m x:x=2.0 x:z=0.5 y=4.65"
    verb, params = parse_request(line)
    assert (verb, params) == ("train", {"name": "m", "y": 4.65,
                                        "features": {"x": 2.0, "z": 0.5}})
    # the parameters are the verb method's own
    by_line, by_method = MLService(), MLService()
    for service in (by_line, by_method):
        service.create("m", "linear_sgd")
    assert handle_line(by_line, line) == format_response(by_method.train(**params))


def test_response_line_roundtrip():
    service, twin = MLService(), MLService()
    service.create("m", "linear_sgd")
    line = format_response(service.predict("m", {"x": 1.0}))
    assert line == "ok prediction=0.0 cold=true samples_seen=0"
    handle_line(twin, "create name=m type=linear_sgd")
    assert handle_line(twin, "predict name=m x:x=1.0") == line


def test_floats_render_shortest_roundtrip():
    assert format_response(ServiceResponse("ok", (("x", 0.1), ("y", 1e-7)))) == "ok x=0.1 y=1e-07"
    assert parse_request("train name=m x:x=0.1 y=1e-07") == (
        "train", {"name": "m", "y": 1e-7, "features": {"x": 0.1}})


def test_malformed_line_is_bad_request():
    service = MLService()
    assert handle_line(service, "train name").startswith("bad_request")
    assert handle_line(service, "").startswith("bad_request")
    assert handle_line(service, "frobnicate name=m").startswith("bad_request")


@pytest.mark.parametrize("line", [
    "create name=a name=b type=linear_sgd",
    "create name=a type=linear_sgd type=bayesian",
    "train name=m x:a=2.0 x:a=3.0 y=1.0",
    "train name=m x:a=2.0 y=1.0 y=2.0",
    "train name=m x:=2.0 y=1.0",
    "predict name=m x:a=2.0 bogus=3",
    "record_truth name=m y_true=1.0 y_pred=1.0 y_true=2.0",
])
def test_repeated_unknown_or_empty_key_is_malformed(line):
    service = MLService()
    handle_line(service, "create name=m type=linear_sgd")
    handle_line(service, "train name=m x:a=1.0 y=1.0")
    probes = ("list_models", "stats name=m", "metrics name=m")
    before = [handle_line(service, probe) for probe in probes]
    assert handle_line(service, line) == "bad_request error=malformed_request"
    assert [handle_line(service, probe) for probe in probes] == before


def test_feature_names_may_spell_request_keys():
    assert parse_request("predict name=m x:name=1.0 x:type=2.0 x:y=3.0") == (
        "predict", {"name": "m", "features": {"name": 1.0, "type": 2.0, "y": 3.0}})


@pytest.mark.parametrize("feature", ["a b", "a=b", "x:y", "", "a\n", 3])
def test_a_feature_name_the_wire_cannot_carry_is_refused_on_both_mounts(feature):
    service = MLService()
    service.create("m", "linear_sgd")
    reply = format_response(service.train("m", {feature: 1.0}, 1.0))
    assert reply == "bad_request error=bad_feature_name"
    assert handle_line(service, "train name=m x:a:b=1.0 y=1.0") == reply
    # the refused samples fixed nothing: a sendable one is the model's first
    assert format_response(service.train("m", {"a": 1.0}, 1.0)) == "ok samples_seen=1 seq=1"


@pytest.mark.parametrize("feature", ["a b", "a=b", "x:y", "", "a\n", 3])
def test_a_cold_predict_refuses_a_feature_name_the_wire_cannot_carry(feature):
    service = MLService()
    service.create("m", "linear_sgd")
    reply = format_response(service.predict("m", {feature: 1.0}))
    assert reply == "bad_request error=bad_feature_name"


def test_a_cold_predict_answers_alike_on_the_line_protocol():
    service = MLService()
    handle_line(service, "create name=m type=linear_sgd")
    assert handle_line(service, "predict name=m x:a:b=1.0") == "bad_request error=bad_feature_name"
    assert (handle_line(service, "predict name=m x:a=1.0")
            == "ok prediction=0.0 cold=true samples_seen=0")


def test_a_model_name_the_wire_cannot_carry_is_refused():
    service = MLService()
    resp = service.create("m\n", "linear_sgd")
    assert format_response(resp) == "bad_request error=bad_name"
    assert service.list_models().get("models") == []


# each verb's parameters, written out rather than read from the service
VERB_PARAMS = {"create": ("name", "model_type"), "list_models": (),
               "train": ("name", "features", "y"), "predict": ("name", "features"),
               "record_truth": ("name", "y_true", "y_pred"), "metrics": ("name",),
               "stats": ("name",)}
ORACLE_VALUES = st.one_of(st.floats(-100, 100),
                          st.sampled_from([math.nan, math.inf, -math.inf, 1e308]))
# "m:0", "\u00e9" and "a:b" reach the service whole, but it takes none as a name
ORACLE_PARAMS = {
    "name": st.sampled_from(["m0", "m0", "m1", "m:0", "\u00e9"]),
    "model_type": st.sampled_from([*mlcore.MODEL_VARIANTS, "forest"]),
    "features": st.dictionaries(st.sampled_from(["a", "a", "b", "a:b"]), ORACLE_VALUES,
                                min_size=1, max_size=2),
    "y": ORACLE_VALUES, "y_true": ORACLE_VALUES, "y_pred": ORACLE_VALUES,
}
@st.composite
def oracle_requests(draw):
    """(verb, params, line): a verb, or an unknown one, with some of its
    parameters left out and some it does not take added, in any key order."""
    verb = draw(st.sampled_from([*VERB_PARAMS, "train", "train", "predict", "frobnicate"]))
    own = set(VERB_PARAMS.get(verb, ()))
    left_out = draw(st.one_of(st.just(set()), st.sets(st.sampled_from(sorted(own))))) \
        if own else set()
    added = draw(st.one_of(st.just(set()), st.sets(st.sampled_from(sorted(ORACLE_PARAMS)))))
    params = {param: draw(ORACLE_PARAMS[param]) for param in sorted((own - left_out) | added)}
    return verb, params, " ".join([verb, *draw(st.permutations(wire_tokens(params)))])


@st.composite
def oracle_streams(draw):
    """Two creates, of m0 and m1, then any `oracle_requests`."""
    variants = st.sampled_from(sorted(mlcore.MODEL_VARIANTS))
    creates = [("create", {"name": name, "model_type": draw(variants)}) for name in ("m0", "m1")]
    return ([(verb, params, request_line(verb, **params)) for verb, params in creates]
            + draw(st.lists(oracle_requests(), max_size=30)))


def reply_of_the_method(service, verb, params) -> str:
    """The reply of the method of `verb`, given its parameters from
    `params` and None for the ones left out."""
    if verb not in VERB_PARAMS:
        return "bad_request error=unknown_verb"
    method = getattr(service, verb)
    return format_response(method(**{param: params.get(param) for param in VERB_PARAMS[verb]}))


_ONE_PATH_RUN = [
    ("create", {"name": "m0", "model_type": "linear_sgd"}),
    ("train", {"name": "m0", "features": {"a": 1.0}, "y": 2.0}),
    ("train", {"name": "m0", "features": {"a": 3.0}}),  # y left out
    ("predict", {"name": "m0", "features": {"a": 1.0}, "y": 3.0}),  # y ignored
]


@settings(max_examples=200, deadline=None)
@given(stream=oracle_streams())
@example(stream=[(verb, params, request_line(verb, **params))
                 for verb, params in _ONE_PATH_RUN])
def test_the_line_protocol_and_the_verb_methods_are_one_path(stream):
    by_line, by_method = MLService(), MLService()
    for verb, params, line in stream:
        assert handle_line(by_line, line) == reply_of_the_method(by_method, verb, params), line
    assert ServiceAtomicity.state(by_line) == ServiceAtomicity.state(by_method)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_grammar_lists_exactly_the_service_verbs():
    grammar = re.findall(r"^verb +:=(.*)$", README.read_text(), re.MULTILINE)
    assert len(grammar) == 1
    verbs = sorted(verb.strip() for verb in grammar[0].split("|"))
    assert verbs == sorted(mlserve._VERBS) == sorted(VERB_PARAMS)


# --- socket mount ----------------------------------------------------------------


@contextlib.contextmanager
def connect(path):
    """A unix-socket connection to `path` on which every call gives up
    after 10 s."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10)
        sock.connect(path)
        yield sock


def read_until_closed(sock) -> bytes:
    """Everything the mount sent before it closed the connection."""
    chunks = []
    try:
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    except ConnectionResetError:  # closed with our input unread: a reset after the data
        pass
    return b"".join(chunks)


SCRIPT = [
    "create name=linear type=linear_sgd",
    "create name=linear type=linear_sgd",
    "create name=pa type=passive_aggressive",
    "train name=linear x:x=2.0 x:y=2.0 x:z=2.0 y=4.65",
    "train name=linear x:x=4.0 x:y=1.0 x:z=8.0 y=5.57",
    "predict name=linear x:x=2.0 x:y=2.0 x:z=2.0",
    "predict name=missing x:x=1.0",
    "record_truth name=linear y_true=4.6 y_pred=4.1",
    "record_truth name=linear y_true=5.5 y_pred=5.2",
    "metrics name=linear",
    "stats name=linear",
    "list_models",
]


def test_socket_and_inprocess_mounts_agree():
    in_process = MLService()
    expected = [handle_line(in_process, line) for line in SCRIPT]

    with serving(serve_tcp("127.0.0.1", 0)) as server:
        client = mlserve.ServiceClient(*server.server_address)
        got = [client.call_line(line) for line in SCRIPT]
        client.close()
    assert got == expected


def test_unix_socket_mount_agrees_too(tmp_path):
    in_process = MLService()
    expected = [handle_line(in_process, line) for line in SCRIPT]

    path = str(tmp_path / "mlserve.sock")
    with serving(mlserve.serve_unix(path)):
        client = mlserve.ServiceClient(path=path)
        got = [client.call_line(line) for line in SCRIPT]
        client.close()
    assert got == expected


def test_serve_command_answers_on_its_socket_until_sigint(tmp_path):
    path = str(tmp_path / "s.sock")
    src = str(Path(mlserve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.Popen([sys.executable, "-m", "convergesim.cli", "serve", "--socket", path],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30.0
        while True:
            try:
                client = mlserve.ServiceClient(path=path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                assert proc.poll() is None and time.monotonic() < deadline, proc.poll()
                time.sleep(0.02)
        assert client.call_line("create name=m type=linear_sgd").startswith("ok")
        assert client.call_line("list_models") == "ok models=m"
        client.close()
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30.0)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0, err
    assert f"serving on unix socket {path}" in out


@pytest.mark.parametrize("sep", ["\n", "\r", "\r\n"])
def test_client_refuses_a_request_of_more_than_one_line(tmp_path, sep):
    path = str(tmp_path / "mlserve.sock")
    with serving(mlserve.serve_unix(path)):
        client = mlserve.ServiceClient(path=path)
        with pytest.raises(ValueError):
            client.call_line(f"create name=a type=linear_sgd{sep}list_models")
        # nothing was sent, and the next reply still answers the next request
        assert client.call_line("list_models") == "ok models="
        client.close()


def test_unix_mount_answers_a_line_that_is_not_utf8(tmp_path):
    path = str(tmp_path / "mlserve.sock")
    with serving(mlserve.serve_unix(path)), connect(path) as sock:
        stream = sock.makefile("rwb")
        replies = []
        for line in (b"\xff\n", b"list_models\n"):
            stream.write(line)
            stream.flush()
            replies.append(stream.readline())
        stream.close()
    # the connection stays open after the bad line
    assert replies == [b"bad_request error=malformed_request\n", b"ok models=\n"]


def test_socket_mount_serves_one_request_at_a_time(monkeypatch):
    entered, release = threading.Event(), threading.Event()
    prepare = mlcore.RunningScaler.prepare

    def blocking_prepare(self, x):
        entered.set()
        release.wait(timeout=10)
        return prepare(self, x)

    monkeypatch.setattr(mlcore.RunningScaler, "prepare", blocking_prepare)
    with serving(serve_tcp("127.0.0.1", 0)) as server:
        a = mlserve.ServiceClient(*server.server_address)
        b = mlserve.ServiceClient(*server.server_address)
        replies = {}
        train = threading.Thread(
            target=lambda: replies.update(a=a.call_line("train name=m x:x=1.0 y=1.0")))
        stats = threading.Thread(target=lambda: replies.update(b=b.call_line("stats name=m")))
        try:
            a.call_line("create name=m type=linear_sgd")
            train.start()
            assert entered.wait(timeout=10)
            stats.start()
            stats.join(timeout=0.5)
            assert "b" not in replies  # connection B waits while A's train is half done
            release.set()
            train.join(timeout=10)
            stats.join(timeout=10)
            assert not train.is_alive() and not stats.is_alive()
            assert replies == {"a": "ok samples_seen=1 seq=1",
                               "b": "ok model_type=linear_sgd samples_seen=1 seq=1 features=x"}
        finally:
            release.set()
            a.close()
            b.close()



def test_unix_mount_closes_a_connection_whose_line_is_too_long(tmp_path):
    path = str(tmp_path / "mlserve.sock")
    with serving(mlserve.serve_unix(path)):
        with connect(path) as sock:
            try:
                sock.sendall(b"x" * 2**20)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the mount closed the connection before it read it all
            assert read_until_closed(sock) == b"bad_request error=malformed_request\n"
        with connect(path) as sock:
            sock.sendall(b"list_models\n")
            assert sock.makefile("rb").readline() == b"ok models=\n"


def test_a_client_that_never_reads_does_not_stall_another(tmp_path):
    path = str(tmp_path / "mlserve.sock")
    with serving(mlserve.serve_unix(path)):
        setup = mlserve.ServiceClient(path=path)
        for i in range(20):
            setup.call_line(f"create name=model_{i:02d} type=linear_sgd")
        listing = (setup.call_line("list_models") + "\n").encode()
        setup.close()
        request = b"list_models\n"
        with connect(path) as a, connect(path) as b:
            # each reply is about 16 times its request, so the mount soon
            # holds replies that A's socket cannot take
            a.setblocking(False)
            sent = 0
            with contextlib.suppress(BlockingIOError):
                while sent < 2**20:
                    sent += a.send(request * 1024)
            assert sent < 2**20  # A's input backed up: the mount stopped reading it
            b.sendall(request)
            assert b.makefile("rb").readline() == listing
            a.settimeout(10)
            stream = a.makefile("rb")
            for _ in range(sent // len(request)):
                assert stream.readline() == listing


def test_socket_mount_answers_lines_however_they_are_split(tmp_path):
    chunks = [b"create name=m type=linear_sgd\ntrain name=m x:a=1.0 y=2.0\nstats name=m\n",
              b"train name=m x:a=2", b".0 y=3.0\nstats name=m\n"]
    in_process = MLService()
    expected = [handle_line(in_process, line) + "\n"
                for line in b"".join(chunks).decode().splitlines()]
    path = str(tmp_path / "mlserve.sock")
    with serving(mlserve.serve_unix(path)), connect(path) as sock:
        stream = sock.makefile("rb")
        sock.sendall(chunks[0])
        got = [stream.readline().decode() for _ in range(3)]
        sock.sendall(chunks[1])
        time.sleep(0.1)  # let the mount read the half line on its own
        sock.sendall(chunks[2])
        got += [stream.readline().decode() for _ in range(2)]
    assert got == expected


def test_a_client_that_leaves_with_replies_pending_drops_only_itself(tmp_path):
    path = str(tmp_path / "mlserve.sock")
    with serving(mlserve.serve_unix(path)), connect(path) as b:
        with connect(path) as a:
            a.sendall(b"list_models\n" * 1000)
        stream = b.makefile("rwb")
        for line, reply in ((b"create name=m type=linear_sgd\n",
                             b"ok name=m model_type=linear_sgd\n"),
                            (b"list_models\n", b"ok models=m\n")):
            stream.write(line)
            stream.flush()
            assert stream.readline() == reply
        with connect(path) as c:
            c.sendall(b"list_models\n")
            assert c.makefile("rb").readline() == b"ok models=m\n"
