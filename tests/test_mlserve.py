import contextlib
import json
import math
import socket
import threading
import time
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from convergesim import mlcore, mlserve, workloads
from convergesim.mlcore import model_to_json, r_squared
from convergesim.mlserve import (
    MLService,
    ServiceRequest,
    format_request,
    format_response,
    handle_line,
    parse_request,
    parse_response,
    serve_tcp,
)

from helpers import serving


def test_create_then_list():
    service = MLService()
    resp = service.handle(ServiceRequest("create", name="linear", model_type="linear_sgd"))
    assert resp.status == "ok"
    listing = service.handle(ServiceRequest("list_models"))
    assert listing.get("models") == ["linear"]


def test_duplicate_create_is_bad_request():
    service = MLService()
    service.handle(ServiceRequest("create", name="m", model_type="bayesian"))
    resp = service.handle(ServiceRequest("create", name="m", model_type="bayesian"))
    assert resp.status == "bad_request"
    assert resp.get("error") == "duplicate_model"


def test_create_unknown_type_is_bad_request():
    service = MLService()
    resp = service.handle(ServiceRequest("create", name="m", model_type="forest"))
    assert resp.status == "bad_request"


def test_train_echoes_samples_seen():
    # the 2x2x2 problem box prices at t_s + 8k on the reference rank count
    t_s, k = workloads.volumetric_fit()
    walltime = t_s + 8 * k
    assert walltime == pytest.approx(4.65, abs=0.01)
    service = MLService()
    service.handle(ServiceRequest("create", name="linear", model_type="linear_sgd"))
    resp = service.handle(
        ServiceRequest("train", name="linear",
                       features={"x": 2.0, "y": 2.0, "z": 2.0}, y=walltime)
    )
    assert resp.status == "ok"
    assert resp.get("samples_seen") == 1
    assert resp.get("seq") == 1


def test_unknown_model_is_not_found():
    service = MLService()
    for verb in ("train", "predict", "metrics", "stats", "record_truth"):
        resp = service.handle(ServiceRequest(verb, name="nope",
                                             features={"x": 1.0}, y=1.0,
                                             y_true=1.0, y_pred=1.0))
        assert resp.status == "not_found", verb


def test_predict_reports_cold_flag():
    service = MLService()
    service.handle(ServiceRequest("create", name="m", model_type="linear_sgd"))
    resp = service.handle(ServiceRequest("predict", name="m", features={"x": 1.0}))
    assert resp.status == "ok"
    assert resp.get("prediction") == 0.0
    assert resp.get("cold") is True
    service.handle(ServiceRequest("train", name="m", features={"x": 1.0}, y=2.0))
    resp = service.handle(ServiceRequest("predict", name="m", features={"x": 1.0}))
    assert resp.get("cold") is False


def test_predict_does_not_leak_into_scaler():
    service = MLService()
    service.handle(ServiceRequest("create", name="m", model_type="linear_sgd"))
    service.handle(ServiceRequest("train", name="m", features={"x": 1.0}, y=1.0))
    before = service.entry("m").scaler.count
    for _ in range(5):
        service.handle(ServiceRequest("predict", name="m", features={"x": 99.0}))
    assert service.entry("m").scaler.count == before


def test_metrics_over_recorded_truths():
    service = MLService()
    service.handle(ServiceRequest("create", name="m", model_type="linear_sgd"))
    resp = service.handle(ServiceRequest("metrics", name="m"))
    assert resp.get("r_squared") is None
    pairs = [(1.0, 1.1), (2.0, 1.9), (3.0, 3.2)]
    for y_true, y_pred in pairs:
        service.handle(ServiceRequest("record_truth", name="m",
                                      y_true=y_true, y_pred=y_pred))
    resp = service.handle(ServiceRequest("metrics", name="m"))
    assert resp.get("pairs") == 3
    assert resp.get("r_squared") == pytest.approx(r_squared(pairs))


def test_sequence_counter_marks_each_mutation():
    service = MLService()
    service.handle(ServiceRequest("create", name="m", model_type="linear_sgd"))
    seqs = []
    for i in range(5):
        resp = service.handle(ServiceRequest("train", name="m",
                                             features={"x": float(i)}, y=float(i)))
        seqs.append(resp.get("seq"))
    assert seqs == [1, 2, 3, 4, 5]  # strictly monotone: updates are atomic


def test_train_with_wrong_dimension_is_bad_request():
    service = MLService()
    service.handle(ServiceRequest("create", name="m", model_type="linear_sgd"))
    service.handle(ServiceRequest("train", name="m", features={"x": 1.0}, y=1.0))
    resp = service.handle(ServiceRequest("train", name="m",
                                         features={"x": 1.0, "y": 2.0}, y=1.0))
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
    assert math.isfinite(service.handle(
        ServiceRequest("predict", name="m", features={"x": 3.0})).get("prediction"))


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
    assert math.isfinite(service.handle(
        ServiceRequest("predict", name="m", features={"a": 1.0})).get("prediction"))


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
    ("bayesian", "bad_request error=ValueError"),  # its scaled features overflow first
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


MODEL_NAMES = st.sampled_from(["m0", "m1"])
# every float: nan, +-inf, subnormals and magnitudes up to 1.8e308
VALUES = st.floats()
FEATURES = st.dictionaries(st.sampled_from("abc"), VALUES, min_size=1, max_size=3)


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
        entries = [(name, service.entry(name))
                   for name in service.handle(ServiceRequest("list_models")).get("models")]
        return {name: (model_to_json(e.scaler), model_to_json(e.model), repr(e.truths), e.seq)
                for name, e in entries}

    def send(self, req):
        line = format_request(req)
        before = self.state(self.service)
        reply = parse_response(handle_line(self.service, line))
        if reply.status == "ok":
            self.accepted.append(line)
        else:
            assert self.state(self.service) == before, line
        return reply

    @rule(name=MODEL_NAMES,
          model_type=st.sampled_from([*mlcore.MODEL_VARIANTS, "forest"]))
    def create(self, name, model_type):
        self.send(ServiceRequest("create", name=name, model_type=model_type))

    @rule(name=MODEL_NAMES, features=FEATURES, y=VALUES)
    def train(self, name, features, y):
        if self.send(ServiceRequest("train", name=name, features=features, y=y)).status == "ok":
            entry = self.service.entry(name)
            numbers = state_numbers(entry.scaler) + state_numbers(entry.model)
            assert all(map(math.isfinite, numbers)), numbers

    @rule(name=MODEL_NAMES, features=FEATURES)
    def predict(self, name, features):
        reply = self.send(ServiceRequest("predict", name=name, features=features))
        if reply.status == "ok":
            assert math.isfinite(reply.get("prediction")), reply

    @rule(name=MODEL_NAMES, y_true=VALUES, y_pred=VALUES)
    def record_truth(self, name, y_true, y_pred):
        self.send(ServiceRequest("record_truth", name=name, y_true=y_true, y_pred=y_pred))

    @rule(name=MODEL_NAMES)
    def metrics(self, name):
        r2 = self.send(ServiceRequest("metrics", name=name)).get("r_squared")
        assert r2 is None or not math.isnan(r2)

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
            features = {k: entry.scaler.mean(k) + 1e-3 * math.sqrt(entry.scaler.variance(k))
                        for k in features}
    else:
        features = {**features, data.draw(st.sampled_from(["a b", "", "x=1", "\u00e9"])): 1.0}
    before = (entry.scaler.to_state(), entry.model.to_state(), entry.seq)
    reply = service.train("m", features, y)
    assert reply.status == "bad_request", reply
    assert (entry.scaler.to_state(), entry.model.to_state(), entry.seq) == before
    if not prefix:  # the refused sample fixed no feature set
        assert entry.scaler.feature_names is None and entry.model.feature_names is None


# --- wire protocol -------------------------------------------------------------


def test_request_line_roundtrip():
    req = ServiceRequest("train", name="m", features={"x": 2.0, "z": 0.5}, y=4.65)
    line = format_request(req)
    assert line == "train name=m x:x=2.0 x:z=0.5 y=4.65"
    parsed = parse_request(line)
    assert parsed == req


def test_response_line_roundtrip():
    service = MLService()
    service.handle(ServiceRequest("create", name="m", model_type="linear_sgd"))
    resp = service.handle(ServiceRequest("predict", name="m", features={"x": 1.0}))
    line = format_response(resp)
    parsed = parse_response(line)
    assert parsed.status == "ok"
    assert parsed.get("cold") is True
    assert parsed.get("prediction") == 0.0


def test_floats_render_shortest_roundtrip():
    req = ServiceRequest("train", name="m", features={"x": 0.1}, y=1e-7)
    line = format_request(req)
    assert "x:x=0.1" in line and "y=1e-07" in line
    assert parse_request(line).y == 1e-7


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
    req = parse_request("predict name=m x:name=1.0 x:type=2.0 x:y=3.0")
    assert req == ServiceRequest("predict", name="m",
                                 features={"name": 1.0, "type": 2.0, "y": 3.0})


@pytest.mark.parametrize("feature", ["a b", "a=b", "x:y", "", "a\n", 3])
def test_a_feature_name_the_wire_cannot_carry_is_refused_on_both_mounts(feature):
    req = ServiceRequest("train", name="m", features={feature: 1.0}, y=1.0)
    with pytest.raises(ValueError, match="feature name"):
        format_request(req)
    service = MLService()
    service.handle(ServiceRequest("create", name="m", model_type="linear_sgd"))
    assert format_response(service.handle(req)) == "bad_request error=bad_feature_name"
    # the refused sample fixed nothing: a sendable one is the model's first
    first = ServiceRequest("train", name="m", features={"a": 1.0}, y=1.0)
    assert format_response(service.handle(first)) == "ok samples_seen=1 seq=1"


@pytest.mark.parametrize("feature", ["a b", "a=b", "x:y", "", "a\n", 3])
def test_a_cold_predict_refuses_a_feature_name_the_wire_cannot_carry(feature):
    service = MLService()
    service.handle(ServiceRequest("create", name="m", model_type="linear_sgd"))
    req = ServiceRequest("predict", name="m", features={feature: 1.0})
    assert format_response(service.handle(req)) == "bad_request error=bad_feature_name"


def test_a_cold_predict_answers_alike_on_the_line_protocol():
    service = MLService()
    handle_line(service, "create name=m type=linear_sgd")
    assert handle_line(service, "predict name=m x:a:b=1.0") == "bad_request error=bad_feature_name"
    assert (handle_line(service, "predict name=m x:a=1.0")
            == "ok prediction=0.0 cold=true samples_seen=0")


def test_a_model_name_the_wire_cannot_carry_is_refused():
    service = MLService()
    resp = service.handle(ServiceRequest("create", name="m\n", model_type="linear_sgd"))
    assert format_response(resp) == "bad_request error=bad_name"
    assert service.handle(ServiceRequest("list_models")).get("models") == []


@pytest.mark.parametrize("line", ["ok junk", "ok seq=1 junk", "bad_request error"])
def test_a_reply_token_without_equals_is_a_protocol_error(line):
    with pytest.raises(mlserve.ProtocolError, match="not key=value"):
        parse_response(line)


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
