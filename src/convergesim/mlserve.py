"""Request/response surface of the streaming-ML service.

The service registers named model pipelines (running scaler + incremental
regressor), trains them one sample at a time, answers predictions, and
keeps a caller-populated held-out buffer for the running R-squared. It
can be driven in-process (the simulation mounts it directly) or over a
local stream socket (demo mode); both mounts speak the same line
protocol, so a request sequence yields identical response bodies either
way.

Wire grammar, one record per line:

  request  := verb [key=value]*
  verb     := create | train | predict | record_truth | metrics | stats
              | list_models
  response := status [key=value]*
  status   := ok | not_found | bad_request

Feature values are keyed as ``x:<name>=<float>``. Floats are rendered as
shortest round-trip decimal text (Python ``repr``), booleans as
``true``/``false``, missing values as ``null``, lists as comma-joined
items. Model and feature names are restricted to [A-Za-z0-9_.-]+ so no
quoting is needed anywhere.

Every mutating verb bumps the model's sequence counter and echoes it, so
a response trace makes interleaved partial updates detectable. A rejected
request leaves the model unchanged: a train commits the scaler's new
statistics only after the model accepts the sample. A socket mount
serves every connection from one selector loop, one request at a time,
and closes a connection whose unterminated line passes MAX_LINE_BYTES
after answering malformed_request.
"""

import inspect
import math
import re
import selectors
import socket
import threading
from dataclasses import dataclass, field

from . import mlcore

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def _sendable(name) -> bool:
    """Whether the line protocol can carry `name`, a model or feature name."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


@dataclass(frozen=True)
class ServiceRequest:
    verb: str
    name: str | None = None
    model_type: str | None = None
    features: dict | None = None
    y: float | None = None
    y_true: float | None = None
    y_pred: float | None = None


@dataclass(frozen=True)
class ServiceResponse:
    status: str  # ok | not_found | bad_request
    body: tuple[tuple[str, object], ...] = ()

    def get(self, key, default=None):
        for k, v in self.body:
            if k == key:
                return v
        return default


def _ok(*body: tuple[str, object]) -> ServiceResponse:
    return ServiceResponse("ok", body)


def _not_found(error: str) -> ServiceResponse:
    return ServiceResponse("not_found", (("error", error),))


def _bad_request(error: str) -> ServiceResponse:
    return ServiceResponse("bad_request", (("error", error),))


def _no_model(name) -> ServiceResponse:
    """The reply to a verb naming no model, or one never created."""
    return _bad_request("missing_name") if name is None else _not_found("unknown_model")


_VERBS = ("create", "list_models", "train", "predict", "record_truth", "metrics", "stats")


@dataclass
class _ModelEntry:
    scaler: mlcore.RunningScaler
    model: object
    truths: list[tuple[float, float]] = field(default_factory=list)
    seq: int = 0


class MLService:
    """In-process mount: the model registry, one method per verb. A verb's
    parameters are named after the ServiceRequest fields it takes."""

    def __init__(self, model_defaults: dict | None = None):
        self._models: dict[str, _ModelEntry] = {}
        self._model_defaults = model_defaults or {}
        methods = [getattr(self, verb) for verb in _VERBS]
        self._verbs = {verb: (method, tuple(inspect.signature(method).parameters))
                       for verb, method in zip(_VERBS, methods)}

    def entry(self, name: str) -> _ModelEntry:
        return self._models[name]

    def handle(self, req: ServiceRequest) -> ServiceResponse:
        verb = self._verbs.get(req.verb)
        if verb is None:
            return _bad_request("unknown_verb")
        method, fields = verb
        return method(*[getattr(req, field) for field in fields])

    def create(self, name, model_type) -> ServiceResponse:
        if not _sendable(name):
            return _bad_request("bad_name")
        if name in self._models:
            return _bad_request("duplicate_model")
        if model_type not in mlcore.MODEL_VARIANTS:
            return _bad_request("unknown_model_type")
        kwargs = self._model_defaults.get(model_type, {})
        self._models[name] = _ModelEntry(
            scaler=mlcore.RunningScaler(),
            model=mlcore.make_model(model_type, **kwargs),
        )
        return _ok(("name", name), ("model_type", model_type))

    def list_models(self) -> ServiceResponse:
        return _ok(("models", list(self._models)))

    def train(self, name, features, y) -> ServiceResponse:
        if (entry := self._models.get(name)) is None:
            return _no_model(name)
        if not features or y is None:
            return _bad_request("missing_training_sample")
        model = entry.model
        # the first sample fixes the names, and later ones must match them,
        # so only a fresh model checks that the line protocol can carry them
        if model.feature_names is None and not all(map(_sendable, features)):
            return _bad_request("bad_feature_name")
        try:
            stats, scaled = entry.scaler.prepare(features)
            model.learn(scaled, y)
        except (mlcore.DimensionMismatchError, ValueError) as err:
            return _bad_request(type(err).__name__)
        entry.scaler.commit(stats)  # only now that the model accepted the sample
        entry.seq += 1
        return _ok(("samples_seen", model.samples_seen), ("seq", entry.seq))

    def predict(self, name, features) -> ServiceResponse:
        if (entry := self._models.get(name)) is None:
            return _no_model(name)
        if not features:
            return _bad_request("missing_features")
        # a fresh model has no names to match yet, so it checks, as for a
        # first `train`, that the line protocol can carry them
        if entry.model.feature_names is None and not all(map(_sendable, features)):
            return _bad_request("bad_feature_name")
        try:
            # the scaler is frozen here: test-phase features must not leak
            # into the training statistics
            scaled = entry.scaler.transform(features)
            value = entry.model.predict(scaled)
        except (mlcore.DimensionMismatchError, ValueError) as err:
            return _bad_request(type(err).__name__)
        if not math.isfinite(value):
            return _bad_request("non_finite_prediction")
        return _ok(("prediction", value), ("cold", entry.model.cold),
                   ("samples_seen", entry.model.samples_seen))

    def record_truth(self, name, y_true, y_pred) -> ServiceResponse:
        if (entry := self._models.get(name)) is None:
            return _no_model(name)
        if y_true is None or y_pred is None:
            return _bad_request("missing_pair")
        if not (math.isfinite(y_true) and math.isfinite(y_pred)):
            return _bad_request("non_finite_pair")
        entry.truths.append((y_true, y_pred))
        entry.seq += 1
        return _ok(("pairs", len(entry.truths)), ("seq", entry.seq))

    def metrics(self, name) -> ServiceResponse:
        if (entry := self._models.get(name)) is None:
            return _no_model(name)
        pairs = len(entry.truths)
        return _ok(("r_squared", mlcore.r_squared(entry.truths) if pairs >= 2 else None),
                   ("pairs", pairs))

    def stats(self, name) -> ServiceResponse:
        if (entry := self._models.get(name)) is None:
            return _no_model(name)
        return _ok(
            ("model_type", entry.model.variant),
            ("samples_seen", entry.model.samples_seen),
            ("seq", entry.seq),
            ("features", list(entry.model.feature_names or ())),
        )


# --- line protocol ----------------------------------------------------------

def _render_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_scalar(text: str):
    if text == "null":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


class ProtocolError(Exception):
    pass


def format_request(req: ServiceRequest) -> str:
    parts = [req.verb]
    if req.name is not None:
        parts.append(f"name={req.name}")
    if req.model_type is not None:
        parts.append(f"type={req.model_type}")
    for key in sorted(req.features or {}):
        if not _sendable(key):
            raise ValueError(f"feature name {key!r} cannot be sent")
        parts.append(f"x:{key}={_render_value(float(req.features[key]))}")
    for attr in ("y", "y_true", "y_pred"):
        value = getattr(req, attr)
        if value is not None:
            parts.append(f"{attr}={_render_value(float(value))}")
    return " ".join(parts)


# wire key -> ServiceRequest field; feature keys are x:<name>
_FIELDS = dict(name="name", type="model_type", y="y", y_true="y_true", y_pred="y_pred")


def parse_request(line: str) -> ServiceRequest:
    tokens = line.strip().split()
    if not tokens:
        raise ProtocolError("empty request line")
    fields, features = {}, {}
    for token in tokens[1:]:
        key, eq, raw = token.partition("=")
        target, field = (features, key[2:]) if key[:2] == "x:" else (fields, _FIELDS.get(key))
        if not eq or not field or field in target:
            raise ProtocolError(f"malformed, unknown or repeated key in {token!r}")
        target[field] = raw if key in ("name", "type") else float(raw)
    return ServiceRequest(tokens[0], features=features or None, **fields)


def format_response(resp: ServiceResponse) -> str:
    parts = [resp.status]
    parts.extend(f"{key}={_render_value(value)}" for key, value in resp.body)
    return " ".join(parts)


def parse_response(line: str) -> ServiceResponse:
    tokens = line.strip().split()
    if not tokens:
        raise ProtocolError("empty response line")
    body = []
    for token in tokens[1:]:
        key, eq, raw = token.partition("=")
        if not eq:
            raise ProtocolError(f"reply token {token!r} is not key=value")
        if key == "models":
            body.append((key, raw.split(",") if raw else []))
        else:
            body.append((key, _parse_scalar(raw)))
    return ServiceResponse(tokens[0], tuple(body))


def handle_line(service: MLService, line: str) -> str:
    try:
        req = parse_request(line)
    except (ProtocolError, ValueError):
        return _MALFORMED_LINE
    return format_response(service.handle(req))


# --- socket mount (demo mode) ----------------------------------------------

MAX_LINE_BYTES = 64 * 1024  # the longest unterminated request a connection may send
_MALFORMED_LINE = format_response(_bad_request("malformed_request"))


@dataclass
class _Connection:
    unparsed: bytes = b""  # input after the last newline
    unsent: bytes = b""  # replies; no more input is read until they are sent
    closing: bool = False


class _Mount:
    """One selector loop serves every connection to one MLService. It runs
    one request at a time, so no request sees another half done."""

    def __init__(self, listener: socket.socket, service: MLService):
        self._listener, self.service = listener, service
        self.server_address = listener.getsockname()
        self._wake, self._waker = socket.socketpair()  # shutdown() wakes the loop
        self._selector = selectors.DefaultSelector()
        for sock in (listener, self._wake):
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ)
        self._stop, self._stopped = False, threading.Event()

    def serve_forever(self):
        self._stopped.clear()
        try:
            while not self._stop:
                for key, _ in self._selector.select():
                    if key.data is not None:
                        self._serve(key)
                    elif key.fileobj is self._listener:
                        self._accept()
        finally:
            self._stopped.set()

    def shutdown(self):
        """Stop serve_forever, running on another thread, and wait for it."""
        self._stop = True
        self._waker.send(b"\0")
        self._stopped.wait()

    def server_close(self):
        """Close the listening socket and every connection."""
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()
        self._waker.close()

    def _accept(self):
        try:
            sock, _ = self._listener.accept()
        except OSError:  # the client left first, or no descriptor is free
            return
        sock.setblocking(False)
        self._selector.register(sock, selectors.EVENT_READ, _Connection())

    def _serve(self, key: selectors.SelectorKey):
        conn, sock = key.data, key.fileobj
        try:
            if not conn.unsent:
                data = sock.recv(MAX_LINE_BYTES)
                conn.closing = not data  # at the end, answer an unterminated last line
                *lines, conn.unparsed = (conn.unparsed + (data or b"\n")).split(b"\n")
                replies = []
                for raw in lines:
                    try:
                        line = raw.decode("utf-8").strip()
                    except UnicodeDecodeError:
                        replies.append(_MALFORMED_LINE)
                        continue
                    if line:  # handle_line is looked up here, so a tracer can wrap it
                        replies.append(handle_line(self.service, line))
                if len(conn.unparsed) > MAX_LINE_BYTES:
                    replies.append(_MALFORMED_LINE)
                    conn.unparsed, conn.closing = b"", True
                conn.unsent = "".join(r + "\n" for r in replies).encode("utf-8")
            if conn.unsent:
                conn.unsent = conn.unsent[sock.send(conn.unsent):]
        except BlockingIOError:
            pass
        except OSError:  # the client reset or left with replies unsent
            conn.unsent, conn.closing = b"", True
        events = selectors.EVENT_WRITE if conn.unsent else selectors.EVENT_READ
        if conn.closing and not conn.unsent:
            self._selector.unregister(sock)
            sock.close()
        elif events != key.events:
            self._selector.modify(sock, events, conn)


def serve_tcp(host: str, port: int, service: MLService | None = None) -> _Mount:
    """Bind the TCP mount; the caller runs serve_forever (or a thread)."""
    return _Mount(socket.create_server((host, port)), service or MLService())


def serve_unix(path: str, service: MLService | None = None) -> _Mount:
    """Bind the unix-domain mount at a filesystem path."""
    return _Mount(socket.create_server(path, family=socket.AF_UNIX), service or MLService())


class ServiceClient:
    """Line-oriented client for either socket mount."""

    def __init__(self, host: str | None = None, port: int | None = None,
                 path: str | None = None):
        if path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.connect(path)
        else:
            self._sock = socket.create_connection((host, port))
        self._file = self._sock.makefile("rwb")

    def call_line(self, line: str) -> str:
        """Send one request line and return its reply line."""
        if "\n" in line or "\r" in line:  # more lines would desync the replies
            raise ValueError(f"a request is one line, not {line!r}")
        self._file.write((line + "\n").encode("utf-8"))
        self._file.flush()
        reply = self._file.readline()
        if not reply:
            raise ConnectionError("service closed the connection")
        return reply.decode("utf-8").strip()

    def call(self, req: ServiceRequest) -> ServiceResponse:
        return parse_response(self.call_line(format_request(req)))

    def close(self):
        self._file.close()
        self._sock.close()
