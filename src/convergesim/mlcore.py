"""Streaming learning primitives: a running standardizer, three
incremental regressors, and the coefficient of determination.

Samples arrive one at a time as {feature_name: value} dicts. The scaler
and each model fix their feature set on the first learn call, in sorted
name order, and keep their state in that order. Every sample must have
finite values (else ValueError) and, once the set is fixed, exactly those
keys (else DimensionMismatchError); a rejected sample or target, or an
overflowing update (ValueError), changes no state. A scaler's `prepare`
stores nothing, so a caller can `commit` once the model accepts the sample.
Weight updates:

  linear_sgd           e = yhat - y;  w -= lr * e * x;  b -= lr * e
  bayesian             A += beta * x x^T;  c += beta * y * x
                       (A starts at alpha * I; weights on demand solve
                       A w = c, so after any stream the weights equal the
                       batch ridge solution with lambda = alpha / beta)
  passive_aggressive   PA-I: l = max(0, |yhat - y| - eps);
                       tau = min(C, l / (x.x));  w += sign(y - yhat) tau x;
                       the intercept moves by sign(y - yhat) tau

Defaults (lr=0.01, alpha=beta=1, C=1, eps=0.1) follow the documented
defaults of the streaming-ML ecosystem these mirror. The plain
(unclipped) passive-aggressive update is available via C = inf.

Bayesian weights are obtained by solving A w = c per prediction rather
than maintaining an explicit inverse; feature counts here are tiny.

All model state is float lists: an update without a reduction does, per
element, the IEEE operations numpy would. The one reduction is `_dot`,
whose bits depend on the BLAS `ddot` kernel. It uses `np.vdot`, which
reaches the same `ddot` as `@` but does not check numpy's floating-point
flags afterwards, so an overflow gives inf, which callers check, and no
RuntimeWarning.
"""

import itertools
import json
import math

import numpy as np

MODEL_FORMAT = "convergesim-model-v1"


class DimensionMismatchError(Exception):
    pass


def _sample_values(x: dict, names: tuple[str, ...]) -> list[float]:
    """The values of sample x in the order of names.

    Raises ValueError if a value is not finite, then DimensionMismatchError
    if the keys of x are not exactly names.
    """
    for name, value in x.items():
        if not math.isfinite(float(value)):
            raise ValueError(f"non-finite value for feature {name!r}")
    if x.keys() != set(names):
        raise DimensionMismatchError(
            f"features {sorted(x)} do not match model features {sorted(names)}"
        )
    return [float(x[name]) for name in names]


def _finite(value) -> bool:
    """Whether a float, or every entry of a list or a list of lists, is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if value and isinstance(value[0], list):
        value = itertools.chain.from_iterable(value)
    return all(map(math.isfinite, value))


def _dot(a, b) -> float:
    """a . b by BLAS `ddot` (see the module docstring)."""
    return float(np.vdot(a, b))


class _FixedFeatures:
    """A feature set fixed, in sorted order, by the first learned sample.

    Subclasses keep every per-feature quantity in that order.
    """

    feature_names: tuple[str, ...] | None = None

    def _values(self, x: dict) -> list[float]:
        names = self.feature_names
        if names is not None and len(x) == len(names):
            # the common case, without building a key set: with as many keys
            # as names, finding every name means the key sets are equal
            try:
                values = [float(x[name]) for name in names]
            except (KeyError, TypeError, ValueError, OverflowError):
                pass  # _sample_values raises the right error
            else:
                if all(map(math.isfinite, values)):
                    return values
        # before the first learn, any key set is the fixed one
        return _sample_values(x, names or tuple(sorted(x)))


class RunningScaler(_FixedFeatures):
    """Single-pass standardizer: zero mean, unit (population) variance.

    Uses Welford's numerically stable one-pass recurrence
    delta = x - mean; mean += delta / n; m2 += delta * (x - mean).
    Zero-variance features transform to 0. A sample whose update would
    overflow the statistics raises ValueError and is not learned.
    """

    def __init__(self):
        self.count = 0
        self._mean: list[float] = []
        self._m2: list[float] = []  # sums of squared deviations

    def prepare(self, x: dict) -> tuple[tuple, dict]:
        """The statistics after learning x, and x scaled by them. Nothing
        is stored: `commit` takes the statistics."""
        values = self._values(x)
        names = self.feature_names or tuple(sorted(x))
        n = self.count + 1
        new_means, new_m2s, out = [], [], {}
        means = self._mean or [0.0] * len(names)  # a fresh scaler's statistics
        m2s = self._m2 or means
        for name, value, mean, m2 in zip(names, values, means, m2s):
            delta = value - mean
            mean += delta / n
            m2 += delta * (value - mean)
            if not math.isfinite(m2):
                raise ValueError(f"statistics of feature {name!r} overflow")
            std = math.sqrt(m2 / n)
            out[name] = (value - mean) / std if std > 0.0 else 0.0
            new_means.append(mean)
            new_m2s.append(m2)
        return (names, n, new_means, new_m2s), out

    def commit(self, stats: tuple) -> None:
        """Store statistics that `prepare` computed."""
        self.feature_names, self.count, self._mean, self._m2 = stats

    def learn_transform(self, x: dict) -> dict:
        """Update the running statistics with x, then return the scaled x."""
        stats, out = self.prepare(x)
        self.commit(stats)
        return out

    def transform(self, x: dict) -> dict:
        """Scale x with the current statistics, without learning from it."""
        values = self._values(x)
        if self.feature_names is None:
            return dict.fromkeys(sorted(x), 0.0)
        out = {}
        for name, value, mean, m2 in zip(self.feature_names, values, self._mean, self._m2):
            std = math.sqrt(m2 / self.count)
            out[name] = (value - mean) / std if std > 0.0 else 0.0
        return out

    def mean(self, name: str) -> float:
        return dict(zip(self.feature_names or (), self._mean))[name]

    def variance(self, name: str) -> float:
        # population variance, the single-pass streaming convention
        return dict(zip(self.feature_names or (), self._m2))[name] / self.count

    def to_state(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "kind": "running_scaler",
            "stats": {
                name: {"n": self.count, "mean": mean, "m2": m2}
                for name, mean, m2 in zip(self.feature_names or (), self._mean, self._m2)
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "RunningScaler":
        _check_format(state, "running_scaler")
        scaler = cls()
        stats = state["stats"]
        counts = {int(s["n"]) for s in stats.values()}
        if len(counts) > 1:
            raise ValueError(f"per-feature sample counts differ: {sorted(counts)}")
        if stats:
            scaler.feature_names = tuple(sorted(stats))
            scaler.count = counts.pop()
            scaler._mean = [float(stats[name]["mean"]) for name in scaler.feature_names]
            scaler._m2 = [float(stats[name]["m2"]) for name in scaler.feature_names]
        return scaler


class _RegressorBase(_FixedFeatures):
    """Shared learn/predict and the state codec.

    A subclass declares its state once: `params` are its constructor
    parameters, `arrays` its per-feature state (None until the feature set
    is fixed, then made by `_init_state`) and `scalars` its float state;
    `_update` returns new values by name.
    """

    variant = "base"
    params: tuple[str, ...] = ()
    arrays: tuple[str, ...] = ()
    scalars: tuple[str, ...] = ()
    samples_seen = 0

    @property
    def cold(self) -> bool:
        return self.samples_seen == 0

    def learn(self, x: dict, y: float) -> None:
        y = float(y)
        if not math.isfinite(y):
            raise ValueError("non-finite target")
        values = self._values(x)
        fresh = self.feature_names is None
        if fresh:
            self.feature_names = tuple(sorted(x))
            self._init_state(len(values))
        new = self._update(values, y)  # stores nothing
        if not all(map(_finite, new.values())):
            if fresh:  # undo the feature set this sample fixed
                self.feature_names = None
                vars(self).update(dict.fromkeys(self.arrays))
            raise ValueError("update overflows the model state")
        vars(self).update(new)
        self.samples_seen += 1

    def predict(self, x: dict) -> float:
        """Point prediction; an untrained model answers 0 (see `cold`)."""
        if self.cold:
            return 0.0
        return self._predict_vec(self._values(x))

    def to_state(self) -> dict:
        state = {
            "format": MODEL_FORMAT,
            "kind": self.variant,
            "features": list(self.feature_names or ()),
            "samples_seen": self.samples_seen,
        }
        for name in self.params + self.scalars:
            state[name] = getattr(self, name)
        for name in self.arrays:
            array = getattr(self, name)
            state[name] = None if array is None else np.asarray(array).tolist()
        return state

    @classmethod
    def from_state(cls, state: dict) -> "_RegressorBase":
        _check_format(state, cls.variant)
        model = cls(**{name: float(state[name]) for name in cls.params})
        model.feature_names = tuple(state.get("features") or ()) or None
        model.samples_seen = int(state["samples_seen"])
        for name in cls.scalars:
            setattr(model, name, float(state[name]))
        for name in cls.arrays:
            if state[name] is not None:
                setattr(model, name, np.array(state[name], dtype=float).tolist())
        return model


class _LinearModel(_RegressorBase):
    """A linear model w.x + b, with weights w and intercept b."""

    arrays = ("w",)
    scalars = ("b",)
    w: list[float] | None = None
    b = 0.0

    def _init_state(self, dim: int):
        self.w = [0.0] * dim

    def _predict_vec(self, x: list[float]) -> float:
        return _dot(self.w, x) + self.b


class LinearSGD(_LinearModel):
    """Least-squares linear regression trained by per-sample gradient steps."""

    variant = "linear_sgd"
    params = ("learning_rate",)

    def __init__(self, learning_rate: float = 0.01):
        self.learning_rate = learning_rate

    def _update(self, x: list[float], y: float):
        error = _dot(self.w, x) + self.b - y
        step = self.learning_rate * error
        return {"w": [w - step * xi for w, xi in zip(self.w, x)], "b": self.b - step}


class BayesianLinear(_RegressorBase):
    """Bayesian linear regression via the precision matrix A and moment c.

    A and c are plain sums over samples, so the posterior mean is
    independent of arrival order (up to float addition rounding).
    """

    variant = "bayesian"
    params = ("alpha", "beta")
    arrays = ("A", "c")

    def __init__(self, alpha: float = 1.0, beta: float = 1.0):
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        self.alpha = alpha
        self.beta = beta
        self.A: list[list[float]] | None = None
        self.c: list[float] | None = None

    def _init_state(self, dim: int):
        self.A = [[self.alpha * float(i == j) for j in range(dim)] for i in range(dim)]
        self.c = [0.0] * dim

    def _update(self, x: list[float], y: float):
        beta = self.beta
        by = beta * y
        return {"A": [[a + beta * (xi * xj) for a, xj in zip(row, x)]
                      for row, xi in zip(self.A, x)],
                "c": [c + by * xi for c, xi in zip(self.c, x)]}

    def weights(self) -> np.ndarray:
        return np.linalg.solve(np.array(self.A), np.array(self.c))

    def _predict_vec(self, x: list[float]) -> float:
        return _dot(self.weights(), x)


class PassiveAggressive(_LinearModel):
    """PA-I regression: updates only outside the epsilon-insensitive band,
    with step size clipped at the aggressiveness parameter C."""

    variant = "passive_aggressive"
    params = ("C", "epsilon")

    def __init__(self, C: float = 1.0, epsilon: float = 0.1):
        self.C = C
        self.epsilon = epsilon

    def _update(self, x: list[float], y: float):
        y_hat = _dot(self.w, x) + self.b
        loss = abs(y_hat - y) - self.epsilon
        if loss <= 0.0:
            return {}  # inside the insensitive band: state untouched
        norm_sq = _dot(x, x)
        if norm_sq == 0.0:
            return {}
        tau = min(self.C, loss / norm_sq)
        step = math.copysign(tau, y - y_hat)
        return {"w": [w + step * xi for w, xi in zip(self.w, x)], "b": self.b + step}


MODEL_VARIANTS = {
    LinearSGD.variant: LinearSGD,
    BayesianLinear.variant: BayesianLinear,
    PassiveAggressive.variant: PassiveAggressive,
}


def make_model(variant: str, **kwargs):
    if variant not in MODEL_VARIANTS:
        raise ValueError(f"unknown model variant {variant!r}")
    return MODEL_VARIANTS[variant](**kwargs)


def _check_format(state: dict, kind: str):
    if state.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported state format {state.get('format')!r}")
    if state.get("kind") != kind:
        raise ValueError(f"state kind {state.get('kind')!r} does not match {kind!r}")


def model_to_json(model) -> str:
    """Serialize model state as decimal text (shortest round-trip floats)."""
    return json.dumps(model.to_state(), sort_keys=True)


def model_from_json(text: str):
    state = json.loads(text)
    kind = state.get("kind")
    if kind == "running_scaler":
        return RunningScaler.from_state(state)
    if kind not in MODEL_VARIANTS:
        raise ValueError(f"unknown model kind {kind!r}")
    return MODEL_VARIANTS[kind].from_state(state)


def r_squared(pairs: list[tuple[float, float]]) -> float | None:
    """1 - SS_res/SS_tot over (y_true, y_pred) pairs; None when SS_tot is 0
    or overflows."""
    if len(pairs) < 2:
        raise ValueError("r_squared needs at least 2 pairs")
    y_true = np.array([p[0] for p in pairs], dtype=float)
    y_pred = np.array([p[1] for p in pairs], dtype=float)
    # an overflowing spread gives inf or nan, answered below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
        ss_res = float(np.sum((y_true - y_pred) ** 2))
    if ss_tot == 0.0 or not math.isfinite(ss_tot):
        return None
    return 1.0 - ss_res / ss_tot
