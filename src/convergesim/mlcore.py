"""Streaming learning primitives: a running standardizer, three
incremental regressors, and the coefficient of determination.

Samples arrive one at a time as {feature_name: value} dicts. The scaler
and each model fix their feature set on the first learn call, in sorted
name order, and keep their state in that order. Every sample must have
finite values (else ValueError) and, once the set is fixed, exactly those
keys (else DimensionMismatchError); a rejected sample or target, or an
overflowing update (ValueError), changes no state. A scaler's `prepare`
stores nothing and returns the scaled values as a list in feature order,
so a caller can hand that list to a model's `learn_values` and `commit`
once the model accepts the sample. A scaler's statistics are one tuple
(names, count, means, m2s), replaced on each commit and never changed in
place, so two scalers holding the same tuple hold the same statistics.
Weight updates:

  linear_sgd           e = yhat - y;  w -= lr * e * x;  b -= lr * e
  bayesian             A += beta * x x^T;  c += beta * y * x
                       (A starts at alpha * I; the weights solve A w = c,
                       so after any stream they equal the batch ridge
                       solution with lambda = alpha / beta)
  passive_aggressive   PA-I: l = max(0, |yhat - y| - eps);
                       tau = min(C, l / (x.x));  w += sign(y - yhat) tau x;
                       the intercept moves by sign(y - yhat) tau

Defaults (lr=0.01, alpha=beta=1, C=1, eps=0.1) follow the documented
defaults of the streaming-ML ecosystem these mirror. Each constructor
checks its parameters (ValueError): the learning rate, alpha and beta
must be finite and positive, C positive (the plain, unclipped
passive-aggressive update is C = inf) and epsilon finite and not
negative.

Bayesian weights solve A w = c, without an explicit inverse (feature
counts here are tiny), once per model state: `weights()` keeps the last
solution, read-only, with the A and c lists it was solved from, and
solves again only when those are no longer the model's lists. This is
sound because a model's state lists are replaced, never changed in
place: an accepted learn and `_init_state` each store new lists, as a
scaler's commit stores a new statistics tuple.

Prediction has the two forms that learning has: a scaler's
`transform_values` scales a sample into a list in feature order, and a
model's `predict_values` predicts from such a list. `transform` and
`predict` are their dict forms, as `learn` is of `learn_values`; the
service uses the list forms.

A model's state lives only in its process: no verb, command or scenario
stores or loads one, so there is no serialized form.

All model state is float lists: an update without a reduction does, per
element, the IEEE operations numpy would. The one reduction is `_dot`,
whose bits depend on the BLAS `ddot` kernel. It uses `np.vdot`, which
reaches the same `ddot` as `@` but does not check numpy's floating-point
flags afterwards, so an overflow gives inf, which callers check, and no
RuntimeWarning.
"""

import itertools
import math

import numpy as np


class DimensionMismatchError(Exception):
    pass


def _float(value, what: str) -> float:
    """float(value), with ValueError for an int too large or a non-number."""
    try:
        return float(value)
    except (TypeError, OverflowError) as err:
        raise ValueError(f"{what}: {err}") from None


def _sample_values(x: dict, names: tuple[str, ...]) -> list[float]:
    """The values of sample x in the order of names.

    Raises ValueError if a value is not a finite float, then
    DimensionMismatchError if the keys of x are not exactly names.
    """
    for name, value in x.items():
        if not math.isfinite(_float(value, f"feature {name!r}")):
            raise ValueError(f"non-finite value for feature {name!r}")
    if x.keys() != set(names):
        raise DimensionMismatchError(
            f"features {sorted(x)} do not match model features {sorted(names)}"
        )
    return [float(x[name]) for name in names]


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

    # (feature names, count, means, sums of squared deviations); every
    # fresh scaler holds this one tuple
    stats: tuple = (None, 0, (), ())

    def prepare(self, x: dict) -> tuple[tuple, list[float]]:
        """The statistics after learning x, and x scaled by them, in feature
        order. Nothing is stored: `commit` takes the statistics."""
        values = self._values(x)
        names, count, means, m2s = self.stats
        if names is None:
            names = tuple(sorted(x))
            means = m2s = (0.0,) * len(names)
        n = count + 1
        new_means, new_m2s, out = [], [], []
        for name, value, mean, m2 in zip(names, values, means, m2s):
            delta = value - mean
            mean += delta / n
            m2 += delta * (value - mean)
            if not math.isfinite(m2):
                raise ValueError(f"statistics of feature {name!r} overflow")
            std = math.sqrt(m2 / n)
            out.append((value - mean) / std if std > 0.0 else 0.0)
            new_means.append(mean)
            new_m2s.append(m2)
        return (names, n, tuple(new_means), tuple(new_m2s)), out

    def commit(self, stats: tuple) -> None:
        """Store statistics that `prepare` computed."""
        self.stats = stats
        self.feature_names = stats[0]

    def transform_values(self, x: dict) -> list[float]:
        """x scaled by the current statistics, without learning from it, as
        a list in feature order (all 0 before the first commit)."""
        values = self._values(x)
        names, count, means, m2s = self.stats
        if names is None:
            return [0.0] * len(values)
        out = []
        for value, mean, m2 in zip(values, means, m2s):
            std = math.sqrt(m2 / count)
            out.append((value - mean) / std if std > 0.0 else 0.0)
        return out

    def transform(self, x: dict) -> dict:
        """The dict form of `transform_values`."""
        return dict(zip(self.feature_names or sorted(x), self.transform_values(x)))


class _RegressorBase(_FixedFeatures):
    """Shared learn/predict.

    A subclass names its per-feature state in `arrays` (None until the
    feature set is fixed, then made by `_init_state`; a sample that fixed
    the set and is refused resets them). `_update` stores the state after
    a sample and returns True, or stores nothing and returns False when
    that state would not be finite.
    """

    variant = "base"
    arrays: tuple[str, ...] = ()
    samples_seen = 0

    @property
    def cold(self) -> bool:
        return self.samples_seen == 0

    def learn(self, x: dict, y: float) -> None:
        """Learn sample x, a {feature_name: value} dict, with target y."""
        if not math.isfinite(_float(y, "target")):  # checked before x
            raise ValueError("non-finite target")
        self.learn_values(self.feature_names or tuple(sorted(x)), self._values(x), y)

    def learn_values(self, names: tuple[str, ...], values: list[float], y: float) -> None:
        """Learn a sample given as its values in the order of `names`: the
        sorted feature names, which must be the model's once they are fixed.
        The list is neither kept nor changed."""
        if type(y) is not float:
            y = _float(y, "target")
        if not math.isfinite(y):
            raise ValueError("non-finite target")
        if not all(map(math.isfinite, values)):
            raise ValueError("non-finite feature value")
        fresh = self.feature_names is None
        if len(values) != len(names) or not (fresh or names == self.feature_names):
            raise DimensionMismatchError(
                f"{len(values)} values for features {list(names)} do not match"
                f" model features {list(self.feature_names or names)}")
        if fresh:
            self.feature_names = names
            self._init_state(len(names))
        if not self._update(values, y):
            if fresh:  # undo the feature set this sample fixed
                self.feature_names = None
                vars(self).update(dict.fromkeys(self.arrays))
            raise ValueError("update overflows the model state")
        self.samples_seen += 1

    def predict_values(self, values: list[float]) -> float:
        """Point prediction from values in the model's feature order; an
        untrained model answers 0 (see `cold`)."""
        if self.cold:
            return 0.0
        if not all(map(math.isfinite, values)):
            raise ValueError("non-finite feature value")
        return self._predict_vec(values)

    def predict(self, x: dict) -> float:
        """The dict form of `predict_values`."""
        return 0.0 if self.cold else self.predict_values(self._values(x))


class _LinearModel(_RegressorBase):
    """A linear model w.x + b, with weights w and intercept b."""

    arrays = ("w",)
    w: list[float] | None = None
    b = 0.0

    def _init_state(self, dim: int):
        self.w = [0.0] * dim

    def _predict_vec(self, x: list[float]) -> float:
        return _dot(self.w, x) + self.b

    def _store(self, w: list[float], b: float) -> bool:
        if not (math.isfinite(b) and all(map(math.isfinite, w))):
            return False
        self.w, self.b = w, b
        return True


class LinearSGD(_LinearModel):
    """Least-squares linear regression trained by per-sample gradient steps."""

    variant = "linear_sgd"

    def __init__(self, learning_rate: float = 0.01):
        if not 0 < learning_rate < math.inf:  # NaN fails too
            raise ValueError(f"learning_rate must be finite and positive, not {learning_rate}")
        self.learning_rate = learning_rate

    def _update(self, x: list[float], y: float) -> bool:
        error = _dot(self.w, x) + self.b - y
        step = self.learning_rate * error
        return self._store([w - step * xi for w, xi in zip(self.w, x)], self.b - step)


class BayesianLinear(_RegressorBase):
    """Bayesian linear regression via the precision matrix A and moment c.

    A and c are plain sums over samples, so the posterior mean is
    independent of arrival order (up to float addition rounding).
    """

    variant = "bayesian"
    arrays = ("A", "c")
    # (A, c, weights) of the last solve; see the module docstring
    _solved: tuple = (None, None, None)

    def __init__(self, alpha: float = 1.0, beta: float = 1.0):
        for name, value in (("alpha", alpha), ("beta", beta)):
            if not 0 < value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive, not {value}")
        self.alpha = alpha
        self.beta = beta
        self.A: list[list[float]] | None = None
        self.c: list[float] | None = None

    def _init_state(self, dim: int):
        self.A = [[self.alpha * float(i == j) for j in range(dim)] for i in range(dim)]
        self.c = [0.0] * dim

    def _update(self, x: list[float], y: float) -> bool:
        beta = self.beta
        A = []
        for row, xi in zip(self.A, x):  # loops, not a comprehension frame per row
            new_row = []
            for a, xj in zip(row, x):
                new_row.append(a + beta * (xi * xj))
            A.append(new_row)
        by = beta * y
        c = [c + by * xi for c, xi in zip(self.c, x)]
        if not (all(map(math.isfinite, c))
                and all(map(math.isfinite, itertools.chain.from_iterable(A)))):
            return False
        self.A, self.c = A, c
        return True

    def weights(self) -> np.ndarray:
        """The solution of A w = c, read-only, solved once per state."""
        A, c, w = self._solved
        if w is None or A is not self.A or c is not self.c:
            w = np.linalg.solve(np.array(self.A), np.array(self.c))
            w.flags.writeable = False
            self._solved = (self.A, self.c, w)
        return w

    def _predict_vec(self, x: list[float]) -> float:
        return _dot(self.weights(), x)


class PassiveAggressive(_LinearModel):
    """PA-I regression: updates only outside the epsilon-insensitive band,
    with step size clipped at the aggressiveness parameter C."""

    variant = "passive_aggressive"

    def __init__(self, C: float = 1.0, epsilon: float = 0.1):
        if not C > 0:  # NaN fails too; inf is the unclipped update
            raise ValueError(f"C must be positive, not {C}")
        if not 0 <= epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, not {epsilon}")
        self.C = C
        self.epsilon = epsilon

    def _update(self, x: list[float], y: float) -> bool:
        y_hat = _dot(self.w, x) + self.b
        loss = abs(y_hat - y) - self.epsilon
        if loss <= 0.0:
            return True  # inside the insensitive band: state untouched
        norm_sq = _dot(x, x)
        if norm_sq == 0.0:
            return True
        tau = min(self.C, loss / norm_sq)
        step = math.copysign(tau, y - y_hat)
        return self._store([w + step * xi for w, xi in zip(self.w, x)], self.b + step)


MODEL_VARIANTS = {
    LinearSGD.variant: LinearSGD,
    BayesianLinear.variant: BayesianLinear,
    PassiveAggressive.variant: PassiveAggressive,
}


def make_model(variant: str, **kwargs):
    if variant not in MODEL_VARIANTS:
        raise ValueError(f"unknown model variant {variant!r}")
    return MODEL_VARIANTS[variant](**kwargs)


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
