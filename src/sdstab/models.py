"""Plant models, their JSON files, and sampling schedules.

Model files are a single JSON document:

    {"name": str, "n": int, "A": [[..]], "diffusion": [[[..]], ...],
     "B_bar": [[..]]                     # closed feedback, or
     "B_hat": [[..]], "K_hat": [[..]]?   # input map (+ optional gain)
     "nonlinearity": {"type": "planar_sin"}?,
     "x0": [..]? }

Unknown keys are rejected, in the nonlinearity descriptor too.  Exactly one
of B_bar / B_hat must be present; a model with B_hat but no K_hat is in
design mode (gain to be synthesized).  Every plant is one SampledModel: a
linear one, or the planar plant, whose descriptor adds the planar_sin term
(its B_hat defaults to [[0], [1]], and its diffusion list must be empty).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, FormatError, ValidationError

_MODEL_KEYS = {"name", "n", "A", "diffusion", "B_bar", "B_hat", "K_hat", "nonlinearity", "x0"}

# envelope of the planar sine nonlinearity: phi^T Q phi <= x^T E1^T Q E1 x for any Q > 0
PLANAR_ENVELOPE = np.array([[0.25, 0.0], [1.0, 0.0]])
# phi = s * (1/4, 1) with s = x1 sin(K x * x2)
_PHI_WEIGHTS = (0.25, 1.0)


def _array(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer past float range
        raise ValidationError(f"{what}: not a numeric array ({exc})") from exc


def _checked(value, shape: tuple, what: str) -> np.ndarray:
    m = _array(value, what)
    if m.shape != shape:
        raise ValidationError(f"{what}: expected shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{what}: entries must be finite")
    return m


@dataclass(frozen=True)
class SampledModel:
    """Plant dx = [A x + phi(x) + B_bar x(t_*)] dt + sum_j G_j x dB_j.

    Either the closed feedback B_bar is given directly, or an input map B_hat
    (with optional gain K_hat, so that B_bar = B_hat @ K_hat).  phi is zero,
    or with nonlinearity "planar_sin" (n = 2, a scalar input, no diffusion)
    the bounded sine term phi(x) = [x1 sin(K x * x2)/4, x1 sin(K x * x2)],
    whose envelope phi^T Q phi <= x^T E1^T Q E1 x holds structurally since
    |sin| <= 1.
    """

    name: str
    n: int
    A: np.ndarray
    diffusion: tuple
    B_hat: Optional[np.ndarray] = None
    K_hat: Optional[np.ndarray] = None
    B_bar_explicit: Optional[np.ndarray] = None
    x0: Optional[np.ndarray] = None
    nonlinearity: Optional[str] = None

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValidationError("state dimension must be >= 1")
        _checked(self.A, (n, n), "A")
        for j, g in enumerate(self.diffusion):
            _checked(g, (n, n), f"diffusion[{j}]")
        if self.nonlinearity not in (None, "planar_sin"):
            raise ValidationError(f"unknown nonlinearity {self.nonlinearity!r}")
        if self.nonlinearity and (n != 2 or self.diffusion or self.B_bar_explicit is not None
                                  or np.shape(self.B_hat) != (2, 1)):
            raise ValidationError("planar_sin needs n = 2, no diffusion and a (2, 1) input map B_hat, not B_bar")
        if (self.B_bar_explicit is None) == (self.B_hat is None):
            raise ValidationError("exactly one of B_bar or B_hat must be populated")
        if self.B_bar_explicit is not None:
            _checked(self.B_bar_explicit, (n, n), "B_bar")
            if self.K_hat is not None:
                raise ValidationError("K_hat requires B_hat")
        else:
            if self.B_hat.ndim != 2 or self.B_hat.shape[0] != n:
                raise ValidationError(f"B_hat: expected {n} rows, got shape {self.B_hat.shape}")
            _checked(self.B_hat, self.B_hat.shape, "B_hat")
            if self.K_hat is not None:
                _checked(self.K_hat, (self.B_hat.shape[1], n), "K_hat")
        if self.x0 is not None:
            _checked(self.x0, (n,), "x0")

    @property
    def m(self) -> int:
        return len(self.diffusion)

    @property
    def design_mode(self) -> bool:
        return self.B_hat is not None and self.K_hat is None

    @property
    def B_bar(self) -> Optional[np.ndarray]:
        """Closed feedback matrix, or None while the gain is unresolved."""
        if self.B_bar_explicit is not None:
            return self.B_bar_explicit
        if self.K_hat is not None:
            return self.B_hat @ self.K_hat
        return None

    @property
    def envelope(self) -> Optional[np.ndarray]:
        """E1 of the nonlinearity's envelope, or None for a linear plant."""
        return None if self.nonlinearity is None else PLANAR_ENVELOPE.copy()

    def with_gain(self, K_hat: np.ndarray) -> "SampledModel":
        if self.B_hat is None:
            raise ValidationError("model has no input map to apply a gain to")
        return replace(self, K_hat=_checked(K_hat, (self.B_hat.shape[1], self.n), "K_hat"))

    def _phi_step(self, x: np.ndarray, phi: np.ndarray) -> Callable[[], None]:
        """A function of no arguments that writes phi(x) into phi, state-major: phi[j] holds
        component j of each row of x.

        s = x1 sin(K x * x2) is formed in one (rows,) buffer.  K x is a gemv on a C-ordered
        copy of x, so it rounds the same whatever the memory order of x.
        """
        if self.nonlinearity is None or self.K_hat is None:
            raise ValidationError("phi requires the planar_sin nonlinearity and a resolved gain")
        k = self.K_hat[0]
        rows = np.empty(x.shape)
        s = np.empty(x.shape[:-1])
        x1, x2 = x[..., 0], x[..., 1]
        w = np.array(_PHI_WEIGHTS).reshape((2,) + (1,) * s.ndim)
        copyto, matmul, multiply, sin = np.copyto, np.matmul, np.multiply, np.sin

        def step():
            copyto(rows, x)
            matmul(rows, k, s)
            multiply(s, x2, s)
            sin(s, s)
            multiply(s, x1, s)
            multiply(w, s, phi)
        return step

    def phi(self, x: np.ndarray) -> np.ndarray:
        """Sine nonlinearity; requires a resolved gain. Batch-capable."""
        x = np.asarray(x, dtype=float)
        phi = np.empty((2,) + x.shape[:-1])
        self._phi_step(x, phi)()
        return np.moveaxis(phi, 0, -1)

    def drift_step(self, x: np.ndarray, out: np.ndarray) -> Callable[[], np.ndarray]:
        """A function of no arguments that writes the open-loop drift A x + phi(x) of each row
        of x into out, for these x and out arrays of shape (..., n), with every temporary
        allocated here.

        A linear plant's step is one matmul.  The planar plant adds phi(x) through a
        state-major view of out: where out is a (rows, 2) view of a state-major array, as in
        the simulator, each add runs over one contiguous row.
        """
        a_t = self.A.T
        if self.nonlinearity is None:
            return partial(np.matmul, x, a_t, out)
        phi = np.empty((2,) + x.shape[:-1])
        phi_step = self._phi_step(x, phi)
        base = np.moveaxis(out, -1, 0)
        matmul, add = np.matmul, np.add

        def step():
            matmul(x, a_t, out)
            phi_step()
            add(base, phi, base)
            return out
        return step


@dataclass(frozen=True)
class SamplingSchedule:
    """Sampling-instant generator: periodic, uniform-random gaps, or explicit."""

    kind: str
    dt: Optional[float] = None
    dt_lo: Optional[float] = None
    dt_hi: Optional[float] = None
    instants: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind == "periodic":
            if not (self.dt and self.dt > 0 and math.isfinite(self.dt)):
                raise ValidationError("periodic schedule needs dt > 0")
        elif self.kind == "uniform_random":
            ok = (
                self.dt_lo is not None
                and self.dt_hi is not None
                and 0 < self.dt_lo <= self.dt_hi < math.inf
            )
            if not ok:
                raise ValidationError("uniform_random schedule needs 0 < lo <= hi")
        elif self.kind == "explicit":
            t = np.asarray(self.instants, dtype=float)
            # NaN compares False, so it would pass the gap test below
            if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)):
                raise ValidationError("explicit instants must be a non-empty list of finite numbers")
            if t[0] != 0.0:
                t = np.concatenate([[0.0], t])
            if len(t) < 2 or np.any(np.diff(t) <= 0):
                raise ValidationError("explicit instants must be strictly increasing from 0")
            object.__setattr__(self, "instants", t)
        else:
            raise ValidationError(f"unknown schedule kind {self.kind!r}")

    @staticmethod
    def periodic(dt: float) -> "SamplingSchedule":
        return SamplingSchedule("periodic", dt=dt)

    @staticmethod
    def uniform_random(lo: float, hi: float) -> "SamplingSchedule":
        return SamplingSchedule("uniform_random", dt_lo=lo, dt_hi=hi)

    @staticmethod
    def explicit(instants: Sequence[float]) -> "SamplingSchedule":
        return SamplingSchedule("explicit", instants=np.asarray(instants, dtype=float))

    @staticmethod
    def parse(text: str) -> "SamplingSchedule":
        """Parse CLI syntax: 'periodic:0.02', 'uniform:0.01,0.02', 'explicit:0,0.1,0.2'."""
        try:
            kind, _, args = text.partition(":")
            vals = [float(v) for v in args.split(",") if v != ""]
        except ValueError as exc:
            raise ValidationError(f"bad schedule spec {text!r}") from exc
        if kind == "periodic" and len(vals) == 1:
            return SamplingSchedule.periodic(vals[0])
        if kind in ("uniform", "uniform_random") and len(vals) == 2:
            return SamplingSchedule.uniform_random(vals[0], vals[1])
        if kind == "explicit" and vals:
            return SamplingSchedule.explicit(vals)
        raise ValidationError(f"bad schedule spec {text!r}")

    @property
    def underline_dt(self) -> float:
        if self.kind == "periodic":
            return self.dt
        if self.kind == "uniform_random":
            return self.dt_lo
        return float(np.diff(self.instants).min())

    @property
    def overline_dt(self) -> float:
        if self.kind == "periodic":
            return self.dt
        if self.kind == "uniform_random":
            return self.dt_hi
        return float(np.diff(self.instants).max())


def check_grid_length(count: float, what: str) -> None:
    """Refuse a time grid of `count` points that numpy cannot hold.

    numpy rejects a float64 array whose byte size exceeds the largest index
    ("Maximum allowed size exceeded"); checking the count first turns that
    into an input error before anything is allocated.
    """
    if not count * 8.0 < np.iinfo(np.intp).max:
        raise DomainError(f"{what} would have {count:.3g} points, too many to index")


def schedule_instants(
    schedule: SamplingSchedule,
    horizon: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sampling instants on [0, horizon], starting at t0 = 0.

    Gaps stay within [underline_dt, overline_dt]; uniform_random draws gaps
    i.i.d. uniform and is deterministic given the generator state.
    """
    if not 0 < horizon < math.inf:
        raise DomainError("horizon must be positive and finite")
    if schedule.kind == "periodic":
        last = horizon / schedule.dt * (1 + 1e-12)
        check_grid_length(last + 1.0, "the sampling schedule")
        k = math.floor(last)
        return schedule.dt * np.arange(k + 1, dtype=float)
    if schedule.kind == "uniform_random":
        if rng is None:
            raise DomainError("uniform_random schedule requires a seeded generator")
        out = [0.0]
        while True:
            gap = float(rng.uniform(schedule.dt_lo, schedule.dt_hi))
            if out[-1] + gap > horizon:
                break
            out.append(out[-1] + gap)
        return np.asarray(out)
    t = schedule.instants
    return t[t <= horizon * (1 + 1e-12)].copy()


def model_to_dict(model: SampledModel) -> dict:
    d = {"name": model.name, "n": model.n, "A": model.A.tolist(), "diffusion": [g.tolist() for g in model.diffusion]}
    if model.nonlinearity is not None:
        d["nonlinearity"] = {"type": model.nonlinearity}
    if model.B_bar_explicit is not None:
        d["B_bar"] = model.B_bar_explicit.tolist()
    else:
        d["B_hat"] = model.B_hat.tolist()
        if model.K_hat is not None:
            d["K_hat"] = model.K_hat.tolist()
    if model.x0 is not None:
        d["x0"] = np.asarray(model.x0).tolist()
    return d


def model_from_dict(doc: dict) -> SampledModel:
    if not isinstance(doc, dict):
        raise FormatError("model document must be a JSON object")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise FormatError(f"unknown model keys: {sorted(unknown)}")
    doc = {"name": "unnamed", **doc}
    for key in ("n", "A", "diffusion"):
        if key not in doc:
            raise FormatError(f"missing model key {key!r}")
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        raise FormatError("n must be a positive integer")
    if not isinstance(doc["diffusion"], list):
        raise FormatError("diffusion must be a list of matrices")
    nonlinearity = None
    if "nonlinearity" in doc:
        if doc["nonlinearity"] != {"type": "planar_sin"}:
            raise FormatError('unsupported nonlinearity descriptor: the only one is {"type": "planar_sin"}')
        nonlinearity = "planar_sin"
        doc = {"B_hat": [[0.0], [1.0]], **doc}
    optional = {key: None if key not in doc else _array(doc[key], key) for key in ("B_bar", "B_hat", "K_hat", "x0")}
    return SampledModel(
        name=doc["name"],
        n=n,
        A=_array(doc["A"], "A"),
        diffusion=tuple(_array(g, f"diffusion[{j}]") for j, g in enumerate(doc["diffusion"])),
        B_hat=optional["B_hat"],
        K_hat=optional["K_hat"],
        B_bar_explicit=optional["B_bar"],
        x0=optional["x0"],
        nonlinearity=nonlinearity,
    )


def read_input(path, what: str) -> bytes:
    """The bytes of the input file at path; an unreadable file is a FormatError."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {what} file {path}: {exc}") from exc


def read_json(path, what: str, data: Optional[bytes] = None):
    """The JSON document of the input file at path, parsed from data, its bytes, when given.

    No model, certificate or constants file holds a boolean, and Python reads
    true as the number 1, so a boolean anywhere in the document is a FormatError.
    """
    if data is None:
        data = read_input(path, what)
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # undecodable bytes, invalid or too deeply nested JSON
        raise FormatError(f"{what} file {path} is not valid JSON: {exc}") from exc
    todo = [doc]
    while todo:  # a loop, not recursion, so any depth json.loads accepts is walked
        value = todo.pop()
        if isinstance(value, bool):
            raise FormatError(f"{what} file {path} holds a boolean where a number or text belongs")
        if isinstance(value, (dict, list)):
            todo.extend(value.values() if isinstance(value, dict) else value)
    return doc


def load_model(path, data: Optional[bytes] = None) -> SampledModel:
    """Load and validate a model file (see module docstring for the schema),
    from data, its bytes, when the caller has read them."""
    return model_from_dict(read_json(path, "model", data))
