"""Experiment configuration: presets, flat key-value files, validation.

The on-disk format is diff-friendly flat text, one ``section.key = value``
per line.  All physical quantities are SI: times in seconds, angles in
radians.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import lru_cache, partial
from operator import attrgetter
from typing import Callable, Optional

from .controller import ControlMode, StageGains
from .perf import PerfFunction, TransformKind
from .plants import PLANTS
from .sim import SimConfig, check_explicit_step

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "electromechanical_preset",
    "single_link_preset",
    "weak_gain_single_link",
    "override",
    "parse_config",
    "serialize_config",
    "load_config",
]


class ConfigError(ValueError):
    """A configuration file or flag failed validation."""


def plant_order(plant: str) -> int:
    """Order of the registered plant ``plant``, read from its registry
    entry without building it; ConfigError if unknown."""
    if plant not in PLANTS:
        raise ConfigError(f"plant must be one of {sorted(PLANTS)}, got {plant!r}")
    return PLANTS[plant].n


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings.  Each is checked by the object that uses it
    (``SimConfig``, ``PerfFunction``, ``StageGains``), whose error
    becomes a ConfigError naming the config key; the envelope is the
    paper's four ``perf_*`` parameters.  Every value must read back, as
    itself and of its type, from the line ``serialize_config`` writes for
    it, so a saved ``config.txt`` replays the run.  The ``PerfFunction``
    and ``SimConfig`` built to check them are kept as ``perf`` and
    ``sim``, the run's own.  An ``x0`` that starts outside the funnel is
    left to ``sim.run``, which names ``x0``."""

    preset: str                       # electromechanical | single-link | custom
    plant: str                        # which built-in plant the run uses
    mode: ControlMode
    perf_b: float
    perf_c: float
    perf_h: float
    perf_T: float
    gains: tuple                      # one StageGains per stage
    dt: float
    t_end: float
    x0: tuple
    record_every: int = 10
    exact_filter: bool = True
    sign_smoothing: float = 0.0
    transform_kind: TransformKind = TransformKind.SYMMETRIC_TAN
    out: Optional[str] = None
    perf: PerfFunction = field(init=False, compare=False, repr=False)
    sim: SimConfig = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = plant_order(self.plant)
        for row in KEYS:
            value = getattr(self, row.field)
            if row.parse in (float, str) and not isinstance(value, row.parse):
                _read_back(row, value)  # before a check that needs the type
            if row.parse is float and not math.isfinite(value):
                raise ConfigError(f"{row.key} must be finite, got {value!r}")
            # a text value must read back from the one line serialize_config writes
            is_text = row.parse is str and value is not None
            if is_text and ("#" in value or value != value.strip() or len(value.splitlines()) > 1):
                raise ConfigError(f"{row.key} must be one line without '#' or outer whitespace, got {value!r}")
        if self.sign_smoothing < 0.0:
            raise ConfigError(f"sign_smoothing must be nonnegative, got {self.sign_smoothing!r}")
        if len(self.gains) != n:
            raise ConfigError(f"plant {self.plant!r} needs {n} stage-gain blocks, got {len(self.gains)}")
        if len(self.x0) != n:
            raise ConfigError(f"init.x0 needs {n} entries, got {len(self.x0)}")
        perf = _checked(PerfFunction, b=self.perf_b, c=self.perf_c, h=self.perf_h, T=self.perf_T)
        sim = _checked(
            SimConfig, dt=self.dt, t_end=self.t_end, x0=self.x0, mode=self.mode,
            record_every=self.record_every, exact_filter=self.exact_filter,
        )
        if not self.exact_filter:
            try:
                check_explicit_step(self.gains, self.dt)
            except ValueError as exc:
                raise ConfigError(f"sim.dt: {exc}") from None
        for name, value in (("x0", sim.x0), ("gains", tuple(self.gains)), ("perf", perf), ("sim", sim)):
            object.__setattr__(self, name, value)
        for row in KEYS:
            _read_back(row, getattr(self, row.field))
        for stage, g in zip(_stage_rows(n), self.gains):
            for row in stage:
                _read_back(row, getattr(g, row.field))


def _checked(build, **kwargs):
    """``build(**kwargs)``; its ValueError, which starts with the failing
    parameter's name, becomes a ConfigError starting with that config key."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        name = re.match(r"\w*", str(exc))[0]
        raise ConfigError(_PARAM_KEYS.get(name, name) + str(exc)[len(name):]) from None


def electromechanical_preset(
    mode: ControlMode = ControlMode.FUZZY, x0=(5.0, 3.0, 2.0)
) -> ExperimentConfig:
    """Three-stage motor-driven-link case study."""
    stage1 = StageGains(delta=1e10, sigma=1e10, varpi=10.0, mu=10.0)
    stage2 = StageGains(
        delta=1e10, sigma=1e10, varpi=10.0, mu=10.0,
        rho=1e10, tau=1e10, varrho=10.0, lam=1e-5,
    )
    stage3 = StageGains(
        delta=1e10, sigma=1e10, varpi=5e3, mu=10.0,
        rho=1e10, tau=1e10, varrho=10.0, lam=1e-5,
    )
    return ExperimentConfig(
        preset="electromechanical",
        plant="electromechanical",
        mode=mode,
        perf_b=0.1, perf_c=0.05, perf_h=1.0, perf_T=0.5,
        gains=(stage1, stage2, stage3),
        dt=1e-5, t_end=3.0, x0=tuple(x0),
    )


def single_link_preset(
    mode: ControlMode = ControlMode.APPROX_FREE, x0=(0.0, 0.0)
) -> ExperimentConfig:
    """Two-stage single-link manipulator case study."""
    stage1 = StageGains(delta=1e6, sigma=1e6, varpi=10.0, mu=10.0)
    stage2 = StageGains(
        delta=1e6, sigma=1e6, varpi=10.0, mu=10.0,
        rho=1e6, tau=1e6, varrho=10.0, lam=1e-3,
    )
    return ExperimentConfig(
        preset="single-link",
        plant="single-link",
        mode=mode,
        perf_b=0.9, perf_c=0.05, perf_h=1.0, perf_T=0.5,
        gains=(stage1, stage2),
        dt=1e-5, t_end=3.0, x0=tuple(x0),
    )


def weak_gain_single_link() -> ExperimentConfig:
    """Deliberately under-tuned single-link config used as a negative control:
    the verifier is expected to report a funnel breach."""
    stage1 = StageGains(delta=1e-3, sigma=1e-3, varpi=1e-6, mu=10.0)
    stage2 = StageGains(
        delta=1e-3, sigma=1e-3, varpi=1e-6, mu=10.0,
        rho=1e-3, tau=1e-3, varrho=10.0, lam=1e-3,
    )
    base = single_link_preset()
    return replace(base, preset="custom", gains=(stage1, stage2))


PRESETS = {
    "electromechanical": electromechanical_preset,
    "single-link": single_link_preset,
}


# -- flat key-value serialization ----------------------------------------

_OWN_DEFAULT = object()  # Key.default: the field's own


@dataclass(frozen=True)
class Key:
    """One config key: the ExperimentConfig (or StageGains) ``field`` it sets,
    ``parse`` from its text (a ValueError or LookupError is reported as
    ``expected``), ``fmt`` back, and the ``default`` if a file leaves it out
    (unset: the field's own default, or the key is required if none)."""

    key: str
    field: str
    parse: Callable
    expected: str = ""
    fmt: Callable = repr
    default: object = _OWN_DEFAULT

    def read(self, text: str):
        try:
            return self.parse(text)
        except (LookupError, ValueError):
            raise ConfigError(f"key {self.key!r}: {self.expected}, got {text!r}") from None

    def line(self, value) -> Optional[str]:
        return None if value is None else f"{self.key} = {self.fmt(value)}"


_number = partial(Key, parse=float, expected="expected a number")
# every key a file may hold besides the stage{i}.* gains, in file order;
# serialize_config writes the gains before the last key, out
KEYS = (
    Key("preset", "preset", str, fmt=str, default="custom"),
    Key("plant", "plant", str, fmt=str),
    Key("mode", "mode", ControlMode, f"expected one of {[m.value for m in ControlMode]}",
        fmt=attrgetter("value"), default=ControlMode.FUZZY),
    Key("transform", "transform_kind", TransformKind, "the only accepted value is 'symmetric-tan'",
        fmt=attrgetter("value")),
    _number("perf.b", "perf_b"),
    _number("perf.c", "perf_c"),
    _number("perf.h", "perf_h"),
    _number("perf.T", "perf_T"),
    _number("sim.dt", "dt"),
    _number("sim.t_end", "t_end"),
    Key("sim.record_every", "record_every", int, "expected a positive integer"),
    Key("sim.exact_filter", "exact_filter", lambda text: {"true": True, "false": False}[text.lower()],
        "expected true/false", fmt=lambda v: str(v).lower()),
    _number("sign_smoothing", "sign_smoothing"),
    Key("init.x0", "x0", lambda text: tuple(float(v) for v in text.split(",")),
        "expected comma-separated numbers", fmt=lambda v: ", ".join(map(repr, v))),
    Key("out", "out", str, fmt=str),
)
_BY_KEY = {row.key: row for row in KEYS}
# a parameter of SimConfig or PerfFunction is named as its key's last part
_PARAM_KEYS = {row.key.rpartition(".")[2]: row.key for row in KEYS}
_FIELD_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
_STAGE_KEYS = ("delta", "sigma", "varpi", "mu", "rho", "tau", "varrho", "lam")  # stage 1: the first four


@lru_cache
def _stage_rows(n: int) -> tuple:
    """The Key of each stage{i}.* gain of an n-stage plant, one tuple per stage."""
    return tuple(
        tuple(_number(f"stage{i}.{k}", k) for k in _STAGE_KEYS[: 4 if i == 1 else 8]) for i in range(1, n + 1)
    )


def serialize_config(cfg: ExperimentConfig) -> str:
    *lines, out = (row.line(getattr(cfg, row.field)) for row in KEYS)
    for stage, g in zip(_stage_rows(len(cfg.gains)), cfg.gains):
        lines += [row.line(getattr(g, row.field)) for row in stage]
    if out is not None:
        lines.append(out)
    return "\n".join(lines) + "\n"


def override(cfg: ExperimentConfig, texts: dict) -> ExperimentConfig:
    """``cfg`` with each key of ``texts`` set to its text read as a file's line."""
    return replace(cfg, **{_BY_KEY[key].field: _BY_KEY[key].read(text) for key, text in texts.items()})


def _parse_pairs(text: str) -> dict:
    pairs, lines = {}, {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in lines:
            raise ConfigError(f"key {key!r} is given twice, on lines {lines[key]} and {ln}")
        lines[key] = ln
        pairs[key] = value.strip()
    return pairs


def _default(row: Key):
    """The value of ``row`` if a file leaves it out; MISSING if required."""
    return _FIELD_DEFAULTS.get(row.field, MISSING) if row.default is _OWN_DEFAULT else row.default


def _value(row: Key, pairs: dict):
    """The value of ``row`` read from ``pairs``, or its default."""
    if row.key in pairs:
        return row.read(pairs[row.key])
    default = _default(row)
    if default is MISSING:
        raise ConfigError(f"missing required key {row.key!r}")
    return default


def _read_back(row: Key, value) -> None:
    """ConfigError naming ``row.key`` unless ``value`` reads back, as
    itself and of its type, from the line serialize_config writes for it;
    None writes no line, so it must be the value a file without the key
    gets."""
    if value is None:
        ok = _default(row) is None
    else:
        try:
            back = row.parse(row.fmt(value))
            ok = type(back) is type(value) and back == value
        except (AttributeError, LookupError, TypeError, ValueError):
            ok = False
    if not ok:
        raise ConfigError(f"{row.key} = {value!r} would not read back from its config line "
                          f"({row.expected or 'expected text'})")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value format into a validated config."""
    pairs = _parse_pairs(text)
    if pairs.get("preset") in PLANTS:
        pairs.setdefault("plant", pairs["preset"])
    values = {row.field: _value(row, pairs) for row in KEYS}
    n = plant_order(values["plant"])
    stages = _stage_rows(n)
    known = {*_BY_KEY, *(row.key for stage in stages for row in stage)}
    for key in pairs:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} for plant {values['plant']!r}")
    gains = []
    for i, stage in enumerate(stages, start=1):
        kwargs = {row.field: _value(row, pairs) for row in stage}
        try:
            gains.append(StageGains(**kwargs))
        except ValueError as exc:
            raise ConfigError(f"stage{i}: {exc}") from None
    return ExperimentConfig(**values, gains=tuple(gains))


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())
