"""Experiment configuration: presets, flat key-value files, validation.

The on-disk format is diff-friendly flat text, one ``section.key = value``
per line.  All physical quantities are SI: times in seconds, angles in
radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .controller import ControlMode, StageGains
from .perf import TransformKind
from .plants import PLANTS
from .sim import check_explicit_step, step_count

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "electromechanical_preset",
    "single_link_preset",
    "weak_gain_single_link",
    "parse_config",
    "serialize_config",
    "load_config",
]

_HALF_PI = math.pi / 2.0
# config key of each float field of ExperimentConfig
_FLOAT_KEYS = {
    "perf_b": "perf.b", "perf_c": "perf.c", "perf_h": "perf.h", "perf_T": "perf.T",
    "dt": "sim.dt", "t_end": "sim.t_end", "sign_smoothing": "sign_smoothing",
}


class ConfigError(ValueError):
    """A configuration file or flag failed validation."""


def plant_order(plant: str) -> int:
    """Order of the registered plant ``plant``; ConfigError if unknown."""
    if plant not in PLANTS:
        raise ConfigError(f"plant must be one of {sorted(PLANTS)}, got {plant!r}")
    return PLANTS[plant].plant().n


@dataclass(frozen=True)
class ExperimentConfig:
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

    def __post_init__(self):
        expected = plant_order(self.plant)
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        for name, key in _FLOAT_KEYS.items():
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, name)!r}")
        if not all(math.isfinite(v) for v in self.x0):
            raise ConfigError(f"init.x0 must be finite, got {self.x0!r}")
        if not self.perf_c > 0.0 or self.perf_c >= _HALF_PI:
            raise ConfigError(f"perf.c must lie in (0, pi/2), got {self.perf_c!r}")
        for name in ("perf_b", "perf_h", "perf_T", "dt", "t_end"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{_FLOAT_KEYS[name]} must be strictly positive")
        if self.sign_smoothing < 0.0:
            raise ConfigError(f"sign_smoothing must be nonnegative, got {self.sign_smoothing!r}")
        try:
            step_count(self.t_end, self.dt)
        except ValueError as exc:
            raise ConfigError(f"sim.{exc}") from None
        if not (float(self.record_every).is_integer() and self.record_every >= 1):
            raise ConfigError(
                f"sim.record_every must be a positive integer, got {self.record_every!r}"
            )
        object.__setattr__(self, "record_every", int(self.record_every))
        if len(self.gains) != expected:
            raise ConfigError(
                f"plant {self.plant!r} needs {expected} stage-gain blocks, got {len(self.gains)}"
            )
        if len(self.x0) != expected:
            raise ConfigError(f"init.x0 needs {expected} entries, got {len(self.x0)}")
        if not self.exact_filter:
            try:
                check_explicit_step(self.gains, self.dt)
            except ValueError as exc:
                raise ConfigError(f"sim.dt: {exc}") from None
        object.__setattr__(self, "gains", tuple(self.gains))


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

_STAGE1_KEYS = ("delta", "sigma", "varpi", "mu")
_STAGE_KEYS = _STAGE1_KEYS + ("rho", "tau", "varrho", "lam")
# every key a file may hold besides the stage{i}.* gains of the plant's stages
_TOP_KEYS = (
    "preset", "plant", "mode", "transform", "perf.b", "perf.c", "perf.h", "perf.T",
    "sim.dt", "sim.t_end", "sim.record_every", "sim.exact_filter", "sign_smoothing",
    "init.x0", "out",
)


def _stage_keys(i: int) -> tuple:
    return _STAGE1_KEYS if i == 1 else _STAGE_KEYS


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = [
        f"preset = {cfg.preset}",
        f"plant = {cfg.plant}",
        f"mode = {cfg.mode.value}",
        f"transform = {cfg.transform_kind.value}",
        f"perf.b = {cfg.perf_b!r}",
        f"perf.c = {cfg.perf_c!r}",
        f"perf.h = {cfg.perf_h!r}",
        f"perf.T = {cfg.perf_T!r}",
        f"sim.dt = {cfg.dt!r}",
        f"sim.t_end = {cfg.t_end!r}",
        f"sim.record_every = {cfg.record_every}",
        f"sim.exact_filter = {str(cfg.exact_filter).lower()}",
        f"sign_smoothing = {cfg.sign_smoothing!r}",
        "init.x0 = " + ", ".join(repr(v) for v in cfg.x0),
    ]
    for i, g in enumerate(cfg.gains, start=1):
        for key in _stage_keys(i):
            lines.append(f"stage{i}.{key} = {getattr(g, key)!r}")
    if cfg.out is not None:
        lines.append(f"out = {cfg.out}")
    return "\n".join(lines) + "\n"


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


def _get_float(pairs, key):
    if key not in pairs:
        raise ConfigError(f"missing required key {key!r}")
    try:
        return float(pairs[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {pairs[key]!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value format into a validated config."""
    pairs = _parse_pairs(text)
    preset = pairs.get("preset", "custom")
    plant = pairs.get("plant", preset if preset in PLANTS else None)
    if plant is None:
        raise ConfigError("key 'plant' is required for custom configs")
    try:
        mode = ControlMode(pairs.get("mode", "fuzzy"))
    except ValueError:
        raise ConfigError(
            f"key 'mode': expected one of {[m.value for m in ControlMode]}, "
            f"got {pairs['mode']!r}"
        ) from None
    try:
        kind = TransformKind(pairs.get("transform", "symmetric-tan"))
    except ValueError:
        raise ConfigError(
            f"key 'transform': the only accepted value is 'symmetric-tan', got {pairs['transform']!r}"
        ) from None

    n = plant_order(plant)
    known = {*_TOP_KEYS, *(f"stage{i}.{key}" for i in range(1, n + 1) for key in _stage_keys(i))}
    for key in pairs:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} for plant {plant!r}")
    gains = []
    for i in range(1, n + 1):
        kwargs = {key: _get_float(pairs, f"stage{i}.{key}") for key in _stage_keys(i)}
        try:
            gains.append(StageGains(**kwargs))
        except ValueError as exc:
            raise ConfigError(f"stage{i}: {exc}") from None

    x0_raw = pairs.get("init.x0")
    if x0_raw is None:
        raise ConfigError("missing required key 'init.x0'")
    try:
        x0 = tuple(float(v) for v in x0_raw.split(","))
    except ValueError:
        raise ConfigError(f"key 'init.x0': expected comma-separated numbers, got {x0_raw!r}") from None

    exact_raw = pairs.get("sim.exact_filter", "true").lower()
    if exact_raw not in ("true", "false"):
        raise ConfigError(f"key 'sim.exact_filter': expected true/false, got {exact_raw!r}")

    return ExperimentConfig(
        preset=preset,
        plant=plant,
        mode=mode,
        perf_b=_get_float(pairs, "perf.b"),
        perf_c=_get_float(pairs, "perf.c"),
        perf_h=_get_float(pairs, "perf.h"),
        perf_T=_get_float(pairs, "perf.T"),
        gains=tuple(gains),
        dt=_get_float(pairs, "sim.dt"),
        t_end=_get_float(pairs, "sim.t_end"),
        x0=x0,
        record_every=_get_float(pairs, "sim.record_every") if "sim.record_every" in pairs else 10,
        exact_filter=exact_raw == "true",
        sign_smoothing=_get_float(pairs, "sign_smoothing") if "sign_smoothing" in pairs else 0.0,
        transform_kind=kind,
        out=pairs.get("out"),
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())
