"""Experiment configuration: one INI section per domain object, strict parsing.

The on-disk format is INI (`[section]` headers, `key = value` lines) parsed
with :mod:`configparser`. Each section is one object, and its keys are that
object's field names:

- ``[profile]``: :class:`~fedpart.profiles.ProfileSpec`
- ``[wifi]`` and ``[fiveg]``: :class:`~fedpart.traces.TraceSynthesisSpec`
- ``[cost]``: :class:`~fedpart.env.CostWeights`
- ``[bounds]``: :class:`~fedpart.env.ObservationBounds`
- ``[devices]``: :class:`~fedpart.profiles.DeviceProfile`
- ``[agent]``: :class:`~fedpart.agent.AgentSettings`
- ``[federation]``: :class:`~fedpart.federation.FederationConfig`
- ``[inputs]`` and ``[run]``: the config-only :class:`InputsSection` and
  :class:`RunSection`

A section lists only the keys it changes; the rest keep the values of
``ExperimentConfig()``, so a partial ``[wifi]`` keeps the Wi-Fi defaults.
Values are coerced from the field's type annotation, and an empty value
means None. Unknown sections or keys are rejected, and a value the domain
object refuses is reported as ``[section] <reason>``; so is a NaN or an
infinity, from a file or a flag, that the object let through. A syntax
error gives its line, and every error from a file begins with its path. A
dumped config re-parses to an identical object. What a run can work out is not
a key: the cost scales come from the profile, and synthesis limits from ``[bounds]``.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
import typing
from dataclasses import dataclass, field

from .agent import AgentSettings
from .env import CostWeights, ObservationBounds
from .federation import FederationConfig
from .profiles import DeviceProfile, ProfileSpec
from .traces import TraceSynthesisSpec


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class InputsSection:
    """Where the profile and traces come from and how traces are replayed.

    An unset path means the object is synthesized from its section.
    """

    profile_path: str | None = None
    wifi_path: str | None = None
    fiveg_path: str | None = None
    trace_seed: int = 7
    noise_rel: float = 0.10
    shift: bool = True
    inversion: bool = True
    floor_frac: float = 0.001

    def __post_init__(self) -> None:
        if not (0.0 < self.floor_frac <= 1.0):
            raise ValueError(f"floor_frac must be in (0, 1], got {self.floor_frac}")
        if self.noise_rel < 0:
            raise ValueError(f"noise_rel must be >= 0, got {self.noise_rel}")
        if self.trace_seed < 0:
            raise ValueError(f"trace_seed must be >= 0, got {self.trace_seed}")


@dataclass(frozen=True)
class RunSection:
    n_runs: int = 5
    base_seed: int = 1000
    output_dir: str = "runs/out"
    workers: int = 1
    validation_interval: int = 250
    validation_steps: int = 300

    def __post_init__(self) -> None:
        for name in ("n_runs", "workers", "validation_interval", "validation_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    profile: ProfileSpec = field(default_factory=ProfileSpec)
    wifi: TraceSynthesisSpec = field(default_factory=lambda: TraceSynthesisSpec(
        length=3000, mean=180.0, variability=35.0,
        outage_rate=0.0015, outage_depth=0.2, outage_duration_mean=160.0,
    ))
    fiveg: TraceSynthesisSpec = field(default_factory=lambda: TraceSynthesisSpec(
        length=11024, mean=24.0, variability=7.0,
        outage_rate=0.002, outage_depth=0.2, outage_duration_mean=160.0,
    ))
    cost: CostWeights = field(default_factory=CostWeights)
    bounds: ObservationBounds = field(default_factory=ObservationBounds)
    devices: DeviceProfile = field(default_factory=DeviceProfile)
    agent: AgentSettings = field(default_factory=AgentSettings)
    inputs: InputsSection = field(default_factory=InputsSection)
    federation: FederationConfig = field(default_factory=FederationConfig)
    run: RunSection = field(default_factory=RunSection)


_SECTIONS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def _coerce(hint, text: str):
    """Turn INI text into a value of the annotated type (None if empty and allowed)."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return tuple(_coerce(args[0], p.strip()) for p in text.split(","))
    if type(None) in args:  # X | None
        if not text:
            return None
        hint = args[0]
    if hint is bool:
        lowered = text.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    return hint(text)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _section(config: ExperimentConfig, name: str):
    if name not in _SECTIONS:
        raise ConfigError(f"unknown section [{name}]; expected one of {list(_SECTIONS)}")
    return getattr(config, name)


def _replace(config: ExperimentConfig, updates: dict[str, dict]) -> ExperimentConfig:
    """Replace fields section by section; each section validates itself, then
    every float it was given, alone or in a tuple, must be finite."""
    sections = {}
    for name, values in updates.items():
        section = _section(config, name)
        try:
            sections[name] = dataclasses.replace(section, **values)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{name}] {exc}") from exc
        for key, value in values.items():
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, float) and not math.isfinite(item):
                    raise ConfigError(f"[{name}] {key}: must be finite, got {item!r}")
    return dataclasses.replace(config, **sections)


def _syntax_error(exc: configparser.Error) -> str:
    """Where ``exc`` is and what it found, without configparser's '<string>' source."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: {exc.line!r} comes before any [section] header"
    if isinstance(exc, configparser.ParsingError):
        lineno, line = exc.errors[0]
        return f"line {lineno}: neither a [section] header nor 'key = value': {line}"
    key = f" key {exc.option!r} in" if isinstance(exc, configparser.DuplicateOptionError) else ""
    return f"line {exc.lineno}:{key} section [{exc.section}] appears twice"


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(_syntax_error(exc)) from exc
    base = ExperimentConfig()
    updates = {}
    for name in parser.sections():
        hints = typing.get_type_hints(type(_section(base, name)))
        values = updates[name] = {}
        for key, raw in parser.items(name):
            if key not in hints:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
            try:
                values[key] = _coerce(hints[key], raw.strip())
            except ValueError as exc:
                raise ConfigError(f"[{name}] {key}: {exc}") from exc
    return _replace(base, updates)


def load_config(path) -> ExperimentConfig:
    """Parse the INI file at ``path``; every error it raises begins with the path."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def dump_config(config: ExperimentConfig) -> str:
    """Serialize the resolved config; parsing the output reproduces it."""
    out = io.StringIO()
    for name in _SECTIONS:
        section = getattr(config, name)
        out.write(f"[{name}]\n")
        for f in dataclasses.fields(section):
            out.write(f"{f.name} = {_format_value(getattr(section, f.name))}".rstrip() + "\n")
        out.write("\n")
    return out.getvalue()


def apply_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Apply `section__key=value` overrides (None values are skipped)."""
    updates: dict[str, dict] = {}
    for dotted, value in overrides.items():
        if value is not None:
            name, key = dotted.split("__", 1)
            updates.setdefault(name, {})[key] = value
    return _replace(config, updates)
