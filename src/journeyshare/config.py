"""key=value configuration file handling.

The config format is deliberately tiny: one `key=value` per line, `#`
comments and blank lines ignored.  Every value is a positive finite number;
EngineConfig raises InputError for any other.  Recognised keys:

    walk.max_km            walking-link distance threshold (km)
    walk.speed_kmh         walking speed (km/h)
    sched.limit.small_s    per-group timetabling limit, group size <= 5
    sched.limit.medium_s   per-group timetabling limit, group size <= 10
    sched.limit.large_s    per-group timetabling limit, larger groups
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import InputError, ParseError, read_text


@dataclass(frozen=True)
class EngineConfig:
    walk_max_km: float = 0.5
    walk_speed_kmh: float = 5.0
    sched_limit_small_s: float = 300.0
    sched_limit_medium_s: float = 600.0
    sched_limit_large_s: float = 900.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"{f.name} must be a positive finite number, got {value!r}")


_KEY_TO_FIELD = {
    "walk.max_km": ("walk_max_km", float),
    "walk.speed_kmh": ("walk_speed_kmh", float),
    "sched.limit.small_s": ("sched_limit_small_s", float),
    "sched.limit.medium_s": ("sched_limit_medium_s", float),
    "sched.limit.large_s": ("sched_limit_large_s", float),
}


def parse_config_text(text: str, source: str = "<config>") -> EngineConfig:
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TO_FIELD:
            raise ParseError(f"{source}:{lineno}: unknown config key {key!r}")
        field_name, conv = _KEY_TO_FIELD[key]
        try:
            values[field_name] = conv(value.strip())
        except ValueError as exc:
            raise ParseError(f"{source}:{lineno}: bad value for {key}: {value.strip()!r}") from exc
        if not math.isfinite(values[field_name]):
            raise ParseError(f"{source}:{lineno}: {key} must be a finite number, got {value.strip()!r}")
        if values[field_name] <= 0:
            raise ParseError(f"{source}:{lineno}: {key} must be positive, got {value.strip()!r}")
    return EngineConfig(**values)


def load_config(path: str | Path) -> EngineConfig:
    return parse_config_text(read_text(path), source=str(path))
