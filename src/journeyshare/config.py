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
    "walk.max_km": "walk_max_km",
    "walk.speed_kmh": "walk_speed_kmh",
    "sched.limit.small_s": "sched_limit_small_s",
    "sched.limit.medium_s": "sched_limit_medium_s",
    "sched.limit.large_s": "sched_limit_large_s",
}


def load_config(path: str | Path) -> EngineConfig:
    values: dict[str, float] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TO_FIELD:
            raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
        value = value.strip()
        try:
            number = float(value)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        if not math.isfinite(number):
            raise ParseError(f"{path}:{lineno}: {key} must be a finite number, got {value!r}")
        if number <= 0:
            raise ParseError(f"{path}:{lineno}: {key} must be positive, got {value!r}")
        values[_KEY_TO_FIELD[key]] = number
    return EngineConfig(**values)
