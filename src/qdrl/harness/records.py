"""Append-only episode logs: one self-describing JSON record per line.

Records carry the config hash so downstream analysis can refuse to mix
artifacts from different configurations. Non-finite numbers are stored as
null (episodes logged before the first gradient update have no losses yet),
which keeps the files valid strict JSON. Timings (the `wall_time_ms` field and
an `update_ms` extra) are recorded for budgeting but ignored by
`records_equal`, since they are the values that legitimately differ between
bit-identical reruns.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

__all__ = ["EpisodeRecord", "write_records", "read_records", "records_equal"]

# timing fields, skipped by records_equal among the core fields and the extras
VOLATILE_FIELDS = ("wall_time_ms", "update_ms")


@dataclass
class EpisodeRecord:
    episode: int
    seed: int
    episode_return: float
    nlif: float
    leakage: float
    wall_time_ms: float
    config_hash: str
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "episode": self.episode,
            "seed": self.seed,
            "return": _clean(self.episode_return),
            "nlif": _clean(self.nlif),
            "leakage": _clean(self.leakage),
            "wall_time_ms": _clean(self.wall_time_ms),
            "config_hash": self.config_hash,
        }
        for key, value in sorted(self.extras.items()):
            if key in payload:
                raise ValueError(f"extra field {key!r} collides with a core field")
            payload[key] = _clean(value)
        return json.dumps(payload, allow_nan=False)

    @classmethod
    def from_json(cls, line: str) -> "EpisodeRecord":
        data = json.loads(line)
        core = {
            "episode": data.pop("episode"),
            "seed": data.pop("seed"),
            "episode_return": data.pop("return"),
            "nlif": data.pop("nlif"),
            "leakage": data.pop("leakage"),
            "wall_time_ms": data.pop("wall_time_ms"),
            "config_hash": data.pop("config_hash"),
        }
        return cls(**core, extras=data)


def _clean(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_records(path, records: Iterable[EpisodeRecord]) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(record.to_json() + "\n")


def read_records(path) -> list[EpisodeRecord]:
    out = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            out.append(EpisodeRecord.from_json(line))
    return out


def records_equal(a: EpisodeRecord, b: EpisodeRecord) -> bool:
    """Field-wise equality, skipping the volatile (timing) fields."""

    def stable(record: EpisodeRecord) -> dict:
        fields = {k: v for k, v in record.__dict__.items() if k not in VOLATILE_FIELDS}
        fields["extras"] = {k: v for k, v in record.extras.items() if k not in VOLATILE_FIELDS}
        return fields

    return stable(a) == stable(b)
