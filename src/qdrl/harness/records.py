"""Append-only episode logs: one JSON object per line.

A record is a plain dict whose keys are the ones on disk. A training record
is the episode dict of `train_loop` (episode, env_steps, return, nlif,
leakage, alpha, entropy, critic_loss, policy_loss, update_ms,
anchor_retries) plus seed,
wall_time_ms and config_hash; an evaluation record holds episode, seed,
return, nlif, leakage, wall_time_ms, config_hash and frozen_nlif. The config
hash lets downstream analysis refuse to mix artifacts from different
configurations. Non-finite numbers are stored as null (episodes logged before
the first gradient update have no losses yet), which keeps the files valid
strict JSON. The timings wall_time_ms and update_ms are recorded for
budgeting but ignored by `records_equal`, since they are the values that
legitimately differ between bit-identical reruns.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable

__all__ = ["record_line", "write_records", "read_records", "records_equal"]

VOLATILE_FIELDS = ("wall_time_ms", "update_ms")


def record_line(record: dict) -> str:
    """One record as a line of strict JSON, non-finite floats written as null."""
    return json.dumps({key: None if isinstance(value, float) and not math.isfinite(value)
                       else value for key, value in record.items()}, allow_nan=False)


def write_records(path, records: Iterable[dict]) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(record_line(record) + "\n")


def read_records(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def records_equal(a: dict, b: dict) -> bool:
    """Key-wise equality, skipping the volatile (timing) fields."""

    def stable(record: dict) -> dict:
        return {key: value for key, value in record.items() if key not in VOLATILE_FIELDS}

    return stable(a) == stable(b)
