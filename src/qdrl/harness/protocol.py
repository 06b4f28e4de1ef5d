"""Plain-text pulse protocol tables.

One row per segment: index, start time in ns, per-channel detuning amplitude
in millivolts (and optional shaped-trace preview columns, sampled at segment
midpoints). Metadata travels in `# key=value` header lines; floats are
written with full precision so a read/write cycle is lossless.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = ["write_protocol", "read_protocol"]


def write_protocol(path, detunings: np.ndarray, eps0_mv: float, sample_period: float,
                   meta: dict | None = None, shaped_preview: np.ndarray | None = None) -> None:
    """Write an (N, C) detuning table (device units) as a mV text table."""
    detunings = np.asarray(detunings, dtype=float)
    if detunings.ndim != 2:
        raise ValueError(f"expected a 2-d detuning table, got shape {detunings.shape}")
    n, c = detunings.shape
    meta = dict(meta or {})
    meta["eps0_mv"] = eps0_mv
    meta["sample_period_ns"] = sample_period
    columns = ["segment_index", "time_ns"] + [f"eps_ch{j + 1}_mV" for j in range(c)]
    if shaped_preview is not None:
        shaped_preview = np.asarray(shaped_preview, dtype=float)
        if shaped_preview.shape != detunings.shape:
            raise ValueError(
                f"shaped preview shape {shaped_preview.shape} != table shape {detunings.shape}"
            )
        columns += [f"shaped_ch{j + 1}_mV" for j in range(c)]
    lines = [f"# {key}={meta[key]}" for key in sorted(meta)]
    lines.append("\t".join(columns))
    for i in range(n):
        row = [str(i), repr(float(i * sample_period))]
        row += [repr(float(v * eps0_mv)) for v in detunings[i]]
        if shaped_preview is not None:
            row += [repr(float(v * eps0_mv)) for v in shaped_preview[i]]
        lines.append("\t".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_protocol(path) -> tuple[np.ndarray, dict]:
    """Read a protocol table back into device units: ((N, C) array, metadata)."""
    meta: dict = {}
    header: list[str] | None = None
    rows: list[list[float]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            try:
                meta[key] = float(value)
            except ValueError:
                meta[key] = value
            continue
        if header is None:
            header = line.split("\t")
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ValueError(f"protocol file {path} has a row of {len(cells)} cells "
                             f"under a header of {len(header)}")
        rows.append([float(v) for v in cells])
    if header is None or not rows:
        raise ValueError(f"protocol file {path} has no table")
    eps0 = meta.get("eps0_mv")
    if eps0 is None:
        raise ValueError(f"protocol file {path} is missing the eps0_mv header")
    if not isinstance(eps0, float) or not 0.0 < eps0 < math.inf:
        raise ValueError(f"protocol file {path} has eps0_mv={eps0!r}; "
                         f"it must be a positive number")
    eps_cols = [k for k, name in enumerate(header) if name.startswith("eps_ch")]
    if not eps_cols:
        raise ValueError(f"protocol file {path} has no detuning columns")
    table = np.array(rows)[:, eps_cols] / eps0
    return table, meta
