"""Command-line entry point.

Subcommands: train, evaluate, sweep, scale-sweep, analyze, tomo-calibrate,
export-protocol. A setting flag writes its config key into the YAML mapping
before validation, so it passes the same checks as that key and the stamped
config_hash covers it: --seed sets seeds, --out output_dir, --budget-override
budget_episodes, --episodes evaluate.episodes, --mode scale_sweep.mode and
--initial-state analyze.initial_state. The other flags (--checkpoint,
--protocol, --noise-seed, --workers) are the command's inputs.

Exit codes: 0 on success, 2 for configuration problems (bad config file,
schema violation, incompatible or unreadable checkpoint, unreadable or
malformed protocol table), 3 when training diverges at runtime.
"""
from __future__ import annotations

import argparse
import ctypes
import os
import sys

from ..rlagent import DivergenceError
from . import commands
from .config import ConfigError, config_from_dict, read_yaml

__all__ = ["main"]


def _int_at_least(text: str, least: int) -> int:
    """An integer flag value of at least `least`."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
    return n


def _positive_int(text: str) -> int:
    """An integer flag value of at least 1."""
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    """An integer flag value of at least 0, such as a seed."""
    return _int_at_least(text, 0)


def _worker_count(text: str) -> int:
    """--workers value: an integer from 1 to the number of usable cores."""
    cores = len(os.sched_getaffinity(0))
    n = _positive_int(text)
    if n > cores:
        raise argparse.ArgumentTypeError(f"must be between 1 and {cores} (usable cores), got {n}")
    return n


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_blocks() -> None:
    """Serve the agent update's MB-sized temporaries from a heap glibc keeps.

    glibc maps each block above its mmap threshold afresh and unmaps it on
    free, and trims the heap top once more than its trim threshold lies free
    there; at the thresholds a fresh process starts with, a default-size
    update faults its pages in anew each time (~13k minor faults). The values
    set here are the ceilings of glibc's own threshold heuristic. Fork-started
    sweep workers inherit them. A libc without mallopt is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


# setting flag (its argparse dest) -> the config key it sets: (section, key),
# section None for a top-level key
_SETTINGS = {
    "seed": (None, "seeds"),
    "out": (None, "output_dir"),
    "budget_override": (None, "budget_episodes"),
    "episodes": ("evaluate", "episodes"),
    "mode": ("scale_sweep", "mode"),
    "initial_state": ("analyze", "initial_state"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdrl",
        description="Pulse-protocol synthesis for exchange-coupled spin qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, run, **extra_flags) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="experiment YAML file")
        p.add_argument("--seed", type=int, nargs="+", default=None,
                       help="set the config seed list (seeds)")
        p.add_argument("--out", default=None, help="set the output directory (output_dir)")
        p.add_argument("--budget-override", type=int, default=None,
                       help="set budget_episodes")
        for flag, kwargs in extra_flags.items():
            p.add_argument(flag, **kwargs)
        return p

    add("train", "train one agent per seed; write logs and checkpoints", commands.cmd_train)
    add("evaluate", "dynamic vs frozen deterministic-policy evaluation", commands.cmd_evaluate,
        **{"--checkpoint": dict(required=True),
           "--episodes": dict(type=_positive_int, default=None,
                              help="set evaluate.episodes")})
    add("sweep", "one training run per cell of the sweep.axes product", commands.cmd_sweep,
        **{"--workers": dict(type=_worker_count, default=1,
                             help="worker processes for independent cells")})
    add("scale-sweep", "fixed-protocol infidelity vs scale per noise contribution",
        commands.cmd_scale_sweep,
        **{"--protocol": dict(required=True, dest="protocol_path", metavar="PATH"),
           "--mode": dict(choices=["time_energy", "noise"], default=None,
                          help="set scale_sweep.mode")})
    add("analyze", "Bloch trajectories and fluence of a protocol table", commands.cmd_analyze,
        **{"--protocol": dict(required=True, dest="protocol_path", metavar="PATH"),
           "--initial-state": dict(default=None, help="set analyze.initial_state")})
    add("tomo-calibrate", "fit the snapshot/surrogate-noise equivalence map",
        commands.cmd_tomo_calibrate)
    add("export-protocol", "roll out a checkpoint and write its pulse table",
        commands.cmd_export_protocol,
        **{"--checkpoint": dict(required=True),
           "--noise-seed": dict(type=_non_negative_int, default=None)})
    return parser


def _with_settings(raw, settings: dict):
    """raw with each given setting written under its config key.

    A root or section that is not a mapping is left as it is, for
    validation to report.
    """
    if not isinstance(raw, dict):
        return raw
    raw = dict(raw)
    for (section, key), value in settings.items():
        if value is None:
            continue
        if section is None:
            raw[key] = value
        elif isinstance(raw.get(section), (dict, type(None))):
            raw[section] = {**(raw.get(section) or {}), key: value}
    return raw


def main(argv=None) -> int:
    _keep_freed_blocks()
    args = vars(_build_parser().parse_args(argv))
    run, path = args.pop("run"), args.pop("config")
    del args["command"]
    # what is left after the settings are the command's inputs
    settings = {key: args.pop(dest) for dest, key in _SETTINGS.items() if dest in args}
    try:
        run(config_from_dict(_with_settings(read_yaml(path), settings)), **args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
