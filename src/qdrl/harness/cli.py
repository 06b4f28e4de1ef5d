"""Command-line entry point.

Subcommands: train, evaluate, sweep, scale-sweep, analyze, tomo-calibrate,
export-protocol. Exit codes: 0 on success, 2 for configuration problems
(bad file, schema violation, incompatible checkpoint), 3 when training
diverges at runtime.
"""
from __future__ import annotations

import argparse
import os
import sys

from ..rlagent import DivergenceError
from . import commands
from .config import ConfigError, load_config

__all__ = ["main"]


def _positive_int(text: str) -> int:
    """An integer flag value of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _worker_count(text: str) -> int:
    """--workers value: an integer from 1 to the number of usable cores."""
    cores = len(os.sched_getaffinity(0))
    n = _positive_int(text)
    if n > cores:
        raise argparse.ArgumentTypeError(f"must be between 1 and {cores} (usable cores), got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdrl",
        description="Pulse-protocol synthesis for exchange-coupled spin qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, **extra_flags) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment YAML file")
        p.add_argument("--seed", type=int, nargs="+", default=None,
                       help="override the config seed list")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--budget-override", type=int, default=None,
                       help="override budget_episodes")
        for flag, kwargs in extra_flags.items():
            p.add_argument(flag, **kwargs)
        return p

    add("train", "train one agent per seed; write logs and checkpoints")
    add("evaluate", "dynamic vs frozen deterministic-policy evaluation",
        **{"--checkpoint": dict(required=True),
           "--episodes": dict(type=_positive_int, default=None)})
    add("sweep", "grid of training runs over protocol time x segment count",
        **{"--workers": dict(type=_worker_count, default=1,
                             help="worker processes for independent cells")})
    add("scale-sweep", "fixed-protocol infidelity vs scale per noise contribution",
        **{"--protocol": dict(required=True),
           "--mode": dict(choices=["time_energy", "noise"], default=None)})
    add("analyze", "Bloch trajectories and fluence of a protocol table",
        **{"--protocol": dict(required=True), "--initial-state": dict(default=None)})
    add("tomo-calibrate", "fit the snapshot/surrogate-noise equivalence map")
    add("export-protocol", "roll out a checkpoint and write its pulse table",
        **{"--checkpoint": dict(required=True),
           "--noise-seed": dict(type=int, default=None)})
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(
            args.config,
            seed_override=args.seed,
            out_override=args.out,
            budget_override=args.budget_override,
        )
        if args.command == "train":
            commands.cmd_train(config)
        elif args.command == "evaluate":
            commands.cmd_evaluate(config, args.checkpoint, episodes=args.episodes)
        elif args.command == "sweep":
            commands.cmd_sweep(config, workers=args.workers)
        elif args.command == "scale-sweep":
            commands.cmd_scale_sweep(config, args.protocol, mode=args.mode)
        elif args.command == "analyze":
            commands.cmd_analyze(config, args.protocol, initial_state=args.initial_state)
        elif args.command == "tomo-calibrate":
            commands.cmd_tomo_calibrate(config)
        elif args.command == "export-protocol":
            commands.cmd_export_protocol(config, args.checkpoint, noise_seed=args.noise_seed)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
