"""Experiment plumbing: configs, episode logs, commands, and the CLI."""
from .commands import (
    cmd_analyze,
    cmd_evaluate,
    cmd_export_protocol,
    cmd_scale_sweep,
    cmd_sweep,
    cmd_tomo_calibrate,
    cmd_train,
    protocol_to_actions,
    simulate_protocol,
)
from .config import (
    SCHEMA_VERSION,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    experiment_hash,
    read_yaml,
)
from .protocol import read_protocol, write_protocol
from .records import read_records, records_equal, write_records

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "ExperimentConfig",
    "cmd_analyze",
    "cmd_evaluate",
    "cmd_export_protocol",
    "cmd_scale_sweep",
    "cmd_sweep",
    "cmd_tomo_calibrate",
    "cmd_train",
    "config_from_dict",
    "experiment_hash",
    "protocol_to_actions",
    "read_protocol",
    "read_records",
    "read_yaml",
    "records_equal",
    "simulate_protocol",
    "write_protocol",
    "write_records",
]
