"""Estimate-verification experiments: config files, checks, reports, CLI."""

from .config import ExperimentConfig, Instance, build_instance, load_config
from .checks import CHECKS, CheckReport, CheckRow, SolveCache, run_checks

__all__ = [
    "ExperimentConfig",
    "Instance",
    "build_instance",
    "load_config",
    "CHECKS",
    "CheckReport",
    "CheckRow",
    "SolveCache",
    "run_checks",
]
