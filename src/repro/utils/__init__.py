"""Shared utilities: seeding, timing."""

from repro.utils.seed import set_global_seed
from repro.utils.timing import Timer

__all__ = [
    "set_global_seed",
    "Timer",
]
