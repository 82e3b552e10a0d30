"""Small shared utilities: exact rational helpers and timing tools."""

from repro.utils.rational import (
    Frac,
    ceil_div,
    ceil_to_multiple,
    floor_div,
    floor_to_multiple,
    gcd_list,
    lcm_list,
    normalize_fractions,
    normalize_pairs,
)
from repro.utils.timing import Stopwatch, TimeBudget

__all__ = [
    "Frac",
    "ceil_div",
    "ceil_to_multiple",
    "floor_div",
    "floor_to_multiple",
    "gcd_list",
    "lcm_list",
    "normalize_fractions",
    "normalize_pairs",
    "Stopwatch",
    "TimeBudget",
]
