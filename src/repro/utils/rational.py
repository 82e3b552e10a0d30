"""Exact integer/rational arithmetic helpers.

The paper's formulas (Theorem 2) are stated over integers with rounding to
multiples of ``gcd(i_b, o_b)``; the periods and throughputs are rationals.
Everything here is exact — the library never rounds a throughput.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, List, Sequence, Tuple

Frac = Fraction


def floor_div(a: int, b: int) -> int:
    """Floor division that works for negative numerators (Python's ``//``).

    Exposed with a name so call sites that transcribe the paper's
    ``⌊α/γ⌋`` read literally.
    """
    return a // b


def ceil_div(a: int, b: int) -> int:
    """Ceiling division for possibly-negative numerators."""
    return -((-a) // b)


def floor_to_multiple(alpha: int, gamma: int) -> int:
    """The paper's ``⌊α⌋^γ = floor(α/γ)·γ`` (largest multiple of γ ≤ α)."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return (alpha // gamma) * gamma


def ceil_to_multiple(alpha: int, gamma: int) -> int:
    """The paper's ``⌈α⌉^γ = ceil(α/γ)·γ`` (smallest multiple of γ ≥ α)."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return ceil_div(alpha, gamma) * gamma


def gcd_list(values: Iterable[int]) -> int:
    """gcd of an iterable of integers; gcd of the empty set is 0."""
    result = 0
    for v in values:
        result = gcd(result, v)
    return result


def lcm_list(values: Iterable[int]) -> int:
    """lcm of an iterable of positive integers; lcm of the empty set is 1."""
    result = 1
    for v in values:
        if v == 0:
            raise ValueError("lcm of 0 is undefined here")
        result = result * v // gcd(result, v)
    return result


def normalize_pairs(pairs: Sequence[Tuple[int, int]]) -> List[int]:
    """Scale positive rationals, given as ``(num, den)`` pairs, to the
    smallest integer vector.

    Used to turn the per-task firing rates obtained by balance-equation
    propagation into the minimal repetition vector: multiply by the lcm of
    denominators, then divide by the gcd of numerators.

    >>> normalize_pairs([(1, 2), (1, 3), (2, 3)])
    [3, 2, 4]
    """
    if not pairs:
        return []
    denom_lcm = lcm_list(den for _num, den in pairs)
    scaled = [num * (denom_lcm // den) for num, den in pairs]
    g = gcd_list(scaled)
    if g == 0:
        return scaled
    return [s // g for s in scaled]


def normalize_fractions(values: Sequence[Fraction]) -> List[int]:
    """:func:`normalize_pairs` over :class:`~fractions.Fraction` values."""
    return normalize_pairs([(v.numerator, v.denominator) for v in values])


def as_fraction(value) -> Fraction:
    """Coerce ints/strings/Fractions to an exact Fraction (floats rejected).

    Floats are rejected because a float period silently destroys the
    exactness guarantee the library is built around.
    """
    if isinstance(value, float):
        raise TypeError(
            "floats are not accepted where exact rationals are required; "
            "pass a Fraction, an int, or a 'num/den' string"
        )
    return Fraction(value)
