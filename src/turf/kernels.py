"""Exact Winograd minimal-filtering algebra, the reference for the DSE's
Winograd integers.

The F(m^2, r^2) transform matrices are exact rationals built from the
Cook-Toom construction with interpolation points {0, +-1, +-2, inf} for
the 4x4-tile instance and {0, 1, -1} for the 2x2-tile instance.  Entries
that are (signed) powers of two can be realised as shifts in hardware;
``transform_mult_counts`` reports which are not.  ``hw.WINOGRAD_TERMS``
holds those counts and each tile T_k as integers, from which the resource
model sizes the transform multipliers, and tests/test_hw.py derives them
from here.  So only ``winograd-check`` (and through it ``turf.conv``, whose
numpy reference convolutions check these matrices) and the tests import
this module and ``fractions``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .hw import winograd_terms


def _frac_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


class WinogradConfig(NamedTuple):
    """F(m^2, r^2) instance with exact rational transform matrices.

    ``a_t`` is m x (m+r-1), ``b_t`` is (m+r-1) x (m+r-1), ``g`` is
    (m+r-1) x r; the output tile is  A^T [ (G g G^T) .* (B^T d B) ] A.
    """

    m: int
    r: int
    a_t: tuple
    b_t: tuple
    g: tuple

    @property
    def tile(self) -> int:
        """Input tile size T_k = m + r - 1."""
        return self.m + self.r - 1

    @property
    def multiplies_per_tile(self) -> int:
        return self.tile ** 2

    @property
    def direct_multiplies_per_tile(self) -> int:
        return self.m ** 2 * self.r ** 2

    @property
    def speedup(self) -> float:
        return self.direct_multiplies_per_tile / self.multiplies_per_tile


WINOGRAD_F2_3 = WinogradConfig(
    m=2, r=3,
    a_t=_frac_matrix([[1, 1, 1, 0],
                      [0, 1, -1, -1]]),
    b_t=_frac_matrix([[1, 0, -1, 0],
                      [0, 1, 1, 0],
                      [0, -1, 1, 0],
                      [0, 1, 0, -1]]),
    g=_frac_matrix([[1, 0, 0],
                    ["1/2", "1/2", "1/2"],
                    ["1/2", "-1/2", "1/2"],
                    [0, 0, 1]]),
)

WINOGRAD_F4_3 = WinogradConfig(
    m=4, r=3,
    a_t=_frac_matrix([[1, 1, 1, 1, 1, 0],
                      [0, 1, -1, 2, -2, 0],
                      [0, 1, 1, 4, 4, 0],
                      [0, 1, -1, 8, -8, 1]]),
    b_t=_frac_matrix([[4, 0, -5, 0, 1, 0],
                      [0, -4, -4, 1, 1, 0],
                      [0, 4, -4, -1, 1, 0],
                      [0, -2, -1, 2, 1, 0],
                      [0, 2, -1, -2, 1, 0],
                      [0, 4, 0, -5, 0, 1]]),
    g=_frac_matrix([["1/4", 0, 0],
                    ["-1/6", "-1/6", "-1/6"],
                    ["-1/6", "1/6", "-1/6"],
                    ["1/24", "1/12", "1/6"],
                    ["1/24", "-1/12", "1/6"],
                    [0, 0, 1]]),
)

WINOGRAD_CONFIGS = {(2, 3): WINOGRAD_F2_3, (4, 3): WINOGRAD_F4_3}


def winograd_config(m: int, r: int = 3) -> WinogradConfig:
    winograd_terms(m, r)  # the one check of an instance, raising UnsupportedConfig
    return WINOGRAD_CONFIGS[(m, r)]


def is_power_of_two(value: Fraction) -> bool:
    """True for +-2^n (n may be negative); zero is not a power of two."""
    value = abs(Fraction(value))
    if value == 0:
        return False
    num, den = value.numerator, value.denominator
    return (num == 1 and den & (den - 1) == 0) or (den == 1 and num & (num - 1) == 0)


def transform_mult_counts(config: WinogradConfig) -> dict[str, int]:
    """Each transform's count of general entries: neither zero nor a power
    of two.  They need real multipliers in hardware; shifts do not."""
    return {name: sum(x != 0 and not is_power_of_two(x) for row in mat for x in row)
            for name, mat in (("input", config.b_t), ("weight", config.g),
                              ("output", config.a_t))}

