"""Functional reference convolution kernels.

These are the arithmetic ground truth for the Winograd path: direct
convolution (cross-correlation, matching the index direction of the layer
definition) and Winograd minimal-filtering convolution for 3x3 kernels at
stride 1.

The Winograd transform matrices are exact rationals built from the
Cook-Toom construction with interpolation points {0, +-1, +-2, inf} for
the 4x4-tile instance and {0, 1, -1} for the 2x2-tile instance.  Entries
that are (signed) powers of two can be realised as shifts in hardware;
``transform_mult_counts`` reports which are not.

All operations are pure; tensors are never mutated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ShapeMismatch, UnsupportedConfig
from .ir import TensorShape


@dataclass(frozen=True)
class Tensor3:
    """Dense real-valued feature map in channel-major [c][y][x] order."""

    shape: TensorShape
    data: np.ndarray

    def __post_init__(self):
        expected = (self.shape.channels, self.shape.height, self.shape.width)
        if tuple(self.data.shape) != expected:
            raise ShapeMismatch(f"data shape {self.data.shape} != {expected}")
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float64))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Tensor3":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeMismatch("Tensor3 expects a 3-d [c][y][x] array")
        c, h, w = arr.shape
        return cls(TensorShape(h, w, c), arr)


@dataclass(frozen=True)
class Filter4:
    """Convolution filter bank, dense [f][c][kh][kw]."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 4:
            raise ShapeMismatch("Filter4 expects a 4-d [f][c][kh][kw] array")
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float64))

    @property
    def out_channels(self) -> int:
        return self.data.shape[0]

    @property
    def in_channels(self) -> int:
        return self.data.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.data.shape[2]


def conv_direct(inp: Tensor3, filt: Filter4, stride: int = 1, padding: int = 0) -> Tensor3:
    """Direct convolution: Y[f,x,y] = sum_c sum_h sum_w D[c,xs+h-p,ys+w-p] G[f,c,h,w]."""
    if filt.in_channels != inp.shape.channels:
        raise ShapeMismatch(f"filter expects {filt.in_channels} channels, "
                            f"input has {inp.shape.channels}")
    if filt.data.shape[2] != filt.data.shape[3]:
        raise ShapeMismatch("kernels must be square")
    c, h, w = inp.data.shape
    k = filt.kernel_size
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatch("kernel larger than padded input")
    padded = np.pad(inp.data, ((0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((filt.out_channels, ho, wo))
    for kh in range(k):
        for kw in range(k):
            window = padded[:, kh:kh + (ho - 1) * stride + 1:stride,
                            kw:kw + (wo - 1) * stride + 1:stride]
            out += np.einsum("fc,cij->fij", filt.data[:, :, kh, kw], window)
    return Tensor3.from_array(out)


# ---------------------------------------------------------------------------
# Winograd minimal filtering

def _frac_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@dataclass(frozen=True)
class WinogradConfig:
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

    @functools.cached_property
    def general_constants(self) -> tuple[int, int, int]:
        """(input, weight, output) transform entries that need a real
        multiplier, classified once per instance by ``transform_mult_counts``."""
        counts = transform_mult_counts(self)
        return tuple(counts[name]["general"] for name in ("input", "weight", "output"))

    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        to_np = lambda m: np.array([[float(x) for x in row] for row in m])
        return to_np(self.a_t), to_np(self.b_t), to_np(self.g)


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
    try:
        return WINOGRAD_CONFIGS[(m, r)]
    except KeyError:
        raise UnsupportedConfig(f"no Winograd instance F({m}^2, {r}^2); "
                                f"supported: F(2^2,3^2), F(4^2,3^2)") from None


def is_power_of_two(value: Fraction) -> bool:
    """True for +-2^n (n may be negative); zero is not a power of two."""
    value = abs(Fraction(value))
    if value == 0:
        return False
    num, den = value.numerator, value.denominator
    return (num == 1 and den & (den - 1) == 0) or (den == 1 and num & (num - 1) == 0)


def transform_mult_counts(config: WinogradConfig) -> dict[str, dict[str, int]]:
    """Classify transform-matrix entries: zero / power-of-two (shift) / general.

    General entries need real multipliers in hardware; shifts do not.
    """
    out = {}
    for name, mat in (("input", config.b_t), ("weight", config.g), ("output", config.a_t)):
        zero = pow2 = general = 0
        for row in mat:
            for x in row:
                if x == 0:
                    zero += 1
                elif is_power_of_two(x):
                    pow2 += 1
                else:
                    general += 1
        out[name] = {"zero": zero, "pow2": pow2, "general": general}
    return out


def conv_winograd(inp: Tensor3, filt: Filter4, config: WinogradConfig,
                  padding: int = 0) -> Tensor3:
    """Winograd convolution, stride 1, K = r.  Equals conv_direct up to fp error.

    Edge tiles are zero-padded up to the full input tile size and the
    output cropped back afterwards.
    """
    if filt.kernel_size != config.r:
        raise UnsupportedConfig(f"kernel {filt.kernel_size} != Winograd r={config.r}")
    if filt.in_channels != inp.shape.channels:
        raise ShapeMismatch("channel mismatch between input and filter")
    m, tk = config.m, config.tile
    c, h, w = inp.data.shape
    ho = h + 2 * padding - config.r + 1
    wo = w + 2 * padding - config.r + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatch("kernel larger than padded input")
    tiles_y = -(-ho // m)
    tiles_x = -(-wo // m)

    # pad so every tile reads a full T_k x T_k region
    need_h = (tiles_y - 1) * m + tk
    need_w = (tiles_x - 1) * m + tk
    padded = np.pad(inp.data, ((0, 0),
                               (padding, need_h - h - padding),
                               (padding, need_w - w - padding)))

    a_t, b_t, gm = config.matrices()
    u = np.einsum("ij,fcjk,lk->fcil", gm, filt.data, gm)  # G g G^T per (f, c)

    # gather all tiles: [c, ty, tx, tk, tk]
    tiles = np.empty((c, tiles_y, tiles_x, tk, tk))
    for ty in range(tiles_y):
        for tx in range(tiles_x):
            tiles[:, ty, tx] = padded[:, ty * m:ty * m + tk, tx * m:tx * m + tk]

    v = np.einsum("ij,ctxjk,lk->ctxil", b_t, tiles, b_t)   # B^T d B
    x = np.einsum("fcil,ctxil->ftxil", u, v)               # Hadamard + channel sum
    y = np.einsum("ij,ftxjk,lk->ftxil", a_t, x, a_t)       # A^T X A

    out = np.zeros((filt.out_channels, tiles_y * m, tiles_x * m))
    for ty in range(tiles_y):
        for tx in range(tiles_x):
            out[:, ty * m:(ty + 1) * m, tx * m:(tx + 1) * m] = y[:, ty, tx]
    return Tensor3.from_array(out[:, :ho, :wo])
