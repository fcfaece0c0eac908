"""Numpy reference convolutions: the arithmetic ground truth for the
Winograd path.

Direct convolution (cross-correlation, matching the index direction of the
layer definition) and Winograd minimal-filtering convolution for 3x3
kernels at stride 1, computed in float64 from the exact matrices of
``turf.kernels``.  Only ``turf winograd-check`` and the tests import this
module; it is the one place turf uses numpy.

All operations are pure; tensors are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, UnsupportedConfig
from .ir import TensorShape
from .kernels import WinogradConfig


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


def winograd_matrices(config: WinogradConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(A^T, B^T, G)`` of ``config`` as float64 arrays."""
    to_np = lambda m: np.array([[float(x) for x in row] for row in m])
    return to_np(config.a_t), to_np(config.b_t), to_np(config.g)


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

    a_t, b_t, gm = winograd_matrices(config)
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


def max_winograd_deviation(config: WinogradConfig, trials: int, seed: int) -> float:
    """Largest |conv_direct - conv_winograd| over ``trials`` random layers
    (padding 1, 1-8 channels and filters, r..16 pixels a side)."""
    rng = np.random.default_rng(seed)
    r = config.r
    max_dev = 0.0
    for _ in range(trials):
        h = int(rng.integers(r, 17))
        w = int(rng.integers(r, 17))
        c = int(rng.integers(1, 9))
        f = int(rng.integers(1, 9))
        inp = Tensor3.from_array(rng.standard_normal((c, h, w)))
        filt = Filter4(rng.standard_normal((f, c, r, r)))
        ref = conv_direct(inp, filt, padding=1)
        win = conv_winograd(inp, filt, config, padding=1)
        max_dev = max(max_dev, float(np.abs(ref.data - win.data).max()))
    return max_dev
