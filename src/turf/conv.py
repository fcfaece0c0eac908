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

import numpy as np

from .errors import ShapeMismatch, UnsupportedConfig
from .kernels import WinogradConfig


def _operands(inp, filt, r: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``inp``, a [c][y][x] map, and ``filt``, a square [f][c][k][k] filter
    bank over the same channels, as float64 arrays; ``r``, when given, is
    the kernel size the Winograd path needs."""
    inp, filt = np.asarray(inp, dtype=np.float64), np.asarray(filt, dtype=np.float64)
    if inp.ndim != 3:
        raise ShapeMismatch(f"expected a 3-d [c][y][x] map, got shape {inp.shape}")
    if filt.ndim != 4:
        raise ShapeMismatch(f"expected a 4-d [f][c][kh][kw] filter, got shape {filt.shape}")
    if filt.shape[2] != filt.shape[3]:
        raise ShapeMismatch("kernels must be square")
    if r is not None and filt.shape[2] != r:
        raise UnsupportedConfig(f"kernel {filt.shape[2]} != Winograd r={r}")
    if filt.shape[1] != inp.shape[0]:
        raise ShapeMismatch(f"filter expects {filt.shape[1]} channels, "
                            f"input has {inp.shape[0]}")
    return inp, filt


def conv_direct(inp, filt, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Direct convolution: Y[f,x,y] = sum_c sum_h sum_w D[c,xs+h-p,ys+w-p] G[f,c,h,w]."""
    inp, filt = _operands(inp, filt)
    c, h, w = inp.shape
    k = filt.shape[2]
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatch("kernel larger than padded input")
    padded = np.pad(inp, ((0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((filt.shape[0], ho, wo))
    for kh in range(k):
        for kw in range(k):
            window = padded[:, kh:kh + (ho - 1) * stride + 1:stride,
                            kw:kw + (wo - 1) * stride + 1:stride]
            out += np.einsum("fc,cij->fij", filt[:, :, kh, kw], window)
    return out


def winograd_matrices(config: WinogradConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(A^T, B^T, G)`` of ``config`` as float64 arrays."""
    to_np = lambda m: np.array([[float(x) for x in row] for row in m])
    return to_np(config.a_t), to_np(config.b_t), to_np(config.g)


def conv_winograd(inp, filt, config: WinogradConfig, padding: int = 0) -> np.ndarray:
    """Winograd convolution, stride 1, K = r.  Equals conv_direct up to fp error.

    Edge tiles are zero-padded up to the full input tile size and the
    output cropped back afterwards.
    """
    inp, filt = _operands(inp, filt, config.r)
    m, tk = config.m, config.tile
    c, h, w = inp.shape
    ho = h + 2 * padding - config.r + 1
    wo = w + 2 * padding - config.r + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatch("kernel larger than padded input")
    tiles_y = -(-ho // m)
    tiles_x = -(-wo // m)

    # pad so every tile reads a full T_k x T_k region
    need_h = (tiles_y - 1) * m + tk
    need_w = (tiles_x - 1) * m + tk
    padded = np.pad(inp, ((0, 0),
                          (padding, need_h - h - padding),
                          (padding, need_w - w - padding)))

    a_t, b_t, gm = winograd_matrices(config)
    u = np.einsum("ij,fcjk,lk->fcil", gm, filt, gm)  # G g G^T per (f, c)

    # gather all tiles: [c, ty, tx, tk, tk]
    tiles = np.empty((c, tiles_y, tiles_x, tk, tk))
    for ty in range(tiles_y):
        for tx in range(tiles_x):
            tiles[:, ty, tx] = padded[:, ty * m:ty * m + tk, tx * m:tx * m + tk]

    v = np.einsum("ij,ctxjk,lk->ctxil", b_t, tiles, b_t)   # B^T d B
    x = np.einsum("fcil,ctxil->ftxil", u, v)               # Hadamard + channel sum
    y = np.einsum("ij,ftxjk,lk->ftxil", a_t, x, a_t)       # A^T X A

    out = np.zeros((filt.shape[0], tiles_y * m, tiles_x * m))
    for ty in range(tiles_y):
        for tx in range(tiles_x):
            out[:, ty * m:(ty + 1) * m, tx * m:(tx + 1) * m] = y[:, ty, tx]
    return out[:, :ho, :wo]


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
        inp = rng.standard_normal((c, h, w))
        filt = rng.standard_normal((f, c, r, r))
        ref = conv_direct(inp, filt, padding=1)
        win = conv_winograd(inp, filt, config, padding=1)
        max_dev = max(max_dev, float(np.abs(ref - win).max()))
    return max_dev
