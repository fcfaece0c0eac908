"""Reference-kernel correctness: the convolution routines are the arithmetic
ground truth for everything downstream, so they get independent oracles."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from turf.errors import ShapeMismatch, UnsupportedConfig
from turf.conv import conv_direct, conv_winograd, winograd_matrices
from turf.kernels import (WINOGRAD_F2_3, WINOGRAD_F4_3, is_power_of_two,
                          transform_mult_counts, winograd_config)


def naive_conv(data, weights, stride=1, padding=0):
    """Independent 6-nested-loop oracle, written directly from the summation
    definition: Y[f,x,y] = sum_c sum_h sum_w D[c, x*s+h-p, y*s+w-p] G[f,c,h,w]."""
    f_out, c_in, k, _ = weights.shape
    c, height, width = data.shape
    ho = (height + 2 * padding - k) // stride + 1
    wo = (width + 2 * padding - k) // stride + 1
    out = np.zeros((f_out, ho, wo))
    for f in range(f_out):
        for x in range(ho):
            for y in range(wo):
                acc = 0.0
                for cc in range(c_in):
                    for h in range(k):
                        for w in range(k):
                            xi = x * stride + h - padding
                            yi = y * stride + w - padding
                            if 0 <= xi < height and 0 <= yi < width:
                                acc += data[cc, xi, yi] * weights[f, cc, h, w]
                out[f, x, y] = acc
    return out


class TestConvDirect:
    def test_scalar_multiply(self):
        inp = np.array([[[3.0]]])
        filt = np.array([[[[2.0]]]])
        out = conv_direct(inp, filt)
        assert out.tolist() == [[[6.0]]]

    def test_identity_kernel(self, rng):
        inp = rng.standard_normal((3, 5, 5))
        eye = np.zeros((3, 3, 1, 1))
        for i in range(3):
            eye[i, i, 0, 0] = 1.0
        out = conv_direct(inp, eye)
        np.testing.assert_array_equal(out, inp)

    def test_matches_naive_loop_oracle_exactly_on_integers(self, rng):
        # integer-valued inputs make float64 arithmetic exact, so the two
        # implementations must agree bit for bit whatever their sum order
        inp = rng.integers(-8, 9, (4, 8, 8)).astype(float)
        w = rng.integers(-8, 9, (3, 4, 3, 3)).astype(float)
        got = conv_direct(inp, w)
        np.testing.assert_array_equal(got, naive_conv(inp, w))

    def test_matches_naive_loop_oracle(self, rng):
        inp = rng.standard_normal((4, 8, 8))
        w = rng.standard_normal((3, 4, 3, 3))
        got = conv_direct(inp, w)
        np.testing.assert_allclose(got, naive_conv(inp, w), atol=1e-12)

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (2, 0), (3, 2)])
    def test_stride_padding_against_oracle(self, rng, stride, padding):
        inp = rng.standard_normal((2, 9, 9))
        w = rng.standard_normal((5, 2, 3, 3))
        got = conv_direct(inp, w, stride, padding)
        np.testing.assert_allclose(got, naive_conv(inp, w, stride, padding),
                                   atol=1e-12)

    def test_channel_mismatch(self, rng):
        inp = rng.standard_normal((2, 4, 4))
        with pytest.raises(ShapeMismatch):
            conv_direct(inp, rng.standard_normal((1, 3, 3, 3)))

    @pytest.mark.parametrize("conv", [
        conv_direct, lambda inp, filt: conv_winograd(inp, filt, WINOGRAD_F4_3)],
        ids=["direct", "winograd"])
    @pytest.mark.parametrize("inp_shape, filt_shape", [
        ((4, 4), (1, 1, 3, 3)),             # a map without channels
        ((1, 4, 4), (1, 3, 3)),             # a filter without output channels
        ((1, 4, 4), (1, 1, 3, 2)),          # a kernel that is not square
        ((2, 4, 4), (1, 3, 3, 3)),          # channels that do not match
    ])
    def test_malformed_operands(self, rng, conv, inp_shape, filt_shape):
        with pytest.raises(ShapeMismatch):
            conv(rng.standard_normal(inp_shape), rng.standard_normal(filt_shape))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, seed, alpha, beta):
        r = np.random.default_rng(seed)
        d1, d2 = r.standard_normal((2, 2, 5, 5))
        w = r.standard_normal((3, 2, 3, 3))
        lhs = conv_direct(alpha * d1 + beta * d2, w)
        rhs = alpha * conv_direct(d1, w) + beta * conv_direct(d2, w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestWinograd:
    @pytest.mark.parametrize("cfg", [WINOGRAD_F2_3, WINOGRAD_F4_3],
                             ids=["F2_3", "F4_3"])
    def test_equivalence_random(self, rng, cfg):
        inp = rng.standard_normal((2, 12, 12))
        filt = rng.standard_normal((4, 2, 3, 3))
        ref = conv_direct(inp, filt, padding=1)
        win = conv_winograd(inp, filt, cfg, padding=1)
        assert np.abs(ref - win).max() < 1e-9

    def test_zero_filter(self, rng):
        inp = rng.standard_normal((2, 8, 8))
        filt = np.zeros((3, 2, 3, 3))
        out = conv_winograd(inp, filt, WINOGRAD_F4_3)
        assert not out.any()

    def test_multiplication_counts(self):
        assert WINOGRAD_F4_3.multiplies_per_tile == 36
        assert WINOGRAD_F4_3.direct_multiplies_per_tile == 144
        assert WINOGRAD_F4_3.speedup == 4.0
        assert WINOGRAD_F2_3.multiplies_per_tile == 16
        assert WINOGRAD_F2_3.direct_multiplies_per_tile == 36

    @pytest.mark.parametrize("cfg", [WINOGRAD_F2_3, WINOGRAD_F4_3],
                             ids=["F2_3", "F4_3"])
    def test_transform_identity_exact_rational(self, cfg):
        # A^T[(G g G^T) .* (B^T d B)]A equals direct 2-D correlation of the
        # tile's valid region with g, in exact rational arithmetic.
        rng = np.random.default_rng(99)
        tk, m, r = cfg.tile, cfg.m, cfg.r
        d_int = rng.integers(-5, 6, (tk, tk))
        g_int = rng.integers(-5, 6, (r, r))
        d = np.array([[Fraction(int(v)) for v in row] for row in d_int], dtype=object)
        g = np.array([[Fraction(int(v)) for v in row] for row in g_int], dtype=object)
        a_t = np.array(cfg.a_t, dtype=object)
        b_t = np.array(cfg.b_t, dtype=object)
        gm = np.array(cfg.g, dtype=object)
        u = gm @ g @ gm.T
        v = b_t @ d @ b_t.T
        y = a_t @ (u * v) @ a_t.T
        for x in range(m):
            for yy in range(m):
                direct = sum(d[x + i, yy + j] * g[i, j]
                             for i in range(r) for j in range(r))
                assert y[x, yy] == direct

    def test_float_tile_matches_rational_path(self, rng):
        d = rng.standard_normal((6, 6))
        g = rng.standard_normal((3, 3))
        a_t, b_t, gm = winograd_matrices(WINOGRAD_F4_3)
        tile = a_t @ ((gm @ g @ gm.T) * (b_t @ d @ b_t.T)) @ a_t.T
        direct = naive_conv(d[None], g[None, None])
        np.testing.assert_allclose(tile, direct[0], atol=1e-10)

    def test_unsupported_kernel(self, rng):
        inp = rng.standard_normal((1, 8, 8))
        filt = rng.standard_normal((1, 1, 5, 5))
        with pytest.raises(UnsupportedConfig):
            conv_winograd(inp, filt, WINOGRAD_F4_3)
        with pytest.raises(UnsupportedConfig):
            winograd_config(3, 3)

    def test_power_of_two_classification(self):
        assert is_power_of_two(Fraction(1, 2))
        assert is_power_of_two(Fraction(-4))
        assert is_power_of_two(Fraction(1))
        assert not is_power_of_two(Fraction(0))
        assert not is_power_of_two(Fraction(1, 6))
        assert not is_power_of_two(Fraction(5))
        # the 2x2-tile instance is shift-only; the 4x4 one is not
        f2 = transform_mult_counts(WINOGRAD_F2_3)
        assert all(v == 0 for v in f2.values())
        f4 = transform_mult_counts(WINOGRAD_F4_3)
        assert f4["weight"] > 0


def to_fixed_point(arr, fraction_bits=12, total_bits=16):
    """Two's-complement fixed point: round half to even, saturate."""
    scale = 1 << fraction_bits
    limit = 1 << (total_bits - 1)
    return np.clip(np.rint(np.asarray(arr) * scale), -limit, limit - 1) / scale


class TestFixedPoint:
    def test_winograd_quantization_regression(self):
        # empirical bound measured over 100 seeded trials and frozen:
        # F(2^2,3^2) is exact on the 16/12 grid, F(4^2,3^2) stays within
        # one quantisation step
        ulp = 1.0 / (1 << 12)
        rng = np.random.default_rng(1234)
        bounds = {2: 0.0, 4: ulp}
        for cfg in (WINOGRAD_F2_3, WINOGRAD_F4_3):
            worst = 0.0
            for _ in range(100):
                h = int(rng.integers(4, 13))
                w = int(rng.integers(4, 13))
                c = int(rng.integers(1, 5))
                f = int(rng.integers(1, 5))
                inp = to_fixed_point(rng.uniform(-1, 1, (c, h, w)))
                filt = to_fixed_point(rng.uniform(-1, 1, (f, c, 3, 3)))
                ref = to_fixed_point(conv_direct(inp, filt, padding=1))
                win = to_fixed_point(conv_winograd(inp, filt, cfg, padding=1))
                worst = max(worst, float(np.abs(ref - win).max()))
            assert worst <= bounds[cfg.m] + 1e-15
