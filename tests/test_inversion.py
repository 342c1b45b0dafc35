import contextlib
import itertools
import math
import os
import struct
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_process, invert_in_memory, random_params, table_of
from hsac import inversion, kernels
from hsac.atmosphere import BandAtmParams
from hsac.errors import HsacError
from hsac.inversion import (
    BAND_MASKED_LOW_TG,
    BAND_VALID,
    forward_model_toa,
    invert_band_plane,
    invert_cube,
    mask_bands,
    shared_array,
    to_rrs,
)
from hsac.pipeline import ProductSink, RunConfig, write_product
from hsac.raster import NODATA, RadianceCube, read_cube
from hsac.scene import BandDefinition

PARAMS = BandAtmParams(
    band_index=0, l_path=0.12, t_g_o3=0.93, t_g_total=0.9, t_up=0.95,
    s_atm=0.08, e_s=1.6,
)


def plane(value):
    return np.full((1, 1), value, dtype=np.float64)


class PipeLog:
    """Integers sent from this process or from forked workers through one
    pipe (a write of 8 bytes is atomic), read once the workers are reaped."""

    def __init__(self):
        self.r, self.w = os.pipe()
        os.set_blocking(self.r, False)

    def send(self, value: int) -> None:
        os.write(self.w, struct.pack("q", value))

    def take(self) -> list[int]:
        """Everything sent since the last take."""
        data = b""
        with contextlib.suppress(BlockingIOError):
            while chunk := os.read(self.r, 1 << 16):
                data += chunk
        return [v for (v,) in struct.iter_unpack("q", data)]

    def close(self) -> None:
        os.close(self.r)
        os.close(self.w)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class TestInvertBandPlane:
    def test_zero_numerator(self):
        # L_TOA * d^2 / T_g_o3 == L_path -> rho = 0
        l_toa = PARAMS.l_path * PARAMS.t_g_o3 / 1.01
        out, count = invert_band_plane(plane(l_toa), 1.01, PARAMS)
        assert out[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert count == 0

    def test_decoupled_atmosphere_reduction(self):
        p = BandAtmParams(0, 0.12, 0.93, 0.9, 0.95, 0.0, 1.6)
        l_toa, d2 = 0.5, 1.01
        out, _ = invert_band_plane(plane(l_toa), d2, p)
        y = l_toa * d2 / p.t_g_o3 - p.l_path
        expected = math.pi * y / (p.e_s * p.t_up)
        assert out[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_forward_round_trip_selected_reflectances(self):
        rng = np.random.default_rng(29)
        for rho_true in (0.001, 0.02, 0.3):
            p = random_params(rng)
            d2 = rng.uniform(0.966, 1.034)
            l_toa = forward_model_toa(plane(rho_true), d2, p)
            out, _ = invert_band_plane(l_toa, d2, p)
            assert out[0, 0] == pytest.approx(rho_true, rel=1e-12)

    def test_nodata_propagates(self):
        data = np.array([[0.5, -9999.0]])
        out, count = invert_band_plane(data, 1.0, PARAMS, nodata=-9999.0)
        assert out[0, 1] == -9999.0
        assert count == 0

    def test_degenerate_denominator_counted(self):
        # choose L_TOA so that 1 + xc * y' == 0 to rounding: y' = -1 / xc
        xa, xb, xc = PARAMS.kernel_terms(1.0)
        l_toa = (xb - 1 / xc) / xa
        out, count = invert_band_plane(plane(l_toa), 1.0, PARAMS, nodata=-9999.0)
        assert count == 1
        assert out[0, 0] == -9999.0

    def test_float32_overflow_is_degenerate(self):
        # a finite rho_w = 4.19e39 has no float32 value: degenerate, not +inf
        p = BandAtmParams(0, l_path=0.1, t_g_o3=0.9, t_g_total=0.9, t_up=0.5,
                          s_atm=0.0, e_s=0.5)
        out, count = invert_band_plane(np.array([[3.0e38, 0.5]]), 1.0, p)
        assert out[0, 0] == NODATA and 0 < out[0, 1] < 10
        assert count == 1

    def test_band_without_surface_signal_is_nonfinite(self):
        # e_s = 0: c = 0, xa and xb are infinite or NaN, rho_w is NaN
        for l_path in (0.0, 0.12):
            p = replace(PARAMS, e_s=0.0, l_path=l_path)
            cube = RadianceCube(data=np.array([[[0.5, 0.0, -0.5, -9999.0]]]))
            rho_w, account, _ = invert_in_memory(cube, 1.0, table_of([p]))
            assert (rho_w == NODATA).all()
            assert account == (0, 3, 0, 0)  # and one input nodata

    def test_nonfinite_and_near_nodata_become_nodata(self):
        # rho_w = L: c = e_s * t_up / pi = 1 and s_atm = 0
        p = BandAtmParams(0, l_path=0.0, t_g_o3=1.0, t_g_total=1.0, t_up=1.0,
                          s_atm=0.0, e_s=math.pi)
        out, count = invert_band_plane(np.array([[np.nan, -9999.0001, 0.5]]), 1.0, p)
        np.testing.assert_array_equal(out, [[NODATA, NODATA, 0.5]])
        assert count == 1

    # kernel_terms is the one owner of the rule, and every entry point reaches it
    @pytest.mark.parametrize("d_squared", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("entry", [
        lambda d2: invert_band_plane(plane(0.5), d2, PARAMS),
        lambda d2: forward_model_toa(plane(0.1), d2, PARAMS),
        lambda d2: invert_cube(RadianceCube(data=plane(0.5)[np.newaxis]), d2,
                               table_of([PARAMS]), [0], lambda *block: pytest.fail("written")),
    ], ids=["invert_band_plane", "forward_model_toa", "invert_cube"])
    def test_invalid_d_squared(self, entry, d_squared):
        with pytest.raises(HsacError, match="d_squared must be finite and > 0"):
            entry(d_squared)

    def test_monotone_in_radiance(self):
        l_values = np.linspace(0.01, 2.0, 50)
        out, _ = invert_band_plane(l_values.reshape(1, -1), 1.0, PARAMS)
        assert np.all(np.diff(out[0]) > 0)

    def test_affine_limit_without_coupling(self):
        p = BandAtmParams(0, 0.12, 0.93, 0.9, 0.95, 0.0, 1.6)
        c = p.e_s * p.t_up / math.pi
        l_values = np.linspace(0.01, 2.0, 20)
        out, _ = invert_band_plane(l_values.reshape(1, -1), 1.02, p)
        expected = (l_values * 1.02 / p.t_g_o3 - p.l_path) / c
        np.testing.assert_allclose(out[0], expected, rtol=1e-14)


class TestForwardModel:
    def test_zero_reflectance_pure_path_term(self):
        assert forward_model_toa(plane(0.0), 1.01, PARAMS)[0, 0] == pytest.approx(
            PARAMS.t_g_o3 * PARAMS.l_path / 1.01, rel=1e-14
        )

    def test_linear_regime_without_coupling(self):
        p = BandAtmParams(0, 0.12, 0.93, 0.9, 0.95, 0.0, 1.6)
        expected = (p.t_g_o3 / 1.01) * (p.l_path + 0.1 * p.e_s * p.t_up / math.pi)
        assert forward_model_toa(plane(0.1), 1.01, p)[0, 0] == pytest.approx(expected, rel=1e-14)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        rho=st.floats(min_value=-0.05, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**31),
        d2=st.floats(min_value=0.966, max_value=1.034),
    )
    @example(rho=0.0, seed=373134, d2=0.986328125)
    def test_round_trip_property(self, rho, seed, d2):
        """Absolute floor from the conditioning of rho_w in L_TOA.

        To first order (Higham, Accuracy and Stability of Numerical
        Algorithms, ch. 1-3), three roundings each add at most u*|L| < ulp(L)
        to the error in L_TOA as the inversion sees it: the sum xb + y' and
        the division by xa in forward_plane, and xa*L in invert_plane; both
        kernels use the same rounded xa, xb and xc, so those roundings
        cancel. rho_w moves by xa * (1 - s*rho)^2 = d^2 * (1 - s*rho)^2 /
        (T_g_O3 * c) per unit of L, and (1 - s*rho)^2 <= 1.03 on the sampled
        range: 3.1 such ulp-equivalents at most. The other roundings scale
        with rho and sit far inside rel=1e-12, so k = 6 bounds both.
        """
        p = random_params(np.random.default_rng(seed))
        if p.s_atm * rho >= 0.99:
            return
        l_toa = forward_model_toa(plane(rho), d2, p)
        out, _ = invert_band_plane(l_toa, d2, p)
        c = p.e_s * p.t_up / math.pi
        floor = 6 * d2 / (p.t_g_o3 * c) * math.ulp(l_toa[0, 0])
        assert out[0, 0] == pytest.approx(rho, rel=1e-12, abs=floor)


class TestMaskBands:
    def _params(self, tg):
        return BandAtmParams(0, 0.1, 0.9, tg, 0.9, 0.05, 1.5)

    def test_below_threshold_masked(self):
        assert mask_bands(table_of([self._params(0.84)]), 0.85) == [BAND_MASKED_LOW_TG]

    def test_boundary_is_strict_less(self):
        assert mask_bands(table_of([self._params(0.85)]), 0.85) == [BAND_VALID]

    def test_degenerate_threshold_masks_any_absorption(self):
        params = [self._params(tg) for tg in (0.5, 0.9, 0.999)]
        assert mask_bands(table_of(params), 1.0) == [BAND_MASKED_LOW_TG] * 3

    def test_threshold_validation(self):
        for tg_threshold in (0.0, 1.5, math.nan):
            with pytest.raises(HsacError, match=r"tg_threshold .* outside \(0, 1\]"):
                RunConfig(tg_threshold=tg_threshold)
        assert RunConfig(tg_threshold=1.0).tg_threshold == 1.0


class TestToRrs:
    def test_unit_check(self):
        out = to_rrs(np.full((1, 1, 1), math.pi))
        assert out[0, 0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_zero(self):
        assert to_rrs(np.zeros((1, 1, 1)))[0, 0, 0] == 0.0

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(31)
        rho = rng.normal(size=(2, 3, 4))
        out = to_rrs(rho)
        assert out.dtype == np.float32
        for idx in np.ndindex(rho.shape):
            assert out[idx] == np.float32(rho[idx] / math.pi)

    def test_nodata_propagated(self):
        rho = np.array([[[-9999.0, 0.5]]])
        out = to_rrs(rho)
        assert out[0, 0, 0] == -9999.0


class TestInvertCube:
    def _cube_and_params(self, n_bands=4, size=8, seed=37):
        rng = np.random.default_rng(seed)
        params = [random_params(rng, i) for i in range(n_bands)]
        rho_true = rng.uniform(0.001, 0.5, size=(n_bands, size, size))
        d2 = 1.01
        l_toa = np.stack(
            [forward_model_toa(rho_true[b], d2, params[b]) for b in range(n_bands)]
        )
        return RadianceCube(data=l_toa), d2, params, rho_true

    def test_cube_round_trip(self):
        cube, d2, params, rho_true = self._cube_and_params()
        rho_w, _, _ = invert_in_memory(cube, d2, table_of(params), 0.01)
        np.testing.assert_allclose(rho_w, rho_true, rtol=1e-12)
        # rho_w within 1e-12 may still round to a neighbouring float32
        np.testing.assert_allclose(
            to_rrs(rho_w), to_rrs(rho_true), rtol=np.finfo(np.float32).eps
        )

    def test_all_bands_masked(self):
        cube, d2, params, _ = self._cube_and_params()
        rho_w, _, valid = invert_in_memory(cube, d2, table_of(params), 1.0)
        assert mask_bands(table_of(params), 1.0) == [BAND_MASKED_LOW_TG] * cube.n_bands
        assert rho_w.shape == (0, 8, 8)
        assert valid == []

    def test_single_pixel_matches_band_plane(self):
        cube, d2, params, _ = self._cube_and_params(n_bands=1, size=1)
        rho_w, _, _ = invert_in_memory(cube, d2, table_of(params), 0.01)
        expected, _ = invert_band_plane(cube.data[0], d2, params[0])
        assert rho_w[0, 0, 0] == expected[0, 0]

    def test_length_mismatch(self):
        cube, d2, params, _ = self._cube_and_params()
        n = cube.n_bands
        with pytest.raises(HsacError, match=f"^{n - 1} parameter sets for {n} bands$"):
            invert_in_memory(cube, d2, table_of(params[:-1]))

    def test_worker_counts_bit_identical(self):
        cube, d2, params, _ = self._cube_and_params(n_bands=6, size=130)
        planted = {(0, 3, 1): np.nan, (2, 70, 0): -9999.0, (5, 129, 4): -np.inf,
                   (1, 128, 2): forward_model_toa(plane(-0.02), d2, params[1])[0, 0]}
        for index, value in planted.items():
            cube.data[index] = value
        products = [
            invert_in_memory(cube, d2, table_of(params), 0.01, workers=w)
            for w in (1, 2, 3, 8)  # 130 rows are 3 row tiles: 2 workers run 2 + 1
        ]
        with pytest.MonkeyPatch.context() as mp:
            for block_pixels in (1, 2 * 64 * 130):
                mp.setattr(inversion, "BLOCK_PIXELS", block_pixels)
                products.append(invert_in_memory(cube, d2, table_of(params), 0.01, workers=2))
        assert products[0][1] == (0, 2, 6 * 130 * 130 - 3, 1)
        assert all(type(n) is int for n in products[0][1])
        for rho_w, account, _ in products[1:]:
            np.testing.assert_array_equal(rho_w, products[0][0])
            assert account == products[0][1]

    def test_negativity_reported_not_clipped(self):
        cube, d2, params, rho_true = self._cube_and_params()
        # force a negative reflectance at one pixel
        cube.data[0, 0, 0] = forward_model_toa(plane(-0.02), d2, params[0])[0, 0]
        rho_w, account, _ = invert_in_memory(cube, d2, table_of(params), 0.01)
        assert rho_w[0, 0, 0] == pytest.approx(-0.02, rel=1e-12)
        assert account == (0, 0, 4 * 8 * 8, 1)

    def test_clip_negative_opt_in(self):
        cube, d2, params, _ = self._cube_and_params()
        cube.data[0, 0, 0] = forward_model_toa(plane(-0.02), d2, params[0])[0, 0]
        rho_w, _, _ = invert_in_memory(cube, d2, table_of(params), 0.01, clip_negative=True)
        assert rho_w[0, 0, 0] == 0.0

    def test_clip_with_zero_nodata_keeps_sentinel(self):
        # the input's nodata 0.0 is not the product's: a clipped pixel stays data
        cube, d2, params, _ = self._cube_and_params()
        cube.nodata_value = 0.0
        cube.data[0, 0, 0] = forward_model_toa(plane(-0.02), d2, params[0])[0, 0]
        cube.data[0, 0, 1] = 0.0
        rho_w, account, _ = invert_in_memory(cube, d2, table_of(params), 0.01,
                                             clip_negative=True)
        assert rho_w[0, 0, 0] == 0.0 != NODATA
        assert rho_w[0, 0, 1] == NODATA
        assert account == (0, 0, 4 * 8 * 8 - 1, 1)  # counted before the clip

    def test_zero_reflectance_is_data_when_input_nodata_is_zero(self):
        # y = L * d^2 / T_g_O3 - L_path is exactly 0 at L = 0.5
        p = BandAtmParams(0, l_path=1.0, t_g_o3=0.5, t_g_total=0.9, t_up=0.95,
                          s_atm=0.08, e_s=1.6)
        cube = RadianceCube(data=np.array([[[0.5, 0.0, 0.4]]]), nodata_value=0.0)
        rho_w, account, _ = invert_in_memory(cube, 1.0, table_of([p]))
        assert rho_w[0, 0, 0] == 0.0
        assert rho_w[0, 0, 1] == NODATA
        assert rho_w[0, 0, 2] < 0
        assert account == (0, 0, 2, 1)  # one negative of the two data pixels

    def test_rho_w_that_rounds_onto_nodata_is_degenerate(self, tmp_path):
        # band 0 has rho_w = L: c = e_s * t_up / pi = 1 and s_atm = 0; band 1
        # (s_atm = 0.5) is degenerate at L = -2, where c + s_atm * y = 0
        terms = dict(l_path=0.0, t_g_o3=1.0, t_g_total=1.0, t_up=1.0, e_s=math.pi)
        params = [BandAtmParams(0, s_atm=0.0, **terms), BandAtmParams(1, s_atm=0.5, **terms)]
        near = (-9999.0001, -9999.0 * math.pi)  # float32 rho_w, then R_rs, is -9999.0
        data = np.array([[[*near, -9998.0, NODATA, np.nan, 0.1, 0.1]],
                         [[0.1, 0.1, 0.1, -2.0, 0.1, -np.inf, 0.1]]])
        assert np.float32(near[0]) == np.float32(near[1] / math.pi) == NODATA
        bands = [BandDefinition(0, 500.0, 6.5), BandDefinition(1, 550.0, 6.5)]
        table = table_of(params)
        sink = ProductSink(str(tmp_path), bands)
        account = invert_cube(RadianceCube(data=data), 1.0, table, [0, 1],
                              sink.open([0, 1], *data.shape[1:]))
        write_product(sink, mask_bands(table, 0.85), table)
        # two near-nodata pixels and one degenerate; NODATA input is neither;
        # -9998 is the one negative of 8 data pixels
        assert account == (3, 2, 8, 1)
        nodata = np.array([[[1, 1, 0, 1, 1, 0, 0]], [[0, 0, 0, 1, 0, 1, 0]]], dtype=bool)
        for name in ("rho_w", "r_rs"):
            raster = read_cube(str(tmp_path / name)).data
            np.testing.assert_array_equal(raster == NODATA, nodata, err_msg=name)
        assert read_cube(str(tmp_path / "rho_w")).data[0, 0, 2] == -9998.0

    def test_rho_w_exactly_nodata_is_counted(self):
        # rho_w = L; with input nodata 0.0, rho_w = -9999.0 is the output's
        # sentinel but no input nodata, so it is counted as degenerate
        p = BandAtmParams(0, l_path=0.0, t_g_o3=1.0, t_g_total=1.0, t_up=1.0,
                          s_atm=0.0, e_s=math.pi)
        cube = RadianceCube(data=np.array([[[-9999.0, 0.0, 0.5, np.nan]]]), nodata_value=0.0)
        rho_w, account, _ = invert_in_memory(cube, 1.0, table_of([p]))
        np.testing.assert_array_equal(rho_w, [[[NODATA, NODATA, 0.5, NODATA]]])
        assert account == (1, 1, 1, 0)
        n_input = np.count_nonzero(cube.data == 0.0)
        assert n_input == 1
        assert sum(account[:3]) + n_input == cube.data.size

    def test_exact_zero_denominator_is_degenerate(self):
        # c = e_s * t_up / pi = 1, xa = d^2 / t_g_o3 = 2 and xb = l_path = 0.25
        # exactly, so 1 + xc * (2 * L - 0.25) is exactly 0 at L = (0.25 - 1 / xc) / 2
        terms = dict(l_path=0.25, t_g_o3=0.5, t_g_total=1.0, t_up=1.0, e_s=math.pi)
        params = [BandAtmParams(b, s_atm=s, **terms) for b, s in enumerate((0.5, 0.25, 0.125))]
        zeros = [(0.25 - 1 / p.s_atm) / 2 for p in params]
        for p, l_zero in zip(params, zeros):
            assert p.kernel_terms(1.0) == (2.0, 0.25, p.s_atm)
            l_toa = plane(l_zero)
            _, denom = kernels.invert_plane(l_toa, *p.kernel_terms(1.0),
                                            np.empty_like(l_toa), np.empty_like(l_toa))
            assert denom[0, 0] == 0.0
            out, count = invert_band_plane(np.array([[l_zero, 0.5]]), 1.0, p)
            assert out[0, 0] == NODATA != out[0, 1]
            assert count == 1
        data = np.full((3, 70, 2), 0.5)
        for b, l_zero in enumerate(zeros):
            data[b, 3 * b, 1] = data[b, 65, b % 2] = l_zero
        for workers in (1, 2):
            rho_w, account, _ = invert_in_memory(RadianceCube(data=data), 1.0,
                                                 table_of(params), workers=workers)
            np.testing.assert_array_equal(rho_w == NODATA, data != 0.5)
            assert account == (6, 0, 3 * 70 * 2 - 6, 0)

    def test_degenerate_threshold_is_16_unit_roundoffs(self):
        # xa = 2, xb = 0.25, xc = 0.5 as above; at y' = -2 - m * 2**-51 every
        # step is exact and 1 + xc * y' = -2m * 2**-53. Below zero rho_w is
        # y' / denom > 0, so only the threshold decides: |denom| = 14u is
        # degenerate, 16u is data (rho_w = 2**50 + 2)
        p = BandAtmParams(0, l_path=0.25, t_g_o3=0.5, t_g_total=1.0, t_up=1.0,
                          s_atm=0.5, e_s=math.pi)
        l_toa = np.array([[(-2 - m * 2.0**-51 + 0.25) / 2 for m in (7, 8)]])
        _, denom = kernels.invert_plane(l_toa, *p.kernel_terms(1.0),
                                        np.empty_like(l_toa), np.empty_like(l_toa))
        np.testing.assert_array_equal(denom, [[-14 * 2.0**-53, -16 * 2.0**-53]])
        out, count = invert_band_plane(l_toa, 1.0, p)
        assert count == 1
        assert out[0, 0] == NODATA
        assert out[0, 1] == 2.0**50 + 2

    def test_float32_overflow_is_degenerate_in_the_product(self, tmp_path):
        # band 0 has rho_w = L (c = 1, s_atm = 0): FLOAT32_MAX itself is data,
        # the next float64 up is degenerate; band 1 has rho_w = 4.19e39 at
        # L = 3e38. No cast overflows, so no RuntimeWarning is raised.
        f32max = float(np.finfo(np.float32).max)
        params = [BandAtmParams(0, l_path=0.0, t_g_o3=1.0, t_g_total=1.0, t_up=1.0,
                                s_atm=0.0, e_s=math.pi),
                  BandAtmParams(1, l_path=0.1, t_g_o3=0.9, t_g_total=0.9, t_up=0.5,
                                s_atm=0.0, e_s=0.5)]
        data = np.array([[[f32max, np.nextafter(f32max, np.inf), 0.5]],
                         [[0.5, 3.0e38, 0.5]]])
        bands = [BandDefinition(0, 500.0, 6.5), BandDefinition(1, 550.0, 6.5)]
        table = table_of(params)
        sink = ProductSink(str(tmp_path), bands)
        account = invert_cube(RadianceCube(data=data), 1.0, table, [0, 1],
                              sink.open([0, 1], *data.shape[1:]))
        write_product(sink, mask_bands(table, 0.85), table)
        assert account == (2, 0, 4, 0)
        nodata = np.array([[[0, 1, 0]], [[0, 1, 0]]], dtype=bool)
        for name in ("rho_w", "r_rs"):
            raster = read_cube(str(tmp_path / name)).data
            np.testing.assert_array_equal(raster == NODATA, nodata, err_msg=name)
            assert np.isfinite(raster).all()
        assert read_cube(str(tmp_path / "rho_w")).data[0, 0, 0] == np.float32(f32max)

    def test_infinite_radiance_without_coupling_is_nonfinite(self):
        # s_atm = 0: the denominator c + 0 * inf is NaN, and no warning is raised
        p = replace(PARAMS, s_atm=0.0)
        cube = RadianceCube(data=np.array([[[np.inf, 0.5, -np.inf]]]))
        rho_w, account, _ = invert_in_memory(cube, 1.0, table_of([p]))
        assert rho_w[0, 0, 0] == rho_w[0, 0, 2] == NODATA
        assert 0 < rho_w[0, 0, 1] != NODATA
        assert account == (0, 2, 1, 0)

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """A PipeLog of one entry per kernels.invert_plane call, in this
        process or in a forked worker."""
        calls = PipeLog()
        kernel = kernels.invert_plane

        def counted(*args, **kwargs):
            calls.send(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(kernels, "invert_plane", counted)
        yield calls
        calls.close()

    def test_fused_pixel_account(self, monkeypatch, kernel_calls):
        # bands 0, 2 and 3 valid, band 1 masked; 130 rows of 5 columns make
        # the row tiles [0, 64), [64, 128) and [128, 130)
        xa, xb, xc = PARAMS.kernel_terms(1.0)
        params = [PARAMS, replace(PARAMS, t_g_total=0.5), PARAMS, PARAMS]
        data = np.full((4, 130, 5), forward_model_toa(plane(0.05), 1.0, PARAMS)[0, 0])
        planted = {
            (0, 3, 1): np.nan,
            (2, 10, 2): forward_model_toa(plane(-0.02), 1.0, PARAMS)[0, 0],
            (0, 70, 0): np.inf,
            (2, 100, 4): -9999.0,
            (0, 80, 3): (xb - 1 / xc) / xa,  # degenerate
            (3, 129, 4): -np.inf,
            (0, 128, 0): forward_model_toa(plane(-0.03), 1.0, PARAMS)[0, 0],
        }
        for index, value in planted.items():
            data[index] = value
        cube = RadianceCube(data=data)
        plane_of = {0: 0, 2: 1, 3: 2}  # band -> rho_w plane
        # BLOCK_PIXELS -> kernel calls over the three tiles, with g bands a block:
        # g = 1 everywhere; g = 2 in the 64-row tiles (blocks [0, 2], [3]) and
        # 3 in the 2-row one; g = 3 everywhere
        block_pixels_calls = {1: 3 + 3 + 3, 2 * 64 * 5: 2 + 2 + 1, 10**6: 1 + 1 + 1}
        for clip in (False, True):
            expected = np.stack([invert_band_plane(data[b], 1.0, PARAMS)[0] for b in plane_of])
            expected[~np.isfinite(expected)] = -9999.0
            if clip:
                expected[(expected < 0) & (expected != -9999.0)] = 0.0
            accounts = []
            for (block_pixels, calls), workers in itertools.product(
                    block_pixels_calls.items(), (1, 2, 8)):
                monkeypatch.setattr(inversion, "BLOCK_PIXELS", block_pixels)
                kernel_calls.take()  # drop earlier calls: the expected planes' at first
                rho, account, valid = invert_in_memory(cube, 1.0, table_of(params),
                                                       clip_negative=clip, workers=workers)
                assert len(kernel_calls.take()) == calls
                np.testing.assert_array_equal(rho, expected)
                # 2 negative of 1950 pixels less 3 non-finite, 1 nodata, 1 degenerate
                assert account == (1, 3, 1950 - 5, 2)
                accounts.append(account)
                # a writer that places each block itself gets the same finished
                # blocks, one per kernel call, and the same account
                assert valid == [0, 2, 3]
                joined = shared_array(expected.shape)
                joined[:] = np.nan
                with PipeLog() as sizes:

                    def write(r0, k0, block):
                        sizes.send(block.size)
                        joined[k0:k0 + len(block), r0:r0 + block.shape[1]] = block

                    streamed = invert_cube(cube, 1.0, table_of(params), valid, write, clip,
                                           workers)
                    block_sizes = sizes.take()
                assert streamed == account
                assert len(block_sizes) == len(kernel_calls.take()) == calls
                assert sum(block_sizes) == expected.size
                np.testing.assert_array_equal(joined, expected)
            assert all(a == accounts[0] for a in accounts)
            negatives = ((2, 10, 2), (0, 128, 0))
            assert all(rho[plane_of[b], r, c] == -9999.0
                       for b, r, c in planted if (b, r, c) not in negatives)
            if clip:
                assert rho[1, 10, 2] == rho[0, 128, 0] == 0.0
            else:
                assert rho[1, 10, 2] == pytest.approx(-0.02, rel=1e-12)
                assert rho[0, 128, 0] == pytest.approx(-0.03, rel=1e-12)

    def test_masked_band_absent(self, monkeypatch, tmp_path, kernel_calls):
        cube, d2, params, _ = self._cube_and_params()
        params = [replace(p, t_g_total=1.0) for p in params]
        params[1] = replace(params[1], t_g_total=0.01)
        bands = [BandDefinition(i, 500.0 + 50.0 * i, 6.5) for i in range(4)]
        accounts, files = [], []
        # one 8 x 8 tile: a band a block; blocks of bands [0, 2] and [3]; one block
        for block_pixels, calls in ((1, 3), (2 * 64, 2), (10**6, 1)):
            monkeypatch.setattr(inversion, "BLOCK_PIXELS", block_pixels)
            kernel_calls.take()  # those of the streamed run before
            rho_w, account, valid = invert_in_memory(cube, d2, table_of(params), 0.85)
            assert len(kernel_calls.take()) == calls
            band_mask = mask_bands(table_of(params), 0.85)
            assert band_mask[1] == BAND_MASKED_LOW_TG
            assert valid == [0, 2, 3]
            assert rho_w.shape == (len(valid),) + cube.data.shape[1:]
            for k, b in enumerate(valid):
                expected, _ = invert_band_plane(cube.data[b], d2, params[b])
                np.testing.assert_array_equal(rho_w[k], expected)
                np.testing.assert_array_equal(to_rrs(rho_w[k]), to_rrs(expected))
            accounts.append(account)
            out = tmp_path / str(block_pixels)
            sink = ProductSink(str(out), bands)
            streamed = invert_cube(cube, d2, table_of(params), valid,
                                   sink.open(valid, *cube.data.shape[1:]))
            assert streamed == account
            write_product(sink, band_mask, table_of(params))
            files.append({name: (out / name).read_bytes()
                          for name in ("rho_w.hdr", "rho_w.img", "r_rs.hdr", "r_rs.img")})
            assert files[-1]["rho_w.img"] == rho_w.astype(np.float32).tobytes()
            assert files[-1]["r_rs.img"] == to_rrs(rho_w).tobytes()
        assert accounts[0] == accounts[1] == accounts[2]
        assert files[0] == files[1] == files[2]


class NumpySpy:
    """numpy as `inversion` sees it: each np.isfinite call, which only the
    full pixel rule of `_invert_block` makes, is logged in `events`; with
    `full_only`, np.min returns NaN, so that no block passes the fast path's
    reductions."""

    def __init__(self, events: list, full_only: bool):
        self.events = events
        self.full_only = full_only

    def __getattr__(self, name):
        return getattr(np, name)

    def isfinite(self, *args, **kwargs):
        self.events.append("full")
        return np.isfinite(*args, **kwargs)

    def min(self, *args, **kwargs):
        return np.nan if self.full_only else np.min(*args, **kwargs)


class TestFastPath:
    """A block in which no pixel can be degenerate, non-finite or near
    nodata is finished by the fast path, any other by the full rule, and
    both give the same bytes and counts."""

    KINDS = ("clean", "negative", "nodata", "nan", "inf", "-inf", "degenerate",
             "near_nodata", "overflow")
    FULL_RULE = {"nan", "inf", "-inf", "degenerate", "near_nodata", "overflow"}
    # rho_w = 4.19e39 at L = 3e38, which float32 cannot hold
    OVERFLOW = BandAtmParams(0, l_path=0.1, t_g_o3=0.9, t_g_total=0.9, t_up=0.5,
                             s_atm=0.0, e_s=0.5)

    def _scene(self, input_nodata):
        """One band of 64 x 4 pixels per kind, each with one planted pixel
        of its kind, PARAMS for all bands but the overflow one."""
        xa, xb, xc = PARAMS.kernel_terms(1.0)
        planted = {
            "clean": forward_model_toa(plane(0.1), 1.0, PARAMS)[0, 0],
            "negative": forward_model_toa(plane(-0.02), 1.0, PARAMS)[0, 0],
            "nodata": input_nodata,
            "nan": np.nan,
            "inf": np.inf,
            "-inf": -np.inf,
            "degenerate": (xb - 1 / xc) / xa,
            "near_nodata": forward_model_toa(plane(-9999.0001), 1.0, PARAMS)[0, 0],
            "overflow": 3.0e38,
        }
        rho = np.random.default_rng(5).uniform(0.001, 0.5, size=(64, 4))
        params, data = [], []
        for b, kind in enumerate(self.KINDS):
            p = replace(self.OVERFLOW if kind == "overflow" else PARAMS, band_index=b)
            band = forward_model_toa(rho, 1.0, p)
            band[17, 2] = planted[kind]
            params.append(p)
            data.append(band)
        return RadianceCube(data=np.stack(data), nodata_value=input_nodata), params

    @staticmethod
    def _invert_cube(monkeypatch, cube, params, clip, full_only):
        """(rho_w, pixel account, bands whose block took the full rule) of one
        in-process invert_cube run with one band a block."""
        events = []
        rho_w = np.empty(cube.data.shape)

        def write(r0, k0, block):
            events.append(k0)
            rho_w[k0:k0 + len(block), r0:r0 + block.shape[1]] = block

        monkeypatch.setattr(inversion, "BLOCK_PIXELS", 64 * 4)
        monkeypatch.setattr(inversion, "np", NumpySpy(events, full_only))
        account = invert_cube(cube, 1.0, table_of(params), list(range(len(params))),
                              write, clip)
        monkeypatch.setattr(inversion, "np", np)
        # np.isfinite is called at most once a block, just before its write
        full = {k0 for previous, k0 in zip(events, events[1:]) if previous == "full"}
        assert len(events) == len(params) + len(full)
        return rho_w, account, full

    @pytest.mark.parametrize("input_nodata", [NODATA, 0.0])
    @pytest.mark.parametrize("clip", [False, True])
    def test_cube_blocks(self, monkeypatch, input_nodata, clip):
        cube, params = self._scene(input_nodata)
        rho_w, account, full = self._invert_cube(monkeypatch, cube, params, clip, False)
        assert {self.KINDS[b] for b in full} == self.FULL_RULE
        full_rho_w, full_account, every = self._invert_cube(monkeypatch, cube, params, clip,
                                                            True)
        assert every == set(range(len(params)))
        assert rho_w.tobytes() == full_rho_w.tobytes()
        assert account == full_account
        # degenerate, near nodata and overflow; nan, inf and -inf; the one
        # negative, counted before the clip
        assert account == (3, 3, rho_w.size - 7, 1)
        assert np.count_nonzero(rho_w == NODATA) == 7
        assert (rho_w[1, 17, 2] == 0.0) if clip else (rho_w[1, 17, 2] < 0.0)

    def test_band_planes(self, monkeypatch):
        cube, params = self._scene(NODATA)
        for b, kind in enumerate(self.KINDS):
            results = []
            for full_only in (False, True):
                events = []
                monkeypatch.setattr(inversion, "np", NumpySpy(events, full_only))
                out, count = invert_band_plane(cube.data[b], 1.0, params[b])
                monkeypatch.setattr(inversion, "np", np)
                results.append((out.tobytes(), count))
                assert events == (["full"] if full_only or kind in self.FULL_RULE else [])
            assert results[0] == results[1]
            assert results[0][1] == (kind in {"degenerate", "near_nodata", "overflow"})


class TestWorkerProcesses:
    """invert_cube shares the row tiles among n = min(workers, row tiles)
    processes: it runs tiles 0, n, 2n, ... itself and forks n - 1 workers
    for the rest."""

    @staticmethod
    def _cube(rows):
        rng = np.random.default_rng(3)
        params = [random_params(rng, b) for b in range(3)]
        rho = rng.uniform(0.001, 0.5, size=(3, rows, 5))
        data = np.stack([forward_model_toa(rho[b], 1.0, p) for b, p in enumerate(params)])
        return RadianceCube(data=data), table_of(params)

    @pytest.fixture
    def forks(self, monkeypatch):
        """One entry per os.fork call of this process."""
        calls = []
        fork = os.fork

        def counted():
            calls.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        yield calls
        assert_no_child_process()

    def test_one_fork_per_worker_up_to_the_row_tiles(self, forks, monkeypatch):
        # 130 rows are 3 row tiles, 64 rows 1, 0 rows none
        received = []  # the accounts of the caller's share and of its workers
        in_workers = inversion._in_workers

        def recorded(*args):
            accounts = in_workers(*args)
            received.append(accounts)
            return accounts

        monkeypatch.setattr(inversion, "_in_workers", recorded)
        for rows, expected in ((130, {1: 0, 2: 1, 3: 2, 8: 2}), (64, {1: 0, 2: 0, 8: 0}),
                               (0, {1: 0, 8: 0})):
            cube, table = self._cube(rows)
            products = []
            for workers, n_forks in expected.items():
                forks.clear()
                received.clear()
                products.append(invert_in_memory(cube, 1.0, table, 0.01, workers=workers))
                assert len(forks) == n_forks, (rows, workers)
                # one account a process, whose sum is the run's
                assert [len(accounts) for accounts in received] == [n_forks + 1]
                for accounts in received:
                    assert all(a.shape == (4,) for a in accounts)
                    assert tuple(sum(accounts).tolist()) == products[-1][1]
            rho_w, account, _ = products[0]
            for other_rho_w, other_account, _ in products[1:]:
                assert other_rho_w.tobytes() == rho_w.tobytes()
                assert other_account == account

    def test_the_caller_runs_share_0_and_the_workers_the_rest(self, forks):
        # 130 rows are the row tiles 0, 64 and 128
        cube, table = self._cube(130)
        parent = os.getpid()
        expected = {1: ([0, 64, 128], []), 2: ([0, 128], [64]), 3: ([0], [64, 128]),
                    8: ([0], [64, 128])}
        with PipeLog() as tiles:
            def write(r0, k0, block):
                tiles.send(r0 if os.getpid() == parent else ~r0)

            for workers, (caller, forked) in expected.items():
                forks.clear()
                account = invert_cube(cube, 1.0, table, [0, 1, 2], write, workers=workers)
                sent = tiles.take()
                assert sorted(r for r in sent if r >= 0) == caller, workers
                assert sorted(~r for r in sent if r < 0) == forked, workers
                assert len(forks) == len(forked)
                assert account[2] == 3 * 130 * 5  # every pixel is data

    def test_no_fork_without_a_valid_band(self, forks):
        cube, table = self._cube(200)  # 4 row tiles
        blocks = []
        account = invert_cube(cube, 1.0, table, [], lambda *block: blocks.append(block),
                              workers=4)
        assert account == (0, 0, 0, 0)
        assert forks == []
        assert blocks == []

    def test_no_fork_while_another_thread_is_alive(self, forks):
        cube, table = self._cube(130)
        alone = invert_in_memory(cube, 1.0, table, 0.01, workers=8)
        assert len(forks) == 2
        forks.clear()
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            threaded = invert_in_memory(cube, 1.0, table, 0.01, workers=8)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert threaded[0].tobytes() == alone[0].tobytes()
        assert threaded[1] == alone[1]

    def test_no_fork_without_os_fork(self, monkeypatch):
        # a platform without os.fork runs every tile in the calling process
        cube, table = self._cube(130)
        forked = invert_in_memory(cube, 1.0, table, 0.01, workers=8)
        assert_no_child_process()
        monkeypatch.delattr(os, "fork")
        alone = invert_in_memory(cube, 1.0, table, 0.01, workers=8)
        assert alone[0].tobytes() == forked[0].tobytes()
        assert alone[1] == forked[1]

    def test_fork_warning_of_newer_pythons_is_not_an_error(self, monkeypatch):
        # CPython >= 3.12 warns in the parent, once the child exists, when a
        # process with threads forks, and numpy's OpenBLAS starts one at
        # import; the tests, like CI on those versions, make warnings errors
        fork, forks = os.fork, []
        text = ("This process (pid={}) is multi-threaded, use of fork() may lead to "
                "deadlocks in the child.")

        def warning_fork():
            pid = fork()
            if pid:
                forks.append(pid)
                warnings.warn(text.format(os.getpid()), DeprecationWarning, stacklevel=2)
            return pid

        cube, table = self._cube(100)  # 2 row tiles
        inline = invert_in_memory(cube, 1.0, table, 0.01, workers=1)
        monkeypatch.setattr(os, "fork", warning_fork)
        forked = invert_in_memory(cube, 1.0, table, 0.01, workers=2)
        assert len(forks) == 1
        assert forked[0].tobytes() == inline[0].tobytes()
        assert forked[1] == inline[1]
        assert_no_child_process()


PIXEL_KINDS = ("data", "nodata", "nan", "inf", "-inf", "degenerate", "near_nodata")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n_bands=st.integers(min_value=1, max_value=3),
    n_rows=st.integers(min_value=1, max_value=130),
    n_cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
    input_nodata=st.sampled_from([NODATA, 0.0]),
    clip=st.booleans(),
)
@example(n_bands=3, n_rows=130, n_cols=4, seed=0, input_nodata=0.0, clip=False)
def test_one_pixel_rule_property(n_bands, n_rows, n_cols, seed, input_nodata, clip):
    """Every pixel kind the rule knows, at every place of a cube that crosses
    ROW_TILE: each output pixel is data or NODATA, never NaN, each NODATA
    pixel is counted in exactly one class, and the cube's planes are the
    per-plane inversion's for any worker count and block size."""
    rng = np.random.default_rng(seed)
    d2 = float(rng.uniform(0.966, 1.034))
    # s_atm >= 0.05 gives every band a zero of 1 + xc * y' at a finite radiance
    params = [replace(p, s_atm=max(p.s_atm, 0.05)) for p in
              (random_params(rng, b) for b in range(n_bands))]
    shape = (n_rows, n_cols)
    kinds = rng.choice(len(PIXEL_KINDS), size=(n_bands, *shape),
                       p=(0.58, 0.07, 0.07, 0.07, 0.07, 0.07, 0.07))
    data = np.empty((n_bands, *shape))
    for b, p in enumerate(params):
        xa, xb, xc = p.kernel_terms(d2)
        rho = rng.uniform(-0.05, 0.5, size=shape)  # some negative
        values = {
            "data": forward_model_toa(rho, d2, p),
            "nodata": input_nodata,
            "nan": np.nan,
            "inf": np.inf,
            "-inf": -np.inf,
            # 1 + xc * y' is 0 to rounding
            "degenerate": (xb - 1 / xc) / xa,
            # rho_w = -9999.0001 is -9999.0 in float32
            "near_nodata": forward_model_toa(plane(-9999.0001), d2, p)[0, 0],
        }
        data[b] = np.choose(kinds[b], [np.broadcast_to(values[kind], shape)
                                       for kind in PIXEL_KINDS])
    cube = RadianceCube(data=data, nodata_value=input_nodata)

    products = []
    with pytest.MonkeyPatch.context() as mp:
        for block_pixels, workers in itertools.product((1, 10**6), (1, 2)):
            mp.setattr(inversion, "BLOCK_PIXELS", block_pixels)
            products.append(invert_in_memory(cube, d2, table_of(params),
                                             clip_negative=clip, workers=workers))
    rho_w, account, valid = products[0]
    for other_rho_w, other_account, _ in products[1:]:
        assert other_rho_w.tobytes() == rho_w.tobytes()
        assert other_account == account

    assert not np.isnan(rho_w).any()
    n_negative = 0
    for k, b in enumerate(valid):
        expected, _ = invert_band_plane(data[b], d2, params[b], nodata=input_nodata)
        negative = (expected < 0) & (expected != NODATA)
        n_negative += int(np.count_nonzero(negative))
        if clip:
            expected[negative] = 0.0
        assert rho_w[k].tobytes() == expected.tobytes()

    planted = kinds[valid]
    count = {kind: int(np.count_nonzero(planted == k)) for k, kind in enumerate(PIXEL_KINDS)}
    n_data = int(np.count_nonzero(rho_w != NODATA))
    assert n_data == count["data"]
    assert account == (count["degenerate"] + count["near_nodata"],
                       count["nan"] + count["inf"] + count["-inf"], n_data, n_negative)
    assert sum(account[:3]) + count["nodata"] == len(valid) * n_rows * n_cols
