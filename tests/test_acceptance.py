"""Acceptance gate: one test per shipped criterion, each printing a single
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

The criteria exercise correctness (round-trip exactness, masking behavior,
metric identities), determinism under parallelism, provider
interchangeability, raster I/O fidelity, and the stage-4 performance budget.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_params, write_scene_dir
from hsac.inversion import (
    BAND_MASKED_LOW_TG,
    BAND_VALID,
    MaskPolicy,
    forward_model_toa,
    invert_band_plane,
    invert_cube,
    mask_bands,
)
from hsac.metrics import SpectrumSample, error_stats, spectral_angle
from hsac.pipeline import (
    RunConfig,
    run_pipeline,
    run_self_test,
    synthesize_scene,
)
from hsac.raster import RadianceCube, read_cube, write_cube
from hsac.scene import BandDefinition, earth_sun_distance
from hsac.atmosphere import rayleigh_optical_depth
from hsac.spectral import check_nyquist


def report(number: int, title: str, passed: bool) -> None:
    print(f"ACCEPTANCE {number:2d} [{'PASS' if passed else 'FAIL'}] {title}")
    assert passed, f"acceptance criterion {number}: {title}"


class TestAcceptance:
    def test_01_round_trip_exactness(self):
        """10,000 randomized forward->invert round trips, 1e-12 relative, < 1 s.

        The sampled reflectance range crosses zero, where a purely relative
        tolerance is ill-posed; an absolute floor of a few machine epsilons
        of the O(1) intermediates covers that crossing.
        """
        rng = np.random.default_rng(2024)
        n_sets, n_rho = 1000, 10
        ok = True
        t0 = time.perf_counter()
        for _ in range(n_sets):
            p = random_params(rng)
            d2 = float(rng.uniform(0.966, 1.034))
            rho = rng.uniform(-0.05, 0.9, size=(1, n_rho))
            l_toa = forward_model_toa(rho, d2, p)
            out, _ = invert_band_plane(l_toa, d2, p)
            ok &= bool(
                np.all(np.abs(out - rho) <= 1e-12 * np.abs(rho) + 4e-15)
            )
        elapsed = time.perf_counter() - t0
        report(1, f"round-trip 10,000 samples ({elapsed:.3f} s)", ok and elapsed < 1.0)

    def test_02_end_to_end_self_test(self):
        """Synthetic 228-band 128x128 scene recovered within 1e-10, < 30 s."""
        t0 = time.perf_counter()
        passed, max_rel = run_self_test(RunConfig(), tolerance=1e-10)
        elapsed = time.perf_counter() - t0
        report(
            2,
            f"self-test max rel {max_rel:.2e} in {elapsed:.1f} s",
            passed and elapsed < 30.0,
        )

    def test_03_absorption_band_masking(self, bands228, params228):
        """Oxygen-A and water-vapour windows masked, visible bands retained."""
        t0 = time.perf_counter()
        mask = mask_bands(params228, MaskPolicy(tg_threshold=0.85))
        elapsed = time.perf_counter() - t0
        ok = True
        for band, status in zip(bands228, mask):
            c = band.center_wavelength
            if 755.0 <= c <= 775.0 or 930.0 <= c <= 960.0:
                ok &= status == BAND_MASKED_LOW_TG
            elif 500.0 <= c <= 650.0:
                ok &= status == BAND_VALID
        report(3, f"gas-window masking ({elapsed:.3f} s)", ok and elapsed < 1.0)

    def test_04_nyquist_criterion(self):
        """fwhm 6.5 passes at step 2.5 (threshold 3.25); fwhm 4.0 fails."""
        wide = check_nyquist([BandDefinition(0, 550.0, 6.5)], step=2.5)
        narrow = check_nyquist([BandDefinition(0, 550.0, 4.0)], step=2.5)
        ok = (
            wide.violations == ()
            and wide.overall is True
            and narrow.violations == (0,)
            and narrow.overall is False
        )
        report(4, "Nyquist pass/fail booleans", ok)

    def test_05_spectral_angle_properties(self):
        """Identity 0 deg exactly; scale invariant < 1e-9; orthogonal 90 deg."""
        wl = np.arange(400.0, 900.0, 50.0)
        rng = np.random.default_rng(11)
        v = rng.uniform(0.01, 0.2, wl.size)
        a = SpectrumSample(wl, v, "a")
        scaled = SpectrumSample(wl, 17.3 * v, "scaled")
        e1 = SpectrumSample(np.array([500.0, 600.0]), np.array([1.0, 0.0]), "")
        e2 = SpectrumSample(np.array([500.0, 600.0]), np.array([0.0, 1.0]), "")
        ok = (
            spectral_angle(a, a) == 0.0
            and spectral_angle(a, scaled) < 1e-9
            and abs(spectral_angle(e1, e2) - 90.0) <= 1e-9
        )
        report(5, "SAM identity/scale/orthogonality", ok)

    def test_06_error_statistic_identity(self):
        """RMSE^2 == Bias^2 + Std^2 within 1e-12 relative over 1,000 pairs."""
        rng = np.random.default_rng(12)
        wl = np.arange(40.0)
        ok = True
        for _ in range(1000):
            r = error_stats(
                SpectrumSample(wl, rng.normal(size=40), ""),
                SpectrumSample(wl, rng.normal(size=40), ""),
            )
            lhs, rhs = r.rmse**2, r.bias**2 + r.std**2
            ok &= abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-300)
        report(6, "RMSE^2 = Bias^2 + Std^2 over 1,000 pairs", ok)

    def test_07_earth_sun_distance_extrema(self):
        """Annual min/max distance match ephemeris values within 5e-4 AU."""
        d = [earth_sun_distance(j).d_au for j in range(1, 367)]
        # perihelion / aphelion from standard ephemeris tables (AU)
        ok = abs(min(d) - 0.98328) <= 5e-4 and abs(max(d) - 1.01672) <= 5e-4
        report(7, f"Earth-Sun min {min(d):.5f} max {max(d):.5f}", ok)

    def test_08_rayleigh_optical_depth(self):
        """tau_R(550) = 0.0973 +/- 0.001; monotone decreasing 350-2600 nm."""
        lam_um = 0.550
        independent = 0.008569 * lam_um**-4 * (
            1.0 + 0.0113 * lam_um**-2 + 0.00013 * lam_um**-4
        )
        wl = np.arange(350.0, 2600.1, 2.5)
        tau = rayleigh_optical_depth(wl)
        ok = (
            abs(rayleigh_optical_depth(550.0) - 0.0973) <= 0.001
            and abs(rayleigh_optical_depth(550.0) - independent) <= 1e-12
            and bool(np.all(np.diff(tau) < 0))
        )
        report(8, f"tau_R(550) = {float(rayleigh_optical_depth(550.0)):.4f}", ok)

    @pytest.fixture
    def synthetic_scene_dir(self, tmp_path):
        """The self-test's synthetic scene as a float32 scene directory."""
        metadata, cube, _, _ = synthesize_scene(RunConfig())
        return str(write_scene_dir(tmp_path / "scene", metadata, cube))

    def test_09_parallel_determinism(self, tmp_path, synthetic_scene_dir):
        """Byte-identical exported rasters for worker counts 1, 2, 8."""
        blobs = []
        for w in (1, 2, 8):
            out = tmp_path / f"w{w}"
            config = RunConfig(
                input_path=synthetic_scene_dir, output_path=str(out), worker_count=w
            )
            run_pipeline(config)
            blobs.append(
                (out / "rho_w.img").read_bytes() + (out / "r_rs.img").read_bytes()
            )
        ok = blobs[0] == blobs[1] == blobs[2]
        report(9, "byte-identical outputs for workers {1, 2, 8}", ok)

    def test_10_provider_interchangeability(self, tmp_path, synthetic_scene_dir):
        """Analytic run -> parameter CSV -> table rerun agrees within 1e-9."""
        first = tmp_path / "analytic"
        run_pipeline(RunConfig(input_path=synthetic_scene_dir, output_path=str(first)))
        rerun = RunConfig(
            input_path=synthetic_scene_dir,
            output_path=str(tmp_path / "table"),
            provider="table",
            params_table_path=str(first / "band_params.csv"),
        )
        run_pipeline(rerun)
        a = read_cube(str(first / "r_rs")).data.astype(np.float64)
        b = read_cube(str(tmp_path / "table" / "r_rs")).data.astype(np.float64)
        ok = bool(np.all(np.abs(a - b) <= 1e-9 * np.maximum(np.abs(a), 1e-30)))
        report(10, "analytic vs table provider within 1e-9", ok)

    def test_11_inversion_performance(self):
        """Stage 4 on a 228-band 512x512 cube completes in < 10 s."""
        config = RunConfig()
        _, cube, setup, table = synthesize_scene(config, size=512)
        t0 = time.perf_counter()
        invert_cube(cube, setup.d_squared, table, MaskPolicy(), workers=config.workers)
        elapsed = time.perf_counter() - t0
        report(11, f"stage-4 228x512x512 ({elapsed:.2f} s)", elapsed < 10.0)

    def test_12_raster_io_round_trip(self, tmp_path):
        """write -> read bit-identical for BSQ and BIL, float32 and uint16."""
        rng = np.random.default_rng(13)
        cubes = {
            "float32": rng.uniform(0, 1000, size=(4, 7, 5)).astype(np.float32),
            "uint16": rng.integers(0, 65535, size=(4, 7, 5)).astype(np.uint16),
        }
        ok = True
        for dtype_name, data in cubes.items():
            for interleave in ("bsq", "bil"):
                base = str(tmp_path / f"{dtype_name}_{interleave}")
                cube = RadianceCube(
                    data=data, wavelengths=(500.0, 550.0, 600.0, 650.0)
                )
                write_cube(base, cube, interleave=interleave)
                back = read_cube(base)
                ok &= back.data.dtype == data.dtype
                ok &= bool(np.array_equal(back.data, data))
                ok &= back.wavelengths == cube.wavelengths
        report(12, "raster round trip BSQ/BIL float32/uint16", ok)
