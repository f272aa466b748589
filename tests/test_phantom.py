import numpy as np
import pytest

from ftaseg.errors import ConfigError, DataError
from ftaseg.phantom import (
    BenchmarkSpec,
    apply_domain_shift,
    ellipsoid_mask,
    gen_phantom,
    smooth_bias_field,
)
from ftaseg.volume import RAW, NORMALIZED, Volume


def brute_force_sphere_count(dims, center, radius):
    cx, cy, cz = center
    count = 0
    for dz in range(-int(radius) - 1, int(radius) + 2):
        for dy in range(-int(radius) - 1, int(radius) + 2):
            for dx in range(-int(radius) - 1, int(radius) + 2):
                if dx * dx + dy * dy + dz * dz <= radius * radius:
                    count += 1
    return count


def _small_spec(**kw):
    return BenchmarkSpec(dim=8, ellipsoids=1, radius_min=2, radius_max=3, **kw)


def _shift(gain=1.0, bias=0.0, gamma=1.0, field=0.0):
    return BenchmarkSpec(shift_gain=gain, shift_bias=bias, shift_gamma=gamma,
                         shift_field=field)


class TestGenPhantom:
    def test_zero_ellipsoids_empty_mask(self):
        vol, mask = gen_phantom(BenchmarkSpec(dim=8, ellipsoids=0), 0)
        assert mask.voxel_count() == 0
        assert vol.dims == (8, 8, 8)

    def test_deterministic_bit_identical(self):
        spec = BenchmarkSpec(dim=12, ellipsoids=2, radius_min=2, radius_max=3)
        v1, m1 = gen_phantom(spec, 42)
        v2, m2 = gen_phantom(spec, 42)
        assert np.array_equal(v1.data, v2.data)
        assert np.array_equal(m1.data, m2.data)

    def test_different_seeds_differ(self):
        spec = BenchmarkSpec(dim=12, ellipsoids=2, radius_min=2, radius_max=3)
        _, m1 = gen_phantom(spec, 1)
        _, m2 = gen_phantom(spec, 2)
        assert not np.array_equal(m1.data, m2.data)

    def test_centered_sphere_membership_count(self):
        mask = ellipsoid_mask((9, 9, 9), (4, 4, 4), (2, 2, 2))
        expected = brute_force_sphere_count((9, 9, 9), (4, 4, 4), 2.0)
        assert mask.voxel_count() == expected == 33

    def test_ellipsoid_membership_matches_brute_force(self):
        dims, center, radii = (7, 9, 11), (5.3, 4.1, 3.2), (2.5, 1.5, 2.0)
        mask = ellipsoid_mask(dims, center, radii)
        d, h, w = dims
        for z in range(d):
            for y in range(h):
                for x in range(w):
                    inside = (
                        ((x - center[0]) / radii[0]) ** 2
                        + ((y - center[1]) / radii[1]) ** 2
                        + ((z - center[2]) / radii[2]) ** 2
                    ) <= 1.0
                    assert bool(mask.data[z, y, x]) == inside

    def test_noiseless_intensity_separation(self):
        spec = BenchmarkSpec(dim=16, ellipsoids=2, radius_min=2, radius_max=3,
                             fg_std=0.0, bg_std=0.0)
        vol, mask = gen_phantom(spec, 3)
        fg = vol.data[mask.data == 1]
        bg = vol.data[mask.data == 0]
        assert np.all(fg == spec.fg_mean)
        assert np.all(bg == spec.bg_mean)

    def test_fg_spread_draws_one_level_per_volume(self):
        spec = BenchmarkSpec(dim=12, ellipsoids=2, radius_min=2, radius_max=3,
                             fg_spread=200.0, fg_std=0.0, bg_std=0.0)
        # Rounding to float32 is monotone, so the rounded bounds hold exactly.
        lo = np.float32(spec.fg_mean - spec.fg_spread)
        hi = np.float32(spec.fg_mean + spec.fg_spread)
        levels = []
        for seed in (1, 2):
            vol, mask = gen_phantom(spec, seed)
            fg = vol.data[mask.data == 1]
            assert fg.size > 0
            assert np.all(fg == fg[0])
            assert lo <= fg[0] <= hi
            levels.append(fg[0])
        assert levels[0] != levels[1]

    def test_zero_fg_spread_is_exactly_fg_mean(self):
        spec = BenchmarkSpec(dim=12, ellipsoids=2, radius_min=2, radius_max=3,
                             fg_spread=0.0, fg_std=0.0, bg_std=0.0)
        for seed in (1, 2):
            vol, mask = gen_phantom(spec, seed)
            assert np.all(vol.data[mask.data == 1] == spec.fg_mean)

    def test_raw_tagged(self):
        vol, _ = gen_phantom(BenchmarkSpec(dim=6, ellipsoids=0), 0)
        assert vol.value_unit == RAW

    def test_placement_error_when_impossible(self):
        spec = BenchmarkSpec(dim=16, ellipsoids=30, radius_min=3, radius_max=3)
        with pytest.raises(DataError, match="place"):
            gen_phantom(spec, 0)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            BenchmarkSpec(dim=8, radius_min=5, radius_max=5)  # does not fit
        with pytest.raises(ConfigError):
            BenchmarkSpec(ellipsoids=-1)
        with pytest.raises(ConfigError):
            BenchmarkSpec(radius_min=0, radius_max=2)


class TestDomainShift:
    def test_identity_parameters(self):
        vol, _ = gen_phantom(_small_spec(), 1)
        out = apply_domain_shift(vol, _shift(), 0)
        assert np.array_equal(out.data, vol.data)

    def test_gain_doubles_mean_exactly(self):
        vol, _ = gen_phantom(_small_spec(), 2)
        out = apply_domain_shift(vol, _shift(gain=2.0), 0)
        assert float(out.data.mean()) == 2.0 * float(vol.data.mean())

    def test_bias_adds(self):
        vol, _ = gen_phantom(_small_spec(fg_std=0.0, bg_std=0.0), 3)
        out = apply_domain_shift(vol, _shift(bias=100.0), 0)
        assert np.allclose(out.data, vol.data + 100.0, atol=1e-3)

    def test_requires_raw_volume(self):
        v = Volume(np.zeros((2, 2, 2), dtype=np.float32), NORMALIZED)
        with pytest.raises(DataError):
            apply_domain_shift(v, _shift(), 0)

    def test_deterministic_per_seed(self):
        vol, _ = gen_phantom(_small_spec(), 4)
        s = _shift(0.9, 50.0, 1.1, 80.0)
        assert np.array_equal(
            apply_domain_shift(vol, s, 7).data, apply_domain_shift(vol, s, 7).data
        )

    def test_shift_spec_validation(self):
        with pytest.raises(ConfigError):
            BenchmarkSpec(shift_gain=0.0)
        with pytest.raises(ConfigError):
            BenchmarkSpec(shift_gamma=-1.0)
        with pytest.raises(ConfigError):
            BenchmarkSpec(shift_field=-5.0)


class TestBiasField:
    def test_zero_amplitude_zero_field(self):
        field = smooth_bias_field((6, 6, 6), 0.0, np.random.default_rng(0))
        assert np.array_equal(field, np.zeros((6, 6, 6)))

    def test_adjacent_step_under_ten_percent_of_amplitude(self):
        for seed in range(5):
            for dims in ((32, 32, 32), (9, 17, 25), (2, 40, 3)):
                amp = 100.0
                field = smooth_bias_field(dims, amp, np.random.default_rng(seed))
                worst = 0.0
                for axis in range(3):
                    if field.shape[axis] < 2:
                        continue
                    diff = np.abs(np.diff(field, axis=axis)).max()
                    worst = max(worst, float(diff))
                assert worst < 0.1 * amp

    def test_field_bounded_by_amplitude(self):
        field = smooth_bias_field((16, 16, 16), 50.0, np.random.default_rng(3))
        assert np.abs(field).max() <= 50.0 + 1e-9
