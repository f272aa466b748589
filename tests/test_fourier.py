import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftaseg.errors import ConfigError, DataError
from ftaseg.fourier import (
    FtaConfig,
    _reconstruct,
    dft2_forward,
    fta_augment_pair,
    make_center_mask,
    symmetrize_mask,
)
from oracles import dft2_direct, fta_direct, mirror_mask, shift_direct


def slice_of(arr):
    return np.asarray(arr, dtype=np.float32)


def rand_slice(rng, h, w):
    return slice_of(rng.random((h, w)))


class TestForward:
    def test_constant_image_dc_only(self):
        c, h, w = float(np.float32(0.7)), 4, 6  # stored as float32
        amp, phase = dft2_forward(slice_of(np.full((h, w), c)))
        dc = (h // 2, w // 2)
        assert amp[dc] == pytest.approx(c * h * w, rel=1e-12)
        assert phase[dc] == 0.0
        rest = amp.copy()
        rest[dc] = 0.0
        assert np.abs(rest).max() < 1e-9

    def test_2x2_against_direct_sum(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        amp, phase = dft2_forward(slice_of(img))
        direct = shift_direct(dft2_direct(img))
        assert np.abs(amp - np.abs(direct)).max() < 1e-9
        assert sorted(amp.ravel().tolist()) == pytest.approx(
            [0.0, 2.0, 4.0, 10.0], abs=1e-12
        )

    def test_conjugate_symmetry_of_real_images(self):
        rng = np.random.default_rng(3)
        amp, phase = dft2_forward(rand_slice(rng, 8, 8))
        h, w = 8, 8
        ref_r = (2 * (h // 2) - np.arange(h)) % h
        ref_c = (2 * (w // 2) - np.arange(w)) % w
        mirrored_amp = amp[np.ix_(ref_r, ref_c)]
        assert np.abs(amp - mirrored_amp).max() < 1e-6
        # phase antisymmetry modulo 2*pi, skipping near-zero amplitudes
        mirrored_phase = phase[np.ix_(ref_r, ref_c)]
        strong = amp > 1e-9
        wrapped = np.angle(np.exp(1j * (phase + mirrored_phase)))
        assert np.abs(wrapped[strong]).max() < 1e-6

    def test_parseval(self):
        rng = np.random.default_rng(4)
        for h, w in ((8, 8), (5, 7), (1, 9)):
            s = rand_slice(rng, h, w)
            amp, phase = dft2_forward(s)
            lhs = float((s.astype(np.float64) ** 2).sum())
            rhs = float((amp**2).sum()) / (h * w)
            assert lhs == pytest.approx(rhs, rel=1e-4)


class TestInverse:
    """``_reconstruct`` is the inverse transform inside ``fta_augment_pair``."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 10**6))
    def test_round_trip_identity(self, h, w, seed):
        s = rand_slice(np.random.default_rng(seed), h, w)
        back, _ = _reconstruct(*dft2_forward(s))
        assert np.abs(back - s).max() < 1e-5

    def test_dc_only_gives_constant(self):
        h, w, c = 4, 4, 0.3
        amp = np.zeros((h, w))
        amp[h // 2, w // 2] = c * h * w
        out, _ = _reconstruct(amp, np.zeros((h, w)))
        assert np.abs(out - c).max() < 1e-7

    def test_2x2_exact_reconstruction(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        out, _ = _reconstruct(*dft2_forward(slice_of(img)))
        assert np.abs(out - img).max() < 1e-6

    def test_non_symmetric_spectrum_leaves_a_residue(self):
        amp = np.zeros((4, 4))
        amp[2, 3] = 8.0  # lone off-center bin: no conjugate partner
        _, residue = _reconstruct(amp, np.zeros((4, 4)))
        assert residue == pytest.approx(0.5, rel=1e-12)


class TestCenterMask:
    def test_zero_fraction_empty(self):
        assert make_center_mask(6, 6, 0.0).sum() == 0

    def test_full_fraction_all_ones(self):
        assert make_center_mask(6, 7, 1.0).sum() == 42

    def test_8x8_quarter_block(self):
        m = make_center_mask(8, 8, 0.25)
        assert m.sum() == 4
        assert m[3:5, 3:5].sum() == 4
        assert m.size - np.count_nonzero(m) == 60

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            make_center_mask(4, 4, 1.2)

    def test_symmetrize_matches_explicit_mirror(self):
        for h, w, beta in ((8, 8, 0.25), (5, 7, 0.4), (6, 4, 0.6)):
            m = make_center_mask(h, w, beta)
            assert np.array_equal(symmetrize_mask(m), mirror_mask(m))

    def test_symmetrize_is_conjugate_invariant(self):
        m = symmetrize_mask(make_center_mask(8, 6, 0.3))
        h, w = m.shape
        ref = m[np.ix_((2 * (h // 2) - np.arange(h)) % h,
                       (2 * (w // 2) - np.arange(w)) % w)]
        assert np.array_equal(m, ref)


class TestAugmentPair:
    def test_standard_fda_identity_at_zero_lambda(self):
        rng = np.random.default_rng(10)
        a, b = rand_slice(rng, 6, 6), rand_slice(rng, 6, 6)
        pair = fta_augment_pair(
            a, b, 0.0, FtaConfig(mask_fraction=0.5, mode="standard-fda")
        )
        assert np.abs(pair.z_w - a).max() < 1e-5
        assert np.abs(pair.z_u - b).max() < 1e-5

    def test_paper_literal_scales_without_mask(self):
        rng = np.random.default_rng(11)
        a, b = rand_slice(rng, 6, 6), rand_slice(rng, 6, 6)
        lam = 0.3
        pair = fta_augment_pair(
            a, b, lam, FtaConfig(mask_fraction=0.0, mode="paper-literal")
        )
        assert np.abs(pair.z_w - (1.0 - lam) * a).max() < 1e-5
        assert np.abs(pair.z_u - (1.0 - lam) * b).max() < 1e-5

    @pytest.mark.parametrize("mode", ["paper-literal", "standard-fda"])
    def test_4x4_matches_direct_dft_oracle(self, mode):
        rng = np.random.default_rng(12)
        a, b = rand_slice(rng, 4, 4), rand_slice(rng, 4, 4)
        lam = 0.5
        cfg = FtaConfig(mask_fraction=0.5, mode=mode)
        pair = fta_augment_pair(a, b, lam, cfg)
        mask = symmetrize_mask(make_center_mask(4, 4, 0.5))
        zw, zu = fta_direct(a, b, lam, mask, mode)
        assert np.abs(pair.z_w - zw).max() < 1e-6
        assert np.abs(pair.z_u - zu).max() < 1e-6

    def test_realness_residue(self):
        rng = np.random.default_rng(13)
        for h, w in ((8, 8), (5, 6), (7, 7)):
            pair = fta_augment_pair(
                rand_slice(rng, h, w),
                rand_slice(rng, h, w),
                0.7,
                FtaConfig(mask_fraction=0.5),
            )
            assert pair.imag_residue < 1e-6

    def test_swap_symmetry_exact(self):
        rng = np.random.default_rng(14)
        a, b = rand_slice(rng, 6, 4), rand_slice(rng, 6, 4)
        cfg = FtaConfig(mask_fraction=0.5)
        ab = fta_augment_pair(a, b, 0.4, cfg)
        ba = fta_augment_pair(b, a, 0.4, cfg)
        assert np.array_equal(ab.z_w, ba.z_u)
        assert np.array_equal(ab.z_u, ba.z_w)

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        with pytest.raises(DataError):
            fta_augment_pair(
                rand_slice(rng, 4, 4), rand_slice(rng, 4, 5), 0.5, FtaConfig()
            )

    def test_requires_normalized_inputs(self):
        rng = np.random.default_rng(16)
        bad = slice_of(rng.random((4, 4)) + 2.0)
        with pytest.raises(DataError):
            fta_augment_pair(bad, rand_slice(rng, 4, 4), 0.5, FtaConfig())

    def test_lambda_out_of_range_rejected(self):
        rng = np.random.default_rng(17)
        a, b = rand_slice(rng, 4, 4), rand_slice(rng, 4, 4)
        for lam in (-0.1, 1.5):
            with pytest.raises(ConfigError):
                fta_augment_pair(a, b, lam, FtaConfig())

    def test_lambda_draw_seeded(self):
        cfg = FtaConfig()

        def draw(seed):
            return cfg.draw_lambda(np.random.default_rng(seed))

        assert draw(5) == draw(5)
        assert 0.0 <= draw(5) <= 1.0
        assert draw(5) != draw(6)

    def test_fixed_lambda_leaves_rng_untouched(self):
        rng = np.random.default_rng(0)
        assert FtaConfig(lambda_value=0.3).draw_lambda(rng) == 0.3
        assert rng.uniform() == np.random.default_rng(0).uniform()

    def test_lambda_max_respected(self):
        cfg = FtaConfig(lambda_max=0.2)
        draws = [
            cfg.draw_lambda(np.random.default_rng(s)) for s in range(50)
        ]
        assert all(0.0 <= d <= 0.2 for d in draws)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FtaConfig(lambda_value=1.5)
        with pytest.raises(ConfigError):
            FtaConfig(mask_fraction=-0.1)
        with pytest.raises(ConfigError):
            FtaConfig(mode="other")
