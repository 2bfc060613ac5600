"""Unit tests for the single-photon state algebra.

The closed-form expectations are checked against a direct complex
inner-product oracle implemented inline, independent of the module.
"""
import cmath
import math

import numpy as np
import pytest

from rdiqsdc.qstate import (
    BasisConfig,
    ChannelRotation,
    EncodeOp,
    Measurement,
    PureState,
    apply_encode,
    apply_rotation,
    born_p,
    outcome_probability,
    prepare,
    state_fidelity,
    states_close,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def oracle_p_g0(state: PureState, basis: PureState) -> float:
    """Independent Born-probability computation from raw complex pairs."""
    inner = basis.amp0.conjugate() * state.amp0 + basis.amp1.conjugate() * state.amp1
    return abs(inner) ** 2


class TestBasisConfig:
    def test_rejects_n_below_3(self):
        with pytest.raises(ValueError):
            BasisConfig(n=2)

    def test_rejects_n_equal_4(self):
        with pytest.raises(ValueError):
            BasisConfig(n=4)

    @pytest.mark.parametrize("n", [3, 5, 6, 8, 16, 32])
    def test_accepts_valid_n(self, n):
        assert BasisConfig(n=n).n == n

    def test_rejects_theta_out_of_range(self):
        with pytest.raises(ValueError):
            BasisConfig(n=8, theta=0.0)
        with pytest.raises(ValueError):
            BasisConfig(n=8, theta=math.pi / 2)

    def test_default_theta(self):
        assert BasisConfig(n=3).theta == pytest.approx(math.pi / 4)


class TestPrepare:
    def test_full_turn_phase(self):
        # x = n winds the phase through a full turn
        config = BasisConfig(n=8)
        state = prepare(8, config)
        assert state.amp0 == pytest.approx(SQRT_HALF, abs=1e-12)
        assert state.amp1 == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_third_turn_phase(self):
        state = prepare(1, BasisConfig(n=3))
        assert state.amp1 == pytest.approx(cmath.exp(2j * math.pi / 3) * SQRT_HALF, abs=1e-12)

    def test_quarter_turn_phase(self):
        state = prepare(2, BasisConfig(n=8))
        assert state.amp1 == pytest.approx(1j * SQRT_HALF, abs=1e-12)

    def test_out_of_range_x(self):
        config = BasisConfig(n=8)
        for x in (0, 9, -1):
            with pytest.raises(ValueError):
                prepare(x, config)

    def test_generic_theta(self):
        config = BasisConfig(n=5, theta=0.3)
        state = prepare(2, config)
        assert abs(state.amp0) == pytest.approx(math.cos(0.3), abs=1e-12)
        assert abs(state.amp1) == pytest.approx(math.sin(0.3), abs=1e-12)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(1.0, 1.0)

    def test_canonical_moves_global_phase(self):
        raw = PureState(-SQRT_HALF, -1j * SQRT_HALF)
        canon = raw.canonical()
        assert canon.amp0.real == pytest.approx(SQRT_HALF, abs=1e-12)
        assert abs(canon.amp0.imag) < 1e-12
        assert canon.amp1 == pytest.approx(1j * SQRT_HALF, abs=1e-12)

    def test_canonical_zero_amp0(self):
        canon = PureState(0.0, -1.0).canonical()
        assert canon.amp1 == pytest.approx(1.0, abs=1e-12)


class TestEncode:
    def test_sigma_z_action(self):
        state = PureState(SQRT_HALF, SQRT_HALF)
        flipped = apply_encode(state, EncodeOp.U1)
        assert flipped.amp0 == pytest.approx(SQRT_HALF, abs=1e-12)
        assert flipped.amp1 == pytest.approx(-SQRT_HALF, abs=1e-12)

    def test_identity(self):
        state = prepare(3, BasisConfig(n=8))
        assert apply_encode(state, EncodeOp.U0) == state

    def test_involution(self):
        state = PureState(SQRT_HALF, 1j * SQRT_HALF)
        twice = apply_encode(apply_encode(state, EncodeOp.U1), EncodeOp.U1)
        assert states_close(twice, state)

    def test_orthogonal_at_quarter_pi(self):
        # the flip takes theta = pi/4 states to orthogonal partners
        state = prepare(5, BasisConfig(n=8))
        assert state_fidelity(state, apply_encode(state, EncodeOp.U1)) < 1e-12


class TestRotation:
    def test_zero_rotation_is_identity(self):
        state = prepare(2, BasisConfig(n=3))
        assert states_close(apply_rotation(state, ChannelRotation(0.0)), state)

    def test_rotation_to_pole(self):
        state = PureState(SQRT_HALF, SQRT_HALF)
        rotated = apply_rotation(state, ChannelRotation(math.pi / 4))
        assert abs(rotated.amp0) < 1e-12
        assert rotated.amp1 == pytest.approx(1.0, abs=1e-12)

    def test_direct_substitution(self):
        phi = 2.0 * math.pi / 3.0
        state = PureState(SQRT_HALF, cmath.exp(1j * phi) * SQRT_HALF)
        rotated = apply_rotation(state, ChannelRotation(math.pi / 40))
        t2 = math.pi / 4 + math.pi / 40
        assert rotated.amp0 == pytest.approx(math.cos(t2), abs=1e-12)
        assert rotated.amp1 == pytest.approx(cmath.exp(1j * phi) * math.sin(t2), abs=1e-12)

    def test_phase_preserved(self):
        state = prepare(3, BasisConfig(n=16))
        rotated = apply_rotation(state, ChannelRotation(0.2))
        assert cmath.phase(rotated.amp1) == pytest.approx(
            cmath.phase(state.amp1), abs=1e-12
        )

    def test_additivity_on_canonical_family(self):
        # composition holds while the accumulated angle stays in [0, pi/2]
        state = prepare(2, BasisConfig(n=5, theta=0.3))
        one_shot = apply_rotation(state, ChannelRotation(0.7))
        two_step = apply_rotation(
            apply_rotation(state, ChannelRotation(0.3)), ChannelRotation(0.4)
        )
        assert state_fidelity(one_shot, two_step) == pytest.approx(1.0, abs=1e-12)

    def test_normalization_preserved(self):
        state = prepare(1, BasisConfig(n=8))
        for dth in (0.1, 1.3, 2.9, -0.4):
            state = apply_rotation(state, ChannelRotation(dth))
            assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)


class TestOutcomeProbability:
    def test_projection_onto_itself(self):
        config = BasisConfig(n=8)
        state = prepare(3, config)
        m = Measurement(basis_index=3, config=config)
        assert outcome_probability(state, m) == pytest.approx(1.0, abs=1e-12)

    def test_offset_one_n3(self):
        # closed form cos^2(pi/3) = 0.25, checked against the inline oracle
        config = BasisConfig(n=3)
        state = prepare(2, config)
        m = Measurement(basis_index=1, config=config)
        p = outcome_probability(state, m)
        assert p == pytest.approx(0.25, abs=1e-12)
        assert p == pytest.approx(oracle_p_g0(state, m.basis_state()), abs=1e-15)

    def test_orthogonal_phases(self):
        config = BasisConfig(n=8)
        state = prepare(5, config)
        m = Measurement(basis_index=1, config=config)
        assert outcome_probability(state, m) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_all_n(self):
        # matches cos^2(pi*(a-w)/n) for every n and index pair
        for n in range(3, 33):
            if n == 4:
                continue
            config = BasisConfig(n=n)
            for a in range(1, n + 1):
                state = prepare(a, config)
                for w in range(1, n + 1):
                    m = Measurement(basis_index=w, config=config)
                    p = outcome_probability(state, m)
                    assert abs(p - math.cos(math.pi * (a - w) / n) ** 2) <= 1e-12
                    assert abs(p - oracle_p_g0(state, m.basis_state())) <= 1e-15

    def test_complement_sums_to_one(self):
        config = BasisConfig(n=16, theta=0.6)
        state = apply_rotation(prepare(7, config), ChannelRotation(0.11))
        m = Measurement(basis_index=2, config=config)
        p = outcome_probability(state, m)
        assert 0.0 <= p <= 1.0

    def test_basis_index_validation(self):
        config = BasisConfig(n=8)
        with pytest.raises(ValueError):
            Measurement(basis_index=0, config=config)
        with pytest.raises(ValueError):
            Measurement(basis_index=9, config=config)


class TestBornP:
    def test_matches_scalar_oracle(self):
        # the engine's vectorized rule against outcome_probability on every
        # (x, y) pair, with the phase table and index formed as the engine does
        for n in (3, 5, 8, 16):
            xs, ys = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
            xs, ys = xs.ravel(), ys.ravel()
            phases = 2.0 * math.pi * np.arange(1 - n, n) / n
            for theta in (math.pi / 4, 0.3, 1.2):
                config = BasisConfig(n=n, theta=theta)
                for rot in (0.0, math.pi / 40, 0.3):
                    got = born_p(theta, np.full(len(xs), theta + rot), phases, xs - ys + n - 1)
                    for x, y, p in zip(xs, ys, got):
                        state = apply_rotation(prepare(int(x), config), ChannelRotation(rot))
                        want = outcome_probability(state, Measurement(int(y), config))
                        assert abs(p - want) <= 1e-12, (n, theta, rot, x, y)

    def test_gathered_table_is_bit_identical_to_per_photon_phases(self):
        # evaluating e^{i phi} sin(theta) once per table entry and gathering
        # it gives the floats of the per-photon evaluation, and so does the
        # ideal-probability table gathered by offset; the sizes reach the
        # vector loops of the numpy kernels
        def per_photon(theta, angles, phase):
            inner = math.cos(theta) * np.cos(angles) + np.exp(1j * phase) * math.sin(
                theta
            ) * np.sin(angles)
            return np.clip(np.abs(inner) ** 2, 0.0, 1.0)

        rng = np.random.default_rng(7)
        for n, theta in ((3, 0.3), (5, 0.6), (8, math.pi / 4), (16, 1.2)):
            phases = 2.0 * math.pi * np.arange(1 - n, n) / n
            k = rng.integers(0, 2 * n - 1, size=100_003)
            flat = np.full(len(k), theta)
            for angles in (theta + rng.uniform(-0.3, 0.3, len(k)), flat):
                want = per_photon(theta, angles, phases[k])
                assert np.array_equal(born_p(theta, angles, phases, k), want)
            ideal = born_p(theta, flat[:len(phases)], phases, np.arange(len(phases)))
            assert np.array_equal(ideal[k], per_photon(theta, flat, phases[k]))
        bits = rng.integers(0, 2, size=100_003).astype(np.int8)
        angles = math.pi / 4 + rng.uniform(-0.3, 0.3, len(bits))
        want = per_photon(math.pi / 4, angles, math.pi * bits.astype(np.float64))
        got = born_p(math.pi / 4, angles, math.pi * np.arange(2.0), bits)
        assert np.array_equal(got, want)


class TestFidelity:
    def test_identical(self):
        state = prepare(2, BasisConfig(n=5))
        assert state_fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a = PureState(1.0, 0.0)
        b = PureState(0.0, 1.0)
        assert state_fidelity(a, b) == 0.0

    def test_rotated_state_overlap(self):
        # one rotated trip: overlap cos^2(dth); 0.2547 -> about 0.9365
        state = prepare(3, BasisConfig(n=8))
        rotated = apply_rotation(state, ChannelRotation(0.2547))
        f = state_fidelity(state, rotated)
        assert f == pytest.approx(math.cos(0.2547) ** 2, abs=1e-12)
        assert f == pytest.approx(0.9365, abs=5e-4)

    def test_symmetric(self):
        a = prepare(1, BasisConfig(n=5))
        b = prepare(3, BasisConfig(n=5))
        assert state_fidelity(a, b) == pytest.approx(state_fidelity(b, a), abs=1e-15)

    def test_global_phase_invariant(self):
        a = prepare(2, BasisConfig(n=8))
        b = PureState(a.amp0 * cmath.exp(0.7j), a.amp1 * cmath.exp(0.7j))
        assert state_fidelity(a, b) == pytest.approx(1.0, abs=1e-12)
