"""Property-based invariants across the state algebra, policy solver,
and the capacity model."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdiqsdc.analysis import (
    CapacityParams, OffsetModel, binary_entropy, error_budget, secrecy_capacity,
)
from rdiqsdc.devices import LinkBudget
from rdiqsdc.protocol import _MESSAGE_PHASES, OffsetDistribution, _offset_phases
from rdiqsdc.qstate import (
    BasisConfig,
    ChannelRotation,
    EncodeOp,
    Measurement,
    apply_encode,
    apply_rotation,
    born_p,
    outcome_probability,
    prepare,
    state_fidelity,
)

valid_n = st.sampled_from([3, 5, 6, 7, 8, 11, 16, 32])
angles = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def states(draw):
    n = draw(valid_n)
    config = BasisConfig(n=n)
    x = draw(st.integers(min_value=1, max_value=n))
    state = prepare(x, config)
    if draw(st.booleans()):
        state = apply_encode(state, EncodeOp.U1)
    state = apply_rotation(state, ChannelRotation(draw(angles)))
    return config, state


@given(states())
def test_operations_preserve_normalization(cs):
    _, state = cs
    assert abs(state.norm_sq() - 1.0) <= 1e-12


@given(states(), st.integers(min_value=1, max_value=3))
def test_outcome_probabilities_are_proper(cs, w):
    config, state = cs
    m = Measurement(basis_index=w, config=config)
    p = outcome_probability(state, m)
    assert 0.0 <= p <= 1.0


@given(states())
def test_encode_is_involution(cs):
    _, state = cs
    twice = apply_encode(apply_encode(state, EncodeOp.U1), EncodeOp.U1)
    assert state_fidelity(twice, state) == pytest.approx(1.0, abs=1e-12)


@given(
    st.floats(min_value=0.0, max_value=math.pi / 2),
    st.floats(min_value=0.0, max_value=math.pi / 2),
    st.floats(min_value=0.0, max_value=math.pi / 2),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_rotation_additivity_inside_principal_branch(t0, d1, d2, phi):
    # the amplitude angle is recovered from |amp0|, so composition is only
    # defined while the accumulated angle stays within [0, pi/2]
    if t0 + d1 + d2 > math.pi / 2:
        return
    from rdiqsdc.qstate import PureState

    state = PureState(complex(math.cos(t0)), cmath.exp(1j * phi) * math.sin(t0))
    two_step = apply_rotation(apply_rotation(state, ChannelRotation(d1)), ChannelRotation(d2))
    one_shot = apply_rotation(state, ChannelRotation(d1 + d2))
    assert state_fidelity(two_step, one_shot) == pytest.approx(1.0, abs=1e-10)


@given(states(), st.floats(min_value=-math.pi, max_value=math.pi))
def test_fidelity_ignores_global_phase(cs, gamma):
    from rdiqsdc.qstate import PureState

    _, state = cs
    shifted = PureState(
        state.amp0 * cmath.exp(1j * gamma), state.amp1 * cmath.exp(1j * gamma)
    )
    assert state_fidelity(state, shifted) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_entropy_symmetry_and_bounds(x):
    h = binary_entropy(x)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


@given(
    st.floats(min_value=0.001, max_value=0.999),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.0, max_value=math.pi),
)
def test_capacity_symmetric_about_half(p1, eta, dth):
    link = LinkBudget(eta_c=eta)
    a = secrecy_capacity(CapacityParams(p1=p1, delta_theta=dth, link=link)).c_s
    b = secrecy_capacity(CapacityParams(p1=1.0 - p1, delta_theta=dth, link=link)).c_s
    assert a == pytest.approx(b, abs=1e-9)


@given(
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.0, max_value=math.pi),
)
def test_budget_components_nonnegative_and_additive(p1, eta, dth):
    b = error_budget(CapacityParams(p1=p1, delta_theta=dth, link=LinkBudget(eta_c=eta)))
    assert min(b.e_ab, b.e_ab_assign, b.e_aba, b.e_aba_assign) >= 0.0
    assert b.total_one_way == pytest.approx(b.e_ab + b.e_ab_assign, abs=1e-15)
    assert b.total_one_way <= 1.0 and b.total_round_trip <= 1.0


@given(valid_n, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200)
def test_policy_hits_any_reachable_target(n, frac):
    config = BasisConfig(n=n)
    reachable_min = min(
        math.cos(math.pi * d / n) ** 2 for d in range(n)
    )
    target = reachable_min + frac * (1.0 - reachable_min)
    offs = OffsetDistribution.of(config, target)
    assert sum(offs.weights) == pytest.approx(1.0, abs=1e-12)
    assert OffsetModel.of(offs, config.theta).p_g0(0.0) == pytest.approx(target, abs=1e-9)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25)
def test_offset_draws_stay_in_support(seed):
    offs = OffsetDistribution.of(BasisConfig(n=8), 0.3)
    draws = offs.draw(500, np.random.default_rng(seed))
    assert set(np.unique(draws)) <= set(offs.deltas)


@settings(max_examples=100, deadline=None)
@given(
    theta=st.floats(min_value=0.0, max_value=math.pi / 2, exclude_min=True, exclude_max=True),
    angle=st.floats(min_value=-1e3, max_value=1e3),
    n=st.sampled_from([3, 5, 8, 16, 128, None]),
    m=st.sampled_from([1, 7, 65, 65537]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_born_p_scalar_angle_is_bitwise_per_photon(theta, angle, n, m, seed):
    # one angle for every photon evaluates P(g=0) once per phase and gathers
    # it; the floats must be those of the per-photon evaluation wherever a
    # photon sits in the array (n = None: the decoding phases)
    phases = _MESSAGE_PHASES if n is None else _offset_phases(n)
    index = np.random.default_rng(seed).integers(0, len(phases), size=m)
    got = born_p(theta, angle, phases, index)
    want = born_p(theta, np.full(m, angle), phases, index)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
