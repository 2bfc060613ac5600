"""Closed-form engine tests.

Derived expectations are either recomputed here with independent
arithmetic (mpmath, direct formula chains) or frozen from those oracles.
"""
import cmath
import math
from dataclasses import replace

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdiqsdc.analysis import (
    REFERENCE_CONFIG,
    CapacityParams,
    EfficiencyParams,
    OffsetModel,
    _cs_of_delta_theta,
    binary_entropy,
    delta_theta_threshold,
    error_budget,
    eta_threshold,
    fidelity_pair,
    max_distance,
    offset_model,
    practical_efficiency,
    secrecy_capacity,
    sweep,
)
from rdiqsdc.devices import LinkBudget
from rdiqsdc.protocol import OffsetDistribution
from rdiqsdc.qstate import (
    BasisConfig, ChannelRotation, Measurement, apply_rotation, outcome_probability, prepare,
)

P1_LIST = (0.001, 0.1, 0.2, 0.3, 0.4, 0.5)


def quarter_pi_budget(p1: float, q_ab: float, q_aba: float, dth: float) -> tuple:
    """The paper's reduction at theta = pi/4 and n = 8: E[cos(phi)] = 2*P1 - 1
    and the assignment cost min(P1, 1 - P1)."""
    mean_cos, assign = abs(2.0 * p1 - 1.0), min(p1, 1.0 - p1)
    return (
        q_ab * mean_cos * (1.0 - math.cos(2.0 * dth)) / 2.0,
        (1.0 - q_ab) * assign,
        q_aba * mean_cos * (1.0 - math.cos(4.0 * dth)) / 2.0,
        (1.0 - q_aba) * assign,
    )


def brute_mean_p(p1: float, config: BasisConfig, rotation: float) -> float:
    """Mean P(g=0) of the check photons drawn against P1 = p1 after `rotation`,
    photon by photon through the scalar state algebra."""
    offs = OffsetDistribution.of(config, p1)
    n = config.n
    return math.fsum(
        w / n * outcome_probability(
            apply_rotation(prepare(x, config), ChannelRotation(rotation)),
            Measurement(((x - d - 1) % n) + 1, config),
        )
        for d, w in zip(offs.deltas, offs.weights)
        for x in range(1, n + 1)
    )


def brute_assign(p1: float, config: BasisConfig) -> float:
    offs = OffsetDistribution.of(config, p1)
    n = config.n
    ideal = (
        outcome_probability(prepare(n, config), Measurement(((-d - 1) % n) + 1, config))
        for d in offs.deltas
    )
    return math.fsum(w * min(p, 1.0 - p) for w, p in zip(offs.weights, ideal))


def brute_capacity(p1: float, config: BasisConfig, eta: float, dth: float) -> float:
    q1, q2 = eta, eta * eta
    p0, assign = brute_mean_p(p1, config, 0.0), brute_assign(p1, config)
    e1 = q1 * abs(p0 - brute_mean_p(p1, config, dth)) + (1.0 - q1) * assign
    e2 = q2 * abs(p0 - brute_mean_p(p1, config, 2.0 * dth)) + (1.0 - q2) * assign
    return q2 * (1.0 - binary_entropy(e2)) - q1 * binary_entropy(e1)


def single_offset_model(n: int, d: int, theta: float) -> OffsetModel:
    """Model of the distribution that draws basis offset d alone."""
    return OffsetModel.of(OffsetDistribution(n=n, deltas=(d,), weights=(1.0,)), theta)


def l_max(p1: float, dth: float, eta_c: float = 0.95, **kw):
    return max_distance(p1, dth, LinkBudget(eta_c=eta_c, **kw), eta_star=eta_threshold(p1, dth))


def mp_entropy(x: str) -> float:
    with mpmath.workdps(40):
        v = mpmath.mpf(x)
        h = -(v * mpmath.log(v) + (1 - v) * mpmath.log(1 - v)) / mpmath.log(2)
        return float(h)


class TestBinaryEntropy:
    def test_identities(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_symmetry(self):
        for x in (0.01, 0.1, 0.3, 0.49):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-15)

    def test_against_high_precision_oracle(self):
        for x in ("0.1", "0.05177", "0.3", "0.0767387"):
            assert binary_entropy(float(x)) == pytest.approx(mp_entropy(x), abs=1e-14)

    def test_frozen_value(self):
        assert binary_entropy(0.1) == pytest.approx(0.468996, abs=1e-6)

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestCapacityParams:
    def test_bare_gains(self):
        pt = secrecy_capacity(CapacityParams(p1=0.1, link=LinkBudget(eta_c=0.6)))
        assert pt.q_ab == 0.6 and pt.q_aba == pytest.approx(0.36, abs=1e-15)

    def test_link_gains(self):
        link = LinkBudget(distance_km=5.0, eta_c=0.9)
        pt = secrecy_capacity(CapacityParams(p1=0.1, link=link))
        assert pt.q_ab == link.q_ab and pt.q_aba == link.q_aba

    def test_lossless_link_by_default(self):
        assert CapacityParams(p1=0.1).link == LinkBudget()
        assert (LinkBudget().q_ab, LinkBudget().q_aba) == (1.0, 1.0)

    @given(st.floats(0.0, 1.0))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(1.0)
    def test_bare_efficiency_gains_are_eta_and_its_square(self, eta):
        # a bare efficiency is written LinkBudget(eta_c=eta); its gains are the
        # model's eta and eta^2 bit for bit, the sign of a zero included
        link = LinkBudget(eta_c=eta)
        assert link.q_ab.hex() == eta.hex()
        assert link.q_aba.hex() == (eta**2).hex()

    def test_p1_validation(self):
        with pytest.raises(ValueError):
            CapacityParams(p1=1.2)

    def test_reference_basis_config_by_default(self):
        assert CapacityParams(p1=0.1).config == BasisConfig(n=8, theta=math.pi / 4)


class TestErrorBudget:
    def test_ideal_point_is_error_free(self):
        b = error_budget(CapacityParams(p1=0.3, delta_theta=0.0))
        assert b.e_ab == b.e_ab_assign == b.e_aba == b.e_aba_assign == 0.0

    def test_loss_only_point(self):
        # at the 0.4823 operating point with no rotation
        b = error_budget(CapacityParams(p1=0.1, delta_theta=0.0, link=LinkBudget(eta_c=0.4823)))
        assert b.total_one_way == pytest.approx((1 - 0.4823) * 0.1, abs=1e-15)
        assert b.total_round_trip == pytest.approx((1 - 0.4823**2) * 0.1, abs=1e-15)
        assert b.total_one_way == pytest.approx(0.05177, abs=1e-12)
        assert b.total_round_trip == pytest.approx(0.076739, abs=1e-6)

    def test_noise_only_point(self):
        b = error_budget(CapacityParams(p1=0.1, delta_theta=0.2547))
        assert b.total_one_way == pytest.approx(0.4 * (1 - math.cos(0.5094)), abs=1e-15)
        assert b.total_round_trip == pytest.approx(0.4 * (1 - math.cos(1.0188)), abs=1e-15)

    def test_totals_are_sums(self):
        b = error_budget(CapacityParams(p1=0.2, delta_theta=0.1, link=LinkBudget(eta_c=0.7)))
        assert b.total_one_way == pytest.approx(b.e_ab + b.e_ab_assign, abs=1e-15)
        assert b.total_round_trip == pytest.approx(b.e_aba + b.e_aba_assign, abs=1e-15)

    def test_symmetric_in_p1(self):
        for p1 in (0.1, 0.3):
            link = LinkBudget(eta_c=0.8)
            a = error_budget(CapacityParams(p1=p1, delta_theta=0.2, link=link))
            b = error_budget(CapacityParams(p1=1 - p1, delta_theta=0.2, link=link))
            assert a.total_one_way == pytest.approx(b.total_one_way, abs=1e-12)
            assert a.total_round_trip == pytest.approx(b.total_round_trip, abs=1e-12)

    def test_generic_offset_path_matches_reduced_form(self):
        # at the reference point the offset model reduces to the paper's
        # closed form, over the reference P1 list and its mirror
        for p1 in P1_LIST + tuple(1.0 - p for p in P1_LIST):
            for eta in (0.3, 0.7, 1.0):
                for dth in (0.0, math.pi / 400, math.pi / 40, 0.3, 1.2):
                    link = LinkBudget(eta_c=eta)
                    b = error_budget(CapacityParams(p1=p1, delta_theta=dth, link=link))
                    got = (b.e_ab, b.e_ab_assign, b.e_aba, b.e_aba_assign)
                    want = quarter_pi_budget(p1, eta, eta**2, dth)
                    assert got == pytest.approx(want, abs=1e-12)

    def test_generic_path_branch_sensitivity(self):
        # n=5 offsets bracketing 0.4 straddle one half: the per-photon
        # assignment rule then costs less than the reduced min(p1, 1-p1)
        config = BasisConfig(n=5)
        offs = OffsetDistribution.of(config, 0.4)
        model = offset_model(0.4, config)
        oracle = math.fsum(
            w * min(p, 1 - p)
            for d, w in zip(offs.deltas, offs.weights)
            for p in (math.cos(math.pi * d / 5) ** 2,)
        )
        assert model.assign == pytest.approx(oracle, abs=1e-12)
        assert model.assign < 0.4
        # the offset above one half is the one whose no-clicks are assigned g=0
        assert model.assign_g0 == pytest.approx(
            sum(w for d, w in zip(offs.deltas, offs.weights) if d in (1, 4)), abs=1e-12)
        b = error_budget(CapacityParams(p1=0.4, config=config, link=LinkBudget(eta_c=0.5)))
        assert b.e_ab_assign == pytest.approx(0.5 * oracle, abs=1e-12)

    def test_reduced_form_requires_quarter_pi(self):
        # away from pi/4 the phase-independent part of the Born shift no
        # longer cancels, so the 2*p1-1 reduction misses most of the error
        config = BasisConfig(n=8, theta=0.6)
        b = error_budget(CapacityParams(p1=0.3, delta_theta=math.pi / 40, config=config))
        brute = brute_mean_p(0.3, config, 0.0) - brute_mean_p(0.3, config, math.pi / 40)
        assert b.e_ab == pytest.approx(abs(brute), abs=1e-12)
        assert b.e_ab == pytest.approx(0.0401, abs=1e-4)
        assert quarter_pi_budget(0.3, 1.0, 1.0, math.pi / 40)[0] < 0.01
        shift = offset_model(0.3, BasisConfig(n=5, theta=0.6)).shift(0.05)
        assert shift == pytest.approx(0.0262, abs=1e-4)

    def test_weight_validation(self):
        # the model takes its offsets and weights from an OffsetDistribution
        with pytest.raises(ValueError):
            OffsetDistribution(n=8, deltas=(0, 1), weights=(0.7, 0.7))
        with pytest.raises(ValueError):
            OffsetDistribution(n=8, deltas=(0,), weights=(0.5, 0.5))


class TestOffsetModel:
    # (n, theta, P1, delta_theta): away from pi/4 the phase-independent part
    # of the Born shift no longer cancels
    POINTS = [(8, 0.6, 0.3, math.pi / 40), (5, 0.6, 0.3, 0.05), (8, 1.0, 0.5, 0.1),
              (5, 0.6, 0.6, math.pi / 40), (8, math.pi / 4, 0.1, math.pi / 40)]

    @pytest.mark.parametrize("n,theta,p1,dth", POINTS)
    def test_matches_scalar_state_algebra(self, n, theta, p1, dth):
        config = BasisConfig(n=n, theta=theta)
        model = offset_model(p1, config)
        p0 = brute_mean_p(p1, config, 0.0)
        assert model.p_g0(0.0) == pytest.approx(p1, abs=1e-12)
        assert p0 == pytest.approx(p1, abs=1e-12)
        for trips in (1, 2):
            rotated = brute_mean_p(p1, config, trips * dth)
            assert model.p_g0(dth, trips) == pytest.approx(rotated, abs=1e-12)
            assert model.shift(dth, trips) == pytest.approx(p0 - rotated, abs=1e-12)
        assert model.assign == pytest.approx(brute_assign(p1, config), abs=1e-12)

    def test_half_is_the_single_offset_at_n8(self):
        # P1 = 0.5 is realized by one offset with p = 1/2, as the paper assumes
        model = offset_model(0.5)
        assert model.assign == pytest.approx(0.5, abs=1e-15)
        assert model.assign_g0 == 0.0
        assert abs(model.mean_cos) < 1e-15

    @pytest.mark.parametrize("theta", [math.pi / 4, 0.6])
    def test_any_offset_distribution(self, theta):
        # the uniform policy: E[cos(phi)] = 0, so P(g=0) = (1 + cos^2(2*theta)) / 2
        offs = OffsetDistribution.of(BasisConfig(n=5, theta=theta), None)
        model = OffsetModel.of(offs, theta)
        assert model.p_g0(0.0) == pytest.approx((1 + math.cos(2 * theta) ** 2) / 2, abs=1e-12)

    def test_unreachable_target(self):
        # n = 5 at pi/4 cannot go below cos^2(2*pi/5)
        with pytest.raises(ValueError, match="outside the reachable range"):
            offset_model(0.001, BasisConfig(n=5))

    @pytest.mark.parametrize("dth", [1e308, 5e307, -1e308])
    def test_overflowing_rotation_names_delta_theta(self, dth):
        # 5e307 keeps the one-trip angle finite, but not the round trip's
        for solve in (lambda: eta_threshold(0.1, dth),
                      lambda: secrecy_capacity(CapacityParams(p1=0.1, delta_theta=dth))):
            with pytest.raises(ValueError, match=r"^delta_theta=.* is too large"):
                solve()


class TestSecrecyCapacity:
    def test_perfect_channel(self):
        for p1 in (0.001, 0.25, 0.5):
            pt = secrecy_capacity(CapacityParams(p1=p1, delta_theta=0.0))
            assert pt.c_s == pytest.approx(1.0, abs=1e-12)

    def test_threshold_point_is_marginal(self):
        pt = secrecy_capacity(CapacityParams(p1=0.1, link=LinkBudget(eta_c=0.4823)))
        assert abs(pt.c_s) < 1e-3

    def test_half_km_operating_point(self):
        # independent chain: eta_t = 10^(-0.01), eta = 0.95*eta_t
        link = LinkBudget(distance_km=0.5, eta_c=0.95)
        pt = secrecy_capacity(
            CapacityParams(p1=0.1, delta_theta=math.pi / 400, link=link)
        )
        assert pt.q_ab == pytest.approx(0.9283753599080201, abs=1e-12)
        assert pt.c_s == pytest.approx(0.7131399549849901, abs=1e-9)
        assert pt.c_s == pytest.approx(0.713, abs=1e-3)

    def test_negative_capacity_reported(self):
        pt = secrecy_capacity(CapacityParams(p1=0.1, delta_theta=0.0, link=LinkBudget(eta_c=0.2)))
        assert pt.c_s < 0.0

    def test_bounds(self):
        for eta in (0.1, 0.5, 0.9):
            for dth in (0.0, 0.3, 1.2):
                link = LinkBudget(eta_c=eta)
                pt = secrecy_capacity(CapacityParams(p1=0.2, delta_theta=dth, link=link))
                assert 0.0 <= pt.i_ab <= pt.q_aba + 1e-15
                assert 0.0 <= pt.i_be_bound <= pt.q_ab + 1e-15
                assert abs(pt.c_s) <= 1.0 + 1e-15


class TestEtaThreshold:
    def test_reference_points(self):
        assert eta_threshold(0.1, 0.0) == pytest.approx(0.4823, abs=0.002)
        assert eta_threshold(0.1, math.pi / 400) == pytest.approx(0.4825, abs=0.002)
        assert eta_threshold(0.4, math.pi / 40) == pytest.approx(0.8278, abs=0.002)

    def test_capacity_changes_sign_at_root(self):
        star = eta_threshold(0.2, 0.0)
        below = secrecy_capacity(CapacityParams(p1=0.2, link=LinkBudget(eta_c=star - 1e-4))).c_s
        above = secrecy_capacity(CapacityParams(p1=0.2, link=LinkBudget(eta_c=star + 1e-4))).c_s
        assert below < 0 < above

    def test_monotone_above_threshold(self):
        star = eta_threshold(0.1, 0.0)
        values = [
            secrecy_capacity(CapacityParams(p1=0.1, link=LinkBudget(eta_c=e))).c_s
            for e in [star + k * (1 - star) / 200 for k in range(201)]
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_no_threshold_when_never_secure(self):
        # strong rotation keeps the capacity negative on the whole range
        assert eta_threshold(0.001, math.pi / 4) is None

    def test_tiny_operating_point_found_below_scan_floor(self):
        # roots scale with p1 and drop below the linear scan resolution;
        # the log tail must still find them with a real sign change
        star = eta_threshold(1e-5, 0.0)
        assert star == pytest.approx(1.8e-4, rel=0.05)
        above, below = LinkBudget(eta_c=star * 1.01), LinkBudget(eta_c=star * 0.99)
        assert secrecy_capacity(CapacityParams(p1=1e-5, link=above)).c_s > 0
        assert secrecy_capacity(CapacityParams(p1=1e-5, link=below)).c_s < 0
        assert l_max(1e-5, 0.0, eta_c=0.95) == pytest.approx(186.1, abs=0.5)

    def test_p1_validation(self):
        with pytest.raises(ValueError):
            eta_threshold(0.0, 0.0)
        with pytest.raises(ValueError):
            eta_threshold(1.0, 0.0)


class TestMaxDistance:
    def test_reference_points(self):
        assert l_max(0.1, math.pi / 400, eta_c=0.95) == pytest.approx(14.72, abs=0.2)
        assert l_max(0.001, 0.0, eta_c=0.95) == pytest.approx(95.8, abs=0.5)

    def test_unreachable(self):
        # threshold above what the lossless link can deliver
        assert l_max(0.5, 0.0, eta_c=0.5) is None

    def test_never_secure(self):
        assert l_max(0.001, math.pi / 4, eta_c=0.95) is None

    def test_lossless_fiber_has_no_limit(self):
        assert l_max(0.1, math.pi / 400, eta_c=0.95, alpha_db_per_km=0.0) == math.inf
        assert l_max(0.001, 0.0, alpha_db_per_km=0.0) == math.inf
        # lossless fiber cannot lift a link that misses the threshold at L = 0
        assert l_max(0.5, 0.0, eta_c=0.5, alpha_db_per_km=0.0) is None

    def test_link_distance_is_ignored(self):
        assert l_max(0.1, math.pi / 400, distance_km=50.0) == l_max(0.1, math.pi / 400)

    def test_no_root_reads_capacity_at_full_efficiency(self):
        # without a threshold the distance is unlimited iff C_S(eta = 1) > 0
        assert max_distance(0.1, 0.0, LinkBudget(), eta_star=None) == math.inf
        assert max_distance(0.001, math.pi / 4, LinkBudget(), eta_star=None) is None

    def test_threshold_is_required(self):
        with pytest.raises(TypeError):
            max_distance(0.1, 0.0, LinkBudget(eta_c=0.95))


class TestDeltaThetaThreshold:
    def test_reference_point(self):
        star = delta_theta_threshold(0.1)
        assert star == pytest.approx(0.2547, rel=0.02)
        assert star == pytest.approx(0.25655, abs=5e-4)  # frozen regression value

    def test_noise_robust_point(self):
        assert delta_theta_threshold(0.429) is None

    def test_root_brackets_sign_change(self):
        star = delta_theta_threshold(0.3)
        above = secrecy_capacity(CapacityParams(p1=0.3, delta_theta=star - 1e-4)).c_s
        below = secrecy_capacity(CapacityParams(p1=0.3, delta_theta=star + 1e-4)).c_s
        assert above > 0 > below

    def test_midrange_minimum_regime(self):
        # high operating points keep a positive capacity at the half-pi
        # rotation where the round-trip error vanishes
        pt = secrecy_capacity(CapacityParams(p1=0.429, delta_theta=math.pi / 2))
        assert pt.budget.e_aba == pytest.approx(0.0, abs=1e-12)
        assert pt.c_s > 0.4

    @pytest.mark.parametrize("p1", [0.1, 0.3, 0.429])
    def test_scan_closure_is_secrecy_capacity(self, p1):
        # the closure the threshold and criterion 4 scan gives C_S at eta = 1
        # to the bit
        cs = _cs_of_delta_theta(p1, REFERENCE_CONFIG)
        for k in range(201):
            dth = 1e-4 + k * (math.pi - 2e-4) / 200
            assert cs(dth) == secrecy_capacity(CapacityParams(p1=p1, delta_theta=dth)).c_s


class TestFidelity:
    def test_mapping(self):
        assert fidelity_pair(0.2547)[0] == pytest.approx(0.9365, abs=5e-4)
        assert fidelity_pair(0.5912)[0] == pytest.approx(0.6894, abs=5e-4)
        assert fidelity_pair(0.0) == (1.0, 1.0)

    def test_pair_includes_two_trip_reading(self):
        one, two = fidelity_pair(0.2547)
        assert one == pytest.approx(math.cos(0.2547) ** 2, abs=1e-15)
        assert two == pytest.approx(math.cos(0.5094) ** 2, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fidelity_pair(-0.1)


class TestPracticalEfficiency:
    def test_unit_capacity(self):
        eff = EfficiencyParams(r_rep_hz=1e7, p_s=1.0)
        assert practical_efficiency(1.0, eff) == pytest.approx(2.5e6, abs=1e-6)

    def test_zero_capacity(self):
        assert practical_efficiency(0.0, EfficiencyParams()) == 0.0

    def test_negative_capacity_floored(self):
        assert practical_efficiency(-0.3, EfficiencyParams()) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EfficiencyParams(r_rep_hz=0)
        with pytest.raises(ValueError):
            EfficiencyParams(p_s=1.5)


class TestSweep:
    def test_eta_axis(self):
        eff = EfficiencyParams()
        cols = sweep("eta", [0.3, 0.6, 0.9], [0.1], eff)
        assert cols.axis == cols.q_ab == [0.3, 0.6, 0.9]
        assert cols.e_s == [practical_efficiency(c, eff) for c in cols.c_s]

    def test_distance_axis_maps_gains(self):
        link = LinkBudget(eta_c=0.95)
        cols = sweep("L", [0.0, 10.0, 20.0], [0.1], EfficiencyParams(), link=link)
        assert cols.q_ab[0] == pytest.approx(0.95)
        assert cols.q_ab[0] > cols.q_ab[1] > cols.q_ab[2]

    def test_delta_theta_axis_runs_lossless(self):
        # a link is read on the distance axis only
        cols = sweep("delta_theta", [0.0, 0.1], [0.2], EfficiencyParams(),
                     link=LinkBudget(eta_c=0.5))
        assert cols.q_ab == cols.q_aba == [1.0, 1.0]
        assert cols.c_s[0] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep("loss", [1.0], [0.1], EfficiencyParams())

    def test_efficiency_floor_in_sweep(self):
        cols = sweep("eta", [0.05], [0.1], EfficiencyParams())
        assert cols.c_s[0] < 0 and cols.e_s == [0.0]


def scalar_params(axis: str, v: float, p1: float, dth: float = 0.0,
                  link: LinkBudget = LinkBudget(), config: BasisConfig = REFERENCE_CONFIG):
    """The operating point of one sweep row, built as a scalar evaluation."""
    if axis == "eta":
        return CapacityParams(p1=p1, delta_theta=dth, config=config, link=LinkBudget(eta_c=v))
    if axis == "L":
        return CapacityParams(p1=p1, delta_theta=dth, config=config,
                              link=replace(link, distance_km=v))
    return CapacityParams(p1=p1, delta_theta=v, config=config)


def _bits(values) -> list:
    """Values with the sign of each zero, which the CSV prints as 0 or -0."""
    return [(v, math.copysign(1.0, v)) if isinstance(v, float) else v for v in values]


def assert_sweep_equals_scalar(axis, grid, p1s, efficiency, dth=0.0, link=LinkBudget(),
                               config=REFERENCE_CONFIG):
    """Every column of the sweep equals secrecy_capacity at its point, bit for
    bit, in P1-major order; returns the c_s column."""
    cols = sweep(axis, grid, p1s, efficiency, delta_theta=dth, link=link, config=config)
    got = list(zip(cols.axis, cols.p1, cols.delta_theta, cols.q_ab, cols.q_aba, cols.e_ab,
                   cols.e_aba, cols.i_ab, cols.i_be, cols.c_s, cols.e_s))
    want = []
    for p1 in p1s:
        for v in grid:
            params = scalar_params(axis, v, p1, dth, link, config)
            pt = secrecy_capacity(params)
            want.append((v, p1, params.delta_theta, pt.q_ab, pt.q_aba,
                         pt.budget.total_one_way, pt.budget.total_round_trip,
                         pt.i_ab, pt.i_be_bound, pt.c_s, practical_efficiency(pt.c_s, efficiency)))
    assert got == want
    assert [_bits(row) for row in got] == [_bits(row) for row in want]
    return cols.c_s


@given(
    axis=st.sampled_from(("eta", "L", "delta_theta")),
    n=st.sampled_from((3, 5, 8, 16)),
    theta=st.one_of(st.just(math.pi / 4), st.floats(0.1, 1.4)),
    p1_fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    dth=st.one_of(st.just(0.0), st.floats(-0.4, 0.4)),
    factors=st.tuples(*[st.floats(0.0, 1.0)] * 4),
    efficiency=st.builds(EfficiencyParams, r_rep_hz=st.floats(1.0, 1e9), p_s=st.floats(0.0, 1.0)),
)
@settings(max_examples=200, deadline=None)
def test_sweep_columns_equal_scalar_capacity(axis, n, theta, p1_fractions, grid, dth, factors,
                                            efficiency):
    config = BasisConfig(n=n, theta=theta)
    ideal = [single_offset_model(n, d, theta).p_g0(0.0) for d in range(n)]
    lo, hi = min(ideal), max(ideal)
    p1s = [min(max(lo + f * (hi - lo), lo), hi) for f in p1_fractions]
    eta_c, eta_m, eta_d, alpha = factors
    link = LinkBudget(alpha_db_per_km=alpha, eta_c=eta_c, eta_m=eta_m, eta_d=eta_d)
    scale = {"eta": 1.0, "L": 200.0, "delta_theta": 1.0}[axis]
    grid = [scale * v for v in grid]
    # and on both sides of a root, where C_S changes sign: the solvers
    # return it to within 1e-3 of itself (eta*) or 1e-6 (dth*)
    p1, root = p1s[0], None
    if 0.0 < p1 < 1.0 and axis == "eta":
        root = eta_threshold(p1, dth, config=config)
    elif 0.0 < p1 < 1.0 and axis == "delta_theta":
        root = delta_theta_threshold(p1, config=config)
    if root is not None:
        d = 2e-3 * root if axis == "eta" else 2e-6
        grid += [root - d, root, min(root + d, 1.0)]
    c_s = assert_sweep_equals_scalar(axis, grid, p1s, efficiency, dth, link, config)
    if root is not None and root + d <= 1.0:
        below, _, above = c_s[len(grid) - 3:len(grid)]
        assert (below > 0.0) != (above > 0.0)


@pytest.mark.parametrize("axis, top", [("eta", 1.0), ("L", 200.0), ("delta_theta", 3.0)])
def test_dense_sweep_equals_scalar_capacity(axis, top):
    # a libm call swapped for its numpy version can differ on a few inputs in
    # a thousand (numpy's x**2 and pow(x, 2) do), which only a dense grid shows
    grid = [top * k / 10_000 for k in range(10_001)]
    assert_sweep_equals_scalar(axis, grid, [0.1], EfficiencyParams(), dth=0.0785398)


@pytest.mark.parametrize("axis, bad", [
    ("eta", 1.5), ("eta", -0.1), ("eta", math.nan), ("L", -1.0), ("L", math.nan),
    ("delta_theta", 1e308), ("delta_theta", 5e307),
])
def test_sweep_raises_the_scalar_error(axis, bad):
    # an out-of-domain grid value fails with the message of its scalar point
    with pytest.raises(ValueError) as scalar:
        secrecy_capacity(scalar_params(axis, bad, 0.1))
    with pytest.raises(ValueError) as columns:
        sweep(axis, [0.5, bad], [0.1, 0.4], EfficiencyParams())
    assert str(columns.value) == str(scalar.value)


def test_ideal_outcome_probability_reduces_to_cosine():
    # the unrotated outcome probability of offset d at pi/4 is cos^2(pi*d/n),
    # and the model of an offset drawn alone assigns its no-clicks at min(p, 1-p)
    for n in (3, 5, 8, 16):
        for d in range(n):
            want = math.cos(math.pi * d / n) ** 2
            model = single_offset_model(n, d, math.pi / 4)
            assert model.p_g0(0.0) == pytest.approx(want, abs=1e-12)
            assert model.assign == pytest.approx(min(want, 1.0 - want), abs=1e-12)
    # and at any angle it is |cos^2(theta) + e^{i phi} sin^2(theta)|^2, phi = 2*pi*d/n
    for theta in (0.3, 0.6, 1.2):
        for n, d in ((8, 0), (7, 1), (8, 2), (8, 4), (9, 7)):
            phi = 2 * math.pi * d / n
            want = abs(math.cos(theta) ** 2 + cmath.exp(1j * phi) * math.sin(theta) ** 2) ** 2
            assert single_offset_model(n, d, theta).p_g0(0.0) == pytest.approx(want, abs=1e-12)
