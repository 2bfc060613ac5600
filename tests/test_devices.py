"""Device-model tests: link budget arithmetic, memory efficiency, the
channel noise model, and how the photon engine applies them to channel
transmission, storage, detection and encoding."""
import dataclasses
import math

import numpy as np
import pytest

from rdiqsdc.adversary import BlindingAttackParams
from rdiqsdc.devices import (
    ChannelNoiseModel,
    LinkBudget,
    LossSite,
    memory_efficiency,
)
from rdiqsdc.protocol import (
    _SITE_CODE,
    ProtocolParams,
    ProtocolRun,
    run_full_protocol,
)
from rdiqsdc.qstate import BasisConfig


def engine_params(r=500, n=8, target=0.1, seed=0, **kw) -> ProtocolParams:
    defaults = dict(
        r=r, config=BasisConfig(n=n),
        p1_target=target,
        link=LinkBudget(), noise=ChannelNoiseModel(), continue_on_abort=True,
        seed=seed,
    )
    defaults.update(kw)
    return ProtocolParams(**defaults)


def run_first_check(params: ProtocolParams) -> ProtocolRun:
    """Engine run stopped after step 3, the first checking round."""
    run = ProtocolRun(params)
    run.step1_prepare()
    run.step2_transmit_to_bob()
    run.step3_first_check()
    return run


def arrived_at_bob(result) -> np.ndarray:
    """Per photon, whether it passed the outbound fiber and coupling, from
    the transcript's loss columns: a photon lost there is never measured,
    so its site and leg are final."""
    cols = result.photons
    lost = np.isin(cols.loss_site, [_SITE_CODE[LossSite.FIBER], _SITE_CODE[LossSite.COUPLING]])
    return ~(lost & (cols.loss_leg == 1))


class TestLinkBudget:
    def test_attenuation_law(self):
        # 50 km at 0.2 dB/km is exactly one order of magnitude
        link = LinkBudget(distance_km=50.0)
        assert link.eta_t == pytest.approx(0.1, abs=1e-12)

    def test_zero_distance(self):
        assert LinkBudget().eta_t == 1.0

    def test_distance_efficiency_crosscheck(self):
        # 14.71 km with eta_c = 0.95 sits at the 0.4825 operating point
        link = LinkBudget(distance_km=14.71, eta_c=0.95)
        assert link.q_ab == pytest.approx(0.4825, abs=5e-4)

    def test_gain_formulas(self):
        link = LinkBudget(distance_km=10, eta_c=0.9, eta_m=0.8, eta_d=0.7)
        eta_t = 10 ** (-0.2 * 10 / 10)
        assert link.q_ab == pytest.approx(eta_t * 0.9 * 0.8 * 0.7, abs=1e-12)
        assert link.q_aba == pytest.approx(eta_t**2 * 0.9**2 * 0.8**2 * 0.7, abs=1e-12)

    def test_gain_ordering(self):
        for d in (0.0, 1.0, 25.0):
            link = LinkBudget(distance_km=d, eta_c=0.9, eta_m=0.95, eta_d=0.99)
            assert 0.0 <= link.q_aba <= link.q_ab <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(distance_km=-1)
        with pytest.raises(ValueError):
            LinkBudget(eta_c=1.5)
        with pytest.raises(ValueError):
            LinkBudget(eta_d=-0.1)


def test_memory_efficiency_eleven_trips():
    # 91% aggregate survival over 11 round trips
    per_trip = 0.91 ** (1.0 / 11.0)
    assert memory_efficiency(per_trip, 11) == pytest.approx(0.91, abs=1e-12)
    assert memory_efficiency(0.5, 0) == 1.0


class TestChannelNoiseModel:
    def test_interval_family_bounds(self):
        model = ChannelNoiseModel(delta_theta=0.1, spread=0.02)
        draws = model.draw(10_000, np.random.default_rng(1))
        assert np.all(draws >= 0.08) and np.all(draws <= 0.12)
        assert np.std(draws) > 0

    def test_two_leg_rotation_bound_must_be_finite(self):
        # the largest bound that stays finite is accepted, and its two-leg
        # sum stays finite too
        model = ChannelNoiseModel(delta_theta=-8e307)
        assert np.isfinite(2 * model.draw(1, np.random.default_rng(0))).all()
        for kw in (dict(delta_theta=1e308), dict(delta_theta=-1e308),
                   dict(delta_theta=5e307, spread=5e307), dict(delta_theta=math.nan)):
            with pytest.raises(ValueError, match="two-leg rotation bound"):
                ChannelNoiseModel(**kw)


class TestTransmit:
    def test_ideal_link_applies_rotation(self):
        # every photon survives a lossless link and carries one rotation per
        # trip: check photons of S1 travel once, returned photons twice
        params = engine_params(noise=ChannelNoiseModel(delta_theta=0.3))
        cols = run_full_protocol(params).photons
        assert np.all(cols.loss_site == _SITE_CODE[LossSite.NONE])
        one_trip = cols.sequence == 1
        assert np.allclose(cols.rotation[one_trip], 0.3, rtol=0, atol=1e-12)
        assert np.allclose(cols.rotation[~one_trip], 0.6, rtol=0, atol=1e-12)

    def test_total_fiber_loss(self):
        params = engine_params(link=LinkBudget(distance_km=1000.0))  # eta_t ~ 1e-20
        cols = run_full_protocol(params).photons
        assert np.all(cols.loss_site == _SITE_CODE[LossSite.FIBER])
        assert np.all(cols.loss_leg == 1)

    def test_coupling_loss_site(self):
        cols = run_full_protocol(engine_params(link=LinkBudget(eta_c=0.0))).photons
        assert np.all(cols.loss_site == _SITE_CODE[LossSite.COUPLING])
        assert np.all(cols.loss_leg == 1)

    def test_lost_photon_passthrough(self):
        # a photon lost on the way out is not sent back: it takes no
        # return-leg rotation and is never lost a second time
        params = engine_params(
            link=LinkBudget(eta_c=0.0), noise=ChannelNoiseModel(delta_theta=0.3)
        )
        cols = run_full_protocol(params).photons
        assert not np.any(cols.loss_leg == 2)
        assert np.allclose(cols.rotation, 0.3, rtol=0, atol=1e-12)
        assert not np.any(cols.clicked)

    def test_survival_frequency(self):
        # one-way survival through fiber and coupling at 5 sigma, N ~ 1e5
        link = LinkBudget(distance_km=15.0, eta_c=0.9)
        p = link.eta_t * link.eta_c
        at_bob = arrived_at_bob(run_full_protocol(engine_params(r=33_334, seed=11, link=link)))
        band = 5.0 * math.sqrt(p * (1 - p) / len(at_bob))
        assert abs(np.mean(at_bob) - p) <= band


class TestStorageLoop:
    def test_store_then_read_is_identity(self):
        # two lossless storage episodes leave the state untouched: matched
        # second-round bases read g=0 and the payload decodes exactly
        params = engine_params(n=5, target=1.0, seed=2, link=LinkBudget(eta_m=1.0))
        result = run_full_protocol(params)
        assert result.check2.empirical_p_g0 == 1.0
        assert np.array_equal(result.frame.decoded, result.frame.payload)
        assert not np.any(result.photons.loss_site == _SITE_CODE[LossSite.MEMORY])

    def test_cumulative_survival(self):
        # per-trip survival tuned so 11 trips retain about 91%
        per_trip = 0.91 ** (1.0 / 11.0)
        link = LinkBudget(eta_m=memory_efficiency(per_trip, 11))
        result = run_full_protocol(engine_params(r=20_000, seed=3, link=link))
        n = int(np.sum(arrived_at_bob(result)))
        band = 5.0 * math.sqrt(0.91 * 0.09 / n)
        assert abs(np.sum(result.run.trip1.alive) / n - 0.91) <= band


class TestDetect:
    def test_eigenstate_clicks_zero(self):
        # target 1.0 forces offset 0: each check photon is measured in its
        # own preparation basis
        cols = run_full_protocol(engine_params(target=1.0)).photons
        s1 = cols.sequence == 1
        assert np.array_equal(cols.basis[s1], cols.prep[s1])
        assert np.all(cols.clicked[s1]) and np.all(cols.g[s1] == 0)

    def test_dead_detector_never_clicks(self):
        cols = run_full_protocol(engine_params(link=LinkBudget(eta_d=0.0))).photons
        assert not np.any(cols.clicked) and np.all(cols.g == -1)
        assert np.all(cols.loss_site == _SITE_CODE[LossSite.DETECTOR])

    def test_lost_photon_never_clicks(self):
        result = run_full_protocol(engine_params(link=LinkBudget(eta_c=0.0)))
        assert not np.any(result.photons.clicked)
        assert np.all(result.frame.decoded == -1)

    def test_blinded_detector_forced_outcome(self):
        # offset 0 would give g=0 unblinded; far-basis forged pulses read g=1
        params = engine_params(target=1.0, adversary=BlindingAttackParams(1.0, 0.0))
        run = run_first_check(params)
        assert np.all(run.round1.clicked) and np.all(run.round1.g == 1)

    def test_blinded_detector_ignores_real_photons(self):
        # linear mode responds to pulse power, not to single photons: the
        # same forged pulses give the same clicks whether or not any photon
        # arrives
        params = engine_params(adversary=BlindingAttackParams(1.0, 0.5))
        lit = run_full_protocol(params).photons
        dark = run_full_protocol(
            dataclasses.replace(params, link=LinkBudget(eta_c=0.0))
        ).photons
        assert np.all(lit.clicked) and np.all(dark.clicked)
        assert np.array_equal(lit.g, dark.g)

    def test_outcome_frequency(self):
        # n=3 with target 0.25 uses a single offset whose P(g=0) is 0.25
        run = run_first_check(engine_params(r=100_000, n=3, target=0.25, seed=5))
        g = run.round1.g[run.round1.clicked]
        band = 5.0 * math.sqrt(0.25 * 0.75 / len(g))
        assert abs(np.mean(g == 0) - 0.25) <= band


def test_encode_photon_records_operation():
    # the encoder acts on S3 only: message bits are recorded there, and the
    # sigma_z flip of each 1 bit is read back in decoding
    run = ProtocolRun(engine_params(seed=1))
    result = run.run()
    cols, s3 = result.photons, run.ledger.s3_pos
    outside = np.ones(len(cols), dtype=bool)
    outside[s3] = False
    assert np.array_equal(cols.message_bit[s3], run.payload)
    assert np.all(cols.message_bit[outside] == -1)
    assert not np.any(cols.secret_flip[outside])
    assert 0 < int(np.sum(run.payload)) < run.r
    assert np.array_equal(result.frame.decoded, run.payload)
