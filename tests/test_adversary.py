"""Blinding/fake-state attack model tests."""
import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from rdiqsdc import cli, protocol, seeding, verify
from rdiqsdc.adversary import (
    BlindingAttackParams,
    detection_power,
    eve_information,
    predict_attacked_distribution,
)
from rdiqsdc.devices import ChannelNoiseModel, LinkBudget
from rdiqsdc.protocol import (
    ProtocolParams,
    ProtocolRun,
    run_full_protocol,
)
from rdiqsdc.qstate import BasisConfig


def attack_run_params(r, p1, p2, target=0.1, seed=0, **kw) -> ProtocolParams:
    defaults = dict(
        r=r,
        config=BasisConfig(n=8),
        p1_target=target,
        link=LinkBudget(),
        noise=ChannelNoiseModel(),
        adversary=BlindingAttackParams(p1=p1, p2=p2),
        continue_on_abort=True,
        seed=seed,
    )
    defaults.update(kw)
    return ProtocolParams(**defaults)


class TestParams:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            BlindingAttackParams(p1=1.2, p2=0.5)
        with pytest.raises(ValueError):
            BlindingAttackParams(p1=0.5, p2=-0.1)


class TestPredictor:
    def test_no_attack_passthrough(self):
        assert predict_attacked_distribution(0.3, BlindingAttackParams(0.0, 0.9)) == 0.3

    def test_full_attack_far_bases(self):
        assert predict_attacked_distribution(0.3, BlindingAttackParams(1.0, 0.0)) == 0.0

    def test_mixed_point(self):
        got = predict_attacked_distribution(0.2, BlindingAttackParams(0.4, 0.25))
        assert got == pytest.approx(0.22, abs=1e-12)

    def test_half_target_is_invisible(self):
        # the operating point at one half cannot expose this attack
        for p1 in (0.1, 0.5, 1.0):
            got = predict_attacked_distribution(0.5, BlindingAttackParams(p1, 0.5))
            assert got == pytest.approx(0.5, abs=1e-12)


class TestBlindAndFake:
    def test_always_close_clicks_zero(self):
        # every slot attacked with close-basis forgeries: both checking
        # rounds and the decoder see clicks reading g=0, lost photons or not
        params = attack_run_params(500, 1.0, 1.0, seed=3, link=LinkBudget(eta_c=0.5))
        cols = run_full_protocol(params).photons
        assert np.all(cols.attacked) and np.all(cols.clicked)
        assert np.all(cols.g == 0)

    def test_never_close_clicks_one(self):
        params = attack_run_params(500, 1.0, 0.0, seed=3, link=LinkBudget(eta_c=0.5))
        cols = run_full_protocol(params).photons
        assert np.all(cols.clicked) and np.all(cols.g == 1)

    def test_closeness_frequency(self):
        run = ProtocolRun(attack_run_params(20_000, 1.0, 0.3, seed=1))
        run.step1_prepare()
        run.step2_transmit_to_bob()
        report = run.step3_first_check()
        band = 5.0 * math.sqrt(0.3 * 0.7 / 20_000)
        assert report.n_clicked == 20_000
        assert abs(report.empirical_p_g0 - 0.3) <= band


class TestFirstCheckByHand:
    # attack-scan and verify's attack criterion run steps 1-3 through
    # protocol.run_first_check; their report is the first check of a full
    # run on the same attacked, lossy, noisy parameters, whatever the worker
    # count of the full run
    LINK = LinkBudget(distance_km=5.0, eta_c=0.9, eta_m=0.95, eta_d=0.8)
    # wide enough that dropping the spread changes first-round outcomes
    NOISE = ChannelNoiseModel(delta_theta=0.05, spread=0.2)

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(protocol, "_ENGINE_BLOCK", 777)

    def full_check1(self, workers, *job):
        params = attack_run_params(*job, link=self.LINK, noise=self.NOISE)
        return params, protocol.run_full_protocol(params, workers=workers).check1

    @pytest.mark.parametrize("workers", [1, 3])
    def test_attack_scan_point(self, monkeypatch, workers):
        params, want = self.full_check1(workers, 3000, 0.3, 0.5, 0.1, 7)
        reports = []
        step3 = ProtocolRun.step3_first_check

        def keep(run):
            reports.append(step3(run))
            return reports[-1]

        monkeypatch.setattr(ProtocolRun, "step3_first_check", keep)
        row = cli._attack_point((params, 0.1, want.tolerance))
        assert reports == [want]
        assert (row[3], row[5]) == (want.empirical_p_g0, int(not want.passed))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_verify_first_check(self, monkeypatch, workers):
        _, want = self.full_check1(workers, 3000, 0.3, 0.5, 0.1, 7)
        # the criterion's runs are lossless and noiseless; give them this link
        monkeypatch.setattr(verify, "ProtocolParams",
                            functools.partial(ProtocolParams, link=self.LINK, noise=self.NOISE))
        assert verify._first_check((3000, 0.3, 0.5, 0.1, 7)) == want


def intercepted_counts(r, seed):
    """Bits the interceptor reads right under an all-zero and an all-one
    payload, and the number of its matched-basis S3 slots.

    Every slot is attacked and the interceptor's bases and coin flips do
    not depend on the payload, so a slot read in the matched basis is
    right under both payloads and a guessed slot under exactly one.
    """
    params = attack_run_params(r, 1.0, 0.5, seed=seed)
    right = []
    for bit in (0, 1):
        run = ProtocolRun(params, message=[bit] * r)
        result = run.run()
        right.append(round(result.attack.eve_correct_fraction * r))
    # the interceptor's bases, as the run draws them
    eve_basis = seeding.stream(params.seed, "adv-basis").integers(1, params.config.n + 1,
                                                                 size=3 * r)
    s3 = run.ledger.s3_pos
    matched = int(np.sum(eve_basis[s3] == run.ledger.prep[s3]))
    return right, matched


class TestSecondPassIntercept:
    def test_matched_basis_reads_bit_exactly(self):
        (right0, right1), matched = intercepted_counts(4_000, seed=5)
        assert 0 < matched < 4_000
        assert right0 + right1 - 4_000 == matched

    def test_unmatched_basis_guesses(self):
        r = 20_000
        (right0, _), matched = intercepted_counts(r, seed=3)
        guessed = r - matched
        band = 5.0 * math.sqrt(0.25 / guessed)
        assert abs((right0 - matched) / guessed - 0.5) <= band


class TestDetectionPower:
    def test_strong_shift_detected(self):
        power = detection_power(0.1, BlindingAttackParams(0.5, 0.5), 10_000, 0.0269)
        assert power > 0.999

    def test_no_shift_false_positive_rate(self):
        from rdiqsdc.protocol import hoeffding_tolerance

        tol = hoeffding_tolerance(10_000, 1e-6)
        power = detection_power(0.5, BlindingAttackParams(0.5, 0.5), 10_000, tol)
        assert power <= 1e-6

    def test_monotone_in_shift(self):
        tol = 0.01
        powers = [
            detection_power(0.1, BlindingAttackParams(p1, 1.0), 5_000, tol)
            for p1 in (0.0, 0.1, 0.2, 0.4, 0.8)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(powers, powers[1:]))

    def test_monotone_in_sample_size(self):
        params = BlindingAttackParams(0.3, 0.9)
        powers = [
            detection_power(0.1, params, m, 0.02) for m in (100, 1_000, 10_000, 100_000)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(powers, powers[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            detection_power(0.1, BlindingAttackParams(0.5, 0.5), 0, 0.01)
        with pytest.raises(ValueError):
            detection_power(0.1, BlindingAttackParams(0.5, 0.5), 100, -0.01)


def check_window(m, target, tol):
    """(lo, hi): the counts of g=0 that pass the first check, as
    detection_power bounds them."""
    lo = max(math.ceil(m * (target - tol) - 1e-12), 0)
    hi = min(math.floor(m * (target + tol) + 1e-12), m)
    return lo, hi


def binomial_weights(m, q):
    """(w, d^m) with P(K = k) = w[k] / d^m exactly, K ~ Bin(m, q), for the
    float q = a/d; w[k] = C(m, k) a^k (d - a)^(m - k)."""
    a, d = q.as_integer_ratio()
    w = [(d - a) ** m]
    for k in range(m):
        w.append(w[-1] * (m - k) * a // ((k + 1) * (d - a)))
    return w, d**m


def exact_abort(weights, lo, hi):
    w, total = weights
    return Fraction(sum(w[:lo]) + sum(w[hi + 1:]), total) if lo <= hi else Fraction(1)


def assert_nearest_double(got, exact):
    # no double lies closer to the exact value (ties either way)
    assert abs(Fraction(got) - exact) <= Fraction(math.ulp(got)) / 2, (got, float(exact))


# (target, tolerance) pairs: windows in the bulk, off to either side of
# the mode, a single count (empty at odd m when centred on m/2), the whole
# range and touching either end
ORACLE_WINDOWS = [(0.5, 0.0), (0.5, 0.02), (0.45, 0.1), (0.1, 0.05), (0.3, 0.1), (0.7, 0.1),
                  (0.9, 0.05), (0.0, 0.2), (1.0, 0.2), (0.5, 1.0), (0.97, 0.0)]
ORACLE_Q = [0.001, 0.05, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9, 0.97,
            predict_attacked_distribution(0.1, BlindingAttackParams(0.3, 0.9))]


class TestDetectionPowerOracles:
    """detection_power against exact values. With p1 = 1 the attacked
    distribution is p2 itself, so BlindingAttackParams(1.0, q) sets q."""

    @pytest.mark.parametrize("m", [1, 2, 7, 100, 1_000, 10_000])
    def test_fair_coin_against_integer_sums(self, m):
        # q = 0.5, as at criterion 9's undetectable point: each tail is a sum
        # of binomial coefficients over 2^m
        coeffs, total = binomial_weights(m, 0.5)
        assert total == 2**m and coeffs[m // 3] == math.comb(m, m // 3)
        for target, tol in ORACLE_WINDOWS + [(0.5, protocol.hoeffding_tolerance(m))]:
            lo, hi = check_window(m, target, tol)
            exact = Fraction(sum(coeffs[:lo]) + sum(coeffs[hi + 1:]), 2**m)
            got = detection_power(target, BlindingAttackParams(1.0, 0.5), m, tol)
            assert_nearest_double(got, exact)

    def test_criterion9_undetectable_point_exact(self):
        m = verify.REPLICA_M
        tol = protocol.hoeffding_tolerance(m)
        got = detection_power(0.5, BlindingAttackParams(0.5, 0.5), m, tol)
        lo, hi = check_window(m, 0.5, tol)
        assert_nearest_double(got, exact_abort(binomial_weights(m, 0.5), lo, hi))
        assert f"{got:.3g}" == "7e-08"

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 57, 200, 500])
    def test_against_exact_fractions(self, m):
        for q in ORACLE_Q:
            weights = binomial_weights(m, q)
            for target, tol in ORACLE_WINDOWS:
                got = detection_power(target, BlindingAttackParams(1.0, q), m, tol)
                assert_nearest_double(got, exact_abort(weights, *check_window(m, target, tol)))

    @pytest.mark.parametrize("m", [1, 10, 200, 500])
    def test_at_least_as_close_as_cdf_difference(self, m):
        binom = pytest.importorskip("scipy.stats").binom
        for q in ORACLE_Q:
            weights = binomial_weights(m, q)
            for target, tol in ORACLE_WINDOWS:
                lo, hi = check_window(m, target, tol)
                exact = exact_abort(weights, lo, hi)
                # the abort probability as it was computed through scipy
                cdf_difference = 1.0 - (binom.cdf(hi, m, q) - binom.cdf(lo - 1, m, q))
                got = detection_power(target, BlindingAttackParams(1.0, q), m, tol)
                assert abs(Fraction(got) - exact) <= abs(Fraction(float(cdf_difference)) - exact)

    @pytest.mark.parametrize("m", [10, 1_000, 100_000])
    def test_against_scipy_tails(self, m):
        binom = pytest.importorskip("scipy.stats").binom
        for q in ORACLE_Q:
            # and windows about the mode, where both tails are summed in full
            for target, tol in ORACLE_WINDOWS + [(q, 0.0), (q, 2.0 / math.sqrt(m))]:
                lo, hi = check_window(m, target, tol)
                want = binom.cdf(lo - 1, m, q) + binom.sf(hi, m, q)
                got = detection_power(target, BlindingAttackParams(1.0, q), m, tol)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_certain_count(self, q):
        # K = m*q for certain: the check aborts iff that count is outside the window
        for m in (1, 10, 10_000):
            for target, tol in ORACLE_WINDOWS:
                lo, hi = check_window(m, target, tol)
                got = detection_power(target, BlindingAttackParams(1.0, q), m, tol)
                assert got == (0.0 if lo <= m * q <= hi else 1.0)

    def test_empty_window_always_aborts(self):
        # no count k has |k/10 - 0.55| <= 0.01
        assert check_window(10, 0.55, 0.01) == (6, 5)
        assert detection_power(0.55, BlindingAttackParams(1.0, 0.5), 10, 0.01) == 1.0


class TestEngineIntegration:
    def test_p1_zero_matches_attack_free_bitwise(self):
        import dataclasses

        base = attack_run_params(3_000, 0.0, 0.7, seed=19)
        off = dataclasses.replace(base, adversary=None)
        with_adv = run_full_protocol(base)
        without = run_full_protocol(off)
        assert np.array_equal(with_adv.photons.g, without.photons.g)
        assert np.array_equal(with_adv.photons.clicked, without.photons.clicked)
        assert with_adv.check1 == without.check1
        assert with_adv.check2 == without.check2
        assert np.array_equal(with_adv.frame.decoded, without.frame.decoded)

    def test_full_attack_forces_all_clicks(self):
        result = run_full_protocol(attack_run_params(2_000, 1.0, 1.0, seed=23))
        assert result.check1.empirical_p_g0 == 1.0
        assert result.check1.n_clicked == 2_000

    def test_empirical_matches_predictor_small_grid(self):
        r = 20_000
        for i, (p1, p2) in enumerate([(0.25, 0.75), (0.5, 0.5), (0.75, 0.0)]):
            result = run_full_protocol(attack_run_params(r, p1, p2, seed=31 + i))
            q = predict_attacked_distribution(0.1, BlindingAttackParams(p1, p2))
            band = 5.0 * math.sqrt(q * (1 - q) / r)
            assert abs(result.check1.empirical_p_g0 - q) <= band

    def test_attack_summary_reports_predictor(self):
        result = run_full_protocol(attack_run_params(5_000, 0.5, 0.5, seed=37))
        assert result.attack is not None
        want = predict_attacked_distribution(
            result.check1.theoretical_p_g0, BlindingAttackParams(0.5, 0.5)
        )
        assert result.attack.predicted_p_g0 == pytest.approx(want, abs=1e-12)
        assert 0.0 <= result.attack.eve_correct_fraction <= 1.0
        assert 0.0 <= result.attack.eve_info_per_bit <= 1.0

    def test_attacked_message_bits_leak(self):
        # with every slot attacked, the interceptor reads a clear majority
        # of the payload: exact hits on matched bases plus coin flips
        result = run_full_protocol(attack_run_params(20_000, 1.0, 0.5, seed=41))
        assert result.attack.eve_correct_fraction > 0.5


class TestEveInformation:
    def test_extremes(self):
        assert eve_information(1.0) == 1.0
        assert eve_information(0.0) == 1.0  # anti-correlated is fully informative
        assert eve_information(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_bounds(self):
        for p in np.linspace(0, 1, 21):
            assert 0.0 <= eve_information(float(p)) <= 1.0
