"""Protocol engine tests: basis policy, the six steps, checking rounds,
decoding, bookkeeping invariants, and the transcript export."""
import dataclasses
import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rdiqsdc import analysis, protocol, seeding, verify
from rdiqsdc.adversary import BlindingAttackParams
from rdiqsdc.devices import ChannelNoiseModel, LinkBudget
from rdiqsdc.protocol import (
    OffsetDistribution,
    ProtocolParams,
    ProtocolRun,
    ProtocolViolation,
    Round2Mode,
    _SITE_NAME,
    hoeffding_tolerance,
    run_full_protocol,
    summary_record,
    write_transcript,
)
from rdiqsdc.qstate import BasisConfig


def params_for(r=1000, n=8, target=0.1, seed=0, **kw) -> ProtocolParams:
    defaults = dict(
        r=r, config=BasisConfig(n=n), p1_target=target,
        link=LinkBudget(), noise=ChannelNoiseModel(), seed=seed,
    )
    defaults.update(kw)
    return ProtocolParams(**defaults)


def mean_p_g0(offs) -> float:
    """Expected ideal P(g=0) of the check photons under an offset distribution
    at theta = pi/4."""
    return analysis.OffsetModel.of(offs, math.pi / 4).p_g0(0.0)


class TestBasisPolicy:
    def test_target_realized_exactly(self):
        # mixing the two bracketing offsets hits the target in expectation
        config = BasisConfig(n=16)
        offs = OffsetDistribution.of(config, 0.1)
        assert abs(sum(offs.weights) - 1.0) <= 1e-12
        assert mean_p_g0(offs) == pytest.approx(0.1, abs=1e-9)

    @pytest.mark.parametrize("n,target", [(8, 0.1), (8, 0.4), (5, 0.25), (16, 0.001)])
    def test_various_targets(self, n, target):
        offs = OffsetDistribution.of(BasisConfig(n=n), target)
        assert mean_p_g0(offs) == pytest.approx(target, abs=1e-9)

    def test_exact_atom_when_target_is_reachable_alone(self):
        offs = OffsetDistribution.of(BasisConfig(n=3), 0.25)
        assert len(offs.deltas) == 1 and offs.weights == (1.0,)

    def test_infeasible_target(self):
        # n=3 cannot reach below cos^2(pi/3) = 0.25
        with pytest.raises(ValueError, match=re.escape(
                "target 0.1 is outside the reachable range [0.25, 1] for n=3 at theta=0.785398")):
            OffsetDistribution.of(BasisConfig(n=3), 0.1)

    def test_infeasible_target_fails_before_step_one(self):
        # the run draws its offsets when it is made, not in step 3
        with pytest.raises(ValueError, match="outside the reachable range"):
            ProtocolRun(params_for(n=3, target=0.1))

    @pytest.mark.parametrize("n", [3, 5, 8, 16, 31])
    def test_uniform_mode_half(self, n):
        offs = OffsetDistribution.of(BasisConfig(n=n), None)
        assert mean_p_g0(offs) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_offset_distribution(self):
        # drawn offsets are uniform: multinomial 5-sigma per bin
        offs = OffsetDistribution.of(BasisConfig(n=3), None)
        draws = offs.draw(100_000, np.random.default_rng(0))
        for d in range(3):
            freq = np.mean(draws == d)
            band = 5.0 * math.sqrt((1 / 3) * (2 / 3) / 100_000)
            assert abs(freq - 1 / 3) <= band

    def test_half_target_is_a_single_offset(self):
        # at n = 8 one offset has ideal P(g=0) of one half and realizes the
        # target alone, so no-clicks cost min(P1, 1 - P1) = 0.5 as in the paper
        offs = OffsetDistribution.of(BasisConfig(n=8), 0.5)
        assert offs.deltas == (6,) and offs.weights == (1.0,)
        assert mean_p_g0(offs) == pytest.approx(0.5, abs=1e-12)
        # n = 3 has no such offset and mixes the two that bracket 0.5
        offs = OffsetDistribution.of(BasisConfig(n=3), 0.5)
        assert offs.deltas == (1, 0)
        assert offs.weights == pytest.approx((2 / 3, 1 / 3), abs=1e-12)
        assert mean_p_g0(offs) == pytest.approx(0.5, abs=1e-12)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match=re.escape("p1_target must lie in [0, 1], got 1.5")):
            ProtocolParams(r=1, config=BasisConfig(n=8), p1_target=1.5)


def test_params_seed_is_a_64_bit_word():
    ProtocolParams(r=1, config=BasisConfig(n=8), p1_target=None, seed=2**64 - 1)
    with pytest.raises(ValueError, match=re.escape(
            "seed must be an integer in [0, 18446744073709551615], got 18446744073709551616")):
        ProtocolParams(r=1, config=BasisConfig(n=8), p1_target=None, seed=2**64)


def test_hoeffding_tolerance_formula():
    m, eps = 10_000, 1e-6
    oracle = math.sqrt(math.log(2.0 / eps) / (2.0 * m))
    assert hoeffding_tolerance(m, eps) == pytest.approx(oracle, abs=1e-15)
    assert hoeffding_tolerance(m) == pytest.approx(0.026933861344527098, abs=1e-12)


class TestStep1:
    def test_minimal_run_partitions(self):
        run = ProtocolRun(params_for(r=1))
        led = run.step1_prepare()
        assert len(led.s1_pos) == len(led.s2_pos) == len(led.s3_pos) == 1
        assert sorted(np.concatenate([led.s1_pos, led.s2_pos, led.s3_pos])) == [0, 1, 2]

    def test_partition_sizes_and_indices(self):
        run = ProtocolRun(params_for(r=500))
        led = run.step1_prepare()
        together = np.concatenate([led.s1_pos, led.s2_pos, led.s3_pos])
        assert np.array_equal(np.sort(together), np.arange(1500))
        assert np.all((led.prep >= 1) & (led.prep <= 8))

    def test_secret_flips_only_on_message_photons(self):
        run = ProtocolRun(params_for(r=200, seed=3))
        led = run.step1_prepare()
        non_s3 = np.concatenate([led.s1_pos, led.s2_pos])
        assert not run.secret_flip[non_s3].any()
        assert 0 < run.secret_flip[led.s3_pos].sum() < 200  # coin lands both ways

    def test_message_validation(self):
        with pytest.raises(ProtocolViolation):
            ProtocolRun(params_for(r=4), message=[0, 1]).step1_prepare()
        with pytest.raises(ProtocolViolation):
            ProtocolRun(params_for(r=2), message=[0, 2]).step1_prepare()

    def test_explicit_message_used(self):
        result = run_full_protocol(params_for(r=8), message=[1, 0, 1, 1, 0, 0, 1, 0])
        assert list(result.frame.payload) == [1, 0, 1, 1, 0, 0, 1, 0]
        assert list(result.frame.decoded) == [1, 0, 1, 1, 0, 0, 1, 0]


class TestStepOrdering:
    def test_out_of_order_calls_rejected(self):
        run = ProtocolRun(params_for())
        with pytest.raises(ProtocolViolation):
            run.step3_first_check()
        run.step1_prepare()
        with pytest.raises(ProtocolViolation):
            run.step1_prepare()
        with pytest.raises(ProtocolViolation):
            run.step5_second_check()


class TestFirstCheck:
    def test_noiseless_lossless_passes(self):
        run = ProtocolRun(params_for(r=10_000, seed=5))
        run.step1_prepare()
        run.step2_transmit_to_bob()
        report = run.step3_first_check()
        assert report.theoretical_p_g0 == pytest.approx(0.1, abs=0.02)
        band = 5.0 * math.sqrt(0.1 * 0.9 / 10_000)
        assert abs(report.empirical_p_g0 - report.theoretical_p_g0) <= band
        assert report.passed

    @pytest.mark.parametrize("r", [1_000, 10_000, 100_000])
    def test_convergence_to_announced_pairs(self, r):
        run = ProtocolRun(params_for(r=r, seed=11))
        run.step1_prepare()
        run.step2_transmit_to_bob()
        report = run.step3_first_check()
        p = report.theoretical_p_g0
        band = 5.0 * math.sqrt(p * (1 - p) / r)
        assert abs(report.empirical_p_g0 - p) <= band

    def test_degenerate_loss_aborts(self):
        # everything lost at coupling: all slots assigned g=1, so the
        # observed distribution collapses to 0 and the check must abort
        params = params_for(
            r=2_000, target=0.25, link=LinkBudget(eta_c=0.0), tolerance=0.01
        )
        run = ProtocolRun(params)
        run.step1_prepare()
        run.step2_transmit_to_bob()
        report = run.step3_first_check()
        assert report.empirical_p_g0 == 0.0
        assert report.deviation == pytest.approx(report.theoretical_p_g0, abs=1e-12)
        assert report.theoretical_p_g0 == pytest.approx(0.25, abs=0.02)
        assert not report.passed


class TestSecondCheck:
    def test_matched_bases_project_onto_themselves(self):
        # target 1.0 forces offset 0: every photon measured in its own
        # preparation basis, so g=0 with certainty when noiseless
        params = params_for(r=500, target=1.0, seed=2)
        result = run_full_protocol(params)
        assert result.check2.theoretical_p_g0 == pytest.approx(1.0, abs=1e-12)
        assert result.check2.empirical_p_g0 == 1.0

    def test_two_trip_rotation_statistics(self):
        # matched pair after two rotated trips: P(g=0) = cos^2(2*dth)
        dth = math.pi / 40
        params = params_for(
            r=20_000, target=1.0, seed=9, noise=ChannelNoiseModel(delta_theta=dth)
        )
        result = run_full_protocol(params_for_tolerant(params))
        p = math.cos(2 * dth) ** 2
        assert p == pytest.approx(0.97553, abs=1e-5)
        band = 5.0 * math.sqrt(p * (1 - p) / 20_000)
        assert abs(result.check2.empirical_p_g0 - p) <= band

    def test_original_order_mode_self_consistent(self):
        # reusing the original basis order against the shuffled stream
        # still passes: theory and practice are computed on the same pairs
        params = params_for(r=20_000, seed=4, round2_mode=Round2Mode.ORIGINAL_ORDER)
        result = run_full_protocol(params)
        assert result.check2.passed
        # shuffled pairings land near the uniform-offset operating point
        assert result.check2.theoretical_p_g0 == pytest.approx(0.5, abs=0.05)

    def test_policy_mode_matches_round1_target(self):
        result = run_full_protocol(params_for(r=20_000, seed=4))
        assert result.check2.theoretical_p_g0 == pytest.approx(0.1, abs=0.02)


def params_for_tolerant(params: ProtocolParams) -> ProtocolParams:
    return dataclasses.replace(params, continue_on_abort=True)


class TestDecode:
    def test_noiseless_lossless_exact(self):
        result = run_full_protocol(params_for(r=1000, seed=1))
        assert result.frame.n_lost == 0 and result.frame.n_flipped == 0
        assert np.array_equal(result.frame.decoded, result.frame.payload)
        assert result.frame.n_ok == 1000

    def test_all_lost(self):
        params = params_for(r=200, link=LinkBudget(eta_c=0.0), continue_on_abort=True)
        result = run_full_protocol(params)
        assert result.frame.n_lost == 200
        assert result.frame.n_ok == result.frame.n_flipped == 0

    def test_flip_rate_under_rotation(self):
        # per-bit flip probability sin^2(2*dth) against the payload
        dth = 0.1
        params = params_for(
            r=20_000, seed=8, noise=ChannelNoiseModel(delta_theta=dth),
            continue_on_abort=True,
        )
        result = run_full_protocol(params)
        p_flip = math.sin(2 * dth) ** 2
        assert p_flip == pytest.approx(0.039469502998557456, abs=1e-12)
        band = 5.0 * math.sqrt(p_flip * (1 - p_flip) / 20_000)
        assert abs(result.frame.n_flipped / 20_000 - p_flip) <= band

    def test_secret_flip_cancels_in_decoding(self):
        # decoding measures against the exact pre-send state, so the
        # sender-side random flip never surfaces as bit errors
        result = run_full_protocol(params_for(r=2000, seed=13))
        run = ProtocolRun(params_for(r=2000, seed=13))
        run.step1_prepare()
        assert run.secret_flip.sum() > 0
        assert result.frame.n_flipped == 0


class TestShuffle:
    def test_round_trip_restores_order(self):
        # the announced original position of each S2 and S3 slot names the
        # photon the return trip carried in that slot
        for seed in range(20):
            result = run_full_protocol(params_for(r=64, seed=seed))
            ann, led, carried = result.announcements, result.ledger, result.run.trip2.pos
            assert np.array_equal(np.sort(np.concatenate([ann.s2p_slots, ann.s3p_slots])),
                                  np.arange(128))
            assert np.array_equal(led.s2_pos[ann.s2_original_positions], carried[ann.s2p_slots])
            assert np.array_equal(led.s3_pos[ann.s3_original_positions], carried[ann.s3p_slots])

    def test_criterion8_reads_the_announcements(self, monkeypatch):
        announce = ProtocolRun._announcements

        def swapped(self):
            ann = announce(self)
            positions = ann.s2_original_positions.copy()
            positions[[0, 1]] = positions[[1, 0]]
            return dataclasses.replace(ann, s2_original_positions=positions)

        monkeypatch.setattr(ProtocolRun, "_announcements", swapped)
        round_trip = verify.criterion8()[1]
        assert round_trip.name.startswith("shuffle/announce round-trip")
        assert not round_trip.passed and round_trip.obtained == "0/100 exact"

    def test_perm_is_bijection(self):
        run = ProtocolRun(params_for(r=128, seed=7))
        run.step1_prepare()
        run.step2_transmit_to_bob()
        run.step3_first_check()
        run.step4_encode_and_shuffle()
        led = run.ledger
        assert np.array_equal(np.sort(led.return_perm), np.arange(256))
        assert len(led.s2p_slots) == 128 and len(led.s3p_slots) == 128


class TestAbortFlow:
    def test_abort_surfaces_as_result(self):
        params = params_for(r=2000, link=LinkBudget(distance_km=30.0), tolerance=0.001)
        result = run_full_protocol(params)
        assert result.aborted_at_step == 3
        assert result.check2 is None and result.frame is None
        assert not result.completed

    def test_continue_on_abort_completes(self):
        params = params_for(
            r=2000, link=LinkBudget(distance_km=30.0), tolerance=0.001,
            continue_on_abort=True,
        )
        result = run_full_protocol(params)
        assert result.completed and result.frame is not None
        assert not result.check1.passed


class TestLazyResult:
    def test_columns_and_announcements_built_once_on_first_read(self, monkeypatch):
        # a run whose transcript is not written never builds the per-photon
        # columns; a read builds them once and later reads see the same object
        calls = Counter()
        for name in ("_columns", "_announcements"):
            def counted(self, _build=getattr(ProtocolRun, name), _name=name):
                calls[_name] += 1
                return _build(self)
            monkeypatch.setattr(ProtocolRun, name, counted)
        result = run_full_protocol(params_for(r=50, seed=3))
        summary_record(result)
        assert not calls
        assert result.photons is result.photons
        assert result.announcements is result.announcements
        assert calls == {"_columns": 1, "_announcements": 1}


class TestThreadPool:
    def test_run_joins_its_threads(self, monkeypatch):
        # verify forks its pool processes after simulate in the same process,
        # so run() leaves no thread behind, also when a step raises
        monkeypatch.setattr(protocol, "_ENGINE_BLOCK", 1000)
        before = threading.active_count()
        assert ProtocolRun(params_for(r=5000, seed=3)).run(workers=2).completed
        assert threading.active_count() == before
        with pytest.raises(ProtocolViolation):
            ProtocolRun(params_for(r=2, seed=3), message=[0, 2]).run(workers=2)
        assert threading.active_count() == before

    def test_more_threads_than_cores_match_one_thread(self, monkeypatch):
        # 97-photon blocks on 8 threads with a short switch interval: a block
        # that wrote outside its own part of a shared array would show here
        monkeypatch.setattr(protocol, "_ENGINE_BLOCK", 97)
        params = params_for(
            r=3000, seed=9, noise=ChannelNoiseModel(delta_theta=0.05, spread=0.02),
            link=LinkBudget(distance_km=5.0, eta_c=0.9, eta_m=0.95, eta_d=0.8),
            adversary=BlindingAttackParams(p1=0.3, p2=0.5), continue_on_abort=True,
        )
        serial = run_full_protocol(params)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_full_protocol(params, workers=8)
        finally:
            sys.setswitchinterval(interval)
        for name in vars(serial.photons):
            assert np.array_equal(getattr(pooled.photons, name), getattr(serial.photons, name))
        assert np.array_equal(pooled.frame.decoded, serial.frame.decoded)
        assert (pooled.check1, pooled.check2, pooled.stats, pooled.attack) == (
            serial.check1, serial.check2, serial.stats, serial.attack)

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            ProtocolRun(params_for(r=10)).run(workers=0)


class TestStreamsMade:
    # a run makes a stream only for values it reads: a stage at efficiency 1
    # draws nothing, a serial run draws the return shuffle when step 4 reads
    # it, and the secret coins are drawn when the transcript reads them
    LOSSY = LinkBudget(distance_km=10.0, eta_c=0.9, eta_m=0.8, eta_d=0.7)

    @pytest.fixture
    def made(self, monkeypatch):
        # the purposes of every stream made: seeding.stream (whole draws) and
        # seeding.positioned (engine blocks) both derive theirs here
        purposes = set()
        derive = seeding.seed_sequence

        def record(master, purpose):
            purposes.add(purpose)
            return derive(master, purpose)

        monkeypatch.setattr(seeding, "seed_sequence", record)
        return purposes

    def test_first_check_at_bare_efficiency_makes_no_unread_stream(self, made):
        run = ProtocolRun(params_for(r=3000, seed=4))
        run.step1_prepare()
        run.step2_transmit_to_bob()
        run.step3_first_check()
        assert made == {"partition", "prep", "message", "check1-offsets", "check1-born"}

    def test_lossy_run_makes_every_loss_and_click_stream(self, made):
        result = run_full_protocol(params_for(r=3000, seed=4, link=self.LOSSY,
                                              continue_on_abort=True))
        assert result.completed
        assert {"loss-fiber-ab", "loss-coupling-ab", "loss-memory-bob",
                "loss-fiber-ba", "loss-coupling-ba", "loss-memory-alice",
                "check1-click", "check2-click", "decode-click", "shuffle"} <= made
        assert "secret" not in made
        assert result.photons.secret_flip.any()
        assert "secret" in made

    def test_whole_draws_are_made_on_the_calling_thread(self, monkeypatch):
        # the blocks on the pool build their generators through
        # seeding.positioned; seeding.stream runs only where run() was called
        monkeypatch.setattr(protocol, "_ENGINE_BLOCK", 777)
        threads = []
        make = seeding.stream
        monkeypatch.setattr(seeding, "stream", lambda *args: threads.append(
            threading.current_thread()) or make(*args))
        params = params_for(r=3000, seed=4, link=self.LOSSY, continue_on_abort=True,
                            adversary=BlindingAttackParams(p1=0.3, p2=0.5))
        result = run_full_protocol(params, workers=3)
        assert result.photons.secret_flip.any()
        assert len(threads) == 7 and set(threads) == {threading.current_thread()}

    def test_runs_are_freed_without_the_cycle_collector(self):
        # a deferred draw that held the run would keep every run's arrays
        # until a collection: criterion 9's 85 first-check runs then peaked
        # at more than twice the memory
        params = params_for(r=3000, seed=4, continue_on_abort=True)
        gc.disable()
        try:
            run = ProtocolRun(params)
            run.step1_prepare()
            run.step2_transmit_to_bob()
            run.step3_first_check()
            first_check = weakref.ref(run)
            full = weakref.ref(run_full_protocol(params).run)
            del run
            assert first_check() is None and full() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("kw", [
        dict(link=LinkBudget()),
        dict(link=LOSSY),
        # every block-drawn stream: noise-*, adv-attack, adv-close-1/2 and
        # check*-offsets over the uniform policy's n weights
        dict(link=LOSSY, target=None, noise=ChannelNoiseModel(delta_theta=0.05, spread=0.2),
             adversary=BlindingAttackParams(p1=0.3, p2=0.5)),
        dict(link=LOSSY, round2_mode=Round2Mode.ORIGINAL_ORDER),
        # the offset index is stored in uint8 up to n = 128, in uint16 at n = 129
        dict(link=LOSSY, n=128, target=None),
        dict(link=LOSSY, n=129, target=None),
    ], ids=["bare", "lossy", "attacked-spread", "original-order", "n128", "n129"])
    def test_serial_and_threaded_runs_draw_the_same(self, monkeypatch, kw):
        monkeypatch.setattr(protocol, "_ENGINE_BLOCK", 777)
        params = params_for(r=3000, seed=4, continue_on_abort=True, **kw)
        serial = run_full_protocol(params)
        pooled = run_full_protocol(params, workers=3)
        assert np.array_equal(serial.ledger.return_perm, pooled.ledger.return_perm)
        assert serial.ledger.return_perm.dtype == pooled.ledger.return_perm.dtype == np.int32
        for name in vars(serial.photons):
            assert np.array_equal(getattr(serial.photons, name), getattr(pooled.photons, name))
        assert (serial.check1, serial.check2, serial.stats, serial.attack) == (
            pooled.check1, pooled.check2, pooled.stats, pooled.attack)


class TestPrepType:
    @pytest.mark.parametrize("n", [127, 128, 255, 256])
    def test_narrow_prep_writes_the_int64_bytes(self, tmp_path, monkeypatch, n):
        # prep is stored in the narrowest signed type that holds 1..n; at the
        # edges of int8 the run writes what a run with an int64 prep writes
        params = params_for(r=2000, n=n, target=None, seed=5,
                            adversary=BlindingAttackParams(p1=0.3, p2=0.5),
                            continue_on_abort=True)
        narrow = run_full_protocol(params)
        prep = narrow.ledger.prep
        assert prep.dtype.itemsize < 8
        assert prep.min() == 1 and prep.max() == n
        write_transcript(narrow, tmp_path / "narrow.jsonl")
        monkeypatch.setattr(protocol, "_prep_type", lambda n: np.dtype(np.int64))
        wide = run_full_protocol(params)
        assert wide.ledger.prep.dtype == np.int64
        write_transcript(wide, tmp_path / "wide.jsonl")
        assert (tmp_path / "narrow.jsonl").read_bytes() == (tmp_path / "wide.jsonl").read_bytes()


class TestAccounting:
    def test_loss_sites_partition_population(self):
        params = params_for(
            r=30_000, seed=21,
            link=LinkBudget(distance_km=10.0, eta_c=0.9, eta_m=0.95, eta_d=0.9),
            continue_on_abort=True,
        )
        result = run_full_protocol(params)
        counts = result.stats.loss_counts
        assert sum(counts.values()) == 3 * 30_000
        assert set(counts) <= {
            "none", "fiber-leg1", "fiber-leg2", "coupling-leg1", "coupling-leg2",
            "memory-leg1", "memory-leg2", "detector",
        }
        # reference: a per-photon tally of the transcript columns
        cols = result.photons
        names = [_SITE_NAME[int(c)] for c in cols.loss_site]
        assert counts == Counter(
            name if leg == 0 else f"{name}-leg{leg}" for name, leg in zip(names, cols.loss_leg)
        )
        # degenerate links put all 3r photons on one site: a photon lost on
        # the way out is never lost again, and a dead detector never clicks
        for link, site in (
            (LinkBudget(distance_km=1000.0), "fiber-leg1"),
            (LinkBudget(eta_c=0.0), "coupling-leg1"),
            (LinkBudget(eta_d=0.0), "detector"),
        ):
            result = run_full_protocol(
                params_for(r=500, seed=21, link=link, continue_on_abort=True)
            )
            assert result.stats.loss_counts == {site: 1500}

    def test_gains_match_link_budget(self):
        link = LinkBudget(distance_km=10.0, eta_c=0.9, eta_m=0.95, eta_d=0.9)
        params = params_for(r=100_000, seed=22, link=link, continue_on_abort=True)
        result = run_full_protocol(params)
        for est, want in (
            (result.stats.q_ab, link.q_ab),
            (result.stats.q_aba, link.q_aba),
            (result.stats.q_aba_decode, link.q_aba),
        ):
            band = 5.0 * math.sqrt(want * (1 - want) / 100_000)
            assert abs(est.value - want) <= band


def _oracle_est(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a float column over the whole array."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    return float(np.mean(values)), float(np.std(values) / math.sqrt(n)) if n > 1 else 0.0


def _check_rows(result) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(photon positions, offset index k = x - y + n - 1, ideal P(g=0)) of
    each checking round, in the order the round measured its photons, from
    the transcript's preparation index x and measured basis y, which must
    lie in 1..n. The ideal P(g=0) is the noise-free Born rule at k."""
    cols, led, config = result.photons, result.ledger, result.params.config
    n = config.n
    ideal = protocol._ideal_p(config.theta, protocol._offset_phases(n))
    rows = []
    for pos in (led.s1_pos, led.s2_pos[led.s2_order]):
        basis = cols.basis[pos]
        assert np.all((basis >= 1) & (basis <= n))
        k = cols.prep[pos].astype(np.int64) - basis + (n - 1)
        rows.append((pos, k, ideal[k]))
    return rows


def _oracle_stats(result) -> dict:
    """Every TranscriptStats field from the transcript columns, each stage's
    photons in its measurement order: whole-array means and deviations of
    float columns, the 0/1 statistics as float arrays, the loss sites as one
    tally over all 3r photons."""
    cols, led = result.photons, result.ledger
    out = {}
    for i, (pos, _, p_ideal) in enumerate(_check_rows(result), start=1):
        clicked, g, assigned = cols.clicked[pos], cols.g[pos], cols.assigned_g[pos]
        c = clicked.astype(np.float64)
        obs = c * (g == 0) + (1.0 - c) * (assigned == 0)
        e = "e_ab" if i == 1 else "e_aba"
        out["q_ab" if i == 1 else "q_aba"] = _oracle_est(c)
        out[f"p{i}_observed"] = _oracle_est(obs)
        out[f"p{i}_clicked"] = _oracle_est((g == 0)[clicked].astype(np.float64))
        out[f"{e}_signed"] = _oracle_est(c * (p_ideal - (g == 0)))
        out[f"{e}_assign"] = _oracle_est((1.0 - c) * np.minimum(p_ideal, 1.0 - p_ideal))
    # decoding measures S3 in the order of the return stream
    out["q_aba_decode"] = _oracle_est(cols.clicked[led.s3_pos[led.s3_order]].astype(np.float64))
    tally = np.bincount(3 * cols.loss_site.astype(np.int64) + cols.loss_leg)
    out["loss_counts"] = {
        _SITE_NAME[k // 3] + (f"-leg{k % 3}" if k % 3 else ""): int(tally[k])
        for k in np.flatnonzero(tally)
    }
    return out


_ORACLE_LINK = LinkBudget(distance_km=5.0, eta_c=0.9, eta_m=0.95, eta_d=0.8)


class TestStatsMatchWholeArrayOracle:
    # the counts and the block-filled columns against whole-array float
    # formulas: values to the bit, the 0/1 statistics' stderr to rounding
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kw", [
        dict(),
        dict(link=LinkBudget(eta_d=0.0)),
        dict(r=1),
        dict(r=2),
        dict(adversary=BlindingAttackParams(p1=0.3, p2=0.5)),
        dict(noise=ChannelNoiseModel(delta_theta=0.05, spread=0.02)),
        dict(n=5, target=None, config=BasisConfig(n=5, theta=0.6)),
        dict(n=128, target=None),
        # k reaches 2n - 2 = 256, one past uint8, at x = n and y = 1
        dict(n=129, target=None, r=50_000),
    ], ids=["default", "eta_d0", "r1", "r2", "attacked", "spread", "n5-theta0.6", "n128",
            "n129"])
    def test_stats_match(self, monkeypatch, kw, workers):
        monkeypatch.setattr(protocol, "_ENGINE_BLOCK", 777)
        kw = dict(dict(r=3000, seed=4, link=_ORACLE_LINK, continue_on_abort=True), **kw)
        result = run_full_protocol(params_for(**kw), workers=workers)
        want = _oracle_stats(result)
        assert set(want) == set(vars(result.stats))
        rows = _check_rows(result)
        for check, (_, _, p_ideal) in zip((result.check1, result.check2), rows):
            assert check.theoretical_p_g0 == float(np.mean(p_ideal))
        if result.params.config.n == 129:
            assert max(int(k.max()) for _, k, _ in rows) == 256
        if kw["link"].eta_d == 0.0:
            assert want["p1_clicked"] == want["p2_clicked"] == (0.0, 0.0)
        for name, expected in want.items():
            got = getattr(result.stats, name)
            if isinstance(got, protocol.EstStat):
                value, stderr = expected
                assert got.value == value, name
                assert abs(got.stderr - stderr) <= 1e-15 * stderr, name
            else:
                assert got == expected, name


def _est_columns(kind: str):
    """Float columns of every length _est is tested at: uniform floats,
    tiny normals, or what the engine's shift column holds, 0, p or p - 1 at
    the ideal P(g=0) p of an offset drawn from the 2n - 1 offset table."""
    rng = np.random.default_rng(28)
    ideal = protocol._ideal_p(math.pi / 4, protocol._offset_phases(8))
    for n in [*range(301), 65535, 65536, 65537, 1_000_003]:
        if kind == "uniform":
            yield rng.random(n)
        elif kind == "tiny":
            yield rng.standard_normal(n) * 1e-150
        else:
            p = ideal[rng.integers(0, len(ideal), n)]
            yield np.choose(rng.integers(0, 3, n), [np.zeros(n), p, p - 1.0])


@pytest.mark.parametrize("kind", ["uniform", "tiny", "engine"])
def test_est_is_mean_and_std_to_the_bit(kind):
    # _est reduces its argument in place with np.mean's and np.std's own
    # steps, so it matches them by float.hex and leaves the squared deviations
    for values in _est_columns(kind):
        column = values.copy()
        got = protocol._est(column)
        want = _oracle_est(values)
        assert (got.value.hex(), got.stderr.hex()) == tuple(map(float.hex, want)), len(values)
        if len(values) > 1:
            assert np.array_equal(column, np.square(values - np.mean(values))), len(values)
        else:
            assert np.array_equal(column, values)


class TestStatsMemory:
    # _stats holds one float column of r values at a time, plus the
    # temporaries of the block being filled: five block-length float64
    # arrays on one thread (2.63 MB at the 65536-photon block, measured),
    # allowed six here
    R = 500_000
    BLOCK_ALLOWANCE = 6 * 8 * protocol._ENGINE_BLOCK

    def test_stats_peak_is_one_column(self):
        params = params_for(r=self.R, seed=28, link=LinkBudget(eta_c=0.7),
                            continue_on_abort=True)
        run = ProtocolRun(params)
        for step in (run.step1_prepare, run.step2_transmit_to_bob, run.step3_first_check,
                     run.step4_encode_and_shuffle, run.step5_transmit_to_alice,
                     run.step5_second_check, run.step6_decode):
            step()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run._stats()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 8 * self.R + self.BLOCK_ALLOWANCE

    def test_ledger_keeps_no_slot_array(self):
        # the slot arrays are computed at each read and cached by no one
        result = run_full_protocol(params_for(r=2000, seed=28, continue_on_abort=True))
        led = result.ledger
        assert len(led.s2p_slots) == len(led.s3p_slots) == 2000
        assert result.announcements.s3_original_positions is not None
        assert vars(led).keys() == {"r", "prep", "order", "return_perm"}


class TestOneRotationPerTrip:
    # at spread 0 a trip's rotation is one float and the Born rule is
    # evaluated once per basis offset; with the per-photon rotation arrays
    # forced on, every report, statistic, frame and byte is the same
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kw", [
        dict(),
        dict(adversary=BlindingAttackParams(p1=0.3, p2=0.5)),
        dict(link=LinkBudget(eta_c=0.5), tolerance=0.01, continue_on_abort=False),
        dict(link=_ORACLE_LINK, round2_mode=Round2Mode.ORIGINAL_ORDER),
        dict(n=5, target=None, config=BasisConfig(n=5, theta=0.6)),
        dict(n=128, config=BasisConfig(n=128)),
    ], ids=["default", "attacked", "abort-at-3", "lossy-original-order", "n5-theta0.6",
            "n128"])
    def test_same_as_per_photon_rotations(self, tmp_path, monkeypatch, kw, workers):
        monkeypatch.setattr(protocol, "_ENGINE_BLOCK", 777)
        params = params_for(**dict(dict(
            r=3000, seed=4, noise=ChannelNoiseModel(delta_theta=0.0785398),
            continue_on_abort=True), **kw))
        one = run_full_protocol(params, workers=workers)
        monkeypatch.setattr(ProtocolRun, "_trip_rotation", lambda self, size: np.empty(size))
        per_photon = run_full_protocol(params, workers=workers)
        for a, b in ((one.run.trip1, per_photon.run.trip1),
                     (one.run.trip2, per_photon.run.trip2)):
            assert (a is None) == (b is None)
            assert a is None or (
                isinstance(a.rotation, float) and isinstance(b.rotation, np.ndarray))
        assert one.aborted_at_step == per_photon.aborted_at_step
        if "tolerance" in kw:
            assert one.aborted_at_step == 3
        assert (one.check1, one.check2, one.stats, one.attack) == (
            per_photon.check1, per_photon.check2, per_photon.stats, per_photon.attack)
        assert (one.frame is None) == (per_photon.frame is None)
        if one.frame is not None:
            assert np.array_equal(one.frame.payload, per_photon.frame.payload)
            assert np.array_equal(one.frame.decoded, per_photon.frame.decoded)
        for name, result in (("one", one), ("per_photon", per_photon)):
            write_transcript(result, tmp_path / f"{name}.jsonl")
        assert (tmp_path / "one.jsonl").read_bytes() == (
            tmp_path / "per_photon.jsonl").read_bytes()


class TestNoClickAssignment:
    @pytest.mark.parametrize("n,ties", [(8, (2, 6)), (16, (4, 12))], ids=["n8", "n16"])
    def test_exact_ties_assign_g1(self, n, ties):
        # at theta = pi/4 these offsets have ideal P(g=0) of exactly one half;
        # the engine's float sum lands just below it and assigns g=1, and the
        # closed-form model of the keystone check must count the same slots
        params = params_for(
            r=2000, n=n, target=None, link=LinkBudget(eta_c=0.0), continue_on_abort=True
        )
        cols = run_full_protocol(params).photons
        assigned = cols.assigned_g >= 0
        offset = (cols.prep - cols.basis) % n
        engine = {}
        for d in range(n):
            (engine[d],) = set(cols.assigned_g[assigned & (offset == d)].tolist())
        assert all(engine[d] == 1 for d in ties)
        # at zero gain the model's observed P(g=0) is its assigned-g=0 fraction
        config = BasisConfig(n=n)
        model = analysis.expected_stats(
            analysis.offset_model(None, config), 0.0, 0.0, 0.0
        )
        engine_g0 = sum(engine[d] == 0 for d in range(n)) / n
        assert model["p1_observed"] == pytest.approx(engine_g0, abs=1e-12)


BARE = LinkBudget(eta_c=0.7)
LOSSY = LinkBudget(distance_km=10, eta_c=0.9, eta_m=0.8, eta_d=0.7)


class TestEngineMatchesOffsetModel:
    # the closed-form model of a run's statistics against the event engine:
    # away from the reference point, at the paper's P1 = 0.5, and on a lossy
    # link whose gains are products of several efficiencies
    @pytest.mark.parametrize("n,theta,p1,link,seed", [
        pytest.param(5, 0.6, 0.6, BARE, 31, id="5-0.6-0.6-31"),
        pytest.param(5, 0.6, 0.3, BARE, 32, id="5-0.6-0.3-32"),
        pytest.param(8, math.pi / 4, 0.5, BARE, 33, id="8-0.7853981633974483-0.5-33"),
        pytest.param(8, math.pi / 4, 0.1, LOSSY, 34, id="lossy-8-0.1-34"),
        pytest.param(8, math.pi / 4, 0.4, LOSSY, 35, id="lossy-8-0.4-35"),
        pytest.param(5, 0.6, 0.6, LOSSY, 36, id="lossy-5-0.6-0.6-36"),
    ])
    def test_statistics_within_five_sigma(self, n, theta, p1, link, seed):
        dth = math.pi / 40
        config = BasisConfig(n=n, theta=theta)
        params = ProtocolParams(
            r=100_000, config=config,
            p1_target=p1,
            link=link, noise=ChannelNoiseModel(delta_theta=dth),
            continue_on_abort=True, seed=seed,
        )
        closed = analysis.expected_stats(analysis.offset_model(p1, config),
                                         link.q_ab, link.q_aba, dth)
        rows = verify._keystone_rows(run_full_protocol(params).stats, closed)
        assert len(rows) == 11
        assert all(z <= 5.0 for _, _, _, z in rows), rows


class TestDeterminism:
    def test_same_seed_same_transcript(self):
        a = run_full_protocol(params_for(r=3000, seed=17))
        b = run_full_protocol(params_for(r=3000, seed=17))
        assert np.array_equal(a.photons.g, b.photons.g)
        assert np.array_equal(a.photons.loss_site, b.photons.loss_site)
        assert np.array_equal(a.photons.basis, b.photons.basis)
        assert a.check1 == b.check1 and a.check2 == b.check2
        assert np.array_equal(a.frame.decoded, b.frame.decoded)

    def test_different_seed_differs(self):
        a = run_full_protocol(params_for(r=3000, seed=17))
        b = run_full_protocol(params_for(r=3000, seed=18))
        assert not np.array_equal(a.photons.g, b.photons.g)


class TestInformationFlow:
    def test_announcements_independent_of_payload(self):
        # swapping the whole message must leave every announcement
        # bit-for-bit unchanged
        zeros = run_full_protocol(params_for(r=400, seed=6), message=[0] * 400)
        ones = run_full_protocol(params_for(r=400, seed=6), message=[1] * 400)
        a, b = zeros.announcements, ones.announcements
        for name in (
            "s1_positions", "y1", "round1_clicked", "round1_g", "s2p_slots",
            "s2_original_positions", "s3p_slots", "s3_original_positions",
            "round2_clicked", "round2_g",
        ):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    @pytest.mark.parametrize("workers", [1, 3])
    def test_announced_and_transcript_bases_agree(self, monkeypatch, workers):
        # y1 and the basis column are both read from the rounds' offset
        # indices; decoding measures each S3 photon in its own basis
        monkeypatch.setattr(protocol, "_ENGINE_BLOCK", 777)
        result = run_full_protocol(params_for(r=3000, seed=4, continue_on_abort=True),
                                   workers=workers)
        cols, ann = result.photons, result.announcements
        assert ann.y1.dtype == np.int64
        assert np.array_equal(ann.y1, cols.basis[ann.s1_positions])
        s3 = cols.sequence == 3
        assert np.array_equal(cols.basis[s3], cols.prep[s3])

    def test_announcement_fields_are_positions_and_outcomes_only(self):
        field_names = {f.name for f in dataclasses.fields(type(
            run_full_protocol(params_for(r=16, seed=1)).announcements
        ))}
        assert field_names == {
            "s1_positions", "y1", "round1_clicked", "round1_g", "s2p_slots",
            "s2_original_positions", "s3p_slots", "s3_original_positions",
            "round2_clicked", "round2_g",
        }


def reference_transcript(result) -> bytes:
    """The per-record writer: one dict and one json.dumps per photon."""
    cols = result.photons
    lines = []
    for i in range(len(cols)):
        measured_at = ""
        if cols.basis[i] >= 0:
            measured_at = "bob" if cols.sequence[i] == 1 else "alice"
        rec = {
            "id": i,
            "seq": f"S{cols.sequence[i]}",
            "prep": int(cols.prep[i]),
            "secret_flip": bool(cols.secret_flip[i]),
            "message_bit": int(cols.message_bit[i]),
            "basis": int(cols.basis[i]),
            "measured_at": measured_at,
            "rotation": float(cols.rotation[i]),
            "loss_site": _SITE_NAME[int(cols.loss_site[i])],
            "loss_leg": int(cols.loss_leg[i]),
            "clicked": bool(cols.clicked[i]),
            "g": int(cols.g[i]),
            "assigned_g": int(cols.assigned_g[i]),
            "attacked": bool(cols.attacked[i]),
        }
        lines.append(json.dumps(rec, sort_keys=True) + "\n")
    lines.append(json.dumps(summary_record(result), sort_keys=True) + "\n")
    return "".join(lines).encode("utf-8")


def _hand_rotations():
    result = run_full_protocol(params_for(r=4, seed=5))
    special = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324, 0.1 + 0.2, 1e22]
    result.photons.rotation[:len(special)] = special
    return result


def _repeated_rotations():
    # one block of mostly equal rotations, so each distinct value is
    # formatted once; -0.0 and 0.0 differ in their text, NaNs do not
    result = run_full_protocol(params_for(r=1000, seed=7))
    rotation = result.photons.rotation
    rotation[:] = 0.05
    rotation[:2000] = 0.0
    rotation[[100, 1500, 2500]] = -0.0
    rotation[[200, 2600]] = math.nan
    rotation[[300, 2700]] = math.inf
    rotation[[400, 2800]] = -math.inf
    rotation[2900] = -math.nan
    return result


def _spread_attacked(r=3000, n=5):
    return run_full_protocol(params_for(
        r=r, n=n, seed=11, link=LinkBudget(distance_km=5.0, eta_m=0.9, eta_d=0.8),
        noise=ChannelNoiseModel(delta_theta=0.05, spread=0.02),
        adversary=BlindingAttackParams(p1=0.1, p2=0.5), continue_on_abort=True,
    ))


class TestTranscriptExport:
    def test_schema_and_summary(self, tmp_path):
        result = run_full_protocol(params_for(r=20, seed=2))
        path = tmp_path / "transcript.jsonl"
        write_transcript(result, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3 * 20 + 1
        first = json.loads(lines[0])
        assert set(first) == {
            "id", "seq", "prep", "secret_flip", "message_bit", "basis",
            "measured_at", "rotation", "loss_site", "loss_leg", "clicked",
            "g", "assigned_g", "attacked",
        }
        records = [json.loads(line) for line in lines[:-1]]
        assert all(
            rec["measured_at"] == ("bob" if rec["seq"] == "S1" else "alice")
            for rec in records
        )
        summary = json.loads(lines[-1])
        assert summary["record"] == "summary"
        assert summary["check1"]["verdict"] == "pass"
        assert summary["message"]["ok"] == 20

    def test_export_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_transcript(run_full_protocol(params_for(r=25, seed=3)), p1)
        write_transcript(run_full_protocol(params_for(r=25, seed=3)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    # the per-record writer is the oracle for every byte
    @pytest.mark.parametrize("make", [
        # 9000 rows: several blocks, the last one partial
        _spread_attacked,
        # every rotation drawn per photon: each gets its own repr
        lambda: run_full_protocol(params_for(
            r=2000, seed=12, noise=ChannelNoiseModel(delta_theta=0.05, spread=0.02),
            continue_on_abort=True,
        )),
        # wide prep and basis tables: hundreds of codes per run of keys
        lambda: _spread_attacked(r=2000, n=128),
        # basis, g and assigned_g stay -1 on S2 and S3
        lambda: run_full_protocol(params_for(
            r=2000, link=LinkBudget(distance_km=30.0), tolerance=0.001)),
        lambda: run_full_protocol(params_for(r=1, seed=4, tolerance=1.0)),
        _hand_rotations,
        _repeated_rotations,
    ], ids=["attacked-per-photon-n5", "per-photon-spread", "attacked-n128", "abort-step3",
            "r1", "special-rotations", "repeated-rotations"])
    def test_same_bytes_as_per_record_writer(self, tmp_path, make):
        result = make()
        path = tmp_path / "transcript.jsonl"
        write_transcript(result, path)
        assert path.read_bytes() == reference_transcript(result)

    @pytest.mark.parametrize("block_rows", [1, 7, 4096])
    def test_same_bytes_for_any_block_size(self, tmp_path, monkeypatch, block_rows):
        # the run texts memoized in one block are reused by the later ones
        result = _spread_attacked(r=700)
        result.photons.rotation[:1000] = 0.05
        result.photons.rotation[[10, 20, 30]] = [-0.0, 0.0, math.nan]
        monkeypatch.setattr(protocol, "_BLOCK_ROWS", block_rows)
        path = tmp_path / "transcript.jsonl"
        write_transcript(result, path)
        assert path.read_bytes() == reference_transcript(result)

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        result = run_full_protocol(params_for(r=3000, seed=6))

        def fails_whole(out, error):
            out.mkdir()
            path = out / "transcript.jsonl"
            with pytest.raises(error):
                write_transcript(result, path)
            assert list(out.iterdir()) == []
            # an earlier transcript at the same path is left whole
            path.write_text("earlier\n")
            with pytest.raises(error):
                write_transcript(result, path)
            assert list(out.iterdir()) == [path]
            assert path.read_text() == "earlier\n"

        # a loss-site code with no name fails the write; -1 must not wrap
        # round to the last name of the table
        for site in (99, -1):
            result.photons.loss_site[5000] = site
            fails_whole(tmp_path / str(site), LookupError)
        result.photons.loss_site[5000] = 0

        # a failure in the second of three blocks, after the first block's
        # records have reached the temporary file
        rotation_json, calls, partial = protocol._rotation_json, itertools.count(), []

        def second_block_fails(col):
            if next(calls) % 2:
                partial.append(sum(f.stat().st_size for f in (tmp_path / "io").iterdir()))
                raise OSError("no space left on device")
            return rotation_json(col)

        monkeypatch.setattr(protocol, "_rotation_json", second_block_fails)
        fails_whole(tmp_path / "io", OSError)
        assert partial[0] > 0 and partial[1] > len("earlier\n")


class TestTracedLayers:
    def test_every_benchmarked_layer_exists(self):
        # the benchmark tracer wraps step, assembly and solver functions by
        # name; a rename would silently drop that layer from the profile
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]))
        code = "import tracing; t = tracing.Tracer(); t.install(); assert not t.missing, t.missing"
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
