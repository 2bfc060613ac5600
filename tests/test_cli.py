"""Config parsing and CLI subcommand tests."""
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdiqsdc import analysis, cli, protocol, verify
from rdiqsdc.cli import _write_rows, main
from rdiqsdc.config import SCHEMA, ConfigError, load_config, parse_value
from rdiqsdc.devices import LinkBudget
from rdiqsdc.domains import (
    ANGLE, COUNT, INDEX, NON_NEGATIVE, OPEN_UNIT, POSITIVE, REAL, SEED, SETTINGS, UNIT, Domain,
)
from rdiqsdc.qstate import BasisConfig, Measurement, outcome_probability, prepare
from test_analysis import brute_capacity

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestConfig:
    def test_defaults_match_reference_settings(self):
        cfg = load_config()
        assert cfg["protocol.theta"] == pytest.approx(math.pi / 4)
        assert cfg["physics.alpha_db_per_km"] == 0.2
        assert cfg["physics.eta_c"] == 0.95
        assert cfg["physics.eta_m"] == 1.0 and cfg["physics.eta_d"] == 1.0
        assert cfg["analysis.r_rep_hz"] == 1e7
        assert cfg["analysis.p_s"] == 1.0

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "protocol.r = 123\n"
            "physics.delta_theta = 0.05  # inline comment\n"
            "adversary.enabled = true\n"
            "analysis.p1_list = 0.1,0.2\n"
            "analysis.grid = 0:1:5\n"
        )
        cfg = load_config(str(path))
        assert cfg["protocol.r"] == 123
        assert cfg["physics.delta_theta"] == 0.05
        assert cfg["adversary.enabled"] is True
        assert cfg["analysis.p1_list"] == (0.1, 0.2)
        assert cfg["analysis.grid"] == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for line in ("protocol.bogus = 1", "adversary.closeness_angle = 0.5", "analysis.p_e = 7",
                     "protocol.policy = uniform"):
            path.write_text(line + "\n")
            with pytest.raises(ConfigError):
                load_config(str(path))

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_value("protocol.r", "many")
        with pytest.raises(ConfigError):
            parse_value("adversary.enabled", "maybe")

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("protocol.r = 10\n")
        cfg = load_config(str(path), {"protocol.r": "77"})
        assert cfg["protocol.r"] == 77

    def test_env_var_default_path(self, tmp_path, monkeypatch):
        path = tmp_path / "env.cfg"
        path.write_text("protocol.seed = 99\n")
        monkeypatch.setenv("RDIQSDC_CONFIG", str(path))
        assert load_config()["protocol.seed"] == 99

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.cfg")

    def test_tolerance_keyword(self):
        assert parse_value("protocol.tolerance", "hoeffding") is None
        assert parse_value("protocol.tolerance", "0.01") == 0.01

    def test_message_bits(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("protocol.r = 4\nprotocol.message = 0110\n")
        cfg = load_config(str(path))
        assert cfg.message_bits() == [0, 1, 1, 0]
        path.write_text("protocol.r = 3\nprotocol.message = 0110\n")
        with pytest.raises(ConfigError):
            load_config(str(path)).message_bits()

    def test_storage_loop_maps_to_memory_efficiency(self):
        cfg = load_config(None, {
            "physics.qm_per_trip_efficiency": str(0.91 ** (1 / 11)),
            "physics.qm_round_trips": "11",
        })
        assert cfg.link().eta_m == pytest.approx(0.91, abs=1e-9)

    def test_protocol_params_roundtrip(self):
        params = load_config(None, {"protocol.r": "50", "protocol.seed": "5"}).protocol_params()
        assert params.r == 50 and params.seed == 5
        assert params.config.n == 8


class TestSimulateCommand:
    def test_writes_summary_and_transcript(self, tmp_path):
        rc = main([
            "simulate", "--out", str(tmp_path), "--seed", "3",
            "--set", "protocol.r=200",
        ])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["check1"]["verdict"] == "pass"
        assert summary["message"]["length"] == 200
        lines = (tmp_path / "transcript.jsonl").read_text().splitlines()
        assert len(lines) == 601

    def test_aborted_run_exits_zero(self, tmp_path):
        rc = main([
            "simulate", "--out", str(tmp_path), "--seed", "3",
            "--set", "protocol.r=500",
            "--set", "physics.distance_km=40",
            "--set", "protocol.tolerance=0.001",
        ])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["aborted_at_step"] == 3

    def test_config_error_exits_two(self, tmp_path, capsys):
        # removed keys are rejected like any other unknown key
        for item in ("bogus.key=1", "adversary.closeness_angle=0.5", "analysis.p_e=7",
                     "physics.noise_mode=per-photon", "physics.noise_family=uniform-interval",
                     "protocol.policy=uniform"):
            rc = main(["simulate", "--out", str(tmp_path), "--set", item])
            assert rc == 2
            err = capsys.readouterr().err
            key = item.split("=")[0]
            assert err == f"config error: unknown config key: {key!r}\n"
        # values the domain objects reject, not the config parser
        for argv in (
            ["sweep", "--set", "analysis.p1_list=1.5", "--set", "analysis.grid=0.5"],
            ["threshold", "--set", "analysis.p1_list=0,0.1"],
            ["simulate", "--set", "protocol.n=4"],
            ["sweep", "--set", "analysis.axis=L", "--set", "physics.eta_c=2",
             "--set", "analysis.grid=1"],
        ):
            assert main(argv + ["--out", str(tmp_path), "--workers", "1"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1
        # non-finite floats, in scalar keys, the tolerance and grid entries
        for item in ("physics.delta_theta=inf", "physics.delta_theta=nan",
                     "physics.distance_km=nan", "protocol.tolerance=nan",
                     "physics.noise_spread=inf", "analysis.r_rep_hz=nan",
                     "physics.eta_c=1e400", "analysis.grid=0,nan",
                     "analysis.p1_list=0.1:inf:3"):
            assert main(["simulate", "--out", str(tmp_path / "nf"), "--set", item]) == 2
            err = capsys.readouterr().err
            key = item.split("=")[0]
            assert err.startswith(f"config error: bad value for {key}: ")
            assert err.count("\n") == 1
        # finite values whose two-leg rotation bound overflows
        for sets in (["physics.delta_theta=1e308"], ["physics.noise_spread=1e308"]):
            argv = ["simulate", "--out", str(tmp_path / "nf")]
            for item in sets:
                argv += ["--set", item]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: bad values for physics.delta_theta and "
                                  "physics.noise_spread (two-leg rotation bound ")
            assert err.count("\n") == 1
        # a failure budget so small that 2/epsilon overflows would leave an
        # infinite tolerance, which passes every check
        for argv in (["simulate", "--set", "adversary.enabled=true",
                      "--set", "adversary.p1=1", "--set", "adversary.p2=1"],
                     ["attack-scan", "--set", "attack.r=100"]):
            argv += ["--set", "protocol.epsilon=5e-324", "--out", str(tmp_path / "nf"),
                     "--workers", "1"]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: bad value for protocol.epsilon: '5e-324' (")
            assert err.count("\n") == 1
        # a rotation whose round-trip angle overflows in the capacity model
        # while its two-leg bound, checked at read, is still finite
        for cmd, sets in (
            (cmd, ["physics.delta_theta=5e307", "analysis.grid=0.5"])
            for cmd in ("threshold", "sweep")
        ):
            argv = [cmd, "--out", str(tmp_path / "nf")]
            for item in sets:
                argv += ["--set", item]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: delta_theta=")
            assert "is too large" in err and err.count("\n") == 1
        # and the same rotation as a grid entry of the delta_theta axis
        for dth in ("1e308", "5e307"):
            argv = ["sweep", "--out", str(tmp_path / "nf"), "--set", "analysis.axis=delta_theta",
                    "--set", f"analysis.grid=0,{dth}"]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: delta_theta=")
            assert "is too large" in err and err.count("\n") == 1
        # probabilities are checked when the config is read, for every command,
        # whether or not the command uses them
        for cmd in ("simulate", "sweep", "threshold", "attack-scan", "verify"):
            for item in ("physics.qm_per_trip_efficiency=2", "physics.qm_per_trip_efficiency=-0.1",
                         "adversary.p1=2", "adversary.p2=-0.5"):
                argv = [cmd, "--out", str(tmp_path / "nf"), "--workers", "1", "--set", item]
                assert main(argv) == 2
                err = capsys.readouterr().err
                key, raw = item.split("=")
                assert err == f"config error: bad value for {key}: {raw!r} (must lie in [0, 1])\n"
        # a worker count below one, for every command
        for cmd in ("simulate", "sweep", "threshold", "attack-scan", "verify"):
            for workers in ("0", "-3"):
                assert main([cmd, "--out", str(tmp_path / "nf"), "--workers", workers]) == 2
                err = capsys.readouterr().err
                assert err == f"config error: --workers must be at least 1, got {workers}\n"
        assert not (tmp_path / "nf").exists()


COMMANDS = ("simulate", "sweep", "threshold", "attack-scan")
# small runs unless a later setting overrides them: photons, attack points,
# grid sizes
SMALL_RUN = ("protocol.r=20", "attack.r=20", "attack.p1_grid=0,1", "attack.p2_grid=0,1",
             "analysis.grid=0.5", "analysis.p1_list=0.1,0.4")


# ChannelNoiseModel's bound on a photon's rotation over both legs
TWO_LEG = ("bad values for physics.delta_theta and physics.noise_spread (two-leg rotation "
           "bound 2*(|delta_theta| + spread) is not finite: {})")


# the keys whose parser is a Domain, and the values derived from it
DOMAIN_KEYS = {key: parser for key, (_, parser) in SCHEMA.items() if isinstance(parser, Domain)}


def _domain_values(domain: Domain) -> tuple[list[tuple[str, str]], list[str]]:
    """([(raw, message text)] outside the domain, [raw] inside it): each end
    and each excluded value, with the integer or float next to it."""
    if domain.kind is int:
        def step(x, d):
            return x + d
    else:
        def step(x, d):
            return math.nextafter(x, d * math.inf)
    outside, inside = [], []
    for end, out in ((domain.lo, -1), (domain.hi, 1)):
        if end is not None:
            outside.append(end if domain.open else step(end, out))
            inside.append(step(end, -out) if domain.open else end)
    for x in domain.exclude:
        outside.append(x)
        inside += [v for v in (step(x, -1), step(x, 1)) if v in domain]
    rows = [(repr(v), domain.text) for v in outside]
    if domain.kind is int:
        rows.append(("1.5", domain.text))
    else:
        rows += [(raw, "not a finite number") for raw in ("nan", "inf", "-inf", "1e400")]
    return rows, [repr(v) for v in dict.fromkeys(inside)]


def test_domain_phrases_and_checks():
    # the phrases the CLI prints, and a domain object's message for the same rule
    assert [d.text for d in (UNIT, OPEN_UNIT, NON_NEGATIVE, POSITIVE, COUNT, INDEX,
                             SETTINGS, ANGLE, REAL, SEED)] == [
        "must lie in [0, 1]", "must lie in (0, 1)", "must be >= 0", "must be positive",
        "must be an integer >= 1", "must be an integer >= 0", "must be an integer >= 3 and != 4",
        "must lie in (0, pi/2)", "must be a finite number",
        "must be an integer in [0, 18446744073709551615]",
    ]
    assert 0.0 in UNIT and 0.0 not in OPEN_UNIT and math.nan not in UNIT and 4 not in SETTINGS
    with pytest.raises(ValueError, match=re.escape("eta_c must lie in [0, 1], got 2.0")):
        LinkBudget(eta_c=2.0)
    with pytest.raises(ValueError, match=re.escape("n must be an integer >= 3 and != 4, got 4")):
        BasisConfig(n=4)


def _run(out: Path, cmd: str, *sets: str) -> int:
    argv = [cmd, "--out", str(out), "--workers", "1"]
    for item in SMALL_RUN + sets:
        argv += ["--set", item]
    return main(argv)


class TestConfigContracts:
    @pytest.mark.parametrize("cmd", COMMANDS)
    @pytest.mark.parametrize("item", [
        "protocol.p1_target=bogus", "protocol.round2_mode=bogus", "analysis.axis=bogus",
        "protocol.message=0120", "output.transcript=maybe",
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, cmd, item):
        # every value is checked when the config is read, whether or not the
        # command uses the key
        assert _run(tmp_path / "out", cmd, item) == 2
        key, raw = item.split("=")
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad value for {key}: {raw!r} (")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", COMMANDS + ("verify",))
    @pytest.mark.parametrize("item, domain", [
        ("protocol.r=0", ">= 1"), ("protocol.r=-5", ">= 1"),
        ("attack.r=0", ">= 1"), ("attack.r=-1", ">= 1"),
        ("protocol.seed=-1", "in [0, 18446744073709551615]"),
        ("protocol.seed=18446744073709551616", "in [0, 18446744073709551615]"),
        ("physics.qm_round_trips=-1", ">= 0"),
    ])
    def test_integer_out_of_domain_names_its_key(self, tmp_path, capsys, cmd, item, domain):
        # counts and seeds are checked when the config is read, by every
        # command, whether or not the command uses the key
        assert _run(tmp_path / "out", cmd, item) == 2
        key, raw = item.split("=")
        err = capsys.readouterr().err
        assert err == f"config error: bad value for {key}: {raw!r} (must be an integer {domain})\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", COMMANDS)
    @pytest.mark.parametrize("sets, domain", [
        (["protocol.p1_target=2"], "must lie in [0, 1]"),
        (["protocol.p1_target=-0.1"], "must lie in [0, 1]"),
        (["analysis.p_s=2"], "must lie in [0, 1]"),
        (["analysis.p_s=-0.5"], "must lie in [0, 1]"),
        (["attack.p1_grid=5"], "every entry must lie in [0, 1]"),
        (["attack.p1_grid=0,1.5"], "every entry must lie in [0, 1]"),
        (["attack.p2_grid=-0.1"], "every entry must lie in [0, 1]"),
        (["attack.p2_grid=0:2:3"], "every entry must lie in [0, 1]"),
        (["analysis.p1_list=0.1,1.5"], "every entry must lie in [0, 1]"),
        (["analysis.r_rep_hz=0"], "must be positive"),
        (["analysis.r_rep_hz=-1"], "must be positive"),
        (["protocol.tolerance=-1"], "must be >= 0"),
        (["protocol.tolerance=-1e-300"], "must be >= 0"),
        (["protocol.n=4"], "must be an integer >= 3 and != 4"),
        (["protocol.n=2"], "must be an integer >= 3 and != 4"),
        (["protocol.n=-7"], "must be an integer >= 3 and != 4"),
        (["protocol.theta=0"], "must lie in (0, pi/2)"),
        (["protocol.theta=1.5707963267948966"], "must lie in (0, pi/2)"),
        (["protocol.theta=-0.3"], "must lie in (0, pi/2)"),
        (["physics.eta_c=2"], "must lie in [0, 1]"),
        (["physics.eta_c=-1e-300"], "must lie in [0, 1]"),
        (["physics.eta_m=1.0000000000000002"], "must lie in [0, 1]"),
        (["physics.eta_d=-0.5"], "must lie in [0, 1]"),
        (["physics.distance_km=-1"], "must be >= 0"),
        (["physics.alpha_db_per_km=-0.2"], "must be >= 0"),
        (["physics.noise_spread=-1"], "must be >= 0"),
        (["physics.noise_spread=-5e-324"], "must be >= 0"),
        (["protocol.epsilon=0"], "must lie in (0, 1)"),
        (["protocol.epsilon=1"], "must lie in (0, 1)"),
        (["protocol.epsilon=-1"], "must lie in (0, 1)"),
        (["protocol.epsilon=1e-320"], "epsilon=1e-320 is too small for a finite tolerance"),
    ])
    def test_float_out_of_domain_names_its_key(self, tmp_path, capsys, cmd, sets, domain):
        # the domain objects' bounds, checked when the config is read, by
        # every command, whether or not the command uses the key
        assert _run(tmp_path / "out", cmd, *sets) == 2
        key, raw = sets[-1].split("=")
        err = capsys.readouterr().err
        assert err == f"config error: bad value for {key}: {raw!r} ({domain})\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, raw, text", [
        (key, raw, text) for key, domain in DOMAIN_KEYS.items()
        for raw, text in _domain_values(domain)[0]
    ])
    def test_derived_out_of_domain_names_its_key(self, tmp_path, capsys, key, raw, text):
        # values just outside each key's declared domain, and non-finite ones
        for cmd in COMMANDS:
            assert _run(tmp_path / "out", cmd, f"{key}={raw}") == 2
            err = capsys.readouterr().err
            assert err == f"config error: bad value for {key}: {raw!r} ({text})\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", sorted(DOMAIN_KEYS))
    def test_derived_domain_edges_read(self, key):
        # the values at or next to each end of the domain, inside it, are read
        # as they are; whether a command can use them is the command's rule
        for raw in _domain_values(DOMAIN_KEYS[key])[1]:
            assert load_config(overrides={key: raw})[key] == DOMAIN_KEYS[key].parse(raw)

    @pytest.mark.parametrize("cmd", COMMANDS)
    @pytest.mark.parametrize("sets", [
        # offsets that always or never give g = 0 at n = 8, and uniform ones
        ["protocol.p1_target=0"], ["protocol.p1_target=1"], ["protocol.p1_target=uniform"],
        ["analysis.p_s=0"], ["analysis.p_s=1"], ["analysis.r_rep_hz=5e-324"],
        ["attack.p1_grid=0,1"], ["attack.p2_grid=0:1:3"], ["protocol.tolerance=0"],
        # a P1 target reachable at n = 3
        ["protocol.p1_target=0.4", "analysis.p1_list=0.4", "protocol.n=3"],
        ["physics.eta_c=0"], ["physics.eta_c=1"], ["physics.eta_m=0"], ["physics.eta_d=0"],
        ["physics.distance_km=0"], ["physics.alpha_db_per_km=0"],
        ["physics.noise_spread=0"],
    ])
    def test_float_domain_edges_accepted(self, tmp_path, cmd, sets):
        # the edges the domain objects accept are accepted when read
        assert _run(tmp_path / "out", cmd, *sets) == 0

    @pytest.mark.parametrize("source", ["directory", "env-directory", "not-utf8"])
    def test_unreadable_config_file_exits_two(self, tmp_path, capsys, monkeypatch, source):
        # a directory, named by --config or by $RDIQSDC_CONFIG, and a file
        # that is not UTF-8 text: one line that names the path
        path = tmp_path / "run.cfg"
        argv = ["simulate", "--out", str(tmp_path / "out"), "--workers", "1"]
        if source == "not-utf8":
            path.write_bytes(b"protocol.r = 10  # \xff\n")
            want = f"config file {path} is not UTF-8 (invalid start byte at byte 19)"
        else:
            path.mkdir()
            want = f"cannot read config file {path}: Is a directory"
        if source == "env-directory":
            monkeypatch.setenv("RDIQSDC_CONFIG", str(path))
        else:
            argv += ["--config", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {want}\n"
        assert not (tmp_path / "out").exists()

    def test_seed_is_a_64_bit_word(self, tmp_path, capsys):
        # 2**64 is rejected rather than read as seed 0; the largest seed runs
        # simulate and an attack scan, whose point seeds wrap past it
        assert main(["simulate", "--out", str(tmp_path / "nf"), "--seed", str(2**64)]) == 2
        assert capsys.readouterr().err == (
            "config error: bad value for protocol.seed: '18446744073709551616' "
            "(must be an integer in [0, 18446744073709551615])\n")
        assert not (tmp_path / "nf").exists()
        top = str(2**64 - 1)
        assert main(["simulate", "--out", str(tmp_path / "sim"), "--seed", top,
                     "--set", "protocol.r=50"]) == 0
        assert json.loads((tmp_path / "sim" / "summary.json").read_text())["seed"] == 2**64 - 1
        assert main(["attack-scan", "--out", str(tmp_path / "scan"), "--seed", top,
                     "--workers", "1", "--set", "attack.r=50", "--set", "attack.p1_grid=0",
                     "--set", "attack.p2_grid=0,1"]) == 0
        assert len((tmp_path / "scan" / "attack_scan.csv").read_text().splitlines()) == 3

    def test_theta_edges_accepted_when_read(self):
        # the floats next to theta's open bounds; every basis offset there
        # gives P(g=0) near 1, which no command's P1 list can target
        for raw in ("5e-324", repr(math.nextafter(math.pi / 2, 0.0))):
            cfg = load_config(overrides={"protocol.theta": raw})
            assert cfg.basis_config().theta == float(raw)

    @pytest.mark.parametrize("cmd", COMMANDS)
    @pytest.mark.parametrize("sets, message", [
        (["protocol.message=0101"], "protocol.message length must equal protocol.r"),
        (["protocol.r=3", "protocol.message=0101"],
         "protocol.message length must equal protocol.r"),
        (["attack.r=4", "protocol.message=0101"],
         "protocol.message length must equal protocol.r"),
        (["physics.eta_m=0.5", "physics.qm_round_trips=1"],
         "set physics.eta_m or physics.qm_round_trips, not both"),
        (["physics.qm_round_trips=3", "physics.eta_m=0.999"],
         "set physics.eta_m or physics.qm_round_trips, not both"),
        (["physics.delta_theta=1e308"], TWO_LEG.format("delta_theta=1e+308, spread=0.0")),
        (["physics.delta_theta=-1e308"], TWO_LEG.format("delta_theta=-1e+308, spread=0.0")),
        (["physics.delta_theta=5e307", "physics.noise_spread=5e307"],
         TWO_LEG.format("delta_theta=5e+307, spread=5e+307")),
    ])
    def test_cross_key_rules_checked_at_read(self, tmp_path, capsys, cmd, sets, message):
        # rules tying one key to another are checked when the config is
        # read, by every command, whether or not the command uses the keys
        assert _run(tmp_path / "out", cmd, *sets) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd, sets, message", [
        ("threshold", ["analysis.p1_list=1"],
         "analysis.p1_list entries must lie in (0, 1) for threshold, got 1.0"),
        ("threshold", ["analysis.p1_list=0"],
         "analysis.p1_list entries must lie in (0, 1) for threshold, got 0.0"),
        ("threshold", ["analysis.p1_list=0.1,1"],
         "analysis.p1_list entries must lie in (0, 1) for threshold, got 1.0"),
        ("sweep", ["analysis.p1_list=0,1"], None),
        ("sweep", ["analysis.grid=0.5,2"],
         "analysis.grid entries must lie in [0, 1] on the eta axis, got 2.0"),
        ("sweep", ["analysis.grid=-0.5"],
         "analysis.grid entries must lie in [0, 1] on the eta axis, got -0.5"),
        ("sweep", ["analysis.axis=L", "analysis.grid=-1"],
         "analysis.grid entries must be >= 0 on the L axis, got -1.0"),
        ("sweep", ["analysis.axis=delta_theta", "analysis.grid=-1,2"], None),
    ])
    def test_command_scoped_checks(self, tmp_path, capsys, cmd, sets, message):
        # checks that hold in the commands that build what they check, each
        # one line naming the key, and the values another command accepts
        rc = _run(tmp_path / "out", cmd, *sets)
        if message is None:
            assert rc == 0
        else:
            assert rc == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_message_of_length_r_accepted(self, tmp_path, cmd):
        assert _run(tmp_path / "out", cmd, "protocol.message=" + "01" * 10) == 0

    @pytest.mark.parametrize("cmd", ["sweep", "threshold"])
    def test_closed_forms_reject_rotation_spread(self, tmp_path, capsys, cmd):
        # the closed forms model one rotation per trip
        assert _run(tmp_path / "out", cmd, "physics.noise_spread=0.5") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: physics.noise_spread must be 0 ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_noise_spread_alone_draws_per_photon_rotations(self, tmp_path):
        def rotations(name, *sets):
            assert _run(tmp_path / name, "simulate", "physics.delta_theta=0.05", *sets) == 0
            lines = (tmp_path / name / "transcript.jsonl").read_text().splitlines()[:-1]
            return [json.loads(line)["rotation"] for line in lines]

        # one trip or two at delta_theta each
        assert set(rotations("constant")) == {0.05, 0.1}
        drawn = rotations("drawn", "physics.noise_spread=0.02")
        assert len(set(drawn)) == len(drawn) == 60
        assert all(0.03 <= rot <= 0.14 for rot in drawn)

    def test_attack_scan_predicts_uniform_policy_at_any_theta(self, tmp_path, monkeypatch):
        # the unrounded rows, before the CSV prints them to 10 digits
        rows = []
        write = cli._write_rows

        def keep_rows(path, header, got, delim):
            rows.extend(got)
            write(path, header, got, delim)

        monkeypatch.setattr(cli, "_write_rows", keep_rows)
        argv = ["attack-scan", "--out", str(tmp_path), "--workers", "1",
                "--set", "protocol.p1_target=uniform", "--set", "protocol.theta=0.6",
                "--set", "attack.p1_grid=0", "--set", "attack.p2_grid=0",
                "--set", "attack.r=20000"]
        assert main(argv) == 0
        # uniform offsets pair every preparation with every basis alike
        config = BasisConfig(n=8, theta=0.6)
        want = math.fsum(
            outcome_probability(prepare(x, config), Measurement(y, config))
            for x in range(1, 9) for y in range(1, 9)
        ) / 64
        assert want == pytest.approx(0.5657, abs=1e-4)
        [(_, _, predicted, empirical, _, _)] = rows
        assert predicted == pytest.approx(want, abs=1e-12)
        assert abs(empirical - want) <= 5 * math.sqrt(want * (1 - want) / 20_000)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_config_rows() -> list[tuple[str, str]]:
    """(key, domain column) of each key README's config table names; a row
    such as `physics.eta_c` / `eta_m` / `eta_d` names three keys."""
    section = README.read_text().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = line.split("|")
            first, *rest = re.findall(r"`([^`]+)`", cells[1])
            prefix = first.rsplit(".", 1)[0]
            rows += [(key, cells[4].strip())
                     for key in [first] + [f"{prefix}.{name}" for name in rest]]
    return rows


# the file each documented command writes, as README.md names it
README_OUTPUTS = {"sweep": "sweep.csv", "threshold": "thresholds.csv", "simulate": "summary.json"}


def _readme_examples() -> list[list[str]]:
    """The arguments of each `rdiqsdc` command in the fenced block under
    `### Examples` in README.md, continuation lines joined."""
    block = README.read_text().split("\n### Examples\n", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rdiqsdc ")]


def test_readme_examples_run(tmp_path):
    examples = _readme_examples()
    assert [argv[0] for argv in examples] == ["sweep", "sweep", "sweep", "threshold", "simulate"]
    for i, argv in enumerate(examples):
        out = tmp_path / str(i)
        assert main(argv + ["--out", str(out), "--workers", "1"]) == 0, argv
        name = README_OUTPUTS[argv[0]]
        assert f"`{name}`" in README.read_text() and (out / name).is_file()


def test_readme_config_table_lists_every_schema_key():
    assert sorted(key for key, _ in _readme_config_rows()) == sorted(SCHEMA)


def test_readme_config_table_states_each_domain():
    stated = dict(_readme_config_rows())
    assert {key: stated[key] for key in DOMAIN_KEYS} == {
        key: domain.text for key, domain in DOMAIN_KEYS.items()}
    for key in ("analysis.p1_list", "attack.p1_grid", "attack.p2_grid"):
        assert stated[key] == f"every entry {UNIT.text}"
    assert stated["protocol.p1_target"] == f"`uniform`, or a float that {UNIT.text}"
    assert stated["protocol.tolerance"] == f"`hoeffding`, or a float that {NON_NEGATIVE.text}"


# sha256 of the files `simulate --seed 0` writes at r = 2000, with the step
# each run stops at. Any change to the random streams, the engine or the
# writers shows up here first. The abort and original-order cases cover the
# early returns, the second-leg memory losses and the detector losses; the
# per-photon case covers odd n, theta != pi/4, per-photon angles and the
# uniform offsets, the inputs of the engine's Born-rule tables.
GOLDEN_RUNS = {
    "clean": ([], None, {
        "summary.json": "3debe6bb629a2165517c137e20fcbef4ce9213b180d743c1f35e345a2e0e0a0d",
        "transcript.jsonl": "41eb2147909db90b86c87951829d4ffd09f497b744e687aeebe72320882ccd19",
    }),
    "attacked-noisy": ([
        "physics.distance_km=10", "physics.delta_theta=0.0785398",
        "adversary.enabled=true", "adversary.p1=0.2", "adversary.p2=0.5",
    ], None, {
        "summary.json": "abe64edfc67874a87dcb56104763313c04c9f43dc36c5a1b67eb4d0780aa6aec",
        "transcript.jsonl": "52e844c4793c00788864a9bc22a36282ad28e3874cda2d8d0828fd96eba00859",
    }),
    "abort-step3": ([
        "adversary.enabled=true", "adversary.p1=0.5", "adversary.p2=0.5",
    ], 3, {
        "summary.json": "90f512797a5bc29e5e217b2819b1eae0f18f8c901158bcad98266f98897bca25",
        "transcript.jsonl": "e10abf8a2374b499c001cedac7a9c04881a6d45140b33de16e9eb5531e117203",
    }),
    "abort-step5": (["physics.delta_theta=0.2"], 5, {
        "summary.json": "31f3bbf4e194b1c79d6f5ed917f7bd8401699ce8fd8c82d29bf0c60566c8e390",
        "transcript.jsonl": "8f11153b78bba0d9d67ba5f5525b62fbee6e82e41121921c8502b3150ff6f586",
    }),
    "lossy-original-order": ([
        "protocol.round2_mode=original-order", "physics.eta_m=0.8",
        "physics.eta_d=0.7", "protocol.continue_on_abort=true",
    ], None, {
        "summary.json": "321e9432c67c52d639e64967dc7e20f96a5d7065fee7f9d0e589c27a37b8e112",
        "transcript.jsonl": "ed0f4fe67974d1dee57e263fc939bfbb5cfeca0e90bfdc8cf655bf7eaaf783f4",
    }),
    "per-photon-n5": ([
        "protocol.n=5", "protocol.theta=0.6", "protocol.p1_target=uniform",
        "physics.noise_spread=0.05", "physics.delta_theta=0.0785398", "physics.eta_m=0.9",
        "adversary.enabled=true", "adversary.p1=0.1", "adversary.p2=0.4",
        "protocol.continue_on_abort=true",
    ], None, {
        "summary.json": "cb7781ca11a2217ea77770391988462423d85a1a323373f7e3470e5c63005af8",
        "transcript.jsonl": "8dcb6a15d467ce56be5b9baef53c0c8bfb1a0b9e2e81d6e72088807b2452fa4d",
    }),
}


@pytest.mark.parametrize("case, workers", [
    *(pytest.param(case, 1, id=case) for case in sorted(GOLDEN_RUNS)),
    *(pytest.param(case, 3, id=f"{case}-workers3") for case in sorted(GOLDEN_RUNS)),
])
def test_simulate_golden_bytes(tmp_path, monkeypatch, case, workers):
    # 777-photon blocks: at r = 2000 each stage spans 3 to 8 blocks, the last
    # one short, so the pinned bytes hold for any block size and worker count
    monkeypatch.setattr(protocol, "_ENGINE_BLOCK", 777)
    sets, aborted_at_step, want = GOLDEN_RUNS[case]
    argv = ["simulate", "--out", str(tmp_path), "--seed", "0", "--set", "protocol.r=2000",
            "--workers", str(workers)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["aborted_at_step"] == aborted_at_step
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want
    }
    assert got == want


def test_simulate_threads_capped_at_usable_cpus(tmp_path, monkeypatch):
    # simulate runs on at most as many threads as the process may use, for
    # the default and for a larger --workers
    seen = []
    run = cli.run_full_protocol
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(cli, "run_full_protocol",
                        lambda *args, workers: seen.append(workers) or run(*args, workers=workers))
    for extra in ([], ["--workers", "8"]):
        argv = ["simulate", "--out", str(tmp_path), "--set", "protocol.r=100"]
        assert main(argv + extra) == 0
    assert seen == [1, 1]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's size and maps
    in this process, so no process is started."""

    def __init__(self, sizes: list, max_workers: int):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("workers, cpus, p1_grid, p2_grid, want", [
    (64, 2, "0,0.5", "0,0.5", [2]),     # capped at the usable CPUs
    (64, 8, "0,0.5", "0,0.5,1", [6]),   # at the number of points
    (64, 8, "0.5", "0.5", []),          # one point runs in this process
    (1, 8, "0,0.5", "0,0.5", []),       # so does one worker
    (3, 1, "0,0.5", "0,0.5", []),       # and one usable CPU
])
def test_attack_scan_processes_capped(tmp_path, monkeypatch, workers, cpus, p1_grid, p2_grid,
                                      want):
    sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(sizes, max_workers))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_attack_point", lambda job: [0.0] * 5 + [0])
    argv = ["attack-scan", "--out", str(tmp_path), "--workers", str(workers),
            "--set", f"attack.p1_grid={p1_grid}", "--set", f"attack.p2_grid={p2_grid}"]
    assert main(argv) == 0
    assert sizes == want


@pytest.mark.parametrize("workers, cpus, want", [(64, 2, 2), (2, 8, 2), (1, 8, 1), (8, 1, 1)])
def test_verify_processes_capped(tmp_path, monkeypatch, workers, cpus, want):
    seen = []
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(verify, "run_all", lambda workers, r_keystone: seen.append(workers) or [])
    assert main(["verify", "--out", str(tmp_path), "--workers", str(workers)]) == 0
    assert seen == [want]


@pytest.mark.parametrize("files, quota", [
    ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/cpu.max": "max 100000\n"}, None),
    ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/cpu.max": "150000 100000\n"}, 2),
    ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/cpu.max": "100000 100000\n"}, 1),
    ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/cpu.max": "20000 100000\n"}, 1),
    ({"/proc/self/cgroup": "4:memory:/a\n0::/jobs/run\n",
      "/sys/fs/cgroup/jobs/run/cpu.max": "300000 100000\n"}, 3),
    # the cgroup's own file only, not the root's
    ({"/proc/self/cgroup": "0::/jobs\n", "/sys/fs/cgroup/cpu.max": "100000 100000\n"}, None),
    # cgroup v1 only, no cgroup file, a malformed quota
    ({"/proc/self/cgroup": "3:cpu:/\n", "/sys/fs/cgroup/cpu.max": "100000 100000\n"}, None),
    ({}, None),
    ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/cpu.max": "100000\n"}, None),
    ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/cpu.max": "100000 0\n"}, None),
])
def test_usable_cpus_capped_at_cgroup_quota(monkeypatch, files, quota):
    # a cgroup v2 `cpu.max` quota lowers the affinity mask's 4 CPUs
    monkeypatch.setattr(cli, "_read_text", files.get)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert cli._cgroup_cpu_quota() == quota
    assert cli._usable_cpus() == (4 if quota is None else min(4, quota))


def test_read_text_of_a_missing_file_is_none(tmp_path):
    (tmp_path / "cpu.max").write_text("max 100000\n")
    assert cli._read_text(str(tmp_path / "cpu.max")) == "max 100000\n"
    assert cli._read_text(str(tmp_path / "absent")) is None


def test_failed_csv_write_leaves_no_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("cannot format")

    path = tmp_path / "sweep.csv"
    with pytest.raises(RuntimeError):
        _write_rows(path, ["a"], [[1.0], [Unprintable()]], ",")
    assert list(tmp_path.iterdir()) == []


def test_write_rows_prints_each_value_as_fmt(tmp_path):
    # the one-`%` path for rows of finite floats gives _fmt's text, and every
    # other row keeps it
    path = tmp_path / "rows.csv"
    rows = [[0.1, -0.0, 1e300, 5e-324, 123456789012.0], [0.5, -math.inf, math.inf, math.nan, 1.0],
            [1e308, 1e308, 0.0, 2.0, 3.0], [0.5, None, 7, True, "x"], [np.float64(0.3), 0.1]]
    _write_rows(path, list("abcde"), rows, ",")
    lines = path.read_text().splitlines()
    assert lines[1:] == [",".join(cli._fmt(v) for v in row) for row in rows]
    assert lines[2] == "0.5,inf,inf,nan,1"
    # a leading str is written as is and may hold several fields, before a
    # finite tail, a non-finite one or one that is not all floats
    led = [("x,0.5", 0.1, -0.0, 1e300), ("y", 5e-324, math.inf, 1.0), ("z,1", math.nan, 2.0, None),
           ("w", 0.25, 7, "v"), ("only",)]
    _write_rows(path, list("abcd"), led, ",")
    assert path.read_text().splitlines()[1:] == [",".join(cli._fmt(v) for v in row) for row in led]
    assert path.read_text().splitlines()[1:3] == ["x,0.5,0.1,-0,1e+300", "y,4.940656458e-324,inf,1"]


class TestSweepCommand:
    def test_csv_columns_and_determinism(self, tmp_path):
        args = [
            "sweep", "--out", str(tmp_path), "--set", "analysis.grid=0.3:1:8",
            "--set", "analysis.p1_list=0.1,0.4",
        ]
        assert main(args) == 0
        body1 = (tmp_path / "sweep.csv").read_bytes()
        header = body1.decode().splitlines()[0].split(",")
        assert header == ["axis", "p1", "delta_theta", "eta", "q_ab", "q_aba",
                          "e_ab", "e_aba", "i_ab", "i_be", "c_s", "e_s"]
        assert len(body1.decode().splitlines()) == 1 + 16
        assert main(args) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == body1

    def test_tsv_format(self, tmp_path):
        assert main([
            "sweep", "--out", str(tmp_path), "--format", "tsv",
            "--set", "analysis.grid=0.5:1:3",
        ]) == 0
        assert "\t" in (tmp_path / "sweep.tsv").read_text().splitlines()[0]

    def test_empty_grid_rejected(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path)]) == 2

    def test_gnuplot_script(self, tmp_path):
        assert main([
            "sweep", "--out", str(tmp_path),
            "--set", "analysis.grid=0.5:1:3", "--set", "output.gnuplot=true",
        ]) == 0
        assert (tmp_path / "sweep.gp").exists()

    def test_distance_axis(self, tmp_path):
        assert main([
            "sweep", "--out", str(tmp_path),
            "--set", "analysis.axis=L", "--set", "analysis.grid=0:15:4",
            "--set", "analysis.p1_list=0.1",
        ]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        etas = [float(r.split(",")[3]) for r in rows]
        assert etas == sorted(etas, reverse=True)


class TestThresholdCommand:
    def test_report(self, tmp_path, capsys):
        assert main([
            "threshold", "--out", str(tmp_path),
            "--set", "analysis.p1_list=0.1,0.429",
            "--set", "physics.delta_theta=0.00785398163",
        ]) == 0
        rows = (tmp_path / "thresholds.csv").read_text().splitlines()
        assert rows[0].split(",") == [
            "p1", "eta_star", "eta_star_noiseless", "l_max_km",
            "l_max_noiseless_km", "dth_star", "fidelity_one_trip",
            "fidelity_two_trip",
        ]
        first = rows[1].split(",")
        assert float(first[1]) == pytest.approx(0.4825, abs=0.002)
        assert float(first[3]) == pytest.approx(14.72, abs=0.2)
        # noise-robust operating point reports no threshold
        assert rows[2].split(",")[5] == "none"
        out = capsys.readouterr().out
        assert "DI benchmark" in out and "0.926" in out

    def test_memory_round_trips_set_eta_m(self, tmp_path):
        # 11 round trips at 0.9 per trip are the memory efficiency 0.9**11
        def thresholds(name, *sets):
            argv = ["threshold", "--out", str(tmp_path / name)]
            for item in sets:
                argv += ["--set", item]
            assert main(argv) == 0
            return (tmp_path / name / "thresholds.csv").read_bytes()

        trips = thresholds("trips", "physics.qm_round_trips=11",
                           "physics.qm_per_trip_efficiency=0.9")
        assert trips == thresholds("eta_m", f"physics.eta_m={0.9 ** 11!r}")
        assert trips != thresholds("default")

    @pytest.mark.parametrize("dth, per_p1", [("0", 1), ("0.0785398", 2)])
    def test_noiseless_columns_solved_once_at_zero_rotation(self, tmp_path, monkeypatch,
                                                            dth, per_p1):
        # at delta_theta = 0 the noiseless columns are the configured solve
        calls = {"eta_threshold": 0, "max_distance": 0}
        for name in calls:
            solver = getattr(analysis, name)

            def counted(*args, _solver=solver, _name=name, **kwargs):
                calls[_name] += 1
                return _solver(*args, **kwargs)

            monkeypatch.setattr(analysis, name, counted)
        argv = ["threshold", "--out", str(tmp_path), "--set", f"physics.delta_theta={dth}"]
        assert main(argv) == 0
        n_p1 = len(SCHEMA["analysis.p1_list"][0])
        assert calls == {"eta_threshold": per_p1 * n_p1, "max_distance": per_p1 * n_p1}
        rows = [row.split(",") for row in
                (tmp_path / "thresholds.csv").read_text().splitlines()[1:]]
        assert len(rows) == n_p1
        if per_p1 == 1:
            assert all(row[1:3] == [row[1]] * 2 and row[3:5] == [row[3]] * 2 for row in rows)


class TestBasisConfigInAnalysis:
    # sweep and threshold model the basis policy at the configured n and theta
    SETS = ["--set", "protocol.n=5", "--set", "protocol.theta=0.6",
            "--set", "physics.delta_theta=0.0785398", "--set", "analysis.p1_list=0.3,0.6"]
    CONFIG = BasisConfig(n=5, theta=0.6)

    def test_sweep_matches_state_algebra(self, tmp_path):
        argv = ["sweep", "--out", str(tmp_path), "--set", "analysis.grid=0.2:1:5"]
        assert main(argv + self.SETS) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 10
        for row in rows:
            fields = row.split(",")
            eta, p1, c_s = float(fields[0]), float(fields[1]), float(fields[10])
            want = brute_capacity(p1, self.CONFIG, eta, 0.0785398)
            assert c_s == pytest.approx(want, rel=1e-9, abs=1e-12)
        cols = analysis.sweep("eta", [0.2, 0.6, 1.0], [0.3, 0.6], analysis.EfficiencyParams(),
                              delta_theta=0.0785398, config=self.CONFIG)
        assert cols.p1 == [0.3, 0.6] and cols.axis == [0.2, 0.6, 1.0]
        for (p1, eta), c_s in zip(itertools.product(cols.p1, cols.axis), cols.c_s):
            want = brute_capacity(p1, self.CONFIG, eta, 0.0785398)
            assert c_s == pytest.approx(want, abs=1e-12)

    def test_threshold_roots_are_sign_changes(self, tmp_path):
        assert main(["threshold", "--out", str(tmp_path)] + self.SETS) == 0
        rows = (tmp_path / "thresholds.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            p1, eta_star, eta_star0, _, _, dth_star = row.split(",")[:6]
            p1 = float(p1)
            for star, dth in ((float(eta_star), 0.0785398), (float(eta_star0), 0.0)):
                assert brute_capacity(p1, self.CONFIG, star - 1e-5, dth) < 0.0
                assert brute_capacity(p1, self.CONFIG, star + 1e-5, dth) > 0.0
            dth_star = float(dth_star)
            assert brute_capacity(p1, self.CONFIG, 1.0, dth_star - 1e-5) > 0.0
            assert brute_capacity(p1, self.CONFIG, 1.0, dth_star + 1e-5) < 0.0

    # n = 5 at pi/4 cannot go below cos^2(2*pi/5) = 0.0955, and at theta = 0.6
    # not below 0.214; the line names the key that set the P1, the range, n and theta
    PI4_RANGE = "[0.0954915, 1] for n=5 at theta=0.785398"

    @pytest.mark.parametrize("cmd, sets, want", [
        ("threshold", ["analysis.p1_list=0.3,0.001"],
         f"analysis.p1_list: target 0.001 is outside the reachable range {PI4_RANGE}"),
        ("sweep", ["analysis.p1_list=0.3,0.001", "analysis.grid=0.5"],
         f"analysis.p1_list: target 0.001 is outside the reachable range {PI4_RANGE}"),
        ("threshold", ["protocol.theta=0.6", "analysis.p1_list=0.3,0.2"],
         "analysis.p1_list: target 0.2 is outside the reachable range "
         "[0.214256, 1] for n=5 at theta=0.6"),
        ("simulate", ["protocol.p1_target=0.001"],
         f"protocol.p1_target: target 0.001 is outside the reachable range {PI4_RANGE}"),
        ("attack-scan", ["protocol.p1_target=0.001", "attack.r=100"],
         f"protocol.p1_target: target 0.001 is outside the reachable range {PI4_RANGE}"),
    ], ids=["threshold", "sweep", "threshold-theta0.6", "simulate", "attack-scan"])
    def test_unreachable_p1_exits_two(self, tmp_path, capsys, cmd, sets, want):
        argv = [cmd, "--out", str(tmp_path), "--set", "protocol.n=5"]
        for setting in sets:
            argv += ["--set", setting]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {want}\n"
        assert list(tmp_path.iterdir()) == []



# sha256 of the default `threshold` output and of one sweep per axis over the
# default P1 list, at 200 points and at the benchmark's 2000; any change to
# the capacity model shows up here first.
ANALYSIS_GOLDEN = {
    "threshold": ([], "thresholds.csv",
                  "191e7815eb9a021636fb5b75966d3e4287a2341f31c0efd25ab6fe066e5ab724"),
    # the benchmark's 60 operating points at dth = pi/40; 8 have no dth* root
    "threshold-pi40-60": (["physics.delta_theta=0.0785398", "analysis.p1_list=0.005:0.995:60"],
                          "thresholds.csv",
                          "99d9294a558aab78f7c4d05daa0a6aa1c5f8de03f1b8c5a4c4f56f24b70b5c26"),
    # off the reference basis (n = 5 reaches P1 in [0.214, 1] at theta = 0.6)
    "threshold-n5-theta0.6": (["protocol.n=5", "protocol.theta=0.6", "physics.delta_theta=0.0785398",
                               "analysis.p1_list=0.25:0.995:8"], "thresholds.csv",
                              "f2b4c22bdefdca4a756d998f695d2ed47712908b77b473d191943bc23bc7232a"),
    # extreme P1 and a huge rotation: most scan points sit near C_S = 0
    "threshold-extreme": (["analysis.p1_list=1e-300,1e-12,0.5,0.999999999999",
                           "physics.delta_theta=1e6"], "thresholds.csv",
                          "bfef6b2a25a4130d2991c992dc875c6d98c8d5df76ff29a4835e19fb37e46f76"),
    "sweep-eta": (["analysis.axis=eta", "analysis.grid=0.0005:1:200"], "sweep.csv",
                  "9178cdfef18a3b3e9efb80212c6cb52321050360868b4af050411fe2d4584b06"),
    "sweep-L": (["analysis.axis=L", "analysis.grid=0:100:200"], "sweep.csv",
                "7aeac225bc31e7382bc0b40ce5408986939ab6fd525f1759911f81016a02d7b6"),
    "sweep-delta_theta": (["analysis.axis=delta_theta", "analysis.grid=0:3.14159:200"],
                          "sweep.csv",
                          "42e02608a629e930ba83234e606e7e391ff1308e83cce60b0cbaf0636279b137"),
    "sweep-eta-2000": (["analysis.axis=eta", "analysis.grid=0.0005:1:2000"], "sweep.csv",
                       "a022efecd049af2695607e5c298795f454838044ebf6df818f007ce05eeb5f70"),
    "sweep-L-2000": (["analysis.axis=L", "analysis.grid=0:100:2000"], "sweep.csv",
                     "9714454224fa9188c67a36aeb361c022142239526727b2074c42bdcbc2b661ac"),
    "sweep-delta_theta-2000": (["analysis.axis=delta_theta", "analysis.grid=0:3.14159:2000"],
                               "sweep.csv",
                               "b6c597abbb41cfec74cff01656962ed8853fb8d6fff369442bf2b2c65dc38aa5"),
    # off the delta_theta axis at a nonzero rotation, where the rotation terms are not 0
    "sweep-eta-pi40": (["analysis.axis=eta", "analysis.grid=0.0005:1:2000",
                        "physics.delta_theta=0.0785398"], "sweep.csv",
                       "61f1c73cba6dab43364c5aa975be2942b2961016103c3c02aad87359c1727862"),
    "sweep-L-pi40": (["analysis.axis=L", "analysis.grid=0:100:2000",
                      "physics.delta_theta=0.0785398"], "sweep.csv",
                     "a245a5cc42c597cace5a14b641c0d3a3d6634288808eac9734e9e5c119816e73"),
}


@pytest.mark.parametrize("case", sorted(ANALYSIS_GOLDEN))
def test_analysis_golden_bytes(tmp_path, case):
    sets, name, want = ANALYSIS_GOLDEN[case]
    argv = [case.split("-")[0], "--out", str(tmp_path)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 0
    body = (tmp_path / name).read_bytes()
    assert hashlib.sha256(body).hexdigest() == want
    # the tab-separated file is the same text with tabs for commas
    assert main(argv + ["--format", "tsv"]) == 0
    tsv = (tmp_path / name).with_suffix(".tsv").read_bytes()
    assert tsv == body.replace(b",", b"\t")


PACKAGE_WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any import of scipy now fails
import rdiqsdc
for info in pkgutil.iter_modules(rdiqsdc.__path__):
    importlib.import_module("rdiqsdc." + info.name)
from rdiqsdc.adversary import BlindingAttackParams, detection_power
from rdiqsdc.cli import main
from rdiqsdc.protocol import hoeffding_tolerance
from rdiqsdc.verify import REPLICA_M
tol = hoeffding_tolerance(REPLICA_M)
for target in (0.1, 0.5):  # criterion 9's detected and undetectable points
    print(repr(detection_power(target, BlindingAttackParams(0.5, 0.5), REPLICA_M, tol)))
sys.exit(main(["attack-scan", "--out", sys.argv[1], "--set", "attack.r=2000",
               "--set", "attack.p1_grid=0,1", "--set", "attack.p2_grid=0,1"]))
"""


def test_package_runs_without_scipy(tmp_path):
    # scipy is a test-only oracle: with it unimportable, every module imports,
    # criterion 9's abort probabilities are computed and attack-scan runs
    proc = subprocess.run([sys.executable, "-c", PACKAGE_WITHOUT_SCIPY, str(tmp_path)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    detected, hidden = (float(line) for line in proc.stdout.splitlines()[:2])
    assert detected == 1.0
    assert f"{hidden:.3g}" == "7e-08"
    assert len((tmp_path / "attack_scan.csv").read_text().splitlines()) == 5


class TestAttackScanCommand:
    def test_grid_and_worker_invariance(self, tmp_path):
        args = [
            "attack-scan", "--out", str(tmp_path), "--seed", "5",
            "--set", "attack.r=2000",
            "--set", "attack.p1_grid=0,1", "--set", "attack.p2_grid=0,1",
        ]
        assert main(args + ["--workers", "1"]) == 0
        body1 = (tmp_path / "attack_scan.csv").read_bytes()
        assert main(args + ["--workers", "2"]) == 0
        assert (tmp_path / "attack_scan.csv").read_bytes() == body1
        rows = body1.decode().splitlines()
        header = rows[0].split(",")
        assert header == ["p1_attack", "p2_attack", "predicted_p_g0", "empirical_p_g0",
                          "abort_probability", "aborted"]
        assert len(rows) == 5
        # full attack with aligned bases forces every click to g=0
        full = dict(zip(header, rows[-1].split(",")))
        assert float(full["empirical_p_g0"]) == 1.0

    def test_every_point_runs_on_its_own_seed(self, tmp_path, monkeypatch):
        # point (i, j) of the grids runs on seed + 1000 + stride * i + j, with
        # a stride of 100 unless the p2 grid is wider
        seeds = []

        def record(job):
            params = job[0]
            seeds.append(params.seed)
            return [params.adversary.p1, params.adversary.p2, 0.0, 0.0, 0.0, 0]

        monkeypatch.setattr(cli, "_attack_point", record)
        argv = ["attack-scan", "--out", str(tmp_path), "--workers", "1",
                "--set", "attack.p1_grid=0,0.5"]
        assert main(argv + ["--set", "attack.p2_grid=0:1:100"]) == 0
        assert seeds == [1_000 + 100 * i + j for i in range(2) for j in range(100)]
        seeds.clear()
        # past the largest seed the point seeds wrap around, as 64-bit words
        assert main(argv + ["--set", "attack.p2_grid=0,1", "--seed", str(2**64 - 1)]) == 0
        assert seeds == [999, 1_000, 1_099, 1_100]
        seeds.clear()
        # 101 columns: (0, 1.0) and (0.5, 0) would both take seed 1100
        assert main(argv + ["--set", "attack.p2_grid=0:1:101"]) == 0
        assert len(set(seeds)) == len(seeds) == 202


class TestVerifyCommand:
    def test_exit_codes(self, tmp_path, monkeypatch, capsys):
        passing = [verify.CheckResult("1", "x", "1", "1", "0", True, "exact")]
        monkeypatch.setattr(verify, "run_all", lambda **kw: passing)
        assert main(["verify", "--out", str(tmp_path)]) == 0
        failing = [verify.CheckResult("1", "x", "1", "2", "0", False, "exact")]
        monkeypatch.setattr(verify, "run_all", lambda **kw: failing)
        assert main(["verify", "--out", str(tmp_path)]) == 3
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("r", ["0", "-5"])
    def test_keystone_r_below_one_rejected_before_any_criterion(self, tmp_path, monkeypatch,
                                                                capsys, r):
        ran = []
        monkeypatch.setattr(verify, "run_all", lambda **kw: ran.append(kw) or [])
        for workers in ("1", "2"):
            assert main(["verify", "--out", str(tmp_path), "--workers", workers,
                         "--keystone-r", r]) == 2
            err = capsys.readouterr().err
            assert err == f"config error: --keystone-r must be at least 1, got {r}\n"
        assert ran == []


# values drawn per key by the type of its default: edge cases in and out of
# each domain plus junk, none of which asks for a long run
_JUNK = ("x",)
FUZZ_VALUES = {
    int: ("0", "1", "2", "3", "-1", "1.5") + _JUNK,
    # `uniform` is protocol.p1_target's keyword and junk for the other floats
    float: ("0", "0.3", "0.5", "0.7", "1", "2", "-0.5", "1e-300", "5e-324", "5e307", "1e308",
            "-1e308", "inf", "uniform") + _JUNK,
    bool: ("true", "false", "1") + _JUNK,
    tuple: ("0.5", "0.1,0.4", "0,1", "0:1:3", "1:0:2", "-1", "5e-324,0.5", "1e308") + _JUNK,
    str: ("0110", "random", "eta", "L", "delta_theta", "policy", "original-order") + _JUNK,
    type(None): ("hoeffding", "0.01", "1", "0", "-1") + _JUNK,  # protocol.tolerance
}


def _setting(key: str):
    return st.sampled_from(FUZZ_VALUES[type(SCHEMA[key][0])]).map(lambda v: f"{key}={v}")


@given(
    cmd=st.sampled_from(COMMANDS),
    sets=st.lists(st.sampled_from(sorted(SCHEMA)).flatmap(_setting), max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_fuzzed_settings_exit_cleanly(cmd, sets):
    # every outcome is a result (exit 0) or one config-error line (exit 2)
    # that leaves no output file behind
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = _run(out, cmd, *sets)
        assert rc in (0, 2)
        assert err.getvalue().count("\n") <= 1
        files = sorted(p.name for p in out.rglob("*")) if out.exists() else []
        if rc == 2:
            assert files == []
        assert not [name for name in files if name.endswith(".tmp")]
