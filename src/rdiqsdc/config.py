"""Run configuration: flat dotted keys, file plus CLI overrides.

A config file holds `key = value` lines (# comments allowed). Every key
has a documented default matching the reference operating point
(theta = pi/4, alpha = 0.2 dB/km, eta_c = 0.95, eta_m = eta_d = 1,
R_rep = 1e7 Hz, p_s = 1). Unknown keys are rejected.

Grids accept either a comma list ("0.001,0.1,0.2") or linspace syntax
"start:stop:count".
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adversary import BlindingAttackParams
from .analysis import EfficiencyParams
from .devices import ChannelNoiseModel, LinkBudget, memory_efficiency
from .domains import (
    ANGLE, COUNT, INDEX, NON_NEGATIVE, OPEN_UNIT, POSITIVE, REAL, SEED, SETTINGS, UNIT, Domain,
)
from .protocol import OffsetDistribution, ProtocolParams, Round2Mode, hoeffding_tolerance
from .qstate import BasisConfig

ENV_CONFIG = "RDIQSDC_CONFIG"


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2 in the CLI."""


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected a boolean")


def _parse_grid(s: str) -> tuple[float, ...]:
    s = s.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be start:stop:count")
        start, stop, count = REAL.parse(parts[0]), REAL.parse(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid count must be positive")
        return tuple(float(x) for x in np.linspace(start, stop, count))
    return tuple(REAL.parse(x) for x in s.split(","))


def _parse_unit_grid(s: str) -> tuple[float, ...]:
    grid = _parse_grid(s)
    if not all(v in UNIT for v in grid):
        raise ValueError(f"every entry {UNIT.text}")
    return grid


def _keyword_or(keyword: str, domain: Domain):
    """Parser of `keyword`, read as None, or of a number in `domain`."""
    def parse(s: str):
        return None if s.strip().lower() == keyword else domain.parse(s)
    return parse


def _parse_epsilon(s: str) -> float:
    eps = OPEN_UNIT.parse(s)
    hoeffding_tolerance(1, eps)  # rejects a budget that leaves no finite tolerance
    return eps


def _choice(*choices: str):
    def parse(s: str) -> str:
        v = s.strip()
        if v not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return v
    return parse


def _parse_message(s: str) -> str:
    v = s.strip()
    if v != "random" and not set(v) <= {"0", "1"}:
        raise ValueError("expected 'random' or a 0/1 string")
    return v


# key -> (default, parser); a Domain parser is the one its domain object checks
SCHEMA: dict[str, tuple] = {
    "protocol.r": (10_000, COUNT),
    "protocol.n": (8, SETTINGS),
    "protocol.theta": (math.pi / 4, ANGLE),
    "protocol.p1_target": (0.1, _keyword_or("uniform", UNIT)),
    "protocol.tolerance": (None, _keyword_or("hoeffding", NON_NEGATIVE)),
    "protocol.epsilon": (1e-6, _parse_epsilon),
    "protocol.message": ("random", _parse_message),
    "protocol.seed": (0, SEED),
    "protocol.round2_mode": ("policy", _choice("policy", "original-order")),
    "protocol.continue_on_abort": (False, _parse_bool),
    "physics.distance_km": (0.0, NON_NEGATIVE),
    "physics.alpha_db_per_km": (0.2, NON_NEGATIVE),
    "physics.eta_c": (0.95, UNIT),
    "physics.eta_m": (1.0, UNIT),
    "physics.eta_d": (1.0, UNIT),
    "physics.qm_per_trip_efficiency": (1.0, UNIT),
    "physics.qm_round_trips": (0, INDEX),
    "physics.delta_theta": (0.0, REAL),
    "physics.noise_spread": (0.0, NON_NEGATIVE),
    "adversary.enabled": (False, _parse_bool),
    "adversary.p1": (0.0, UNIT),
    "adversary.p2": (0.0, UNIT),
    "analysis.axis": ("eta", _choice("eta", "L", "delta_theta")),
    "analysis.grid": ((), _parse_grid),
    "analysis.p1_list": ((0.001, 0.1, 0.2, 0.3, 0.4, 0.5), _parse_unit_grid),
    "analysis.r_rep_hz": (1e7, POSITIVE),
    "analysis.p_s": (1.0, UNIT),
    "attack.p1_grid": ((0.0, 0.25, 0.5, 0.75, 1.0), _parse_unit_grid),
    "attack.p2_grid": ((0.0, 0.25, 0.5, 0.75, 1.0), _parse_unit_grid),
    "attack.r": (100_000, COUNT),
    "output.transcript": (True, _parse_bool),
    "output.gnuplot": (False, _parse_bool),
}


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def validate(self) -> "RunConfig":
        """The rules that tie one key to another, checked for every command:
        the message length, eta_m against the memory's round trips, and the
        two-leg rotation bound of delta_theta and noise_spread. Rules that
        depend on what a command builds (P1 reachability, the sweep grid,
        the rotation spread and P1 domain of the closed forms) stay with it."""
        message = self["protocol.message"]
        if message != "random" and len(message) != self["protocol.r"]:
            raise ConfigError("protocol.message length must equal protocol.r")
        if self["physics.qm_round_trips"] > 0 and self["physics.eta_m"] != 1.0:
            raise ConfigError("set physics.eta_m or physics.qm_round_trips, not both")
        try:
            self.noise()
        except ValueError as exc:
            raise ConfigError(
                f"bad values for physics.delta_theta and physics.noise_spread ({exc})"
            ) from exc
        return self

    def check_p1_reachable(self, key: str) -> None:
        """Every P1 that `key` holds (a target or a list of them) is one the
        checking rounds' offsets reach at protocol.n and protocol.theta; an
        unreachable one names `key`, the reachable range, n and theta."""
        targets = self[key] if isinstance(self[key], tuple) else (self[key],)
        for p1 in targets:
            try:
                OffsetDistribution.of(self.basis_config(), p1)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None

    # ---- domain-object builders -------------------------------------------
    def basis_config(self) -> BasisConfig:
        return BasisConfig(n=self["protocol.n"], theta=self["protocol.theta"])

    def link(self) -> LinkBudget:
        eta_m = self["physics.eta_m"]
        if self["physics.qm_round_trips"] > 0:
            eta_m = memory_efficiency(
                self["physics.qm_per_trip_efficiency"], self["physics.qm_round_trips"]
            )
        return LinkBudget(
            distance_km=self["physics.distance_km"],
            alpha_db_per_km=self["physics.alpha_db_per_km"],
            eta_c=self["physics.eta_c"],
            eta_m=eta_m,
            eta_d=self["physics.eta_d"],
        )

    def noise(self) -> ChannelNoiseModel:
        return ChannelNoiseModel(
            delta_theta=self["physics.delta_theta"], spread=self["physics.noise_spread"]
        )

    def adversary(self) -> Optional[BlindingAttackParams]:
        if not self["adversary.enabled"]:
            return None
        return BlindingAttackParams(p1=self["adversary.p1"], p2=self["adversary.p2"])

    def protocol_params(self) -> ProtocolParams:
        return ProtocolParams(
            r=self["protocol.r"],
            config=self.basis_config(),
            p1_target=self["protocol.p1_target"],
            link=self.link(),
            noise=self.noise(),
            adversary=self.adversary(),
            tolerance=self["protocol.tolerance"],
            epsilon=self["protocol.epsilon"],
            round2_mode=Round2Mode(self["protocol.round2_mode"]),
            continue_on_abort=self["protocol.continue_on_abort"],
            seed=self["protocol.seed"],
        )

    def message_bits(self) -> Optional[list[int]]:
        raw = self["protocol.message"]
        if raw == "random":
            return None
        return [int(c) for c in raw]

    def efficiency(self) -> EfficiencyParams:
        return EfficiencyParams(
            r_rep_hz=self["analysis.r_rep_hz"],
            p_s=self["analysis.p_s"],
        )


def parse_value(key: str, raw: str):
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key: {key!r}")
    _, parser = SCHEMA[key]
    try:
        return parser.parse(raw) if isinstance(parser, Domain) else parser(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


def load_config(
    path: Optional[str] = None, overrides: Optional[dict[str, str]] = None
) -> RunConfig:
    """Defaults, then the file (or $RDIQSDC_CONFIG), then overrides; the
    result has passed RunConfig.validate()."""
    values = {key: default for key, (default, _) in SCHEMA.items()}
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 ({exc.reason} at byte "
                              f"{exc.start})") from None
        for lineno, line in enumerate(lines, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = parse_value(key, raw)
    for key, raw in (overrides or {}).items():
        values[key] = parse_value(key, raw)
    return RunConfig(values).validate()
