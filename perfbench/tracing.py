"""In-memory span tracer that wraps the package's public layer functions
from outside the package.

A span is (name, start, end, parent, op): `parent` indexes the enclosing
span (-1 for an operation's root) and `op` is the operation it belongs
to. Spans stay in memory until `dump` writes them out. Self time of a span
is its duration minus the durations of its direct children, so the self
times of one operation add up to its root span.

Calls made inside pool worker processes are out of reach: a layer that
runs only there reports the waiting time of its caller instead.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# metric name -> (module, attribute path); the wrapped call becomes a span
SPANS = {
    "protocol.step1_prepare_s": ("rdiqsdc.protocol", "ProtocolRun.step1_prepare"),
    "protocol.step2_transmit_to_bob_s": ("rdiqsdc.protocol", "ProtocolRun.step2_transmit_to_bob"),
    "protocol.step3_first_check_s": ("rdiqsdc.protocol", "ProtocolRun.step3_first_check"),
    "protocol.step4_encode_and_shuffle_s": ("rdiqsdc.protocol", "ProtocolRun.step4_encode_and_shuffle"),
    "protocol.step5_transmit_to_alice_s": ("rdiqsdc.protocol", "ProtocolRun.step5_transmit_to_alice"),
    "protocol.step5_second_check_s": ("rdiqsdc.protocol", "ProtocolRun.step5_second_check"),
    "protocol.step6_decode_s": ("rdiqsdc.protocol", "ProtocolRun.step6_decode"),
    "protocol.stats_s": ("rdiqsdc.protocol", "ProtocolRun._stats"),
    "protocol.columns_s": ("rdiqsdc.protocol", "ProtocolRun._columns"),
    "protocol.announcements_s": ("rdiqsdc.protocol", "ProtocolRun._announcements"),
    "protocol.attack_summary_s": ("rdiqsdc.protocol", "ProtocolRun._attack_summary"),
    "transcript.write_s": ("rdiqsdc.protocol", "write_transcript"),
    # the summary file is written by json.dump as the CLI module sees it
    "summary.write_s": ("rdiqsdc.cli", "json.dump"),
    "seeding.stream_s": ("rdiqsdc.seeding", "stream"),
    "config.load_s": ("rdiqsdc.config", "load_config"),
    "analysis.eta_threshold_s": ("rdiqsdc.analysis", "eta_threshold"),
    "analysis.max_distance_s": ("rdiqsdc.analysis", "max_distance"),
    "analysis.delta_theta_threshold_s": ("rdiqsdc.analysis", "delta_theta_threshold"),
    "analysis.sweep_s": ("rdiqsdc.analysis", "sweep"),
    "cli.write_rows_s": ("rdiqsdc.cli", "_write_rows"),
    "adversary.detection_power_s": ("rdiqsdc.adversary", "detection_power"),
    **{f"verify.criterion{k}_s": ("rdiqsdc.verify", f"criterion{k}") for k in range(1, 11)},
}

# metric name -> [(module, attribute path)]; calls are counted, not timed,
# because they are too many and too short for a span each
COUNTS = {
    "protocol.runs": [("rdiqsdc.protocol", "ProtocolRun.__init__")],
    "analysis.cs_evals": [("rdiqsdc.analysis", "secrecy_capacity")],
    "qstate.ops": [
        ("rdiqsdc.qstate", name)
        for name in ("prepare", "apply_encode", "apply_rotation", "inner_product",
                     "outcome_probability", "sample_outcome", "state_fidelity",
                     "states_close")
    ],
}

# span metric whose span count is itself a metric
SPAN_COUNTS = {"seeding.streams": "seeding.stream_s"}

ROOT = "op"


def _result_nbytes(result) -> int:
    """Bytes held by the numpy arrays of a ProtocolResult, each array once."""
    seen: dict[int, int] = {}

    def visit(obj, depth: int) -> None:
        if isinstance(obj, np.ndarray):
            seen[id(obj)] = obj.nbytes
        elif depth < 3 and hasattr(obj, "__dataclass_fields__"):
            for name in obj.__dataclass_fields__:
                visit(getattr(obj, name), depth + 1)

    visit(result, 0)
    return sum(seen.values())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tally: Counter = Counter()                 # (op, metric) -> calls
        self.sums: Counter = Counter()                  # (op, quantity) -> total
        self.missing: list[str] = []
        self._stack: list[int] = []
        self.op = -1

    # -- recording ----------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def run_op(self, index: int, fn):
        """Call fn() as the root span of operation `index`."""
        self.op = index
        rec = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(rec)

    def timed(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.tally[(self.op, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_run(self, result, args) -> None:
        self.sums[(self.op, "result_bytes")] += _result_nbytes(result)
        self.sums[(self.op, "result_photons")] += 3 * result.params.r

    def _after_transcript(self, result, args) -> None:
        proto_result, path = args[0], args[1]
        self.sums[(self.op, "transcript_bytes")] += os.path.getsize(path)
        self.sums[(self.op, "transcript_photons")] += 3 * proto_result.params.r

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap every listed layer; a layer that no longer exists is missing."""
        for metric, (module, path) in SPANS.items():
            after = self._after_transcript if metric == "transcript.write_s" else None
            if not self._patch(module, path, lambda fn, m=metric, a=after: self.timed(m, fn, a)):
                self.missing.append(metric)
        if not self._patch("rdiqsdc.protocol", "ProtocolRun.run",
                           lambda fn: self.timed("protocol.run_s", fn, self._after_run)):
            self.missing.append("protocol.result_bytes_per_photon")
        for metric, targets in COUNTS.items():
            found = [self._patch(module, path, lambda fn, m=metric: self.counted(m, fn))
                     for module, path in targets]
            if not any(found):
                self.missing.append(metric)

    def _patch(self, module_name: str, path: str, make) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        original = getattr(owner, attr, None)
        if original is None:
            return False
        wrapped = make(original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        elif owner is not module:
            # a module the package imports (json): give the importer a copy
            # so the benchmark's own use of it stays untraced
            proxy = types.ModuleType(owner.__name__)
            proxy.__dict__.update(owner.__dict__)
            setattr(proxy, attr, wrapped)
            setattr(module, owner_path[-1], proxy)
        else:
            # rebind every package name bound to the function, so that
            # `from .x import f` imports are traced too
            for mod in [m for n, m in list(sys.modules.items())
                        if n == "rdiqsdc" or n.startswith("rdiqsdc.")]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
        return True

    # -- analysis -----------------------------------------------------------
    def per_op(self) -> dict[int, dict[str, float]]:
        """Per operation: self time of each span metric, counts and computed values."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            ops[op][name] += end - start - child[i]
            ops[op]["#" + name] += 1
        out = {}
        for op, acc in ops.items():
            row = {m: acc.get(m, 0.0) for m in SPANS if m not in self.missing}
            for metric, span in SPAN_COUNTS.items():
                if span not in self.missing:
                    row[metric] = acc.get("#" + span, 0)
            for metric in COUNTS:
                if metric not in self.missing:
                    row[metric] = self.tally[(op, metric)]
            if "protocol.result_bytes_per_photon" not in self.missing:
                photons = self.sums[(op, "result_photons")]
                row["protocol.result_bytes_per_photon"] = (
                    self.sums[(op, "result_bytes")] / photons if photons else 0.0)
            if "transcript.write_s" not in self.missing:
                photons = self.sums[(op, "transcript_photons")]
                row["transcript.bytes"] = self.sums[(op, "transcript_bytes")]
                row["transcript.us_per_photon"] = (
                    1e6 * acc.get("transcript.write_s", 0.0) / photons if photons else 0.0)
            out[op] = row
        return out

    def medians(self) -> dict[str, float]:
        rows = list(self.per_op().values())
        names = rows[0].keys() if rows else ()
        return {m: statistics.median(row[m] for row in rows) for m in names}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": self.spans,
                "counts": [[op, m, n] for (op, m), n in sorted(self.tally.items())],
                "missing": self.missing,
            }, fh)
