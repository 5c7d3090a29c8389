"""Call spans around the package's public functions, kept in memory.

``instrument`` rebinds the names callers resolve (module attributes in
every ``fpaudit`` module that imported the function, and methods on their
classes) to wrappers that record one span per call: id, parent span, audit
id, name, start and end.  ``restore`` puts the originals back, so untraced
runs execute the program unchanged.  ``layer_metrics`` folds the spans into
the per-layer metrics; a layer is the part of a span name before the dot.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("versions", "database", "strategies", "protocol", "challenge", "transport",
          "verdict", "simulator", "outsourced")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, audit, name, start_ns, end_ns)
        self.audit: int | None = None
        self.audits = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.context = None  # the AuditContext of the running audit
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int] | None:
        """This thread's open spans, or None while tracing is muted."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.muted = [], False
        return None if local.muted else local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack is None:
            yield
            return
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, self.audit, name, start, end))

    @contextmanager
    def muted(self):
        self._stack()
        before, self._local.muted = self._local.muted, True
        try:
            yield
        finally:
            self._local.muted = before

    @contextmanager
    def solo(self, name: str):
        """One span whose callees are not traced (for the outcome checks)."""
        with self.span(name), self.muted():
            yield

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack is None:
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.audit, name, start, end))
            if observe is not None and tracer.audit is not None:
                observe(tracer, args, result, end - start)
            return result

        return traced

    def patch_method(self, cls, attr: str, name: str, observe=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, observe))
        self._undo.append((cls, attr, original))

    def patch_function(self, module, attr: str, name: str, observe=None) -> None:
        """Rebind ``module.attr`` in every fpaudit module that imported it."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "fpaudit" or mod_name.startswith("fpaudit.")) \
                    and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- audits ----------------------------------------------------------------

    def begin_audit(self, audit_no: int) -> None:
        self.audit = audit_no
        self.context = None

    def end_audit(self, logs: dict[str, list[dict]] | None = None) -> None:
        """Close the audit: budget stop and log size, computed untraced."""
        from fpaudit.strategies import default_budget

        self.audits += 1
        with self.muted():
            ctx = self.context
            if ctx is not None and len(ctx.log.plan_outcomes()) >= default_budget(ctx.db) \
                    and ctx.informative():
                self.counts["strategies.budget_stops"] += 1
            if logs is not None:
                rounds = len(logs.get("auditor", ()))
                self.counts["outsourced.rounds"] += rounds
                self.counts["outsourced.log_bytes"] += sum(
                    len(json.dumps(entry, sort_keys=True)) + 1
                    for entries in logs.values() for entry in entries)
        self.audit = None
        self.context = None

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines; audit is -1 outside audits."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\taudit\tname\tstart_ns\tend_ns\n")
            fh.writelines(f"{sid}\t{parent}\t{-1 if audit is None else audit}\t{name}\t{start}\t{end}\n"
                          for sid, parent, audit, name, start, end in self.spans)

    # -- metrics ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        durations: dict[str, list[int]] = defaultdict(list)
        calls: dict[str, int] = defaultdict(int)  # inside audits
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, audit, name, start, end in self.spans:
            durations[name].append(end - start)
            child_ns[parent] += end - start
            if audit is not None:
                calls[name] += 1
        audit_self: dict[str, int] = defaultdict(int)
        setup_self: dict[str, int] = defaultdict(int)
        for sid, parent, audit, name, start, end in self.spans:
            own = end - start - child_ns.get(sid, 0)
            layer = name.split(".", 1)[0]
            (audit_self if audit is not None else setup_self)[layer] += own

        audits = max(self.audits, 1)
        counts = self.counts

        def mean(name: str, scale: float) -> float:
            values = durations.get(name)
            return statistics.fmean(values) / scale if values else 0.0

        def per_audit(name: str) -> float:
            return calls.get(name, 0) / audits

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def quantile(values: list[float], q: int) -> float:
            if len(values) < 2:
                return values[0] if values else 0.0
            return statistics.quantiles(values, n=10)[q - 1]

        exchange_us = [d / 1e3 for d in durations.get("transport.exchange", [])]
        subtests = counts["protocol.subtests"]
        judged = counts["challenge.judged"]
        exchanges = calls.get("transport.exchange", 0)
        us, ms, n, r = "us", "ms", "count", "ratio"
        out = {
            "versions.parse_us": (mean("versions.parse_version", 1e3), us),
            "versions.family_sort_ms": (mean("versions.VersionSet", 1e6), ms),
            "database.load_ms": (mean("database.load_database", 1e6), ms),
            "database.add_entry_ms": (mean("database.add_entry", 1e6), ms),
            "database.serialize_ms": (mean("database.serialize_database", 1e6), ms),
            "database.resolve_plan_us": (mean("database.resolve_plan", 1e3), us),
            "database.resolve_plan_calls": (per_audit("database.resolve_plan"), n),
            "database.plan_truth_set_us": (mean("database.plan_truth_set", 1e3), us),
            "database.plan_truth_set_calls": (per_audit("database.plan_truth_set"), n),
            "strategies.context_init_us": (mean("strategies.AuditContext", 1e3), us),
            "strategies.informative_us": (mean("strategies.informative", 1e3), us),
            "strategies.informative_calls": (per_audit("strategies.informative"), n),
            "strategies.pick_us": (mean("strategies.pick", 1e3), us),
            "strategies.apply_us": (mean("strategies.apply", 1e3), us),
            "strategies.tests_per_audit": (per_audit("strategies.apply"), n),
            "strategies.budget_stop_ratio": (counts["strategies.budget_stops"] / audits, r),
            "protocol.run_test_us": (mean("protocol.run_test", 1e3), us),
            "protocol.tests": (per_audit("protocol.run_test"), n),
            "protocol.subtests_per_test": (ratio(subtests, calls.get("protocol.run_test", 0)), n),
            "protocol.implied_ratio": (ratio(counts["protocol.implied"], subtests), r),
            "challenge.render_test_us": (mean("challenge.render_test", 1e3), us),
            "challenge.render_calls": (per_audit("challenge.render_test"), n),
            "challenge.judge_us": (mean("challenge.judge", 1e3), us),
            "challenge.timeout_ratio": (ratio(counts["challenge.timeout"], judged), r),
            "challenge.mismatch_ratio": (ratio(counts["challenge.mismatch"], judged), r),
            "transport.exchange_us_p50": (statistics.median(exchange_us) if exchange_us else 0.0, us),
            "transport.exchange_us_p90": (quantile(exchange_us, 9), us),
            "transport.exchanges": (per_audit("transport.exchange"), n),
            "transport.error_ratio": (ratio(counts["transport.errors"], exchanges), r),
            "transport.untimed_us_p50": (quantile(self.samples["transport.untimed_us"], 5), us),
            "verdict.build_report_us": (mean("verdict.build_report", 1e3), us),
            "verdict.oracle_ms": (mean("verdict.oracle_candidates", 1e6), ms),
            "simulator.respond_us": (mean("simulator.respond", 1e3), us),
            "outsourced.run_round_us": (mean("outsourced.run_round", 1e3), us),
            "outsourced.sign_us": (mean("outsourced.sign", 1e3), us),
            "outsourced.sign_calls": (per_audit("outsourced.sign"), n),
            "outsourced.verify_us": (mean("outsourced.verify", 1e3), us),
            "outsourced.verify_calls": (per_audit("outsourced.verify"), n),
            "outsourced.verify_liability_ms": (mean("outsourced.verify_liability", 1e6), ms),
            "outsourced.log_bytes_per_round": (
                ratio(counts["outsourced.log_bytes"], counts["outsourced.rounds"]), "bytes"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_audit"] = (audit_self.get(layer, 0) / 1e6 / audits, ms)
        for layer in ("versions", "database"):
            out[f"{layer}.setup_self_ms"] = (setup_self.get(layer, 0) / 1e6, ms)
        return out


# -- what gets traced ----------------------------------------------------------


def _count_subtests(tracer: Tracer, args, outcome, _ns) -> None:
    tracer.counts["protocol.subtests"] += len(outcome.sub_outcomes)
    tracer.counts["protocol.implied"] += sum(s.provenance == "implied" for s in outcome.sub_outcomes)


def _count_judgement(tracer: Tracer, args, result, _ns) -> None:
    tracer.counts["challenge.judged"] += 1
    if result.reason is not None:
        tracer.counts[f"challenge.{result.reason}"] += 1


def _count_exchange(tracer: Tracer, args, record, ns) -> None:
    tracer.counts["transport.errors"] += record.transport_error is not None
    tracer.samples["transport.untimed_us"].append(ns / 1e3 - record.elapsed * 1e6)


def _keep_context(tracer: Tracer, args, _result, _ns) -> None:
    tracer.context = args[0]


def instrument(tracer: Tracer) -> None:
    """Wrap every public boundary the per-layer metrics are made from."""
    from fpaudit import (challenge, database, outsourced, protocol, simserver, simulator,
                         strategies, transport, verdict, versions)

    tracer.patch_function(versions, "parse_version", "versions.parse_version")
    tracer.patch_method(versions.VersionSet, "__post_init__", "versions.VersionSet")
    for attr in ("load_database", "add_entry", "serialize_database", "resolve_plan",
                 "plan_truth_set"):
        tracer.patch_function(database, attr, f"database.{attr}")
    tracer.patch_function(strategies, "run_audit", "strategies.run_audit")
    tracer.patch_method(strategies.AuditContext, "__init__", "strategies.AuditContext",
                        _keep_context)
    tracer.patch_method(strategies.AuditContext, "informative", "strategies.informative")
    tracer.patch_method(strategies.AuditContext, "apply", "strategies.apply")
    for cls in strategies.STRATEGIES.values():
        tracer.patch_method(cls, "pick", "strategies.pick")
    tracer.patch_function(protocol, "run_test", "protocol.run_test", _count_subtests)
    tracer.patch_function(challenge, "render_test", "challenge.render_test")
    tracer.patch_function(challenge, "judge", "challenge.judge", _count_judgement)
    tracer.patch_function(transport, "exchange", "transport.exchange", _count_exchange)
    tracer.patch_function(verdict, "build_report", "verdict.build_report")
    for cls in (simulator.HonestResponder, simulator.CacherResponder):
        tracer.patch_method(cls, "respond", "simulator.respond")
    handler = simserver._Handler
    tracer.patch_method(handler, "do_PUT", "simulator.http_put")
    tracer.patch_method(handler, "do_GET", "simulator.http_get")
    tracer.patch_method(outsourced.OutsourcedSession, "run", "outsourced.session")
    tracer.patch_function(outsourced, "run_round", "outsourced.run_round")
    tracer.patch_method(outsourced.PartyIdentity, "sign", "outsourced.sign")
    tracer.patch_method(outsourced.PartyIdentity, "verify", "outsourced.verify")
    tracer.patch_function(outsourced, "verify_liability", "outsourced.verify_liability")
