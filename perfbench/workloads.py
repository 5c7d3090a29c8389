"""The four benchmark workloads.

A workload makes its inputs from the seed, sets up the auditor's side (the
runner times set-up), and yields one pass of audit specs.  The runner times
only the callable returned by ``prepare``; ``complete``, ``check`` and
``oracle_check`` run outside the timed region.

All calls into the package go through module attributes
(``strategies.run_audit``, not a name bound at import), so the traced run
sees them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from fpaudit import challenge, database, outsourced, simserver, simulator, strategies, transport, verdict
from fpaudit.versions import Version, render_version

import grid

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
STRATEGY_NAMES = ("BS", "CBS", "HTL", "LTH", "HMSU")
# Providers whose answers are genuine for every tested function.
TRUTHFUL = ("honest", "claim-faker", "function-faker")
PROXY_FLOOR_S = 0.5
# Every grid-loopback run audits the family of this generator seed; the run
# seed draws the sources, behaviours, order and randomness.  The family's
# structure decides how far HTL and LTH get within their budget, so letting
# the run seed pick the family would swamp any run-to-run comparison.
GRID_FAMILY_SEED = 0


@dataclass(frozen=True)
class Spec:
    """One audit: which strategy, against which provider."""

    strategy: str
    src: Version
    behavior: str
    seed: int
    claim: str | None = None

    def doc(self) -> dict:
        return {"strategy": self.strategy, "src": render_version(self.src),
                "behavior": self.behavior, "seed": self.seed, "claim": self.claim}


@dataclass
class Outcome:
    exchanges: int
    log: strategies.DecisionLog
    report: verdict.VerdictReport | None = None
    logs: dict[str, list[dict]] | None = None  # outsourced per-party logs
    verdicts: dict[str, outsourced.PartyVerdict] | None = None

    @property
    def candidates(self) -> int:
        return len(self.report.candidate_set)


def exchanged_subs(log: strategies.DecisionLog) -> list:
    return [sub for outcome in log.plan_outcomes() for sub in outcome.sub_outcomes
            if sub.provenance == "exchanged"]


def fake_label(rng: random.Random) -> str:
    return f"{rng.randint(8, 30)}.{rng.randint(0, 9)}.{rng.randint(0, 99)}-car"


class Workload:
    name = ""
    setup_repeats = 51
    oracle_per_pass = 24  # seeded sample of one pass whose candidates are replayed
    cache: dict[bytes, bytes] | None = None  # the cacher's transcript
    fakeable: tuple[str, ...] = ()  # functions a function-faker overrides

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def validate(self) -> None:
        """Check the generated inputs once, outside the timed set-up."""

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` started."""

    def schedule(self) -> list[Spec]:
        """One pass: the audits a run repeats, in order."""
        return self.specs

    def prepare(self, spec: Spec, audit_no: int):
        """The timed audit: ``run_audit`` + ``build_report`` over loopback."""
        endpoints = transport.make_loopback(self.provider(spec, audit_no))
        return self.loopback_audit(spec, audit_no, endpoints)

    def complete(self, out: Outcome) -> None:
        """Untimed work an outcome needs before it can be checked."""

    def check(self, spec: Spec, out: Outcome) -> str | None:
        """Outcome check for one audit; returns what is wrong, or None."""
        if spec.behavior in TRUTHFUL:
            cs = out.report.candidate_set if out.report else None
            if cs is None or spec.src not in cs:
                return f"source {render_version(spec.src)} is not among the candidates"
        elif spec.behavior == "proxy":
            subs = exchanged_subs(out.log)
            if not subs or any(sub.reason != "timeout" for sub in subs):
                return "a proxied sub-test was not judged timeout"
        elif spec.behavior == "cacher":
            if all(sub.observed for sub in exchanged_subs(out.log)):
                return "a cacher passed every exchanged sub-test"
        if out.verdicts is not None:
            blamed = {role: v.reason for role, v in out.verdicts.items() if v.status != "compliant"}
            if blamed:
                return f"verify_liability blamed {blamed}"
        return None

    def truthful(self, spec: Spec) -> bool:
        """Whether the provider answers genuinely, so its candidate set is
        consistent and the oracle can replay it."""
        return spec.behavior in TRUTHFUL

    def oracle_check(self, spec: Spec, out: Outcome) -> str | None:
        expected = verdict.oracle_candidates(out.log, self.db, self.sim)
        if expected.members != out.report.candidate_set.members:
            return (f"candidates {out.report.candidate_set.labels()} differ from the "
                    f"oracle's {expected.labels()}")
        return None

    def provider(self, spec: Spec, audit_no: int, latency=simulator.LatencyModel()):
        cfg = simulator.SimProviderConfig(
            src_version=spec.src,
            behavior=spec.behavior,
            claim_label=spec.claim,
            latency=latency,
            proxy_floor=PROXY_FLOOR_S,
            fake_functions=self.fakeable,
            cache_store=self.cache,
            seed=spec.seed + audit_no,
        )
        return simulator.produce(self.sim, cfg)

    def audit_rng(self, spec: Spec, audit_no: int) -> challenge.RandomnessSource:
        return challenge.RandomnessSource(seed=spec.seed * 1_000_003 + audit_no)

    def load_fixture(self) -> None:
        self.db = database.load_database((FIXTURES / "php_like_db.json").read_bytes())
        self.sim, _ = simulator.load_sim_config((FIXTURES / "php_like_sim_honest.json").read_bytes())
        self.fakeable = tuple(sorted(n for n, fn in self.sim.functions.items() if not fn.hard))

    def fixture_versions(self) -> list[Version]:
        sim, _ = simulator.load_sim_config((FIXTURES / "php_like_sim_honest.json").read_bytes())
        return list(sim.family.versions)

    def product(self, versions, behaviors, every_behavior: bool = True) -> list[Spec]:
        """Strategies x versions x behaviours (or one seeded behaviour each), shuffled."""
        specs = []
        for strategy in STRATEGY_NAMES:
            for src in versions:
                chosen = behaviors if every_behavior else (self.rng.choice(behaviors),)
                for behavior in chosen:
                    claim = fake_label(self.rng) if behavior == "claim-faker" else None
                    specs.append(Spec(strategy, src, behavior, self.rng.randrange(2**31), claim))
        self.rng.shuffle(specs)
        return specs

    def loopback_audit(self, spec: Spec, audit_no: int, endpoints):
        db, rng = self.db, self.audit_rng(spec, audit_no)

        def op() -> Outcome:
            log = strategies.run_audit(db, spec.strategy, endpoints, rng)
            report = verdict.build_report(log, db)
            return Outcome(log.exchange_count(), log, report)

        return op


class FixtureLoopback(Workload):
    """Shipped N=24 family, in-process provider, five provider behaviours."""

    name = "fixture-loopback"
    behaviors = ("honest", "claim-faker", "function-faker", "proxy", "cacher")

    def __init__(self, seed: int):
        super().__init__(seed)
        versions = self.fixture_versions()
        # A fixed source keeps the recorded transcript, and so set-up time,
        # the same length for every seed.
        self.cache_src = versions[len(versions) // 2]
        self.cache_seed = self.rng.randrange(2**31)
        self.specs = self.product(versions, self.behaviors)

    def setup(self) -> None:
        self.load_fixture()
        # The cacher replays one honest transcript recorded here.
        recorder = simulator.RecordingResponder(
            simulator.HonestResponder(self.sim, self.cache_src, seed=self.cache_seed))
        strategies.run_audit(self.db, "CBS", transport.make_loopback(recorder),
                             challenge.RandomnessSource(seed=self.cache_seed))
        self.cache = recorder.store


class GridLoopback(Workload):
    """Synthetic grid family of a few hundred versions, authored at set-up."""

    name = "grid-loopback"
    setup_repeats = 9
    oracle_per_pass = 4
    per_strategy = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        self.family = grid.grid_docs(GRID_FAMILY_SEED)
        sim = simulator.sim_family_from_doc(self.family.sim_doc)
        self.specs = self._stratified(list(sim.family.versions))

    def _stratified(self, versions: list[Version]) -> list[Spec]:
        """Each strategy audits ``per_strategy`` source versions spaced evenly
        over the family from a seeded random start (systematic sampling),
        and every prefix of the pass holds each strategy about equally often,
        so runs of any length compare."""
        n, k = len(versions), self.per_strategy
        by_strategy = {}
        for strategy in STRATEGY_NAMES:
            start = self.rng.random()
            specs = []
            for j in range(k):
                behavior = self.rng.choice(("honest", "claim-faker"))
                claim = fake_label(self.rng) if behavior == "claim-faker" else None
                specs.append(Spec(strategy, versions[int((j + start) * n / k)], behavior,
                                  self.rng.randrange(2**31), claim))
            self.rng.shuffle(specs)
            by_strategy[strategy] = specs
        order, out = list(STRATEGY_NAMES), []
        for j in range(k):
            self.rng.shuffle(order)
            out.extend(by_strategy[strategy][j] for strategy in order)
        return out

    def validate(self) -> None:
        grid.check_family(self.family)

    def setup(self) -> None:
        family = grid.grid_docs(GRID_FAMILY_SEED)
        db = database.load_database(family.db_bytes())
        test = grid.echo_test(family.new_label)
        ax = grid.AX
        db = database.add_entry(
            db, family.new_label,
            challenge=test["challenge"]["payload"], expect=test["expect"]["payload"],
            variables={"ax": database.VariableSpec("ax", ax["format"], ax["min"], ax["max"])})
        self.db = database.load_database(database.serialize_database(db))
        self.sim = simulator.sim_family_from_doc(family.sim_doc)


class FixtureHTTP(Workload):
    """Fixture audits over a local HTTP simulator with zero simulated latency."""

    name = "fixture-http"
    setup_repeats = 7  # each close waits up to 0.5 s for the server loop to stop
    behaviors = ("honest", "claim-faker")
    oracle_per_pass = 12

    def __init__(self, seed: int):
        super().__init__(seed)
        self.server = None
        # One behaviour per (strategy, source) pair keeps a pass short.
        self.specs = self.product(self.fixture_versions(), self.behaviors, every_behavior=False)

    def setup(self) -> None:
        self.load_fixture()
        self.server = simserver.start_server(responder=None)
        self.endpoints = (
            transport.InterfaceEndpoint(id="chl", kind="http-fetch",
                                        address=self.server.url("/challenge")),
            transport.InterfaceEndpoint(id="rsp", kind="http-fetch",
                                        address=self.server.url("/response")),
        )

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server = None

    def prepare(self, spec: Spec, audit_no: int):
        self.server.responder = self.provider(spec, audit_no, simulator.LatencyModel(0.0, 0.0))
        return self.loopback_audit(spec, audit_no, self.endpoints)


class FixtureOutsourced(Workload):
    """Signed three-party sessions plus liability verification of their logs."""

    name = "fixture-outsourced"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.specs = self.product(self.fixture_versions(), ("honest",))

    def setup(self) -> None:
        self.load_fixture()
        self.ids = {role: outsourced.PartyIdentity.generate(role) for role in outsourced.ROLES}
        self.keys = {role: ident.verify_key for role, ident in self.ids.items()}

    def prepare(self, spec: Spec, audit_no: int):
        user = outsourced.UserParty(self.ids["user"], self.audit_rng(spec, audit_no))
        provider = outsourced.ProviderParty(self.ids["provider"], self.provider(spec, audit_no))
        # A fresh auditor per session: the repeat alarm compares within one session.
        auditor = outsourced.AuditorParty(self.ids["auditor"], self.db)
        session = outsourced.OutsourcedSession(self.db, spec.strategy, user, provider, auditor)
        keys, db = self.keys, self.db

        def op() -> Outcome:
            log = session.run()
            logs = {"user": user.log, "auditor": auditor.log, "provider": provider.log}
            verdicts = outsourced.verify_liability(logs, keys, db)
            return Outcome(len(auditor.log), log, None, logs, verdicts)

        return op

    def complete(self, out: Outcome) -> None:
        out.report = verdict.build_report(out.log, self.db)


WORKLOADS = {cls.name: cls for cls in (FixtureLoopback, GridLoopback, FixtureHTTP, FixtureOutsourced)}
