import copy
import json

import pytest

from fpaudit.challenge import RandomnessSource
from fpaudit.database import load_database
from fpaudit.outsourced import (
    AuditorParty,
    ProviderParty,
    RoundError,
    OutsourcedSession,
    UserParty,
    PartyIdentity,
    run_round,
    read_keys,
    read_log,
    verify_liability,
    write_keys,
    write_log,
)
from fpaudit.simulator import LatencyModel, SimProviderConfig, produce
from fpaudit.strategies import STRATEGIES, AuditError, run_audit
from fpaudit.transport import make_loopback
from fpaudit.verdict import build_report
from fpaudit.versions import parse_version as pv


@pytest.fixture
def trio(db, sim_family):
    cfg = SimProviderConfig(src_version=pv("7.2.14"),
                            latency=LatencyModel(0.001, 0.0), seed=6)
    identities = {role: PartyIdentity.generate(role) for role in ("user", "auditor", "provider")}
    user = UserParty(identity=identities["user"], rng=RandomnessSource(seed=77))
    provider = ProviderParty(identity=identities["provider"],
                            responder=produce(sim_family, cfg))
    auditor = AuditorParty(identity=identities["auditor"], db=db)
    return identities, user, auditor, provider


def keys_of(identities):
    return {role: ident.verify_key for role, ident in identities.items()}


def test_single_round_honest(trio):
    identities, user, auditor, provider = trio
    result = run_round(auditor, user, provider, pv("7.2.0"), 1)
    assert result.delta is True
    assert len(user.log) == len(auditor.log) == len(provider.log) == 1
    verdicts = verify_liability(
        {"user": user.log, "auditor": auditor.log, "provider": provider.log},
        keys_of(identities), auditor.db)
    assert all(v.status == "compliant" for v in verdicts.values())


def test_tampered_response_blames_provider_live(trio):
    identities, user, auditor, provider = trio

    class Tamper:
        def __init__(self, inner):
            self.inner = inner

        def process(self, round_no, c_prime, s2):
            body, t3, s3, latency = self.inner.process(round_no, c_prime, s2)
            return body + b"!", t3, s3, latency  # bytes changed after signing

        @property
        def identity(self):
            return self.inner.identity

        @property
        def log(self):
            return self.inner.log

    with pytest.raises(RoundError) as err:
        run_round(auditor, user, Tamper(provider), pv("7.2.0"), 1)
    assert err.value.blamed == "provider"


def test_repeated_randomness_alarm(trio):
    identities, user, auditor, provider = trio

    class FixedRng(RandomnessSource):
        def __init__(self):
            super().__init__(seed=5)

        def randint(self, lo, hi):
            return 424242

    user.rng = FixedRng()
    run_round(auditor, user, provider, pv("7.2.0"), 1)
    with pytest.raises(RoundError) as err:
        run_round(auditor, user, provider, pv("7.0.0"), 2)
    assert err.value.blamed == "user"
    assert "repeated" in err.value.reason


def test_user_randomness_is_fresh_and_seedable(db):
    user = UserParty(identity=PartyIdentity.generate("user"), rng=RandomnessSource(seed=3))
    a = user.draw_randomness(db, pv("7.2.0"))
    b = user.draw_randomness(db, pv("7.2.0"))
    assert a.values != b.values
    again = UserParty(identity=PartyIdentity.generate("user"), rng=RandomnessSource(seed=3))
    assert again.draw_randomness(db, pv("7.2.0")).values == a.values


def rows_of(log):
    return [(row.version, row.delta, row.testorder, row.origin) for row in log.rows]


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_session_runs_strategy_and_matches_direct_audit(trio, sim_family, strategy):
    identities, user, auditor, provider = trio
    session = OutsourcedSession(db=auditor.db, strategy_name=strategy, user=user,
                          provider=provider, auditor=auditor)
    log = session.run()
    report = build_report(log, auditor.db)
    assert report.candidate_set.labels() == ["7.2.14"]

    # The same strategy over the transport against the same honest source
    # takes the same path: both audits run the one strategy loop.
    cfg = SimProviderConfig(src_version=pv("7.2.14"), latency=LatencyModel(0.001, 0.0), seed=6)
    direct = run_audit(auditor.db, strategy, make_loopback(produce(sim_family, cfg)),
                       RandomnessSource(seed=77))
    assert rows_of(log) == rows_of(direct)
    assert report.candidate_set == build_report(direct, auditor.db).candidate_set
    assert len(auditor.log) == direct.exchange_count()

    verdicts = verify_liability(
        {"user": user.log, "auditor": auditor.log, "provider": provider.log},
        keys_of(identities), auditor.db)
    assert all(v.status == "compliant" for v in verdicts.values())


def test_session_rejects_strategy_the_database_does_not_enable(trio, db_doc):
    identities, user, _, provider = trio
    db_doc["settings"]["strategies"] = ["HighToLow"]
    db = load_database(json.dumps(db_doc).encode())
    auditor = AuditorParty(identity=identities["auditor"], db=db)
    session = OutsourcedSession(db=db, strategy_name="CBS", user=user,
                                provider=provider, auditor=auditor)
    with pytest.raises(AuditError, match="not enabled"):
        session.run()
    assert provider.log == []


def test_log_files_round_trip(tmp_path, trio):
    identities, user, auditor, provider = trio
    run_round(auditor, user, provider, pv("7.2.0"), 1)
    write_log(tmp_path / "user.ndjson", user.log)
    write_keys(tmp_path / "keys.json", identities)
    assert read_log(tmp_path / "user.ndjson") == user.log
    keys = read_keys(tmp_path / "keys.json")
    verdicts = verify_liability({"user": user.log}, keys, auditor.db)
    assert verdicts["user"].status == "compliant"


def test_corrupted_auditor_challenge_blames_auditor(trio):
    identities, user, auditor, provider = trio
    run_round(auditor, user, provider, pv("7.2.0"), 1)
    logs = {"user": user.log, "auditor": copy.deepcopy(auditor.log),
            "provider": provider.log}
    import base64
    raw = bytearray(base64.b64decode(logs["auditor"][0]["c"]))
    raw[0] ^= 0xFF
    logs["auditor"][0]["c"] = base64.b64encode(bytes(raw)).decode()
    verdicts = verify_liability(logs, keys_of(identities), auditor.db)
    assert verdicts["auditor"].status == "blamed"
    assert verdicts["user"].status == "compliant"
    assert verdicts["provider"].status == "compliant"


def test_missing_provider_round_blames_provider(trio):
    identities, user, auditor, provider = trio
    for i, v in enumerate(("7.2.0", "7.0.0"), start=1):
        run_round(auditor, user, provider, pv(v), i)
    verdicts = verify_liability(
        {"user": user.log, "auditor": auditor.log, "provider": provider.log[:1]},
        keys_of(identities), auditor.db)
    assert verdicts["provider"].status == "blamed"
    assert verdicts["user"].status == "compliant"


def test_wrong_expected_decision_blames_auditor(trio):
    identities, user, auditor, provider = trio
    run_round(auditor, user, provider, pv("7.2.0"), 1)
    logs = {"user": user.log, "auditor": copy.deepcopy(auditor.log),
            "provider": provider.log}
    logs["auditor"][0]["delta"] = not logs["auditor"][0]["delta"]
    verdicts = verify_liability(logs, keys_of(identities), auditor.db)
    assert verdicts["auditor"].status == "blamed"
    assert verdicts["provider"].status == "compliant"
