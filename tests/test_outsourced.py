import base64
import copy
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpaudit import outsourced
from fpaudit.challenge import RandomnessSource
from fpaudit.database import load_database
from fpaudit.outsourced import (
    ROLES,
    SIGNATURES,
    AuditorParty,
    ProviderParty,
    RoundError,
    OutsourcedSession,
    UserParty,
    PartyIdentity,
    decode_entry,
    encode_entry,
    run_round,
    read_keys,
    read_log,
    signed_bytes,
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


def test_signed_layout_is_the_tag_then_each_field_length_prefixed():
    phi = b'{"ax":"7"}'
    t2 = b"2026-01-01T00:00:00.000000+00:00"
    s1 = bytes(range(64))
    assert signed_bytes("S2", {"phi": phi, "t2": t2, "S1": s1, "c": b"unused"}) == (
        b"S2" + b"\x00\x00\x00\x0a" + phi + b"\x00\x00\x00\x20" + t2 + b"\x00\x00\x00\x40" + s1)


def test_provider_timestamp_before_the_randomness_blames_provider_live(trio, monkeypatch):
    identities, user, auditor, provider = trio
    clock = iter([1000.0, 1000.0, 990.0])  # t1, t2, then the provider's t3
    monkeypatch.setattr(outsourced, "time", SimpleNamespace(time=lambda: next(clock)))
    with pytest.raises(RoundError) as err:
        run_round(auditor, user, provider, pv("7.2.0"), 1)
    assert err.value.blamed == "provider"
    assert err.value.reason == "t3 precedes t2"


@pytest.mark.parametrize("provider_keeps_its_entry", [True, False])
def test_round_rejected_live_for_t3_blames_only_the_provider(trio, monkeypatch,
                                                             provider_keeps_its_entry):
    # The user logs the round before the auditor rejects it, so the auditor's
    # log lacks it; a provider that also drops its entry is still blamed.
    identities, user, auditor, provider = trio
    clock = iter([1000.0, 1000.0, 990.0])
    monkeypatch.setattr(outsourced, "time", SimpleNamespace(time=lambda: next(clock)))
    with pytest.raises(RoundError):
        run_round(auditor, user, provider, pv("7.2.0"), 1)
    logs = {"user": user.log, "auditor": auditor.log,
            "provider": provider.log if provider_keeps_its_entry else []}
    verdicts = verify_liability(logs, keys_of(identities), auditor.db)
    assert verdicts["provider"].status == "blamed"
    assert verdicts["user"].status == verdicts["auditor"].status == "compliant"


def test_round_rejected_live_for_repeated_randomness_blames_only_the_user(trio):
    identities, user, auditor, provider = trio
    user.rng = RandomnessSource(seed=5)
    user.rng.randint = lambda lo, hi: 424242
    run_round(auditor, user, provider, pv("7.2.0"), 1)
    with pytest.raises(RoundError):
        run_round(auditor, user, provider, pv("7.0.0"), 2)
    logs = {"user": user.log, "auditor": auditor.log, "provider": provider.log}
    verdicts = verify_liability(logs, keys_of(identities), auditor.db)
    assert verdicts["user"].status == "blamed"
    assert "repeated" in verdicts["user"].reason
    assert verdicts["auditor"].status == verdicts["provider"].status == "compliant"


def test_non_boolean_decision_blames_auditor(trio):
    identities, user, auditor, provider = trio
    run_round(auditor, user, provider, pv("7.2.0"), 1)
    logs = {"user": user.log, "auditor": copy.deepcopy(auditor.log), "provider": provider.log}
    logs["auditor"][0]["delta"] = int(logs["auditor"][0]["delta"])  # same truth value
    verdicts = verify_liability(logs, keys_of(identities), auditor.db)
    assert verdicts["auditor"].status == "blamed"
    assert "'delta'" in verdicts["auditor"].reason
    assert verdicts["user"].status == verdicts["provider"].status == "compliant"


def test_randomness_signed_without_the_entry_variables_blames_user(trio):
    # The user signs an empty draw and the others sign on top of it: every
    # signature verifies, but the challenge cannot be derived from phi.
    identities, user, auditor, provider = trio
    run_round(auditor, user, provider, pv("7.2.0"), 1)
    fields = {**decode_entry("provider", provider.log[0]), **decode_entry("auditor", auditor.log[0])}
    fields["phi"] = b"{}"
    for name in ("S2", "S3"):
        fields[name] = identities[SIGNATURES[name][0]].sign(signed_bytes(name, fields))
    logs = {role: [encode_entry(role, fields)] for role in ROLES}
    verdicts = verify_liability(logs, keys_of(identities), auditor.db)
    assert verdicts["user"].status == "blamed"
    assert "variables" in verdicts["user"].reason
    assert verdicts["auditor"].status == verdicts["provider"].status == "compliant"


@pytest.fixture(scope="module")
def session_logs(db, sim_family):
    identities = {role: PartyIdentity.generate(role) for role in ROLES}
    cfg = SimProviderConfig(src_version=pv("7.2.14"), latency=LatencyModel(0.001, 0.0), seed=6)
    user = UserParty(identity=identities["user"], rng=RandomnessSource(seed=8))
    provider = ProviderParty(identity=identities["provider"], responder=produce(sim_family, cfg))
    auditor = AuditorParty(identity=identities["auditor"], db=db)
    OutsourcedSession(db=db, strategy_name="CBS", user=user, provider=provider,
                      auditor=auditor).run()
    return {"user": user.log, "auditor": auditor.log, "provider": provider.log}, keys_of(identities)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_replaced_field_never_raises_and_blames_only_its_holder(session_logs, db, data):
    logs, keys = session_logs
    role = data.draw(st.sampled_from(ROLES))
    index = data.draw(st.integers(0, len(logs[role]) - 1))
    name = data.draw(st.sampled_from(sorted(logs[role][index])))
    # Any JSON value, or the same field of another round and log: a
    # relabelled round or a swapped signature.
    same_field = sorted({json.dumps(entry[name], sort_keys=True) for entries in logs.values()
                         for entry in entries if name in entry})
    value = data.draw(JSON_VALUES | st.sampled_from(same_field).map(json.loads))
    # Any of the other logs may be withheld, the signer's included.
    supplied = data.draw(st.sets(st.sampled_from([other for other in ROLES if other != role])))
    mutated = {other: logs[other] for other in supplied}
    mutated[role] = [dict(entry) for entry in logs[role]]
    mutated[role][index][name] = value
    verdicts = verify_liability(mutated, keys, db)
    assert {other for other, v in verdicts.items() if v.status == "blamed"} <= {role}, verdicts


def test_empty_auditor_and_provider_logs_blame_those_two(session_logs, db):
    logs, keys = session_logs
    verdicts = verify_liability({"user": logs["user"], "auditor": [], "provider": []}, keys, db)
    assert verdicts["auditor"].status == verdicts["provider"].status == "blamed"
    assert verdicts["user"].status == "compliant"


def test_user_and_auditor_renumbering_a_round_does_not_blame_the_provider(session_logs, db):
    # Both drop round 4 and log round 5 as round 4; only the provider's log
    # still holds the round they dropped.
    logs, keys = session_logs
    mutated = dict(logs)
    for role in ("user", "auditor"):
        kept = [dict(entry) for entry in logs[role] if entry["round"] != 4]
        next(entry for entry in kept if entry["round"] == 5)["round"] = 4
        mutated[role] = kept
    verdicts = verify_liability(mutated, keys, db)
    assert verdicts["provider"].status == "compliant"
    assert verdicts["user"].status == verdicts["auditor"].status == "blamed"


def test_one_renumbered_round_blames_no_other_log(session_logs, db):
    logs, keys = session_logs
    mutated = dict(logs, user=[dict(entry) for entry in logs["user"]])
    mutated["user"][-1]["round"] = 99
    verdicts = verify_liability(mutated, keys, db)
    assert verdicts["auditor"].status == verdicts["provider"].status == "compliant"


def test_provider_round_over_an_earlier_s2_blames_only_the_provider(trio):
    # The provider signs a second response to the last round's randomness
    # and logs it as one more round, which no other party took part in.
    identities, user, auditor, provider = trio
    for i, v in enumerate(("7.2.0", "7.0.0"), start=1):
        run_round(auditor, user, provider, pv(v), i)
    fields = decode_entry("provider", provider.log[-1])
    fields.update(round=3, ePrime=fields["ePrime"] + b"!")
    fields["S3"] = identities["provider"].sign(signed_bytes("S3", fields))
    logs = {"user": user.log, "auditor": auditor.log,
            "provider": provider.log + [encode_entry("provider", fields)]}
    verdicts = verify_liability(logs, keys_of(identities), auditor.db)
    assert verdicts["provider"].status == "blamed"
    assert verdicts["user"].status == verdicts["auditor"].status == "compliant"


@pytest.mark.parametrize("holder, name", [("user", "S1"), ("user", "S3"),
                                          ("auditor", "S2"), ("auditor", "S4")])
def test_signature_corrupted_in_own_copy_blames_only_its_holder(session_logs, db, holder, name):
    # Only the holder's log is supplied, so no copy shows the signer's bytes.
    logs, keys = session_logs
    entries = [dict(entry) for entry in logs[holder]]
    raw = bytearray(base64.b64decode(entries[1][name]))
    raw[0] ^= 0x01
    entries[1][name] = base64.b64encode(bytes(raw)).decode()
    verdicts = verify_liability({holder: entries}, keys, db)
    assert {role for role, v in verdicts.items() if v.status == "blamed"} == {holder}


@pytest.mark.parametrize("supplied", [("user",), ("user", "provider")])
def test_relabelled_version_blames_the_holder_not_the_auditor(session_logs, db, supplied):
    # No signature covers the label; S1 covers the challenge it should name.
    logs, keys = session_logs
    mutated = {role: logs[role] for role in supplied}
    mutated["user"] = [dict(entry) for entry in logs["user"]]
    mutated["user"][1]["version"] = "7.2.0" if logs["user"][1]["version"] != "7.2.0" else "7.0.0"
    verdicts = verify_liability(mutated, keys, db)
    assert {role for role, v in verdicts.items() if v.status == "blamed"} == {"user"}


def test_signed_challenge_of_no_database_entry_blames_auditor(trio):
    identities, user, auditor, provider = trio
    run_round(auditor, user, provider, pv("7.2.0"), 1)
    fields = {**decode_entry("provider", provider.log[0]), **decode_entry("auditor", auditor.log[0])}
    fields["c"] += b" "
    for name in ("S1", "S2", "S3"):
        fields[name] = identities[SIGNATURES[name][0]].sign(signed_bytes(name, fields))
    logs = {role: [encode_entry(role, fields)] for role in ROLES}
    verdicts = verify_liability(logs, keys_of(identities), auditor.db)
    assert verdicts["auditor"].status == "blamed"
    assert verdicts["user"].status == verdicts["provider"].status == "compliant"


def test_keys_lacking_a_role_are_malformed_input(session_logs, db):
    logs, keys = session_logs
    with pytest.raises(ValueError, match="provider"):
        verify_liability(logs, {role: keys[role] for role in ("user", "auditor")}, db)


def test_each_distinct_signature_is_verified_once_per_call(session_logs, db, monkeypatch):
    # The user's and the auditor's logs share S1..S4 and the provider's log
    # repeats S3, all over the same bytes: four checks a round, not nine.
    logs, keys = session_logs
    calls, real = [], outsourced._signature_ok
    monkeypatch.setattr(outsourced, "_signature_ok",
                        lambda *args: calls.append(args) or real(*args))
    verdicts = verify_liability(logs, keys, db)
    assert all(v.status == "compliant" for v in verdicts.values())
    assert len(calls) == 4 * len(logs["user"])


@pytest.mark.parametrize("altered_first", [True, False], ids=["altered-first", "altered-last"])
@pytest.mark.parametrize("holder", ROLES)
def test_copy_with_another_copys_signature_over_other_bytes_blames_its_holder(
        session_logs, db, holder, altered_first):
    # S3 covers ePrime: the altered copy keeps the S3 the other copies hold,
    # so it must be checked against its own bytes, not the signature alone.
    logs, keys = session_logs
    entries = [dict(entry) for entry in logs[holder]]
    raw = bytearray(base64.b64decode(entries[1]["ePrime"]))
    raw[-1] ^= 0x01
    entries[1]["ePrime"] = base64.b64encode(bytes(raw)).decode()
    others = [role for role in ROLES if role != holder]
    order = [holder] + others if altered_first else others + [holder]
    mutated = {role: entries if role == holder else logs[role] for role in order}
    verdicts = verify_liability(mutated, keys, db)
    assert {role for role, v in verdicts.items() if v.status == "blamed"} == {holder}
    assert verdicts[holder].reason == f"round {entries[1]['round']}: S3 fails verification"


def test_a_log_cut_short_is_a_value_error_or_gets_verdicts(session_logs, db, tmp_path):
    logs, keys = session_logs
    paths = {role: tmp_path / f"{role}.log" for role in ROLES}
    for role, path in paths.items():
        write_log(path, logs[role])
    whole = {role: read_log(path) for role, path in paths.items()}
    for role, path in paths.items():
        text = path.read_bytes()
        cut = tmp_path / "cut.log"
        for end in range(0, len(text), 7):
            cut.write_bytes(text[:end])
            try:
                entries = read_log(cut)
            except ValueError:
                continue
            verdicts = verify_liability({**whole, role: entries}, keys, db)
            assert {v.status for v in verdicts.values()} <= {"compliant", "blamed"}, (role, end)
            assert set(verdicts) == set(ROLES)


def test_keys_cut_short_are_a_value_error(tmp_path):
    path = tmp_path / "keys.json"
    write_keys(path, {role: PartyIdentity.generate(role) for role in ROLES})
    text = path.read_bytes()
    for end in range(len(text)):
        path.write_bytes(text[:end])
        with pytest.raises(ValueError, match="keys.json"):
            read_keys(path)
