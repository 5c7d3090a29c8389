import json
from pathlib import Path


from fpaudit.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DB = str(FIXTURES / "php_like_db.json")
SIM_HONEST = str(FIXTURES / "php_like_sim_honest.json")
SIM_FAKER = str(FIXTURES / "php_like_sim_faker.json")


def run(args):
    return main(args)


def test_audit_faker_is_non_compliant(capsys):
    code = run(["audit", "--database", DB, "--sim-config", SIM_FAKER,
                "--strategy", "CBS", "--target", "7.3.0", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 1
    assert "20.9.85-car" in out
    assert "7.1.1" in out
    assert "NOT compliant" in out


def test_audit_honest_compliant_exit_zero(capsys):
    code = run(["audit", "--database", DB, "--sim-config", SIM_HONEST,
                "--strategy", "HTL", "--target", "7.2.14", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "compliant" in out


def test_audit_budget_stop_leaves_target_undecided(capsys):
    # One HTL test cannot narrow the 24-version family to a single
    # candidate, so the audit must not certify the target.
    code = run(["audit", "--database", DB, "--sim-config", SIM_HONEST,
                "--strategy", "HTL", "--budget", "1", "--target", "7.2.14", "--seed", "11"])
    captured = capsys.readouterr()
    assert code == 2
    assert "budget" in captured.err
    assert "-> undecided" in captured.out


def test_audit_json_report(capsys):
    code = run(["audit", "--database", DB, "--sim-config", SIM_FAKER,
                "--strategy", "HMSU", "--target", "7.3.0", "--seed", "11",
                "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["reportVersion"] == 1
    assert doc["claimedVersion"] == "20.9.85-car"
    assert doc["candidates"] == ["7.1.1"]
    assert doc["compliance"] is False
    assert doc["tests"][0]["Testorder"] == 1


def test_audit_deterministic_under_seed(capsys):
    run(["audit", "--database", DB, "--sim-config", SIM_FAKER,
         "--strategy", "CBS", "--target", "7.3.0", "--seed", "5", "--format", "json"])
    first = capsys.readouterr().out
    run(["audit", "--database", DB, "--sim-config", SIM_FAKER,
         "--strategy", "CBS", "--target", "7.3.0", "--seed", "5", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_audit_repeat_agreement(capsys):
    code = run(["audit", "--database", DB, "--sim-config", SIM_HONEST,
                "--strategy", "CBS", "--target", "7.2.14", "--seed", "3",
                "--repeat", "3", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["repeats"] == 3 and doc["repeatsAgree"] is True


def test_audit_requires_provider_source(capsys):
    code = run(["audit", "--database", DB])
    assert code == 2


def test_db_validate_fixture_ok(capsys):
    assert run(["db", "validate", "--database", DB]) == 0
    out = capsys.readouterr().out
    assert "perfect" in out


def test_db_validate_dangling_fixture(tmp_path, capsys, db_doc):
    doc = db_doc
    doc["service"]["versions"]["7.2.9"]["test"]["branching"]["9.9.9"] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["db", "validate", "--database", str(bad)]) == 1
    assert "9.9.9" in capsys.readouterr().err


def test_db_new_stamps_creation(tmp_path, capsys):
    out = tmp_path / "new.json"
    assert run(["db", "new", "--service", "toy", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["creationTimestamp"]
    assert doc["service"]["name"] == "toy"


def test_db_add_entry_and_validate(tmp_path, capsys):
    out = tmp_path / "toy.json"
    run(["db", "new", "--service", "toy", "--out", str(out)])
    code = run(["db", "add-entry", "--database", str(out), "--version", "1.0.0",
                "--challenge", "var_dump(f(#ax#));", "--expect", "f:ok:#ax#\n",
                "--var", "ax:integer:1:999999"])
    assert code == 0
    code = run(["db", "add-entry", "--database", str(out), "--version", "1.1.0",
                "--challenge", "var_dump(g(#ax#));", "--expect", "g:ok:#ax#\n",
                "--var", "ax:integer:1:999999", "--branch", "1.0.0"])
    assert code == 0
    assert run(["db", "validate", "--database", str(out)]) == 0


def test_db_add_entry_rejects_dangling(tmp_path, capsys):
    out = tmp_path / "toy.json"
    run(["db", "new", "--service", "toy", "--out", str(out)])
    code = run(["db", "add-entry", "--database", str(out), "--version", "1.0.0",
                "--challenge", "x", "--expect", "y", "--branch", "9.9.9"])
    assert code == 1


def test_verify_logs_honest_and_corrupted(tmp_path, capsys, db, sim_family):
    from fpaudit.challenge import RandomnessSource
    from fpaudit.outsourced import (
        AuditorParty, ProviderParty, OutsourcedSession, UserParty, PartyIdentity,
        write_keys, write_log,
    )
    from fpaudit.simulator import LatencyModel, SimProviderConfig, produce
    from fpaudit.versions import parse_version as pv

    identities = {r: PartyIdentity.generate(r) for r in ("user", "auditor", "provider")}
    cfg = SimProviderConfig(src_version=pv("7.2.14"), latency=LatencyModel(0.001, 0.0), seed=6)
    user = UserParty(identity=identities["user"], rng=RandomnessSource(seed=8))
    provider = ProviderParty(identity=identities["provider"], responder=produce(sim_family, cfg))
    auditor = AuditorParty(identity=identities["auditor"], db=db)
    OutsourcedSession(db=db, strategy_name="CBS", user=user, provider=provider,
                auditor=auditor).run()

    write_keys(tmp_path / "keys.json", identities)
    write_log(tmp_path / "user.ndjson", user.log)
    write_log(tmp_path / "auditor.ndjson", auditor.log)
    write_log(tmp_path / "provider.ndjson", provider.log)

    code = run(["verify-logs", "--database", DB, "--keys", str(tmp_path / "keys.json"),
                "--user-log", str(tmp_path / "user.ndjson"),
                "--auditor-log", str(tmp_path / "auditor.ndjson"),
                "--provider-log", str(tmp_path / "provider.ndjson")])
    assert code == 0
    assert "compliant" in capsys.readouterr().out

    corrupted = [dict(e) for e in auditor.log]
    corrupted[0]["delta"] = not corrupted[0]["delta"]
    write_log(tmp_path / "auditor.ndjson", corrupted)
    code = run(["verify-logs", "--database", DB, "--keys", str(tmp_path / "keys.json"),
                "--user-log", str(tmp_path / "user.ndjson"),
                "--auditor-log", str(tmp_path / "auditor.ndjson"),
                "--provider-log", str(tmp_path / "provider.ndjson")])
    out = capsys.readouterr().out
    assert code == 1
    assert "auditor   blamed" in out


def test_verify_logs_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.ndjson"
    bad.write_text("{not json}\n")
    keys = tmp_path / "keys.json"
    keys.write_text("{}")
    code = run(["verify-logs", "--database", DB, "--keys", str(keys),
                "--user-log", str(bad)])
    assert code == 2


def test_audit_over_http_served_simulator(capsys, sim_family, monkeypatch):
    from fpaudit.simserver import start_server
    from fpaudit.simulator import LatencyModel, SimProviderConfig, produce
    from fpaudit.versions import parse_version as pv

    cfg = SimProviderConfig(src_version=pv("7.2.14"),
                            latency=LatencyModel(0.001, 0.0), seed=2)
    server = start_server(produce(sim_family, cfg), credentials=("auditor", "sekrit"))
    monkeypatch.setenv("FPAUDIT_HTTP_USER", "auditor")
    monkeypatch.setenv("FPAUDIT_HTTP_PASS", "sekrit")
    try:
        code = run(["audit", "--database", DB,
                    "--challenge-url", server.url("/challenge"),
                    "--response-url", server.url("/response"),
                    "--claim-url", server.url("/claim"),
                    "--strategy", "HTL", "--target", "7.2.14", "--seed", "2",
                    "--format", "json"])
    finally:
        server.shutdown()
        server.server_close()
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["claimedVersion"] == "7.2.14"
    assert doc["candidates"] == ["7.2.14"]


def test_simulated_proxy_fails_timing(tmp_path, capsys, db):
    sim_doc = json.loads(Path(SIM_HONEST).read_text())
    sim_doc["provider"] = {"source": "7.2.14", "behavior": "proxy",
                           "proxy_floor_ms": 500,
                           "latency": {"base_ms": 1, "jitter_ms": 0}, "seed": 2}
    cfgfile = tmp_path / "proxy.json"
    cfgfile.write_text(json.dumps(sim_doc))
    code = run(["audit", "--database", DB, "--sim-config", str(cfgfile),
                "--strategy", "HTL", "--target", "7.2.14", "--seed", "4",
                "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["compliance"] is False
    assert all(row["Result"] is False for row in doc["tests"])
    assert any(row.get("reason") == "timeout" for row in doc["tests"])
