import json
import os
import re
import select
import subprocess
import sys
from pathlib import Path

import pytest

from fpaudit import cli
from fpaudit.cli import main

from families import chain_db_doc

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
DB = str(FIXTURES / "php_like_db.json")
SIM_HONEST = str(FIXTURES / "php_like_sim_honest.json")
SIM_FAKER = str(FIXTURES / "php_like_sim_faker.json")


def run(args):
    return main(args)


@pytest.mark.parametrize("strategy", ["CBS", "HMSU"])
def test_audit_faker_is_non_compliant(strategy, capsys):
    code = run(["audit", "--database", DB, "--sim-config", SIM_FAKER,
                "--strategy", strategy, "--target", "7.3.0", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 1
    assert "20.9.85-car" in out
    assert "candidates      : 7.1.1" in out.splitlines()
    assert "NOT compliant" in out


@pytest.mark.parametrize("strategy", ["BS", "CBS", "HTL", "LTH", "HMSU"])
def test_audit_honest_compliant_exit_zero(strategy, capsys):
    code = run(["audit", "--database", DB, "--sim-config", SIM_HONEST,
                "--strategy", strategy, "--target", "7.2.14", "--seed", "11", "--budget", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "candidates      : 7.2.14" in out.splitlines()
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


@pytest.mark.parametrize("flag", ["--repeat", "--budget"])
@pytest.mark.parametrize("value", ["0", "-1", "-2"])
def test_audit_rejects_a_repeat_or_budget_below_one(flag, value, capsys, monkeypatch):
    # Rejected before anything is read or contacted: neither file exists.
    monkeypatch.setattr(cli, "_load_db", lambda path: pytest.fail("database was loaded"))
    code = run(["audit", "--database", "missing.json", "--sim-config", "missing.json",
                flag, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"error: {flag} must be at least 1, got {value}"]


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


def test_db_validate_reports_a_malformed_label_on_one_line(tmp_path, capsys, db_doc):
    db_doc["service"]["family"][3] = "5.two"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(db_doc))
    assert run(["db", "validate", "--database", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid: 'service.family': malformed version label: '5.two'"]


def test_db_validate_reports_a_family_that_is_not_a_list_on_one_line(tmp_path, capsys, db_doc):
    db_doc["service"]["family"] = 24
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(db_doc))
    assert run(["db", "validate", "--database", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "invalid: 'service.family' must be a list of version labels, got 24"]


def test_db_validate_reports_a_wait_amount_beyond_float_range_on_one_line(tmp_path, capsys, db_doc):
    db_doc["service"]["versions"]["7.2.0"]["test"]["waittime"] = {"amount": 10**400}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(db_doc))
    assert run(["db", "validate", "--database", str(bad)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("invalid: entry '7.2.0' 'waittime.amount' must be a finite positive number")


def test_db_validate_rejects_an_entry_that_tests_nothing(tmp_path, capsys, db_doc):
    db_doc["service"]["versions"]["4.4.9"] = {"test": {"branching": {"4.4.9": "1"}}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(db_doc))
    assert run(["db", "validate", "--database", str(bad)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid: entry '4.4.9' tests nothing")


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


_ADD_1_0_0 = ["--version", "1.0.0", "--challenge", "f(#ax#)", "--expect", "#ax#",
              "--var", "ax:integer:1:9"]


@pytest.mark.parametrize("command", [["db", "new", "--service", "toy", "--out"],
                                     ["db", "add-entry", *_ADD_1_0_0, "--database"]])
def test_a_failed_replace_leaves_the_old_database_and_no_temporary_file(command, tmp_path,
                                                                         capsys, monkeypatch):
    out = tmp_path / "toy.json"
    run(["db", "new", "--service", "toy", "--out", str(out)])
    before = out.read_bytes()
    capsys.readouterr()

    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    assert run([*command, str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: [Errno 28] No space left on device"]
    assert out.read_bytes() == before
    assert [path.name for path in tmp_path.iterdir()] == ["toy.json"]


def test_db_add_entry_replaces_a_symlinked_database_at_its_target_with_its_mode(tmp_path, capsys):
    target, link = tmp_path / "real.json", tmp_path / "link.json"
    run(["db", "new", "--service", "toy", "--out", str(target)])
    target.chmod(0o640)
    link.symlink_to(target.name)
    assert run(["db", "add-entry", *_ADD_1_0_0, "--database", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert "1.0.0" in json.loads(target.read_text())["service"]["versions"]
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_db_new_gives_a_new_file_the_bits_a_plain_write_gives(tmp_path, capsys):
    plain, out = tmp_path / "plain", tmp_path / "new.json"
    plain.write_bytes(b"")
    assert run(["db", "new", "--service", "toy", "--out", str(out)]) == 0
    assert out.stat().st_mode == plain.stat().st_mode


def test_db_add_entry_rejects_dangling(tmp_path, capsys):
    out = tmp_path / "toy.json"
    run(["db", "new", "--service", "toy", "--out", str(out)])
    code = run(["db", "add-entry", "--database", str(out), "--version", "1.0.0",
                "--challenge", "x", "--expect", "y", "--branch", "9.9.9"])
    assert code == 1


def test_db_add_entry_rejects_challenge_without_expect(tmp_path, capsys):
    out = tmp_path / "toy.json"
    run(["db", "new", "--service", "toy", "--out", str(out)])
    code = run(["db", "add-entry", "--database", str(out), "--version", "1.0.0",
                "--challenge", "X"])
    assert code == 1
    assert "rejected:" in capsys.readouterr().err


def test_db_add_entry_rejects_a_malformed_label_on_one_line(tmp_path, capsys):
    out = tmp_path / "toy.json"
    run(["db", "new", "--service", "toy", "--out", str(out)])
    code = run(["db", "add-entry", "--database", str(out), "--version", "1.x",
                "--challenge", "x", "--expect", "y"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["rejected: new entry: malformed version label: '1.x'"]


@pytest.mark.parametrize("spec", ["ax:integer", "ax:integer:x:3", "ax:string", "ax:binary:4:5",
                                  "s:string:100000"])
def test_db_add_entry_rejects_a_malformed_var_on_one_line(spec, tmp_path, capsys):
    out = tmp_path / "toy.json"
    run(["db", "new", "--service", "toy", "--out", str(out)])
    capsys.readouterr()
    code = run(["db", "add-entry", "--database", str(out), "--version", "1.0.0",
                "--challenge", "f(#ax#)", "--expect", "#ax#", "--var", spec])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"rejected: --var {spec!r}")


def test_db_validate_rejects_unbound_placeholder(tmp_path, capsys, db_doc):
    db_doc["service"]["versions"]["7.2.0"]["test"]["challenge"]["payload"] = "var_dump(a(#zz#));"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(db_doc))
    assert run(["db", "validate", "--database", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "7.2.0" in err and "#zz#" in err


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


@pytest.mark.parametrize("log_text, keys_text, named", [
    pytest.param("5\n", "{}", "user.ndjson:1", id="line-not-an-object"),
    pytest.param('{"round": 1}\n{"round": "1"}\n', "{}", "user.ndjson:2", id="round-not-integer"),
    pytest.param('{"round": 1}\n', '["a"]', "keys.json", id="keys-not-an-object"),
    pytest.param('{"round": 1}\n', '{"user": 5}', "keys.json", id="key-not-hex"),
    pytest.param('{"round": 1}\n', json.dumps({"user": "00" * 32, "auditor": "00" * 32}),
                 "provider", id="keys-lack-a-role"),
])
def test_verify_logs_malformed_file_is_one_line(log_text, keys_text, named, tmp_path, capsys):
    (tmp_path / "user.ndjson").write_text(log_text)
    (tmp_path / "keys.json").write_text(keys_text)
    code = run(["verify-logs", "--database", DB, "--keys", str(tmp_path / "keys.json"),
                "--user-log", str(tmp_path / "user.ndjson")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("malformed input: ") and named in err[0]


def test_verify_logs_names_a_log_line_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "user.ndjson").write_bytes(b'{"round": 1}\n{"round": \xff}\n')
    (tmp_path / "keys.json").write_text("{}")
    code = run(["verify-logs", "--database", DB, "--keys", str(tmp_path / "keys.json"),
                "--user-log", str(tmp_path / "user.ndjson")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("malformed input: ")
    assert f"{tmp_path / 'user.ndjson'}:2: " in err[0] and "utf-8" in err[0]


def test_loading_the_cli_loads_no_cryptography():
    # Only verify-logs signs or checks anything; every other command
    # should not pay for importing the library.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    probe = "import sys, fpaudit.cli; print('cryptography' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("args, named", [
    pytest.param(["audit", "--database", DB, "--sim-config", SIM_HONEST, "--target", "7.x"],
                 "'7.x'", id="malformed-target"),
    pytest.param(["audit", "--database", "MISSING", "--sim-config", SIM_HONEST], "MISSING",
                 id="missing-database"),
    pytest.param(["audit", "--database", DB, "--sim-config", "MISSING"], "MISSING",
                 id="missing-sim-config"),
    pytest.param(["simulate", "--config", "MISSING"], "MISSING", id="missing-config"),
])
def test_unusable_argument_is_one_error_line(args, named, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code = run([missing if arg == "MISSING" else arg for arg in args])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert (missing if named == "MISSING" else named) in err[0]


@pytest.mark.parametrize("args, code, verdict", [
    pytest.param(["db", "validate"], 1, "invalid: ", id="db-validate"),
    pytest.param(["audit", "--sim-config", SIM_HONEST], 2, "error: ", id="audit"),
])
def test_a_database_that_is_not_utf8_is_a_verdict_only_to_db_validate(args, code, verdict,
                                                                       tmp_path, capsys):
    # db validate judges databases, so one that does not load is its verdict;
    # to any other command it is malformed input.
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"service": "\xff"}')
    assert run([*args, "--database", str(bad)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(verdict + "database document is not valid JSON")


def test_db_validate_a_deep_referral_chain(tmp_path, capsys):
    deep = tmp_path / "chain.json"
    deep.write_text(json.dumps(chain_db_doc(2000)))
    assert run(["db", "validate", "--database", str(deep)]) == 0
    out, err = capsys.readouterr()
    assert out == "2000 entries over 2000 versions; perfect coverage\n" and err == ""


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
                    "--strategy", "HTL", "--target", "7.2.14", "--seed", "2",
                    "--format", "json"])
    finally:
        server.shutdown()
        server.server_close()
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["claimedVersion"] == "7.2.14"
    assert doc["candidates"] == ["7.2.14"]


def test_audit_over_http_against_a_simulate_process(capsys, monkeypatch):
    # The deployed shape: the auditor and the provider are separate
    # processes, and "--port 0" lets the system choose a free port.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FPAUDIT_HTTP_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name in ("FPAUDIT_HTTP_USER", "FPAUDIT_HTTP_PASS"):
        monkeypatch.delenv(name, raising=False)
    server = subprocess.Popen([sys.executable, "-m", "fpaudit.cli", "simulate",
                               "--config", SIM_HONEST, "--port", "0"],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([server.stdout], [], [], 30)
        assert ready, "simulate printed nothing within 30 s"
        banner = server.stdout.readline()
        port = int(re.search(r"on port (\d+) ", banner).group(1))
        assert port != 0, banner
        base = f"http://127.0.0.1:{port}"
        code = run(["audit", "--database", DB, "--challenge-url", f"{base}/challenge",
                    "--response-url", f"{base}/response", "--strategy", "BS",
                    "--target", "7.2.14", "--seed", "4", "--format", "json"])
    finally:
        server.terminate()
        try:
            server.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["candidates"] == ["7.2.14"]


def test_an_http_audit_leaves_no_socket_open_at_exit():
    # The kept-alive connection is closed when the command ends, not left
    # to the garbage collector (which warns about it under -X dev).
    env = {k: v for k, v in os.environ.items() if not k.startswith("FPAUDIT_HTTP_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    server = subprocess.Popen([sys.executable, "-m", "fpaudit.cli", "simulate",
                               "--config", SIM_HONEST, "--port", "0"],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([server.stdout], [], [], 30)
        assert ready, "simulate printed nothing within 30 s"
        base = "http://127.0.0.1:%s" % re.search(r"on port (\d+) ", server.stdout.readline()).group(1)
        audit = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                                "-m", "fpaudit.cli", "audit", "--database", DB,
                                "--challenge-url", f"{base}/challenge",
                                "--response-url", f"{base}/response", "--strategy", "BS",
                                "--target", "7.2.14", "--seed", "4"],
                               env=env, capture_output=True, text=True, timeout=60)
    finally:
        server.terminate()
        try:
            server.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()
    assert audit.returncode == 0, audit.stderr
    assert "unclosed <socket" not in audit.stderr


@pytest.mark.parametrize("strategy", ["BS", "CBS", "HTL", "LTH", "HMSU"])
def test_audit_with_every_exchange_failing_in_transport_is_undecided(
        strategy, capsys, sim_family, monkeypatch):
    # The server wants credentials the auditor does not send: no exchange
    # observes the provider, so no target check may pass.
    from fpaudit.simserver import start_server
    from fpaudit.simulator import SimProviderConfig, produce
    from fpaudit.versions import parse_version as pv

    server = start_server(produce(sim_family, SimProviderConfig(src_version=pv("7.2.14"))),
                          credentials=("auditor", "sekrit"))
    monkeypatch.delenv("FPAUDIT_HTTP_USER", raising=False)
    monkeypatch.delenv("FPAUDIT_HTTP_PASS", raising=False)
    try:
        code = run(["audit", "--database", DB,
                    "--challenge-url", server.url("/challenge"),
                    "--response-url", server.url("/response"),
                    "--strategy", strategy, "--target", "4.0.0b1", "--seed", "2",
                    "--format", "json"])
    finally:
        server.shutdown()
        server.server_close()
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["compliance"] is None
    assert captured.err.splitlines() == ["claim probe failed: auth", "transport failure: auth"]


@pytest.mark.parametrize("document, named", [
    pytest.param("{not json", "not valid JSON", id="not-json"),
    pytest.param(json.dumps({"functions": {}}), "'family'", id="no-family"),
    pytest.param(json.dumps({"family": {"versions": ["7.2.14"]},
                             "provider": {"behavior": "teleporter"}}), "'provider.behavior'",
                 id="unknown-behavior"),
    pytest.param(json.dumps({"family": {"versions": ["4.x"]}}), "'family.versions'",
                 id="bad-family-label"),
    pytest.param(json.dumps({"family": {"versions": ["7.2.14"]}, "provider": []}), "'provider'",
                 id="provider-not-an-object"),
    pytest.param(json.dumps({"family": {"versions": ["7.2.14"]},
                             "functions": {"f": {"windows": [["7.2.14"]]}}}),
                 "'functions.f.windows'", id="one-element-window"),
    pytest.param(json.dumps({"family": {"versions": ["7.2.14"]},
                             "functions": {"f": {"windows": [["7.2.14", "7.2.0"]]}}}),
                 "'functions.f.windows'", id="window-covering-nothing"),
    pytest.param(json.dumps({"family": {"versions": ["7.2.14"]},
                             "functions": {"f": {"hard": "false"}}}),
                 "'functions.f.hard'", id="hard-not-a-boolean"),
    pytest.param(json.dumps({"family": {"versions": ["7.2.14"]},
                             "provider": {"latency": {"base_ms": "a"}}}),
                 "'provider.latency.base_ms'", id="latency-not-a-number"),
    *(pytest.param(json.dumps({"family": {"versions": ["7.2.14"]},
                               "provider": {"latency": {"base_ms": value}}}),
                   "'provider.latency.base_ms'", id=f"latency-{name}")
      for name, value in [("nan", float("nan")), ("inf", float("inf")), ("beyond-float", 10**400),
                          ("negative", -5)]),
    pytest.param(json.dumps({"family": {"versions": ["7.2.14"]},
                             "provider": {"latency": {"jitter_ms": -5}}}),
                 "'provider.latency.jitter_ms'", id="jitter-negative"),
    pytest.param(json.dumps({"family": {"versions": ["7.2.14"]}, "provider": {"proxy_floor_ms": -5}}),
                 "'provider.proxy_floor_ms'", id="proxy-floor-negative"),
])
def test_audit_malformed_sim_config_is_one_error_line(document, named, tmp_path, capsys):
    cfgfile = tmp_path / "sim.json"
    cfgfile.write_text(document)
    code = run(["audit", "--database", DB, "--sim-config", str(cfgfile)])
    captured = capsys.readouterr()
    assert code == 2
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert named in captured.err


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
