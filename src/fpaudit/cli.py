"""Operator commands: run audits, manage databases, host the simulator,
verify outsourced audit logs.

Exit codes: 0 success/compliant, 1 non-compliant or validation failure,
2 inconsistency, a target check left undecided by the test budget,
transport failure or malformed input. A readable database that does not
load is the verdict of "db validate" (one "invalid:" line, exit 1) and
malformed input to every other command (one "error:" line, exit 2);
a file that cannot be read is malformed input to every command.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from pathlib import Path

from .challenge import RandomnessSource
from .database import (
    DatabaseError,
    VariableSpec,
    add_entry,
    load_database,
    new_database,
    serialize_database,
    validate_strategy_independence,
)
from .simulator import SimConfigError, load_sim_config, produce
from .strategies import AuditError, run_audit
from .transport import (InterfaceEndpoint, TransportError, close_connections, env_credentials,
                        make_loopback, probe_version_claim)
from .verdict import build_report
from .versions import VersionParseError, parse_version


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fpaudit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="audit a provider's software version")
    p_audit.add_argument("--database", required=True)
    p_audit.add_argument("--strategy", default="CBS",
                         help="BS, CBS, HTL, LTH or HMSU (long names accepted)")
    p_audit.add_argument("--target", help="version the provider promised to run")
    p_audit.add_argument("--seed", type=int, help="deterministic randomness (test mode)")
    p_audit.add_argument("--repeat", type=int, default=1,
                         help="run the full audit this many times; all must agree")
    p_audit.add_argument("--budget", type=int)
    p_audit.add_argument("--format", choices=("table", "json"), default="table")
    p_audit.add_argument("--sim-config", help="run against an in-process simulated provider")
    p_audit.add_argument("--challenge-url", help="HTTP endpoint receiving challenges (PUT)")
    p_audit.add_argument("--response-url", help="HTTP endpoint serving responses (GET)")

    p_db = sub.add_parser("db", help="database tooling")
    db_sub = p_db.add_subparsers(dest="db_command", required=True)
    p_val = db_sub.add_parser("validate")
    p_val.add_argument("--database", required=True)
    p_new = db_sub.add_parser("new")
    p_new.add_argument("--service", required=True)
    p_new.add_argument("--out", required=True)
    p_add = db_sub.add_parser("add-entry")
    p_add.add_argument("--database", required=True)
    p_add.add_argument("--version", required=True)
    p_add.add_argument("--challenge")
    p_add.add_argument("--expect")
    p_add.add_argument("--var", action="append", default=[],
                       help="name:format[:min:max|:length], repeatable")
    p_add.add_argument("--branch", action="append", default=[],
                       help="referenced version tested first, repeatable")
    p_add.add_argument("--deprecated", help="boundary version whose test must fail")

    p_sim = sub.add_parser("simulate", help="serve a simulated provider over HTTP")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--port", type=int, default=8471)

    p_ver = sub.add_parser("verify-logs", help="verify outsourced audit logs")
    p_ver.add_argument("--database", required=True)
    p_ver.add_argument("--keys", required=True)
    p_ver.add_argument("--user-log")
    p_ver.add_argument("--auditor-log")
    p_ver.add_argument("--provider-log")

    args = parser.parse_args(argv)
    try:
        if args.command == "audit":
            return cmd_audit(args)
        if args.command == "db":
            return cmd_db(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "verify-logs":
            return cmd_verify_logs(args)
    except (DatabaseError, SimConfigError, VersionParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        close_connections()
    return 2


def _load_db(path: str):
    return load_database(Path(path).read_bytes())


def cmd_audit(args) -> int:
    for flag, value in (("--repeat", args.repeat), ("--budget", args.budget)):
        if value is not None and value < 1:
            print(f"error: {flag} must be at least 1, got {value}", file=sys.stderr)
            return 2
    db = _load_db(args.database)
    target = parse_version(args.target) if args.target else None

    if args.sim_config:
        sim, provider_cfg = load_sim_config(Path(args.sim_config).read_bytes())
        if args.seed is not None:
            from dataclasses import replace
            provider_cfg = replace(provider_cfg, seed=args.seed + 1)
        endpoints = make_loopback(produce(sim, provider_cfg))
    elif args.challenge_url and args.response_url:
        credentials = env_credentials()
        endpoints = tuple(InterfaceEndpoint(id=name, kind="http-fetch", address=url,
                                            credentials=credentials)
                          for name, url in (("chl", args.challenge_url),
                                            ("rsp", args.response_url)))
    else:
        print("error: provide --sim-config or both --challenge-url and --response-url",
              file=sys.stderr)
        return 2

    claim = None
    try:  # the claim is context for the report, never evidence
        claim = probe_version_claim(endpoints)
    except TransportError as exc:
        print(f"claim probe failed: {exc}", file=sys.stderr)

    reports = []
    budget_stopped = False
    transport_error = None
    for i in range(args.repeat):
        rng = RandomnessSource(seed=args.seed + i if args.seed is not None else None)
        try:
            log = run_audit(db, args.strategy, endpoints, rng, budget=args.budget)
        except AuditError as exc:
            print(f"audit failed: {exc}", file=sys.stderr)
            return 2
        budget_stopped = budget_stopped or log.stop_reason == "budget"
        transport_error = transport_error or log.transport_error()
        reports.append(build_report(log, db, target=target, claimed_version=claim))

    report = reports[0]
    agreed = all(r.candidate_set and report.candidate_set
                 and r.candidate_set.members == report.candidate_set.members
                 for r in reports)
    if args.format == "json":
        doc = report.to_doc()
        doc["repeats"] = len(reports)
        doc["repeatsAgree"] = agreed
        print(json.dumps(doc, indent=2))
    else:
        _print_table(report)
    if transport_error is not None:
        print(f"transport failure: {transport_error}", file=sys.stderr)
        return 2
    if report.inconsistency or not agreed:
        return 2
    if target is not None and budget_stopped:
        print("audit stopped on its test budget before converging; compliance is undecided",
              file=sys.stderr)
        return 2
    if report.compliant is False:
        return 1
    return 0


def _print_table(report) -> None:
    rows = report.rows
    width = max([len("Version")] + [len(str(r.version)) for r in rows]) + 2
    print(f"{'Version':<{width}}{'Result':<8}Testorder")
    for row in rows:
        mark = "pass" if row.delta else "fail"
        print(f"{str(row.version):<{width}}{mark:<8}{row.testorder}")
    if report.claimed_version is not None:
        print(f"claimed version : {report.claimed_version}")
    if report.inconsistency:
        print(f"INCONSISTENT    : {report.inconsistency}")
        return
    print(f"candidates      : {', '.join(report.candidate_set.labels()) or '(none)'}")
    if report.target is not None:
        state = {True: "compliant", False: "NOT compliant", None: "undecided"}[report.compliant]
        print(f"target {report.target}  -> {state}")


def cmd_db(args) -> int:
    if args.db_command == "validate":
        try:
            db = _load_db(args.database)
        except DatabaseError as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 1
        for members in validate_strategy_independence(db).equivalence_classes:
            print(f"indistinguishable: {' == '.join(members)}")
        print(f"{len(db.entries)} entries over {len(db.family)} versions; "
              f"{'perfect' if db.is_perfect else 'partial'} coverage")
        return 0

    if args.db_command == "new":
        db = new_database(args.service)
        _replace_file(args.out, serialize_database(db))
        print(f"created {args.out}")
        return 0

    if args.db_command == "add-entry":
        db = _load_db(args.database)
        try:
            variables = {spec.name: spec for spec in map(_var_spec, args.var)}
        except ValueError as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            return 1
        try:
            db = add_entry(
                db, args.version,
                challenge=args.challenge, expect=args.expect,
                variables=variables, branching=args.branch,
                deprecated=args.deprecated,
            )
        except DatabaseError as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            return 1
        _replace_file(args.database, serialize_database(db))
        print(f"added {args.version}")
        return 0
    return 2


def _replace_file(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` in one step: a new file in the same
    directory, flushed to disk, then renamed over ``path``, so a kill or a
    full disk mid-write leaves the old file whole.  A symlink is replaced at
    its target, and an existing file keeps its permission bits."""
    target = Path(path).resolve()
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as out:
            out.write(data)
            out.flush()
            os.fsync(out.fileno())
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        except FileNotFoundError:  # a new file keeps the umask's bits
            pass
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_VAR_PARAMS = {"integer": ("min", "max"), "string": ("length",), "binary": ("length",)}


def _var_spec(text: str) -> VariableSpec:
    """One ``--var name:format[:min:max|:length]``; a malformed one is a ValueError."""
    name, _, rest = text.partition(":")
    fmt, *values = rest.split(":")
    params = _VAR_PARAMS.get(fmt, ())
    try:
        if len(values) != len(params):
            raise ValueError(f"expected {len(params)} parameters after the format")
        return VariableSpec(name, fmt, **{p: int(v) for p, v in zip(params, values)})
    except ValueError as exc:
        raise ValueError(f"--var {text!r}: {exc}") from None


def cmd_simulate(args) -> int:
    from .simserver import SimHTTPServer, serve_forever

    sim, provider_cfg = load_sim_config(Path(args.config).read_bytes())
    server = SimHTTPServer(produce(sim, provider_cfg), args.port, env_credentials())
    # The port bound, so "--port 0" names the one the system chose.
    print(f"serving simulated provider on port {server.port} "
          f"(behavior={provider_cfg.behavior}, source={provider_cfg.src_version})", flush=True)
    serve_forever(server)
    return 0


def cmd_verify_logs(args) -> int:
    from .outsourced import read_keys, read_log, verify_liability  # loads cryptography

    db = _load_db(args.database)
    paths = {role: path for role, path in (("user", args.user_log), ("auditor", args.auditor_log),
                                           ("provider", args.provider_log)) if path}
    if not paths:
        print("no logs supplied", file=sys.stderr)
        return 2
    try:  # the logs first: a bad log line is named before a keys file lacking a role
        logs = {role: read_log(path) for role, path in paths.items()}
        verdicts = verify_liability(logs, read_keys(args.keys), db)
    except (OSError, ValueError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    blamed = False
    for role in ("user", "auditor", "provider"):
        if role not in logs:
            continue
        verdict = verdicts[role]
        line = f"{role:<9} {verdict.status}"
        if verdict.reason:
            line += f"  ({verdict.reason})"
        print(line)
        blamed = blamed or verdict.status == "blamed"
    return 1 if blamed else 0


if __name__ == "__main__":
    sys.exit(main())
