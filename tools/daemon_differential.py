#!/usr/bin/env python3
"""Daemon-vs-batch differential harness for mccheckd.

The daemon's core guarantee is that a `check` response carries the
exact bytes a batch ``mccheck`` run would put on stdout for the same
inputs — whatever is resident, however many requests came before. This
harness pins that guarantee three ways:

``protocol`` mode
    Cold and warm `check --protocol` requests in one daemon session,
    each byte-compared against a fresh batch run; the warm request must
    also prove full reuse (every unit replayed, no files re-parsed,
    resident program served).

``files`` mode
    Emit a protocol corpus to disk, then compare a daemon file check
    (cold + warm) against batch over the same file list. File mode has
    no timing table, so text output is comparable here too.

``metal`` mode
    Emit a protocol corpus and run one user metal checker over it
    (``--metal``): a cold and a warm daemon check must both match the
    batch ``mccheck --metal`` bytes, and the warm one must replay every
    unit from resident state.

``edit`` mode
    A full edit/re-check cycle: cold check, warm check, then an on-disk
    edit followed by a re-check that must (a) match a fresh batch run
    over the edited tree byte for byte and (b) re-run *only* the edited
    file's units — the response's ``units_reused``/``files_reparsed``
    stats prove per-unit fingerprint invalidation actually engaged.

``kill`` mode
    Robustness under ungraceful death: after a successful warm-up
    check, several requests are queued and the daemon is SIGKILLed
    mid-flight (the view from a client when the daemon segfaults or the
    OOM killer fires). The client must surface a structured transport
    error within a bounded deadline — never hang on the dead pipe, and
    never misread the truncated stream as a response — and a freshly
    started daemon must then serve the exact batch bytes again.

Exits 0 when every assertion holds, 1 with a diagnostic otherwise.
Standard library only (imports the client sitting next to it).
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from mccheckd_client import DaemonClient  # noqa: E402


class Failure(Exception):
    pass


def batch_run(mccheck, args):
    """Run batch mccheck; return (stdout_bytes, exit_code)."""
    proc = subprocess.run([mccheck, *args], capture_output=True)
    return proc.stdout, proc.returncode


def require(cond, what):
    if not cond:
        raise Failure(what)


def compare(tag, daemon_result, batch_out, batch_rc):
    """Byte-compare one daemon check result against one batch run."""
    got = daemon_result["output"].encode("utf-8")
    require(
        daemon_result["exit_code"] == batch_rc,
        "%s: exit codes differ: daemon %d, batch %d"
        % (tag, daemon_result["exit_code"], batch_rc),
    )
    if got != batch_out:
        for i, (a, b) in enumerate(zip(got, batch_out)):
            if a != b:
                context = got[max(0, i - 40) : i + 40]
                raise Failure(
                    "%s: output diverges from batch at byte %d: %r"
                    % (tag, i, context)
                )
        raise Failure(
            "%s: output lengths differ: daemon %d bytes, batch %d bytes"
            % (tag, len(got), len(batch_out))
        )


def require_full_reuse(tag, stats):
    require(
        stats["units_reused"] == stats["units_total"]
        and stats["units_total"] > 0,
        "%s: expected every unit replayed, got %r" % (tag, stats),
    )
    require(
        stats["files_reparsed"] == 0,
        "%s: expected no re-parses, got %r" % (tag, stats),
    )
    require(
        stats["program_reused"],
        "%s: expected the resident program to serve, got %r" % (tag, stats),
    )


def emit_corpus(mccheck, protocol, workdir):
    corpus_dir = os.path.join(workdir, "corpus")
    proc = subprocess.run(
        [mccheck, "--emit-corpus", protocol, corpus_dir],
        capture_output=True,
    )
    if proc.returncode != 0:
        raise Failure(
            "--emit-corpus %s failed: %s" % (protocol, proc.stderr)
        )
    sources = sorted(
        glob.glob(os.path.join(corpus_dir, "**", "*.c"), recursive=True)
    )
    require(sources, "--emit-corpus %s wrote no .c files" % protocol)
    return sources


def run_protocol_mode(args, client):
    batch_out, batch_rc = batch_run(
        args.mccheck, ["--protocol", args.protocol, "--format", args.format]
    )
    require(batch_out, "batch run produced no stdout; comparison vacuous")
    params = {"protocol": args.protocol, "format": args.format}

    cold = client.check(params)
    compare("cold", cold, batch_out, batch_rc)
    require(
        not cold["stats"]["program_reused"],
        "cold check claims a resident program: %r" % cold["stats"],
    )

    warm = client.check(params)
    compare("warm", warm, batch_out, batch_rc)
    require_full_reuse("warm", warm["stats"])

    status = client.status()
    require(
        status["resident"]["protocol_snapshots"] >= 1,
        "no resident protocol snapshot after two checks: %r" % status,
    )


def run_files_mode(args, client):
    sources = emit_corpus(args.mccheck, args.protocol, args.workdir)
    batch_out, batch_rc = batch_run(
        args.mccheck, [*sources, "--format", args.format]
    )
    require(batch_out, "batch run produced no stdout; comparison vacuous")
    params = {"files": sources, "format": args.format}

    cold = client.check(params)
    compare("cold", cold, batch_out, batch_rc)

    warm = client.check(params)
    compare("warm", warm, batch_out, batch_rc)
    require_full_reuse("warm", warm["stats"])


def run_metal_mode(args, client):
    require(args.metal, "metal mode needs --metal <checker.metal>")
    sources = emit_corpus(args.mccheck, args.protocol, args.workdir)
    batch_out, batch_rc = batch_run(
        args.mccheck, ["--metal", args.metal, *sources, "--format", args.format]
    )
    require(batch_out, "batch run produced no stdout; comparison vacuous")
    params = {"files": sources, "metal": args.metal, "format": args.format}

    cold = client.check(params)
    compare("cold", cold, batch_out, batch_rc)

    warm = client.check(params)
    compare("warm", warm, batch_out, batch_rc)
    require_full_reuse("warm", warm["stats"])


def run_edit_mode(args, client):
    sources = emit_corpus(args.mccheck, args.protocol, args.workdir)
    fmt = ["--format", args.format]
    params = {"files": sources, "format": args.format}

    batch_out, batch_rc = batch_run(args.mccheck, [*sources, *fmt])
    require(batch_out, "batch run produced no stdout; comparison vacuous")
    cold = client.check(params)
    compare("cold", cold, batch_out, batch_rc)
    units_total = cold["stats"]["units_total"]

    warm = client.check(params)
    compare("warm", warm, batch_out, batch_rc)
    require_full_reuse("warm", warm["stats"])

    # Edit exactly one file on disk; a declaration shifts that unit's
    # token-stream fingerprints and nobody else's.
    with open(sources[0], "a") as fp:
        fp.write("int mc_daemon_edit_probe;\n")
    batch_out2, batch_rc2 = batch_run(args.mccheck, [*sources, *fmt])

    edited = client.check(params)
    compare("edited", edited, batch_out2, batch_rc2)
    stats = edited["stats"]
    require(
        stats["files_reparsed"] == 1,
        "edited: expected exactly the edited file re-parsed, got %r"
        % stats,
    )
    require(
        stats["program_reused"],
        "edited: expected an in-place snapshot update, got %r" % stats,
    )
    require(
        0 < stats["units_reused"] < units_total,
        "edited: expected only the edited file's units to re-run "
        "(0 < reused < %d), got %r" % (units_total, stats),
    )

    warm2 = client.check(params)
    compare("warm2", warm2, batch_out2, batch_rc2)
    require_full_reuse("warm2", warm2["stats"])


def run_kill_mode(args):
    from mccheckd_client import ProtocolError

    params = {"protocol": args.protocol, "format": args.format}
    batch_out, batch_rc = batch_run(
        args.mccheck, ["--protocol", args.protocol, "--format", args.format]
    )
    require(batch_out, "batch run produced no stdout; comparison vacuous")

    client = DaemonClient(daemon=args.mccheckd, daemon_args=args.daemon_args)
    try:
        cold = client.check(params)
        compare("kill-warmup", cold, batch_out, batch_rc)

        # Put the daemon under load — several requests on the wire at
        # once — then SIGKILL it mid-flight. SIGKILL is uncatchable, so
        # this is exactly what a segfault or an OOM kill looks like
        # from the client side.
        for request_id in (101, 102, 103):
            client._send_line(
                json.dumps(
                    {"id": request_id, "method": "check", "params": params}
                )
            )
        client._proc.kill()

        outcome = {}

        def reader():
            try:
                outcome["line"] = client._recv_line()
            except ProtocolError as err:
                outcome["error"] = err

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        thread.join(timeout=30)
        require(
            not thread.is_alive(),
            "kill: client still blocked on the dead daemon after 30s",
        )
        require(
            "error" in outcome,
            "kill: expected a transport error, got a response: %r"
            % outcome.get("line"),
        )
        require(
            "closed the connection" in str(outcome["error"]),
            "kill: expected the closed-connection transport error, got: %s"
            % outcome["error"],
        )
        rc = client._proc.wait(timeout=30)
        require(
            rc == -9,
            "kill: daemon exit status %r, expected SIGKILL (-9)" % rc,
        )
    finally:
        client.close()

    # The crash must not poison anything on disk: a fresh daemon serves
    # the same bytes the batch run produces.
    with DaemonClient(
        daemon=args.mccheckd, daemon_args=args.daemon_args
    ) as fresh:
        again = fresh.check(params)
        compare("kill-restart", again, batch_out, batch_rc)
        fresh.shutdown()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mccheck", required=True)
    parser.add_argument("--mccheckd", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument(
        "--mode",
        required=True,
        choices=["protocol", "files", "metal", "edit", "kill"],
    )
    parser.add_argument("--metal", help="checker for metal mode")
    parser.add_argument("--protocol", required=True)
    parser.add_argument("--format", default="json")
    parser.add_argument(
        "--daemon-arg", action="append", default=[], dest="daemon_args"
    )
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    try:
        if args.mode == "kill":
            # Manages its own clients: the first daemon dies by design.
            run_kill_mode(args)
        else:
            with DaemonClient(
                daemon=args.mccheckd, daemon_args=args.daemon_args
            ) as client:
                if args.mode == "protocol":
                    run_protocol_mode(args, client)
                elif args.mode == "files":
                    run_files_mode(args, client)
                elif args.mode == "metal":
                    run_metal_mode(args, client)
                else:
                    run_edit_mode(args, client)
                client.shutdown()
    except Failure as failure:
        print(
            "daemon_differential[%s %s %s]: %s"
            % (args.mode, args.protocol, args.format, failure),
            file=sys.stderr,
        )
        return 1
    print(
        "daemon_differential[%s %s %s]: daemon and batch agree"
        % (args.mode, args.protocol, args.format)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
