#!/usr/bin/env python3
"""End-to-end gate for edit-incremental re-analysis through the result store.

Replays the edit corpus (tests/corpus/edits) through both surfaces of the
one cross-run reuse path, the result store, and checks the contract:

 1. `omega-analyze --result-cache-file`: every edited program runs
    against a fresh copy of a store file fed only by base.tiny. The
    response's "result" section must be byte-identical to a from-scratch
    `omega-analyze --json` run of the same program, validate against the
    schema, and account for every pair and kill group exactly once:
    resultStoreHits + resultStoreMisses == the resultStoreMisses of a run
    against an empty store.
 2. A live omega-serve: the base program then every edit are submitted
    with a "session" label, then all of them again without one. Every
    response must be byte-identical to the from-scratch run, validate
    against the schema and satisfy the same witness; the edits of the
    labelled replay must hit the store, and the unlabelled replay must
    miss nothing.
 3. Store-file robustness: a truncated and a bit-flipped store file must
    each warn and degrade to a from-scratch run (same bytes out), never
    to an error or a different result.
 4. The removed session-baseline option `--baseline` is rejected as an
    unknown option.

Usage:
    incremental_check.py --serve build/tools/omega-serve \
                         --analyze build/tools/omega-analyze \
                         [--edits tests/corpus/edits]

Exit status 0 on success, 1 on any violation.
"""

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_schema import SCHEMA_PATH, Validator  # noqa: E402
from server_smoke import result_bytes  # noqa: E402

EDITS = ["rename", "bound", "stmt-new", "stmt-edit", "loop-del",
         "interchange", "rename-reorder"]


def run_analyze(analyze, path, extra=()):
    """One omega-analyze --json run; returns (stdout, stderr)."""
    proc = subprocess.run(
        [analyze, "--json", *extra, path],
        capture_output=True, text=True, check=True,
    )
    return proc.stdout, proc.stderr


def store_stats(doc):
    stats = doc["metrics"]["stats"]
    return stats["resultStoreHits"], stats["resultStoreMisses"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--serve", required=True)
    ap.add_argument("--analyze", required=True)
    ap.add_argument("--edits", default="tests/corpus/edits")
    args = ap.parse_args()

    base = os.path.join(args.edits, "base.tiny")
    edits = [os.path.join(args.edits, e + ".tiny") for e in EDITS]
    for path in [base] + edits:
        if not os.path.exists(path):
            print(f"missing corpus file {path}")
            return 1

    validator = Validator(json.load(open(SCHEMA_PATH)))
    failures = 0

    def check(tag, line, path, expect_hits=False, expect_no_misses=False):
        """Schema, byte identity against scratch, and the hit/miss
        witness for one response; returns the number of violations."""
        bad = 0
        doc = json.loads(line)
        errs = validator.validate(doc, validator.root)
        if errs:
            print(f"{tag}: schema violation: {errs[0]}")
            bad += 1
        if result_bytes(line) != expected[path]:
            print(f"{tag}: result differs from scratch run")
            bad += 1
        hits, misses = store_stats(doc)
        if hits + misses != groups[path]:
            print(f"{tag}: {hits} hits + {misses} misses != "
                  f"{groups[path]} cold misses")
            bad += 1
        if expect_hits and hits == 0:
            print(f"{tag}: expected store hits, got none")
            bad += 1
        if expect_no_misses and misses != 0:
            print(f"{tag}: expected no store misses, got {misses}")
            bad += 1
        return bad

    with tempfile.TemporaryDirectory() as tmp:
        # From-scratch expectations, schema validity of the CLI documents,
        # and each program's group total: the misses of a run against an
        # empty store.
        expected = {}
        groups = {}
        for path in [base] + edits:
            out, _ = run_analyze(args.analyze, path)
            errs = validator.validate(json.loads(out), validator.root)
            if errs:
                print(f"scratch {path}: schema violation: {errs[0]}")
                failures += 1
            expected[path] = result_bytes(out)
            empty = os.path.join(tmp, "empty.omrs")
            out, _ = run_analyze(args.analyze, path,
                                 ["--result-cache-file", empty])
            os.remove(empty)
            hits, groups[path] = store_stats(json.loads(out))
            if hits != 0 or groups[path] == 0:
                print(f"{path}: an empty store should only miss, got "
                      f"{hits} hits / {groups[path]} misses")
                failures += 1

        # -- CLI surface: a store file fed by base.tiny, copied per edit --
        fed = os.path.join(tmp, "base.omrs")
        run_analyze(args.analyze, base, ["--result-cache-file", fed])
        if not os.path.exists(fed):
            print("omega-analyze --result-cache-file wrote no store file")
            return 1
        for path in edits:
            copy = os.path.join(tmp, "edit.omrs")
            shutil.copyfile(fed, copy)
            out, _ = run_analyze(args.analyze, path,
                                 ["--result-cache-file", copy])
            failures += check(f"cli {path}", out, path, expect_hits=True)

        # -- corrupt store files must warn and degrade to scratch ---------
        blob = open(fed, "rb").read()
        corrupt = {
            "truncated.omrs": blob[: len(blob) // 2],
            "bitflip.omrs": blob[:-1] + bytes([blob[-1] ^ 0x40]),
        }
        for name, data in corrupt.items():
            bad = os.path.join(tmp, name)
            with open(bad, "wb") as f:
                f.write(data)
            out, err = run_analyze(args.analyze, edits[0],
                                   ["--result-cache-file", bad])
            if "warning" not in err:
                print(f"{name}: expected a load warning on stderr")
                failures += 1
            if result_bytes(out) != expected[edits[0]]:
                print(f"{name}: corrupt store file changed the result")
                failures += 1

        # -- the session-baseline options are gone ------------------------
        proc = subprocess.run(
            [args.analyze, "--json", "--baseline", fed, base],
            capture_output=True, text=True)
        if proc.returncode == 0 or "unknown option" not in proc.stderr:
            print("--baseline should be rejected as an unknown option, got "
                  f"exit {proc.returncode}: {proc.stderr.strip()}")
            failures += 1

        # -- serve surface: base + every edit, labelled then unlabelled ---
        sock_path = os.path.join(tmp, "omega.sock")
        daemon = subprocess.Popen(
            [args.serve, "--socket", sock_path, "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            for _ in range(200):
                if os.path.exists(sock_path):
                    break
                if daemon.poll() is not None:
                    print("daemon exited early:", daemon.stderr.read())
                    return 1
                time.sleep(0.05)
            else:
                print("daemon never created its socket")
                return 1

            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(sock_path)
            buf = b""

            def ask(rid, path, session):
                nonlocal buf
                req = {"id": rid, "source": open(path).read()}
                if session:
                    req["session"] = session
                sock.sendall((json.dumps(req) + "\n").encode())
                while b"\n" not in buf:
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise RuntimeError("connection closed mid-request")
                    buf += chunk
                line, buf = buf.split(b"\n", 1)
                return line.decode()

            rid = 0
            for session in ("edit-corpus", None):
                label = "session" if session else "unlabelled"
                for path in [base] + edits:
                    rid += 1
                    line = ask(rid, path, session)
                    failures += check(
                        f"{label} {path}", line, path,
                        expect_hits=session is not None and path != base,
                        expect_no_misses=session is None)
            sock.sendall(b'{"id": 99, "op": "shutdown"}\n')
            sock.close()
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                print("daemon ignored the shutdown op")
                failures += 1
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    print(f"{len(edits)} edits via CLI store file + serve replay (labelled "
          f"and unlabelled) + corrupt store files: "
          f"{'OK' if not failures else f'{failures} FAILURES'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
