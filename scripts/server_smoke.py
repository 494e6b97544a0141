#!/usr/bin/env python3
"""End-to-end smoke test for omega-serve.

Starts the daemon on a Unix socket, drives it with several concurrent
clients over every example program, and checks the serving contract:

 1. every response validates against schema/analysis_response.schema.json;
 2. every response's "result" section is byte-identical to a one-shot
    `omega-analyze --json` run of the same program (warm result store,
    concurrent clients, and request interleaving must be invisible in
    results);
 3. in-flight coalescing: a burst of identical concurrent requests on an
    otherwise idle server, half of them carrying a "session" label,
    performs exactly ONE engine solve -- the engine analyses counter
    moves by 1, the coalesced counter by K-1, and every client's result
    section is byte-identical to the one-shot run;
 4. the shutdown op stops the daemon cleanly.

With --telemetry-dir DIR the daemon also runs with --metrics-file and
--access-log pointing into DIR, and the driver scrapes the health and
metrics ops mid-run: both documents must validate against
schema/metrics_response.schema.json, and the metrics response, the
Prometheus expositions, and the access log are left in DIR for
check_metrics.py to cross-check (DIR/metrics_response.jsonl,
DIR/metrics_prereset.prom, DIR/metrics.prom, DIR/access.jsonl). The
driver then exercises {"op": "metrics", "reset": true}: the reset
response must carry the pre-reset totals, and a follow-up plain metrics
op must see a fresh window in which it is the only request
(DIR/metrics_after_reset.jsonl, for check_metrics.py with
--expect-analyze-ok 0).

Usage:
    server_smoke.py --serve build/tools/omega-serve \
                    --analyze build/tools/omega-analyze \
                    [--programs examples/programs] [--clients 4] [--rounds 2] \
                    [--telemetry-dir DIR]

Exit status 0 on success, 1 on any violation.
"""

import argparse
import glob
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_schema import SCHEMA_PATH, Validator  # noqa: E402


def result_bytes(line):
    """The raw bytes of the "result" value in a response line."""
    marker = '"result": '
    at = line.find(marker)
    if at < 0:
        return None
    start = at + len(marker)
    depth = 0
    in_string = False
    i = start
    while i < len(line):
        c = line[i]
        if in_string:
            if c == "\\":
                i += 1
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return line[start : i + 1]
        i += 1
    return None


def one_request(sock_path, req):
    """Sends one request on a fresh connection; returns the response line."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(sock_path)
    sock.sendall((json.dumps(req) + "\n").encode())
    buf = b""
    while b"\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise RuntimeError("connection closed mid-request")
        buf += chunk
    sock.close()
    return buf.split(b"\n", 1)[0].decode()


def heavy_program():
    """The coalescing burst program: four 3-D nests whose solve (with the
    pair quick tests disabled per request) takes tens of milliseconds, so
    a burst of identical requests against an idle server parks on the
    first request's solve instead of each running its own."""
    text = "symbolic n, m, p;\n"
    for k in range(4):
        s = str(k)
        text += (
            f"for i := 2 to n do\n"
            f"  for j := 2 to m do\n"
            f"    for k := 2 to p do\n"
            f"      a{s}(i,j,k) := a{s}(i-1,j,k) + a{s}(i,j-1,k)"
            f" + b{s}(i-1,j-1,k) + c{s}(i,j,k-1);\n"
            f"      b{s}(i,j,k) := a{s}(i,j,k) + b{s}(i-1,j,k-1)"
            f" + c{s}(i,j-1,k);\n"
            f"      c{s}(i,j,k) := b{s}(i,j-1,k) + c{s}(i-1,j,k)"
            f" + a{s}(i-1,j,k-1);\n"
            f"      d{s}(i,j,k) := d{s}(i-1,j-1,k-1) + c{s}(i,j,k)"
            f" + b{s}(i,j,k);\n"
            f"    endfor\n"
            f"  endfor\n"
            f"endfor\n"
        )
    return text


def scrape_counters(sock_path, rid):
    line = one_request(sock_path, {"id": rid, "op": "metrics"})
    return json.loads(line)["metrics"]["counters"]


def burst_client(sock_path, barrier, req_line, responses, errors, tag):
    """Connects, then sends one pre-encoded request on the barrier."""
    try:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(sock_path)
        barrier.wait()
        sock.sendall(req_line)
        buf = b""
        while b"\n" not in buf:
            chunk = sock.recv(65536)
            if not chunk:
                raise RuntimeError("connection closed mid-request")
            buf += chunk
        responses.append(buf.split(b"\n", 1)[0].decode())
        sock.close()
    except Exception as e:  # noqa: BLE001 - report, don't crash the driver
        errors.append(f"{tag}: {e}")


def check_coalescing(sock_path, analyze, tmp, k=8):
    """Returns the number of failed checks for the coalescing contract."""
    failures = 0
    heavy = heavy_program()
    heavy_path = os.path.join(tmp, "heavy.tiny")
    with open(heavy_path, "w") as f:
        f.write(heavy)
    out = subprocess.run(
        [analyze, "--json", "--no-quicktests", heavy_path],
        capture_output=True, text=True, check=True,
    ).stdout
    expected = result_bytes(out)
    if expected is None:
        print("coalescing: one-shot run of the burst program has no result")
        return 1

    before = scrape_counters(sock_path, 2000000)
    barrier = threading.Barrier(k)
    responses = []
    errors = []
    threads = []
    for i in range(k):
        # A session label is only a label: labelled and unlabelled
        # requests share the leader's solve alike.
        body = {"id": 2000001 + i, "source": heavy,
                "options": {"quicktests": False}}
        if i % 2:
            body["session"] = "burst"
        req = (json.dumps(body) + "\n").encode()
        threads.append(threading.Thread(
            target=burst_client,
            args=(sock_path, barrier, req, responses, errors, f"burst{i}")))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for err in errors:
        print("coalescing client error:", err)
        failures += 1
    after = scrape_counters(sock_path, 2000100)

    for i, line in enumerate(responses):
        if result_bytes(line) != expected:
            print(f"coalescing: response {i} differs from the one-shot run")
            failures += 1
    analyses = (after["omega_engine_analyses_total"] -
                before["omega_engine_analyses_total"])
    coalesced = (after["omega_serve_requests_coalesced_total"] -
                 before["omega_serve_requests_coalesced_total"])
    if analyses != 1:
        print(f"coalescing: burst of {k} ran {analyses} engine solves, "
              "want exactly 1")
        failures += 1
    if coalesced != k - 1:
        print(f"coalescing: burst of {k} coalesced {coalesced} requests, "
              f"want {k - 1}")
        failures += 1
    if not failures:
        print(f"coalescing: {k} identical concurrent requests shared "
              "1 engine solve, results byte-identical")
    return failures


def client(sock_path, requests, responses, errors, tag):
    """One closed-loop client: send each request, wait for its response."""
    try:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(sock_path)
        buf = b""
        for req in requests:
            sock.sendall((json.dumps(req) + "\n").encode())
            while b"\n" not in buf:
                chunk = sock.recv(65536)
                if not chunk:
                    raise RuntimeError("connection closed mid-request")
                buf += chunk
            line, buf = buf.split(b"\n", 1)
            responses.append((req["id"], line.decode()))
        sock.close()
    except Exception as e:  # noqa: BLE001 - report, don't crash the driver
        errors.append(f"{tag}: {e}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--serve", required=True)
    ap.add_argument("--analyze", required=True)
    ap.add_argument("--programs", default="examples/programs")
    ap.add_argument("--clients", type=int, default=4)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--telemetry-dir",
                    help="scrape health/metrics ops and leave the metrics "
                         "response, Prometheus exposition, and access log "
                         "here for check_metrics.py")
    args = ap.parse_args()

    programs = sorted(glob.glob(os.path.join(args.programs, "*.tiny")))
    if not programs:
        print(f"no .tiny programs under {args.programs}")
        return 1

    # One-shot expectations: path -> exact result bytes.
    expected = {}
    for path in programs:
        out = subprocess.run(
            [args.analyze, "--json", path],
            capture_output=True, text=True, check=True,
        ).stdout
        expected[path] = result_bytes(out)
        if expected[path] is None:
            print(f"one-shot {path}: no result section in CLI output")
            return 1

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        sock_path = os.path.join(tmp, "omega.sock")
        cmd = [args.serve, "--socket", sock_path, "--workers", "4"]
        if args.telemetry_dir:
            os.makedirs(args.telemetry_dir, exist_ok=True)
            cmd += ["--metrics-file",
                    os.path.join(args.telemetry_dir, "metrics.prom"),
                    "--access-log",
                    os.path.join(args.telemetry_dir, "access.jsonl")]
        daemon = subprocess.Popen(
            cmd,
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

            # Concurrent clients, each sending every program per round
            # (offset per client so interleavings differ between clients).
            id_to_path = {}
            threads = []
            all_responses = []
            errors = []
            next_id = 1
            for c in range(args.clients):
                requests = []
                for r in range(args.rounds):
                    for i in range(len(programs)):
                        path = programs[(i + c) % len(programs)]
                        with open(path) as f:
                            source = f.read()
                        requests.append(
                            {"id": next_id, "source": source,
                             "options": {"jobs": 1 + (c % 3)}})
                        id_to_path[next_id] = path
                        next_id += 1
                responses = []
                all_responses.append(responses)
                threads.append(threading.Thread(
                    target=client,
                    args=(sock_path, requests, responses, errors,
                          f"client{c}")))
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for err in errors:
                print("client error:", err)
                failures += 1

            validator = Validator(json.load(open(SCHEMA_PATH)))
            total = 0
            for responses in all_responses:
                for rid, line in responses:
                    total += 1
                    doc = json.loads(line)
                    errs = validator.validate(doc, validator.root)
                    if errs:
                        print(f"id {rid}: schema violation: {errs[0]}")
                        failures += 1
                        continue
                    if doc.get("id") != rid:
                        print(f"id {rid}: response carries id {doc.get('id')}")
                        failures += 1
                        continue
                    got = result_bytes(line)
                    want = expected[id_to_path[rid]]
                    if got != want:
                        print(f"id {rid} ({id_to_path[rid]}): result section "
                              "differs from one-shot omega-analyze --json")
                        failures += 1
            want_total = args.clients * args.rounds * len(programs)
            if total != want_total:
                print(f"got {total} responses, want {want_total}")
                failures += 1

            # In-flight coalescing: with the main phase drained, a burst
            # of identical heavy requests must share one engine solve.
            failures += check_coalescing(sock_path, args.analyze, tmp)

            # Telemetry scrape: the health and metrics ops must answer and
            # validate while the server is live.
            if args.telemetry_dir:
                metrics_schema = os.path.join(
                    os.path.dirname(SCHEMA_PATH),
                    "metrics_response.schema.json")
                tele_validator = Validator(json.load(open(metrics_schema)))
                for op in ("health", "metrics"):
                    line = one_request(sock_path,
                                       {"id": 1000000, "op": op})
                    errs = tele_validator.validate(
                        json.loads(line), tele_validator.root)
                    if errs:
                        print(f"{op} op: schema violation: {errs[0]}")
                        failures += 1
                    if op == "metrics":
                        out = os.path.join(args.telemetry_dir,
                                           "metrics_response.jsonl")
                        with open(out, "w") as f:
                            f.write(line + "\n")
                        scrape_total = json.loads(line)["metrics"][
                            "counters"]["omega_serve_requests_total"]

                # The metrics op rewrites --metrics-file (atomically)
                # after answering; wait for that rewrite to land, then
                # keep a copy so the reset below cannot erase the
                # full-run exposition from the checked artifacts.
                prom = os.path.join(args.telemetry_dir, "metrics.prom")
                needle = f"omega_serve_requests_total {scrape_total}"
                text = ""
                for _ in range(200):
                    if os.path.exists(prom):
                        with open(prom) as f:
                            text = f.read()
                        if needle in text:
                            break
                    time.sleep(0.05)
                else:
                    print(f"metrics.prom never showed {needle!r}")
                    failures += 1
                with open(os.path.join(args.telemetry_dir,
                                       "metrics_prereset.prom"), "w") as f:
                    f.write(text)

                # Metrics reset: the reset response carries the pre-reset
                # snapshot (including its own request), and the next plain
                # metrics op sees a fresh window in which it is the only
                # request ever counted.
                line = one_request(sock_path, {"id": 1000001,
                                               "op": "metrics",
                                               "reset": True})
                doc = json.loads(line)
                errs = tele_validator.validate(doc, tele_validator.root)
                if errs:
                    print(f"metrics reset op: schema violation: {errs[0]}")
                    failures += 1
                pre = doc["metrics"]["counters"]
                if pre["omega_serve_requests_total"] != scrape_total + 1:
                    print("metrics reset op: pre-reset requests_total "
                          f"{pre['omega_serve_requests_total']} != "
                          f"{scrape_total + 1}")
                    failures += 1
                line = one_request(sock_path, {"id": 1000002,
                                               "op": "metrics"})
                doc = json.loads(line)
                errs = tele_validator.validate(doc, tele_validator.root)
                if errs:
                    print(f"post-reset metrics: schema violation: {errs[0]}")
                    failures += 1
                post = doc["metrics"]["counters"]
                if (post["omega_serve_requests_total"] != 1 or
                        post["omega_serve_analyze_ok_total"] != 0):
                    print("post-reset metrics: window not fresh: "
                          f"requests_total "
                          f"{post['omega_serve_requests_total']}, "
                          f"analyze_ok "
                          f"{post['omega_serve_analyze_ok_total']}")
                    failures += 1
                out = os.path.join(args.telemetry_dir,
                                   "metrics_after_reset.jsonl")
                with open(out, "w") as f:
                    f.write(line + "\n")

            # Clean shutdown through the protocol.
            fin = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            fin.connect(sock_path)
            fin.sendall(b'{"id": 0, "op": "shutdown"}\n')
            fin.close()
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                print("daemon ignored the shutdown op")
                failures += 1
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    print(f"{total} responses from {args.clients} clients over "
          f"{len(programs)} programs: "
          f"{'OK' if not failures else f'{failures} FAILURES'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
