#!/usr/bin/env python3
"""Cross-check omega-serve telemetry: accounting invariants + format lint.

Takes a metrics-op response document (JSONL, one line) and/or a Prometheus
text exposition written by --metrics-file, and enforces the accounting
discipline the server promises (the paper's Figure-6 spirit: counters that
sum exactly):

  * per-op request counters sum to omega_serve_requests_total;
  * per-code response counters sum to omega_serve_requests_total;
  * solve/serialize histogram counts == omega_serve_analyze_ok_total;
  * queue-wait/parse/request histogram counts == analyze_ok + analysis_error;
  * every histogram's buckets sum to its count;
  * the coalescing witness: every ok analyze response is either the
    leader's own engine run or a coalesced follower, so
    omega_engine_analyses_total + omega_serve_requests_coalesced_total
    == omega_serve_analyze_ok_total at quiescence (exact when no
    analysis errors occurred; followers of a failed leader count as
    coalesced but not analyze_ok);
  * the result-store registry counters equal the store's own lifetime
    counters, and the omega_result_store_entries gauge equals the
    store's entry count (JSON document only);
  * the JSON document validates against schema/metrics_response.schema.json.

The metrics op's {"reset": true} variant is covered by the serve smoke
test and tests/ServeTest.cpp. Snapshots taken AFTER a reset stay
internally consistent (every invariant above still holds within the
snapshot), but the registry counters restart at zero while the live
ResultStore object keeps its lifetime counters — pass --post-reset to
relax the registry-vs-live-object equalities to <= for such snapshots
(the gauge check stays exact: gauges survive reset).

The Prometheus lint checks exposition-format well-formedness: HELP/TYPE
comments precede their samples, TYPE is counter/gauge/histogram, counter
names end in _total, le labels increase strictly and end with +Inf,
cumulative bucket counts are non-decreasing, and the +Inf bucket equals
_count.

Usage:
    check_metrics.py [--metrics-json FILE] [--prom FILE]
                     [--expect-analyze-ok N] [--post-reset]

Exit status 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_schema import Validator  # noqa: E402

METRICS_SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "schema",
    "metrics_response.schema.json",
)

OP_COUNTERS = [
    "omega_serve_requests_analyze_total",
    "omega_serve_requests_health_total",
    "omega_serve_requests_metrics_total",
    "omega_serve_requests_shutdown_total",
    "omega_serve_requests_invalid_total",
]
CODE_COUNTERS = [
    "omega_serve_responses_ok_total",
    "omega_serve_responses_parse_error_total",
    "omega_serve_responses_bad_request_total",
    "omega_serve_responses_analysis_error_total",
    "omega_serve_responses_overloaded_total",
    "omega_serve_responses_deadline_exceeded_total",
    "omega_serve_responses_shutdown_total",
]


class Checker:
    def __init__(self):
        self.failures = 0

    def check(self, ok, message):
        if not ok:
            print(f"FAIL: {message}")
            self.failures += 1
        return ok


def check_accounting(c, counters, hist_counts, expect_ok, where):
    """Invariants over name->value counters and name->count histograms."""
    total = counters["omega_serve_requests_total"]
    per_op = sum(counters[k] for k in OP_COUNTERS)
    c.check(per_op == total,
            f"{where}: per-op sum {per_op} != requests_total {total}")
    per_code = sum(counters[k] for k in CODE_COUNTERS)
    c.check(per_code == total,
            f"{where}: per-code sum {per_code} != requests_total {total}")

    ok = counters["omega_serve_analyze_ok_total"]
    ran = ok + counters["omega_serve_responses_analysis_error_total"]
    for name, want in [
        ("omega_serve_solve_us", ok),
        ("omega_serve_serialize_us", ok),
        ("omega_serve_queue_wait_us", ran),
        ("omega_serve_parse_us", ran),
        ("omega_serve_request_us", ran),
    ]:
        c.check(hist_counts[name] == want,
                f"{where}: {name} count {hist_counts[name]} != {want}")

    # Coalescing witness: leaders run the engine, followers are stamped
    # coalesced, and both produce an ok analyze response -- except the
    # followers of a leader that failed, which are coalesced but answer
    # analysis_error.
    analyses = counters["omega_engine_analyses_total"]
    coalesced = counters["omega_serve_requests_coalesced_total"]
    errors = counters["omega_serve_responses_analysis_error_total"]
    c.check(analyses <= ok,
            f"{where}: engine analyses {analyses} > analyze_ok {ok}")
    if errors == 0:
        c.check(analyses + coalesced == ok,
                f"{where}: analyses {analyses} + coalesced {coalesced} "
                f"!= analyze_ok {ok}")
    else:
        c.check(analyses + coalesced >= ok,
                f"{where}: analyses {analyses} + coalesced {coalesced} "
                f"< analyze_ok {ok}")

    if expect_ok is not None:
        c.check(ok == expect_ok,
                f"{where}: analyze_ok {ok} != expected {expect_ok}")


def check_metrics_json(c, path, expect_ok, post_reset=False):
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not c.check(len(lines) == 1,
                   f"{path}: want exactly 1 JSONL document, got {len(lines)}"):
        return
    doc = json.loads(lines[0])
    validator = Validator(json.load(open(METRICS_SCHEMA_PATH)))
    errs = validator.validate(doc, validator.root)
    if not c.check(not errs, f"{path}: schema violation: {errs[:3]}"):
        return
    body = doc["metrics"]
    counters = body["counters"]
    hists = body["histograms"]
    for name, h in hists.items():
        c.check(sum(h["buckets"]) == h["count"],
                f"{path}: {name} buckets sum {sum(h['buckets'])} "
                f"!= count {h['count']}")
        c.check(len(h["buckets"]) == len(h["boundsUs"]) + 1,
                f"{path}: {name} has {len(h['buckets'])} buckets for "
                f"{len(h['boundsUs'])} bounds")
        c.check(h["boundsUs"] == sorted(set(h["boundsUs"])),
                f"{path}: {name} bounds not strictly increasing")
    check_accounting(c, counters,
                     {k: h["count"] for k, h in hists.items()},
                     expect_ok, path)
    # The global result store: only this server's engines feed it, every
    # analysis runs to completion, and serve never resizes it after
    # startup, so the engine-attributed registry totals equal the store's
    # own lookup-level counters at quiescence. After a metrics reset the
    # registry restarts at zero while the live store keeps its lifetime
    # counters, so --post-reset relaxes to <=.
    store = body["resultStore"]
    c.check(body["gauges"]["omega_result_store_entries"] == store["entries"],
            f"{path}: omega_result_store_entries gauge "
            f"{body['gauges']['omega_result_store_entries']} != "
            f"resultStore.entries {store['entries']}")
    for reg, glob in [
        ("omega_result_store_hits_total", "hits"),
        ("omega_result_store_misses_total", "misses"),
        ("omega_result_store_evictions_total", "evictions"),
    ]:
        if post_reset:
            c.check(counters[reg] <= store[glob],
                    f"{path}: {reg} {counters[reg]} > resultStore.{glob} "
                    f"{store[glob]}")
        else:
            c.check(counters[reg] == store[glob],
                    f"{path}: {reg} {counters[reg]} != resultStore.{glob} "
                    f"{store[glob]}")


def parse_prometheus(c, path):
    """Lints the exposition; returns (samples, types) on success."""
    samples = {}  # full sample name (with labels stripped) -> [(labels, val)]
    types = {}
    helps = set()
    declared_before = {}
    with open(path) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines, 1):
        where = f"{path}:{i}"
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            c.check(len(parts) == 4, f"{where}: malformed HELP line")
            helps.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if not c.check(len(parts) == 4, f"{where}: malformed TYPE line"):
                continue
            name, kind = parts[2], parts[3]
            c.check(kind in ("counter", "gauge", "histogram"),
                    f"{where}: TYPE {kind!r} is not "
                    "counter/gauge/histogram")
            c.check(name in helps,
                    f"{where}: TYPE {name} has no preceding HELP")
            c.check(name not in types, f"{where}: duplicate TYPE {name}")
            if kind == "counter":
                c.check(name.endswith("_total"),
                        f"{where}: counter {name} does not end in _total")
            types[name] = kind
            declared_before[name] = True
            continue
        if line.startswith("#"):
            c.check(False, f"{where}: unknown comment {line!r}")
            continue
        # A sample: name[{labels}] value
        body, _, value = line.rpartition(" ")
        if not c.check(bool(body), f"{where}: malformed sample {line!r}"):
            continue
        name, labels = body, ""
        if "{" in body:
            name, _, rest = body.partition("{")
            labels = rest.rstrip("}")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
                break
        c.check(base in types,
                f"{where}: sample {name} has no TYPE declaration")
        try:
            val = float(value)
        except ValueError:
            if not c.check(value == "+Inf",
                           f"{where}: non-numeric value {value!r}"):
                continue
            val = float("inf")
        samples.setdefault(name, []).append((labels, val))
    return samples, types


def check_prometheus(c, path, expect_ok):
    samples, types = parse_prometheus(c, path)

    counters = {}
    hist_counts = {}
    for name, kind in types.items():
        if kind == "counter":
            vals = samples.get(name, [])
            if c.check(len(vals) == 1,
                       f"{path}: counter {name} has {len(vals)} samples"):
                c.check(vals[0][1] >= 0, f"{path}: counter {name} negative")
                counters[name] = int(vals[0][1])
        elif kind == "gauge":
            c.check(len(samples.get(name, [])) == 1,
                    f"{path}: gauge {name} has "
                    f"{len(samples.get(name, []))} samples")
        elif kind == "histogram":
            buckets = samples.get(name + "_bucket", [])
            if not c.check(bool(buckets), f"{path}: {name} has no buckets"):
                continue
            les = []
            for labels, val in buckets:
                if not c.check(labels.startswith('le="') and
                               labels.endswith('"'),
                               f"{path}: {name} bucket label {labels!r}"):
                    continue
                le = labels[4:-1]
                les.append(float("inf") if le == "+Inf" else float(le))
            c.check(les == sorted(set(les)),
                    f"{path}: {name} le labels not strictly increasing")
            c.check(les and les[-1] == float("inf"),
                    f"{path}: {name} le labels do not end with +Inf")
            cum = [val for _, val in buckets]
            c.check(cum == sorted(cum),
                    f"{path}: {name} cumulative buckets decrease")
            count = samples.get(name + "_count", [("", -1.0)])[0][1]
            c.check(len(samples.get(name + "_count", [])) == 1,
                    f"{path}: {name}_count missing")
            c.check(len(samples.get(name + "_sum", [])) == 1,
                    f"{path}: {name}_sum missing")
            c.check(cum and cum[-1] == count,
                    f"{path}: {name} +Inf bucket {cum[-1] if cum else '?'} "
                    f"!= _count {count}")
            hist_counts[name] = int(count)

    missing = [k for k in ["omega_serve_requests_total",
                           "omega_serve_analyze_ok_total",
                           "omega_engine_analyses_total",
                           "omega_serve_requests_coalesced_total",
                           "omega_result_store_hits_total",
                           "omega_result_store_misses_total",
                           "omega_result_store_evictions_total"] +
               OP_COUNTERS + CODE_COUNTERS if k not in counters]
    if c.check(not missing, f"{path}: missing counters {missing}"):
        check_accounting(c, counters, hist_counts, expect_ok, path)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--metrics-json", help="metrics-op response (one JSONL line)")
    ap.add_argument("--prom", help="Prometheus text exposition file")
    ap.add_argument("--expect-analyze-ok", type=int, default=None,
                    help="exact expected omega_serve_analyze_ok_total")
    ap.add_argument("--post-reset", action="store_true",
                    help="snapshot was taken after a metrics reset: relax "
                         "registry-vs-live-object equalities to <=")
    args = ap.parse_args()
    if not args.metrics_json and not args.prom:
        ap.error("need --metrics-json and/or --prom")

    c = Checker()
    if args.metrics_json:
        check_metrics_json(c, args.metrics_json, args.expect_analyze_ok,
                           args.post_reset)
    if args.prom:
        check_prometheus(c, args.prom, args.expect_analyze_ok)
    print("check_metrics:",
          "OK" if not c.failures else f"{c.failures} FAILURES")
    return 1 if c.failures else 0


if __name__ == "__main__":
    sys.exit(main())
