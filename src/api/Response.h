//===- api/Response.h - The versioned machine-readable response ----------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Schema 8 of the machine-readable analysis output, shared byte-for-byte
/// by `omega-analyze --json` and omega-serve responses (the checked-in
/// JSON schema file schema/analysis_response.schema.json describes it and
/// CI validates both producers against it).
///
/// The document separates what is deterministic from what is not:
///
///   {"schema": 8, "ok": true, "result": {...}, "metrics": {...}}
///
///  * "result" holds the structural analysis outcome -- dependences,
///    splits, pair and kill records without timings. The engine guarantees
///    it is identical for every Jobs value and reuse state, so the serving
///    stack's bit-identity gate (server response vs one-shot CLI, warm vs
///    cold result store) diffs this section as raw bytes.
///  * "metrics" holds per-run execution data -- jobs, wall time, solver
///    counters, optional profile/explain -- which may vary run to run (a
///    warm result store legitimately reports hits where a cold one
///    reports misses).
///
/// Schema 1 (the PR 1-5 format) interleaved timings with structure and
/// had no version marker; it is gone. Schema 3 extends schema 2 with the
/// edit-incremental counters: four new "stats" entries (snapshotEvictions
/// and the deltaPairs* classification) and, when a baseline was consulted,
/// an optional "delta" object under "metrics". Schema 4 adds an optional
/// "pipeline" array to "result" (requests opting in with --pipeline /
/// "pipeline": true): per loop, the PS-DSWP stage partition, privatized
/// arrays, and the kills that enabled the parallel stage. Like the rest
/// of "result" it is fully deterministic. Schema 5 drops the solver query
/// cache and elimination snapshots: ten "stats" entries (the sat/gist
/// cache hit/miss and snapshot counters) and the "metrics.cache" object
/// are gone; "result" is unchanged. Schema 6 drops session baselines:
/// the three deltaPairs* "stats" entries and the optional "metrics.delta"
/// object are gone, leaving resultStoreHits/resultStoreMisses as the
/// reuse accounting; "result" is unchanged. Schema 7 drops gist's fast
/// checks: the gistFastDrops and gistFastKeeps "stats" entries are gone;
/// "result" is unchanged. Schema 8 drops the pair pre-filter (every pair
/// query runs the Omega test): the five quicktest* "stats" entries are
/// gone; "result" is unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_API_RESPONSE_H
#define OMEGA_API_RESPONSE_H

#include "engine/DependenceEngine.h"

#include <cstdint>
#include <string>

namespace omega {
namespace ir {
struct AnalyzedProgram;
} // namespace ir

namespace api {

/// The version stamped into every response document.
constexpr int SchemaVersion = 8;

/// Renders the deterministic structural section: flow/anti/output
/// dependences with their splits, pair records (hasFlow, usedGeneralTest,
/// splitVectors), and kill records (usedOmega, killed). Single line, no
/// timings -- byte-identical for every Jobs value and reuse state. When
/// \p PipelineAP is non-null (the request asked for --pipeline), a
/// "pipeline" array is appended: one entry per loop with the planned
/// stage partition.
std::string renderResult(const analysis::AnalysisResult &R,
                         const ir::AnalyzedProgram *PipelineAP = nullptr);

/// Renders the per-run metrics section: jobs, wall time, the full merged
/// OmegaStats (result-store hits and misses included), and (when
/// requested) the profile report and decision-explain log.
std::string renderMetrics(const engine::AnalysisResult &R, unsigned Jobs,
                          double WallMs, const std::string &ProfileJson,
                          const std::string &ExplainLog);

/// The complete CLI document: {"schema": 8, "ok": true, "result": R,
/// "metrics": M} plus a trailing newline.
std::string renderDocument(const std::string &Result,
                           const std::string &Metrics);

/// One omega-serve response line (no trailing newline): the CLI document
/// with the request id spliced in after "schema".
std::string renderServerOk(uint64_t Id, const std::string &Result,
                           const std::string &Metrics);

/// A typed error response line: {"schema": 8, "id": ..., "ok": false,
/// "error": {"code": ..., "message": ...}}. \p HasId distinguishes a
/// request whose id never parsed (id becomes null).
std::string renderServerError(bool HasId, uint64_t Id, const std::string &Code,
                              const std::string &Message);

/// An operational response line (the telemetry ops: metrics, health, and
/// the shutdown acknowledgment): {"schema": 8, "id": ..., "ok": true,
/// "op": OP, BODYKEY: BODY}. \p Body is pre-rendered JSON
/// (schema/metrics_response.schema.json describes the three documents).
std::string renderServerOp(bool HasId, uint64_t Id, const std::string &Op,
                           const std::string &BodyKey, const std::string &Body);

} // namespace api
} // namespace omega

#endif // OMEGA_API_RESPONSE_H
