//===- perfbench/Common.h - Shared benchmark plumbing ---------------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plumbing shared by the four workloads of the end-to-end benchmark:
/// command-line options, the report that becomes the final JSON line, the
/// declared metric tables, an in-memory span log, a name-keyed counter bag
/// that reads the program's JSON surfaces tolerantly, and the one-shot
/// cold analysis path (parse, fresh engine, analyze, render) that
/// `omega-analyze --json --pipeline` runs.
///
/// Every timing here is taken by the benchmark around a public entry
/// point; nothing inside the program is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_PERFBENCH_COMMON_H
#define OMEGA_PERFBENCH_COMMON_H

#include "analysis/Driver.h"
#include "api/Json.h"

#include <chrono>
#include <functional>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace omega {
namespace ir {
struct AnalyzedProgram;
} // namespace ir
namespace obs {
class Tracer;
} // namespace obs

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

struct Options {
  std::string Workload;
  unsigned Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Feed one deliberately wrong answer to the reference check.
  bool Canary = false;
  /// Repository root (holds tests/corpus/edits).
  std::string Root = ".";
  /// The omega-serve binary built beside the benchmark.
  std::string ServeBin;
  /// Scratch directory for sockets and span files.
  std::string WorkDir = ".";
};

//===----------------------------------------------------------------------===//
// Metrics and the final report
//===----------------------------------------------------------------------===//

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics every untraced run prints.
const std::vector<MetricSpec> &endToEndMetrics();
/// The per-layer metrics every traced run prints.
const std::vector<MetricSpec> &perLayerMetrics();

/// Per-layer values, keyed by metric name. Metrics a workload does not
/// exercise are left unset and print as 0; counters the program stopped
/// reporting are recorded in Absent (also printed as 0).
struct LayerValues {
  std::map<std::string, double> Values;
  std::set<std::string> Absent;

  void set(const std::string &Name, double V) { Values[Name] = V; }
  void setOrAbsent(const std::string &Name, std::optional<double> V) {
    if (V)
      Values[Name] = *V;
    else
      Absent.insert(Name);
  }
};

struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> EndToEnd;
  LayerValues Layers;
  /// Human-readable lines printed before the final JSON line.
  std::vector<std::string> Info;

  void info(const std::string &Line) { Info.push_back(Line); }
  void fail(const std::string &Why);
};

/// Prints the info lines, then the one-line JSON result (end-to-end
/// metrics when untraced, per-layer metrics when traced).
void printReport(const Report &R, bool Traced);

//===----------------------------------------------------------------------===//
// Statistics and digests
//===----------------------------------------------------------------------===//

/// Nearest-rank percentile (P in [0, 100]) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);

/// 64-bit FNV-1a, chained through \p H.
uint64_t fnv1a(std::string_view S, uint64_t H = 1469598103934665603ull);
std::string hex64(uint64_t V);

/// Peak resident set of this process in MB.
double selfPeakRssMb();

/// Fills the end-to-end latency metrics from per-operation samples.
/// \p PassOpsPerS holds each pass's operations per second of load;
/// ops_per_s is their median, which a short slowdown of the machine
/// during one pass does not move.
void latencyMetrics(Report &R, const std::vector<double> &LatMs,
                    const std::vector<double> &PassOpsPerS);

//===----------------------------------------------------------------------===//
// Span log: the benchmark's own trace, kept in memory, written at the end
//===----------------------------------------------------------------------===//

class SpanLog {
public:
  SpanLog() : Epoch(Clock::now()) {}

  /// Opens a span named \p Name for operation \p Id under \p Parent
  /// (-1 for a root); returns its index.
  int begin(const char *Name, uint64_t Id, int Parent = -1);
  void end(int Idx);
  /// Appends a completed root span measured elsewhere (another thread).
  void record(const char *Name, uint64_t Id, Clock::time_point Begin,
              Clock::time_point End);

  /// Summed duration of every span named \p Name, in ms.
  double totalMs(const std::string &Name) const;
  /// Durations of the root spans (one per operation), in ms, with ids.
  std::vector<std::pair<double, uint64_t>> rootDurations() const;

  /// Chrome trace_event JSON of every span.
  std::string json() const;
  /// Writes json() to \p Path; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    uint64_t Id;
    int Parent;
    uint64_t StartNs;
    uint64_t EndNs;
  };
  uint64_t nowNs() const;

  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

/// RAII span on a SpanLog; a no-op on a null log.
class ScopedBenchSpan {
public:
  ScopedBenchSpan(SpanLog *Log, const char *Name, uint64_t Id, int Parent = -1)
      : Log(Log), Idx(Log ? Log->begin(Name, Id, Parent) : -1) {}
  ~ScopedBenchSpan() {
    if (Log)
      Log->end(Idx);
  }
  ScopedBenchSpan(const ScopedBenchSpan &) = delete;
  ScopedBenchSpan &operator=(const ScopedBenchSpan &) = delete;

  int index() const { return Idx; }

private:
  SpanLog *Log;
  int Idx;
};

//===----------------------------------------------------------------------===//
// Tolerant counters
//===----------------------------------------------------------------------===//

/// Sums numeric members of JSON objects by name. A counter the program
/// no longer reports is simply never seen, and get() returns nullopt.
class CounterBag {
public:
  /// Adds every numeric member of \p Obj (non-objects are ignored).
  void addObject(const api::json::Value *Obj, const std::string &Prefix = "");
  void add(const std::string &Name, double V) {
    Sums[Name] += V;
  }
  std::optional<double> get(const std::string &Name) const;
  double getOr(const std::string &Name, double Default) const {
    return get(Name).value_or(Default);
  }

private:
  std::map<std::string, double> Sums;
};

/// Parses \p Text; nullopt when it is not JSON.
std::optional<api::json::Value> parseJson(const std::string &Text);

/// Folds an obs::Tracer profile into \p Bag under "phase.<name>.self_ms",
/// "phase.<name>.incl_ms", "phase.<name>.calls", "class.<name>" and
/// "stat.<name>", read from the tracer's JSON report by name.
void addProfile(CounterBag &Bag, const obs::Tracer &T);

//===----------------------------------------------------------------------===//
// The one-shot cold path
//===----------------------------------------------------------------------===//

/// One program run the way `omega-analyze --json --pipeline` runs it,
/// optionally recording benchmark spans and the engine's own tracer.
struct ColdRun {
  std::string Result; ///< the schema-4 "result" section bytes
  double Ms = 0;      ///< wall time of the whole operation
};

/// Called after the clock stops with the parsed program and its result,
/// which it may modify.
using Inspector = std::function<void(const ir::AnalyzedProgram &,
                                     analysis::AnalysisResult &)>;

/// Untraced: parse, fresh engine with default options, analyze, render.
/// The time covers those four calls; \p Inspect runs after it.
ColdRun coldAnalyze(const std::string &Source,
                    const Inspector &Inspect = nullptr);

/// What the traced cold path records besides the spans.
struct ColdTrace {
  CounterBag Counters;      ///< engine stats and tracer profile
  double StandardMs = 0;    ///< sum of PairRecord::StandardSecs
  double ExtendedMs = 0;    ///< sum of (Extended - Standard) secs
  double KillMs = 0;        ///< sum of KillRecord::Secs
  uint64_t Pairs = 0, PairsGeneral = 0;
  uint64_t KillCandidates = 0, Killed = 0;
  uint64_t Accesses = 0, LoopsPlanned = 0;
  /// Costliest units for the Figure-7-style attribution.
  struct Unit {
    double Ms;
    std::string What;
  };
  std::vector<Unit> PairCosts, KillCosts;
};

/// Traced: the same calls, each wrapped in a span under one root span
/// with id \p Id, with an obs::Tracer attached to the engine.
ColdRun coldAnalyzeTraced(const std::string &Source, uint64_t Id,
                          SpanLog &Log, ColdTrace &Out, bool KeepUnits);

/// Checks a one-shot answer against the interpreter trace oracle with
/// small symbol bindings; returns the first mismatch, or "" when every
/// witness is admitted. \p Checked is false when the program cannot be
/// interpreted, so no reference exists. With \p Canary the oracle is fed a
/// deliberately wrong answer: every live flow split marked dead.
std::string traceOracleError(const ir::AnalyzedProgram &AP,
                             analysis::AnalysisResult &R, bool Canary,
                             bool &Checked);

/// Top-\p N entries of \p Units by cost, one "ms what" string each.
std::vector<std::string> costliest(std::vector<ColdTrace::Unit> Units,
                                   size_t N);

} // namespace perfbench
} // namespace omega

#endif // OMEGA_PERFBENCH_COMMON_H
