//===- perfbench/Common.cpp -----------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "api/Options.h"
#include "api/Response.h"
#include "deps/DependenceAnalysis.h"
#include "engine/DependenceEngine.h"
#include "ir/Sema.h"
#include "obs/Trace.h"
#include "oracle/TraceOracle.h"
#include "transform/Pipeline.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>

using namespace omega;
using namespace omega::perfbench;

//===----------------------------------------------------------------------===//
// Metric tables
//===----------------------------------------------------------------------===//

const std::vector<MetricSpec> &perfbench::endToEndMetrics() {
  static const std::vector<MetricSpec> Specs = {
      {"setup_s", "s"},          {"ops_per_s", "1/s"},
      {"latency_ms_p50", "ms"},  {"latency_ms_p99", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return Specs;
}

const std::vector<MetricSpec> &perfbench::perLayerMetrics() {
  static const std::vector<MetricSpec> Specs = {
      {"ir.parse_ms", "ms"},
      {"ir.accesses", "count"},
      {"engine.analyze_ms", "ms"},
      {"engine.store_hits", "count"},
      {"engine.store_misses", "count"},
      {"engine.store_hit_frac", "ratio"},
      {"engine.coalesced", "count"},
      {"engine.session_pairs_reused", "count"},
      {"deps.pairs", "count"},
      {"deps.standard_ms", "ms"},
      {"deps.quicktest_decided", "count"},
      {"deps.quicktest_frac", "ratio"},
      {"deps.snapshot_builds", "count"},
      {"deps.snapshot_reuses", "count"},
      {"deps.snapshot_build_ms", "ms"},
      {"analysis.extended_ms", "ms"},
      {"analysis.kill_ms", "ms"},
      {"analysis.kill_candidates", "count"},
      {"analysis.killed", "count"},
      {"analysis.killed_frac", "ratio"},
      {"analysis.general_test_frac", "ratio"},
      {"analysis.refine_incl_ms", "ms"},
      {"analysis.cover_incl_ms", "ms"},
      {"analysis.kill_incl_ms", "ms"},
      {"omega.sat_calls", "count"},
      {"omega.projection_calls", "count"},
      {"omega.gist_calls", "count"},
      {"omega.exact_eliminations", "count"},
      {"omega.inexact_eliminations", "count"},
      {"omega.splinters", "count"},
      {"omega.dark_shadow_decided", "count"},
      {"omega.mod_hat_substitutions", "count"},
      {"omega.queries_exact", "count"},
      {"omega.queries_general", "count"},
      {"omega.queries_splintered", "count"},
      {"omega.eq_solve_self_ms", "ms"},
      {"omega.sat_self_ms", "ms"},
      {"omega.projection_self_ms", "ms"},
      {"omega.fm_self_ms", "ms"},
      {"omega.splinter_self_ms", "ms"},
      {"omega.gist_self_ms", "ms"},
      {"transform.pipeline_ms", "ms"},
      {"transform.loops_planned", "count"},
      {"api.render_ms", "ms"},
      {"api.queue_wait_us_mean", "us"},
      {"api.queue_wait_us_p99", "us"},
      {"api.parse_us_mean", "us"},
      {"api.solve_us_mean", "us"},
      {"api.serialize_us_mean", "us"},
      {"api.errors", "count"},
      {"calc.run_ms", "ms"},
      {"calc.queries", "count"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return Specs;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::fail(const std::string &Why) {
  Correct = false;
  // Keep the log readable when one wrong answer repeats every pass.
  if (std::count_if(Info.begin(), Info.end(), [](const std::string &L) {
        return L.rfind("FAIL", 0) == 0;
      }) < 10)
    info("FAIL " + Why);
}

namespace {

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.12g", V);
  return Buf;
}

} // namespace

void perfbench::printReport(const Report &R, bool Traced) {
  for (const std::string &L : R.Info)
    std::printf("%s\n", L.c_str());
  if (Traced && !R.Layers.Absent.empty()) {
    std::string L = "absent (the program no longer reports them; printed as "
                    "0):";
    for (const std::string &N : R.Layers.Absent)
      L += " " + N;
    std::printf("%s\n", L.c_str());
  }
  std::string Out = std::string("{\"correct\": ") +
                    (R.Correct && R.Failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(R.Attempted) +
                    ", \"failed\": " + std::to_string(R.Failed) +
                    ", \"metrics\": {";
  bool First = true;
  auto Emit = [&](const MetricSpec &S, double V) {
    Out += First ? "" : ", ";
    First = false;
    Out += std::string("\"") + S.Name + "\": {\"value\": " + number(V) +
           ", \"unit\": \"" + S.Unit + "\"}";
  };
  if (Traced) {
    for (const MetricSpec &S : perLayerMetrics()) {
      auto It = R.Layers.Values.find(S.Name);
      Emit(S, It == R.Layers.Values.end() ? 0.0 : It->second);
    }
  } else {
    for (const MetricSpec &S : endToEndMetrics()) {
      auto It = R.EndToEnd.find(S.Name);
      Emit(S, It == R.EndToEnd.end() ? 0.0 : It->second);
    }
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  // Nearest rank: the smallest value with at least P% of samples at or
  // below it.
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  if (Rank == 0)
    Rank = 1;
  return V[std::min(Rank, V.size()) - 1];
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

uint64_t perfbench::fnv1a(std::string_view S, uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string perfbench::hex64(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

double perfbench::selfPeakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

void perfbench::latencyMetrics(Report &R, const std::vector<double> &LatMs,
                               const std::vector<double> &PassOpsPerS) {
  R.EndToEnd["latency_ms_p50"] = percentile(LatMs, 50);
  double P99 = percentile(LatMs, 99);
  R.EndToEnd["latency_ms_p99"] = P99;
  R.EndToEnd["ops_per_s"] = median(PassOpsPerS);
  size_t Above = std::count_if(LatMs.begin(), LatMs.end(),
                               [&](double V) { return V > P99; });
  R.info("samples " + std::to_string(LatMs.size()) + ", " +
         std::to_string(Above) + " above p99, passes " +
         std::to_string(PassOpsPerS.size()));
  if (Above < 10)
    R.info("warning: fewer than 10 samples above p99");
}

//===----------------------------------------------------------------------===//
// Span log
//===----------------------------------------------------------------------===//

uint64_t SpanLog::nowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Epoch)
          .count());
}

int SpanLog::begin(const char *Name, uint64_t Id, int Parent) {
  Spans.push_back({Name, Id, Parent, nowNs(), 0});
  return static_cast<int>(Spans.size() - 1);
}

void SpanLog::end(int Idx) { Spans[Idx].EndNs = nowNs(); }

void SpanLog::record(const char *Name, uint64_t Id, Clock::time_point Begin,
                     Clock::time_point End) {
  auto Ns = [&](Clock::time_point T) {
    return static_cast<uint64_t>(std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
               .count()));
  };
  Spans.push_back({Name, Id, -1, Ns(Begin), Ns(End)});
}

double SpanLog::totalMs(const std::string &Name) const {
  uint64_t Ns = 0;
  for (const Span &S : Spans)
    if (Name == S.Name)
      Ns += S.EndNs - S.StartNs;
  return static_cast<double>(Ns) / 1e6;
}

std::vector<std::pair<double, uint64_t>> SpanLog::rootDurations() const {
  std::vector<std::pair<double, uint64_t>> Out;
  for (const Span &S : Spans)
    if (S.Parent < 0)
      Out.push_back({static_cast<double>(S.EndNs - S.StartNs) / 1e6, S.Id});
  return Out;
}

std::string SpanLog::json() const {
  std::string Out = "{\"traceEvents\": [";
  char Buf[256];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %" PRIu64 ", \"span\": %zu, \"parent\": %d}}",
                  I ? "," : "", S.Name, S.StartNs / 1e3,
                  (S.EndNs - S.StartNs) / 1e3, S.Id, I, S.Parent);
    Out += Buf;
  }
  Out += "\n]}\n";
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  Out << json();
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

void CounterBag::addObject(const api::json::Value *Obj,
                           const std::string &Prefix) {
  if (!Obj || !Obj->isObject())
    return;
  for (const auto &[Key, V] : Obj->asObject())
    if (V.isNumber())
      Sums[Prefix + Key] += V.asNumber();
}

std::optional<double> CounterBag::get(const std::string &Name) const {
  auto It = Sums.find(Name);
  if (It == Sums.end())
    return std::nullopt;
  return It->second;
}

std::optional<api::json::Value> perfbench::parseJson(const std::string &Text) {
  api::json::Value V;
  std::string Err;
  if (!api::json::parse(Text, V, Err))
    return std::nullopt;
  return V;
}

void perfbench::addProfile(CounterBag &Bag, const obs::Tracer &T) {
  std::optional<api::json::Value> P = parseJson(T.profileReport(true));
  if (!P)
    return;
  if (const api::json::Value *Phases = P->get("phases"); Phases &&
                                                         Phases->isArray())
    for (const api::json::Value &Ph : Phases->asArray()) {
      const api::json::Value *Name = Ph.get("name");
      if (!Name || !Name->isString())
        continue;
      Bag.addObject(&Ph, "phase." + Name->asString() + ".");
    }
  Bag.addObject(P->get("classes"), "class.");
  Bag.addObject(P->get("stats"), "profile.");
}

//===----------------------------------------------------------------------===//
// The one-shot cold path
//===----------------------------------------------------------------------===//

namespace {

/// `omega-analyze --json --pipeline` with every other option at its
/// default.
engine::AnalysisRequest defaultRequest() {
  api::AnalysisOptions O;
  O.Pipeline = true;
  return O.toEngineRequest();
}

} // namespace

ColdRun perfbench::coldAnalyze(const std::string &Source,
                               const Inspector &Inspect) {
  ColdRun Out;
  auto Start = Clock::now();
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  if (!AP.ok()) {
    Out.Ms = msBetween(Start, Clock::now());
    return Out;
  }
  engine::DependenceEngine Engine(defaultRequest());
  engine::AnalysisResult R = Engine.analyze(AP);
  Out.Result = api::renderResult(R, &AP);
  Out.Ms = msBetween(Start, Clock::now());
  if (Inspect)
    Inspect(AP, R);
  return Out;
}

ColdRun perfbench::coldAnalyzeTraced(const std::string &Source, uint64_t Id,
                                     SpanLog &Log, ColdTrace &Out,
                                     bool KeepUnits) {
  ColdRun Run;
  auto Start = Clock::now();
  {
    ScopedBenchSpan Root(&Log, "op", Id);
    ir::AnalyzedProgram AP;
    {
      ScopedBenchSpan S(&Log, "ir.analyzeSource", Id, Root.index());
      AP = ir::analyzeSource(Source);
    }
    if (AP.ok()) {
      obs::Tracer Tracer;
      engine::AnalysisRequest Req = defaultRequest();
      Req.Trace = &Tracer;
      engine::AnalysisResult R;
      {
        ScopedBenchSpan S(&Log, "engine.analyze", Id, Root.index());
        engine::DependenceEngine Engine(Req);
        R = Engine.analyze(AP);
      }
      std::vector<transform::PipelineFacts> Facts;
      {
        ScopedBenchSpan S(&Log, "transform.analyzePipelines", Id,
                          Root.index());
        Facts = transform::analyzePipelines(AP, R);
      }
      {
        ScopedBenchSpan S(&Log, "api.renderResult", Id, Root.index());
        Run.Result = api::renderResult(R, &AP);
      }

      // Attribution below is outside every span but the root's tail; the
      // root is only used to rank programs, and it ranks them all alike.
      if (std::optional<api::json::Value> M =
              parseJson(api::renderMetrics(R, 1, 0, "", "")))
        Out.Counters.addObject(M->get("stats"), "stat.");
      addProfile(Out.Counters, Tracer);
      Out.Accesses += AP.Accesses.size();
      for (const transform::PipelineFacts &F : Facts)
        Out.LoopsPlanned += F.Plan.valid();
      for (const analysis::PairRecord &P : R.Pairs) {
        ++Out.Pairs;
        Out.PairsGeneral += P.UsedGeneralTest;
        Out.StandardMs += P.StandardSecs * 1e3;
        Out.ExtendedMs += (P.ExtendedSecs - P.StandardSecs) * 1e3;
        if (KeepUnits)
          Out.PairCosts.push_back(
              {P.ExtendedSecs * 1e3, "pair " + P.Write->Text + " -> " +
                                         P.Read->Text});
      }
      for (const analysis::KillRecord &K : R.Kills) {
        ++Out.KillCandidates;
        Out.Killed += K.Killed;
        Out.KillMs += K.Secs * 1e3;
        if (KeepUnits)
          Out.KillCosts.push_back(
              {K.Secs * 1e3, "kill " + K.From->Text + " -> " + K.To->Text +
                                 " by " + K.Killer->Text +
                                 (K.Killed ? " (killed)" : " (kept)")});
      }
    }
  }
  Run.Ms = msBetween(Start, Clock::now());
  return Run;
}

std::string perfbench::traceOracleError(const ir::AnalyzedProgram &AP,
                                        analysis::AnalysisResult &R,
                                        bool Canary, bool &Checked) {
  // Small bindings keep traces short but non-trivial; distinct sizes keep
  // rectangular nests genuinely rectangular.
  oracle::TraceOracleOptions Opts;
  for (const std::string &Sym : AP.Source.SymbolicConsts)
    Opts.Symbols[Sym] = Sym == "n" ? 5 : Sym == "m" ? 4 : 3;
  deps::DependenceAnalysis DA(AP);
  std::vector<deps::Dependence> UnrefinedFlow =
      DA.computeDependences(deps::DepKind::Flow);
  if (Canary)
    for (deps::Dependence &D : R.Flow)
      for (deps::DepSplit &S : D.Splits)
        S.Dead = true;
  oracle::TraceReport Rep =
      oracle::checkTraceWitnesses(AP, R, UnrefinedFlow, Opts);
  // A program the interpreter cannot run (uninitialized scalars, index
  // arrays) or whose trace exceeds the step budget has no reference.
  Checked = !Rep.ExecFailed && !Rep.Truncated;
  if (!Checked || Rep.Mismatches.empty())
    return "";
  return std::to_string(Rep.Mismatches.size()) +
         " trace witnesses not admitted, first: " + Rep.Mismatches.front();
}

std::vector<std::string> perfbench::costliest(std::vector<ColdTrace::Unit> Units,
                                              size_t N) {
  std::stable_sort(Units.begin(), Units.end(),
                   [](const ColdTrace::Unit &A, const ColdTrace::Unit &B) {
                     return A.Ms > B.Ms;
                   });
  std::vector<std::string> Out;
  char Buf[32];
  for (size_t I = 0; I != std::min(N, Units.size()); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%10.3f ms  ", Units[I].Ms);
    Out.push_back(Buf + Units[I].What);
  }
  return Out;
}
