//===- perfbench/Analyze.cpp - kernels_cold and random_nests --------------===//
//
// Part of the omega-deps project.
//
// Both workloads run each program the way a fresh
// `omega-analyze --json --pipeline` does -- parse, a fresh engine with
// default options, analyze, render -- one caller, closed loop. They
// differ only in their inputs: the paper's kernel corpus, or a seeded
// draw of random loop nests whose constant bounds let the interpreter
// check every answer.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "ir/Sema.h"
#include "kernels/Kernels.h"
#include "oracle/Generate.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <random>

using namespace omega;
using namespace omega::perfbench;

std::vector<Program> perfbench::kernelPrograms() {
  std::vector<Program> Out;
  for (const kernels::Kernel &K : kernels::corpus())
    Out.push_back({K.Name, K.Source});
  return Out;
}

std::vector<Program> perfbench::randomPool(unsigned N) {
  oracle::ProgramGenerator Gen(RandomPoolSeed);
  std::vector<Program> Out;
  for (unsigned I = 0; I != std::min(N, RandomPoolSize); ++I)
    Out.push_back({"random" + std::to_string(I), Gen.generate()});
  return Out;
}

uint64_t perfbench::digestPrograms(const std::vector<Program> &Ps) {
  uint64_t H = fnv1a("");
  for (const Program &P : Ps) {
    H = fnv1a(P.Name, H);
    H = fnv1a(std::string_view("\0", 1), H);
    H = fnv1a(P.Source, H);
  }
  return H;
}

std::vector<size_t> perfbench::passOrder(std::mt19937 &Rng, size_t N) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  std::shuffle(Order.begin(), Order.end(), Rng);
  return Order;
}

//===----------------------------------------------------------------------===//
// Checker
//===----------------------------------------------------------------------===//

Checker::Checker(const std::vector<Program> &Inputs, bool UseOracle,
                 bool Canary)
    : Inputs(Inputs), UseOracle(UseOracle), CanaryLeft(Canary),
      Ref(Inputs.size()), Error(Inputs.size()),
      Reported(Inputs.size(), false) {}

ColdRun Checker::run(size_t I) {
  if (Ref[I]) {
    ColdRun C = coldAnalyze(Inputs[I].Source);
    answer(I, fnv1a(C.Result));
    return C;
  }
  Inspector Check = [&](const ir::AnalyzedProgram &AP,
                        analysis::AnalysisResult &R) {
    bool Checked = false;
    Error[I] = traceOracleError(AP, R, CanaryLeft, Checked);
    // The canary is one wrong answer: it moves on to the next program
    // until one has a witness that exposes it.
    if (CanaryLeft && !Error[I].empty())
      CanaryLeft = false;
    if (!Checked)
      Unchecked.push_back(Inputs[I].Name);
  };
  ColdRun C = coldAnalyze(Inputs[I].Source, UseOracle ? Check : nullptr);
  if (C.Result.empty())
    Error[I] = "program does not parse";
  Ref[I] = fnv1a(C.Result);
  answer(I, *Ref[I]);
  return C;
}

void Checker::answer(size_t I, uint64_t ResultHash) {
  if (!Error[I].empty())
    fail(I, Error[I]);
  else if (ResultHash != reference(I))
    fail(I, "result bytes differ from the checked one-shot result");
  else
    ++Attempted;
}

void Checker::fail(size_t I, const std::string &Why) {
  ++Attempted;
  ++Failed;
  if (!Reported[I]) {
    Reported[I] = true;
    Failures.push_back(Inputs[I].Name + ": " + Why);
  }
}

uint64_t Checker::reference(size_t I) {
  if (!Ref[I]) {
    // Not a timed operation: only the reference is wanted.
    ColdRun C = run(I);
    --Attempted;
    (void)C;
  }
  return *Ref[I];
}

void Checker::score(Report &R) const {
  R.Attempted += Attempted;
  R.Failed += Failed;
  for (const std::string &F : Failures)
    R.fail(F);
  if (!Unchecked.empty()) {
    std::string L = "no interpreter reference (not interpretable): " +
                    std::to_string(Unchecked.size()) + " programs:";
    for (const std::string &N : Unchecked)
      L += " " + N;
    R.info(L);
  }
}

namespace {

/// Setup repetitions; setup_s is their median.
constexpr unsigned SetupRepeats = 5;

/// A fixed, seed-independent warm-up: one cold pass over the kernel
/// corpus, so lazy allocation and first-touch costs land in set-up.
void warmUp() {
  for (const kernels::Kernel &K : kernels::corpus())
    (void)coldAnalyze(K.Source);
}

} // namespace

/// Fills the per-layer rows the cold path measures, per pass.
static void fillColdLayers(LayerValues &L, const ColdTrace &T,
                           const SpanLog &Log, double Passes) {
  const CounterBag &B = T.Counters;
  auto PerPass = [&](double V) { return V / Passes; };
  auto Stat = [&](const char *Key) -> std::optional<double> {
    std::optional<double> V = B.get(std::string("stat.") + Key);
    if (V)
      *V /= Passes;
    return V;
  };
  auto Phase = [&](const char *Name, const char *Field) {
    return PerPass(
        B.getOr(std::string("phase.") + Name + "." + Field, 0));
  };
  auto Frac = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };

  L.set("ir.parse_ms", PerPass(Log.totalMs("ir.analyzeSource")));
  L.set("ir.accesses", PerPass(T.Accesses));

  L.set("engine.analyze_ms", PerPass(Log.totalMs("engine.analyze")));
  std::optional<double> Hits = Stat("resultStoreHits");
  std::optional<double> Misses = Stat("resultStoreMisses");
  L.setOrAbsent("engine.store_hits", Hits);
  L.setOrAbsent("engine.store_misses", Misses);
  if (Hits && Misses)
    L.set("engine.store_hit_frac", Frac(*Hits, *Hits + *Misses));
  else
    L.Absent.insert("engine.store_hit_frac");
  L.setOrAbsent("engine.session_pairs_reused", Stat("deltaPairsReused"));

  std::optional<double> Sat = Stat("satisfiabilityCalls");
  std::optional<double> Quick = Stat("quicktestDecided");
  L.set("deps.pairs", PerPass(T.Pairs));
  L.set("deps.standard_ms", PerPass(T.StandardMs));
  L.setOrAbsent("deps.quicktest_decided", Quick);
  if (Quick)
    L.set("deps.quicktest_frac", Frac(*Quick, *Quick + Sat.value_or(0)));
  else
    L.Absent.insert("deps.quicktest_frac");
  L.setOrAbsent("deps.snapshot_builds", Stat("snapshotBuilds"));
  L.setOrAbsent("deps.snapshot_reuses", Stat("snapshotReuses"));
  L.set("deps.snapshot_build_ms", Phase("snapshot-build", "incl_ms"));

  L.set("analysis.extended_ms", PerPass(T.ExtendedMs));
  L.set("analysis.kill_ms", PerPass(T.KillMs));
  L.set("analysis.kill_candidates", PerPass(T.KillCandidates));
  L.set("analysis.killed", PerPass(T.Killed));
  L.set("analysis.killed_frac",
        Frac(static_cast<double>(T.Killed), T.KillCandidates));
  L.set("analysis.general_test_frac",
        Frac(static_cast<double>(T.PairsGeneral), T.Pairs));
  L.set("analysis.refine_incl_ms", Phase("refine", "incl_ms"));
  L.set("analysis.cover_incl_ms", Phase("cover", "incl_ms"));
  L.set("analysis.kill_incl_ms", Phase("kill", "incl_ms"));

  L.setOrAbsent("omega.sat_calls", Sat);
  L.setOrAbsent("omega.projection_calls", Stat("projectionCalls"));
  L.setOrAbsent("omega.gist_calls", Stat("gistCalls"));
  L.setOrAbsent("omega.exact_eliminations", Stat("exactEliminations"));
  L.setOrAbsent("omega.inexact_eliminations", Stat("inexactEliminations"));
  L.setOrAbsent("omega.splinters", Stat("splintersExplored"));
  L.setOrAbsent("omega.dark_shadow_decided", Stat("darkShadowDecided"));
  L.setOrAbsent("omega.mod_hat_substitutions", Stat("modHatSubstitutions"));
  L.set("omega.queries_exact", PerPass(B.getOr("class.exact", 0)));
  L.set("omega.queries_general", PerPass(B.getOr("class.general", 0)));
  L.set("omega.queries_splintered", PerPass(B.getOr("class.splintered", 0)));
  L.set("omega.eq_solve_self_ms", Phase("eq-solve", "self_ms"));
  L.set("omega.sat_self_ms", Phase("sat", "self_ms"));
  L.set("omega.projection_self_ms", Phase("projection", "self_ms"));
  L.set("omega.fm_self_ms", Phase("fm-eliminate", "self_ms"));
  L.set("omega.splinter_self_ms", Phase("splinter", "self_ms"));
  L.set("omega.gist_self_ms", Phase("gist", "self_ms"));

  double PipelineMs = Log.totalMs("transform.analyzePipelines");
  L.set("transform.pipeline_ms", PerPass(PipelineMs));
  L.set("transform.loops_planned", PerPass(T.LoopsPlanned));
  // renderResult plans the pipeline itself; its own share is the rest.
  L.set("api.render_ms",
        PerPass(std::max(0.0, Log.totalMs("api.renderResult") - PipelineMs)));
}

namespace omega {
namespace perfbench {

void tracedColdPasses(const Options &O, const std::vector<Program> &Inputs,
                      double Seconds, bool KeepUnits, Checker &Check,
                      Report &R) {
  SpanLog Log;
  ColdTrace T;
  std::mt19937 Rng(O.Seed);
  double UntracedMs = 0, TracedMs = 0;
  unsigned Passes = 0;
  std::vector<size_t> OpProgram;
  auto Start = Clock::now();
  while (Passes == 0 || msBetween(Start, Clock::now()) < Seconds * 1000) {
    std::vector<size_t> Order = passOrder(Rng, Inputs.size());
    for (size_t I : Order)
      UntracedMs += Check.run(I).Ms;
    for (size_t I : Order) {
      size_t PairsBefore = T.PairCosts.size(), KillsBefore = T.KillCosts.size();
      ColdRun C = coldAnalyzeTraced(Inputs[I].Source, OpProgram.size(), Log, T,
                                    KeepUnits && Passes == 0);
      for (size_t K = PairsBefore; K != T.PairCosts.size(); ++K)
        T.PairCosts[K].What = Inputs[I].Name + ": " + T.PairCosts[K].What;
      for (size_t K = KillsBefore; K != T.KillCosts.size(); ++K)
        T.KillCosts[K].What = Inputs[I].Name + ": " + T.KillCosts[K].What;
      TracedMs += C.Ms;
      OpProgram.push_back(I);
      Check.answer(I, fnv1a(C.Result));
    }
    ++Passes;
  }

  fillColdLayers(R.Layers, T, Log, Passes);
  R.Layers.set("obs.trace_overhead_frac",
               UntracedMs > 0 ? TracedMs / UntracedMs - 1 : 0);
  R.info("traced passes " + std::to_string(Passes) + ", traced " +
         std::to_string(TracedMs) + " ms vs untraced " +
         std::to_string(UntracedMs) + " ms");

  // Figure 7 style: rank the smallest units by cost.
  std::vector<ColdTrace::Unit> Programs;
  {
    std::map<size_t, std::pair<double, unsigned>> ByProgram;
    for (const auto &[Ms, Id] : Log.rootDurations()) {
      auto &Acc = ByProgram[OpProgram[Id]];
      Acc.first += Ms;
      ++Acc.second;
    }
    for (const auto &[I, Acc] : ByProgram)
      Programs.push_back({Acc.first / Acc.second, "program " + Inputs[I].Name});
  }
  for (const std::string &L : costliest(Programs, 10))
    R.info("costliest " + L);
  for (const std::string &L : costliest(T.PairCosts, 10))
    R.info("costliest " + L);
  for (const std::string &L : costliest(T.KillCosts, 10))
    R.info("costliest " + L);

  std::string Path = O.WorkDir + "/spans-" + O.Workload + "-" +
                     std::to_string(O.Seed) + ".json";
  if (Log.write(Path))
    R.info("spans written to " + Path);
}

} // namespace perfbench
} // namespace omega

namespace {

/// Runs a cold workload over inputs that \p Make builds from the seed.
void runCold(const Options &O, Report &R,
             const std::function<std::vector<Program>()> &Make,
             bool KeepUnits) {
  std::vector<double> SetupS;
  std::vector<Program> Inputs;
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    auto Start = Clock::now();
    Inputs = Make();
    for (const Program &P : Inputs)
      if (!ir::analyzeSource(P.Source).ok()) {
        R.fail(P.Name + ": generated input does not parse");
        return;
      }
    warmUp();
    SetupS.push_back(msBetween(Start, Clock::now()) / 1000);
  }
  R.EndToEnd["setup_s"] = median(SetupS);
  R.info("workload " + O.Workload + " seed " + std::to_string(O.Seed) +
         " inputs " + std::to_string(Inputs.size()) + " digest " +
         hex64(digestPrograms(Inputs)));

  Checker Check(Inputs, /*UseOracle=*/true, O.Canary);
  if (O.Trace) {
    tracedColdPasses(O, Inputs, O.Seconds, KeepUnits, Check, R);
  } else {
    std::mt19937 Rng(O.Seed);
    std::vector<double> Lat, PassOpsPerS;
    auto Start = Clock::now();
    auto Elapsed = [&] { return msBetween(Start, Clock::now()) / 1000; };
    while (Elapsed() < O.Seconds ||
           (Lat.size() < MinSamples && Elapsed() < 3 * O.Seconds)) {
      double BusyMs = 0;
      for (size_t I : passOrder(Rng, Inputs.size())) {
        ColdRun C = Check.run(I);
        Lat.push_back(C.Ms);
        BusyMs += C.Ms;
      }
      PassOpsPerS.push_back(Inputs.size() / (BusyMs / 1000));
    }
    R.EndToEnd["peak_rss_mb"] = selfPeakRssMb();
    latencyMetrics(R, Lat, PassOpsPerS);
  }
  Check.score(R);
}

} // namespace

void perfbench::runKernelsCold(const Options &O, Report &R) {
  // The corpus is fixed; the seed only orders each pass.
  runCold(O, R, kernelPrograms, /*KeepUnits=*/true);
}

void perfbench::runRandomNests(const Options &O, Report &R) {
  // The whole population every pass, in a seeded order: about 5 s a pass,
  // so MinSamples makes three passes and ops_per_s a median of three.
  runCold(O, R, [] { return randomPool(RandomPoolSize); },
          /*KeepUnits=*/false);
}
