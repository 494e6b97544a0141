//===- bench/BenchUtils.h - Shared harness for the paper's figures --------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figure-reproduction benchmarks: run the Section 4
/// pipeline over the kernel corpus and collect the per-array-pair and
/// per-kill timing records that Figures 6 and 7 plot.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_BENCH_BENCHUTILS_H
#define OMEGA_BENCH_BENCHUTILS_H

#include "engine/DependenceEngine.h"
#include "kernels/Kernels.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace omega {
namespace bench {

struct KernelRun {
  std::string Name;
  /// Owns the program the Result's Access pointers refer into.
  std::unique_ptr<ir::AnalyzedProgram> AP;
  engine::AnalysisResult Result;
};

/// Analyzes every kernel in the corpus (skipping any that fail to lower,
/// which only happens if a kernel uses unsupported syntax). One serial
/// engine with no reuse serves the whole corpus, so the figures measure
/// the solver.
inline std::vector<KernelRun> runCorpus(engine::AnalysisRequest Req = [] {
  engine::AnalysisRequest R;
  R.Jobs = 1;
  return R;
}()) {
  engine::DependenceEngine Engine(Req);
  std::vector<KernelRun> Runs;
  for (const kernels::Kernel &K : kernels::corpus()) {
    auto AP = std::make_unique<ir::AnalyzedProgram>(
        ir::analyzeSource(K.Source));
    if (!AP->ok()) {
      std::fprintf(stderr, "skipping %s:\n", K.Name);
      for (const ir::Diagnostic &D : AP->Diags)
        std::fprintf(stderr, "  %s\n", D.toString().c_str());
      continue;
    }
    KernelRun Run;
    Run.Name = K.Name;
    Run.Result = Engine.analyze(*AP);
    Run.AP = std::move(AP);
    Runs.push_back(std::move(Run));
  }
  return Runs;
}

/// Peak resident set size of the process in kilobytes (0 when the platform
/// offers no getrusage).
inline long peakRSSKB() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) == 0) {
#if defined(__APPLE__)
    return static_cast<long>(RU.ru_maxrss / 1024); // bytes on Darwin
#else
    return static_cast<long>(RU.ru_maxrss); // kilobytes on Linux
#endif
  }
#endif
  return 0;
}

/// Minimal streaming JSON object writer for the machine-readable benchmark
/// records (BENCH_*.json). Keys are emitted in insertion order so diffs of
/// committed baselines stay readable.
class JsonWriter {
public:
  explicit JsonWriter(std::FILE *Out) : Out(Out) { std::fputc('{', Out); }

  void key(const char *K) {
    if (!First)
      std::fputc(',', Out);
    First = false;
    std::fprintf(Out, "\n%*s\"%s\": ", Indent + 2, "", K);
  }

  void field(const char *K, double V) {
    key(K);
    std::fprintf(Out, "%.3f", V);
  }
  void field(const char *K, uint64_t V) {
    key(K);
    std::fprintf(Out, "%llu", static_cast<unsigned long long>(V));
  }
  void field(const char *K, long V) {
    key(K);
    std::fprintf(Out, "%ld", V);
  }
  void field(const char *K, const char *V) {
    key(K);
    std::fprintf(Out, "\"%s\"", V);
  }
  void field(const char *K, bool V) {
    key(K);
    std::fputs(V ? "true" : "false", Out);
  }

  /// Opens a nested object under \p K; close it with endObject().
  void beginObject(const char *K) {
    key(K);
    std::fputc('{', Out);
    Indent += 2;
    First = true;
  }
  void endObject() {
    Indent -= 2;
    std::fprintf(Out, "\n%*s}", Indent + 2, "");
    First = false;
  }

  void finish() { std::fprintf(Out, "\n}\n"); }

private:
  std::FILE *Out;
  int Indent = 0;
  bool First = true;
};

/// Writes every OmegaStats counter as one nested JSON object.
inline void writeStatsJson(JsonWriter &W, const char *K,
                           const OmegaStats &S) {
  W.beginObject(K);
  W.field("sat_calls", S.SatisfiabilityCalls);
  W.field("projection_calls", S.ProjectionCalls);
  W.field("gist_calls", S.GistCalls);
  W.field("exact_eliminations", S.ExactEliminations);
  W.field("inexact_eliminations", S.InexactEliminations);
  W.field("splinters_explored", S.SplintersExplored);
  W.field("dark_shadow_decided", S.DarkShadowDecided);
  W.field("real_shadow_decided", S.RealShadowDecided);
  W.field("mod_hat_substitutions", S.ModHatSubstitutions);
  W.field("gist_fast_drops", S.GistFastDrops);
  W.field("gist_fast_keeps", S.GistFastKeeps);
  W.field("gist_sat_tests", S.GistSatTests);
  W.field("quicktest_ziv", S.QuickTestZIV);
  W.field("quicktest_gcd", S.QuickTestGCD);
  W.field("quicktest_bounds", S.QuickTestBounds);
  W.field("quicktest_trivial_dep", S.QuickTestTrivialDep);
  W.field("quicktest_decided", S.QuickTestDecided);
  W.endObject();
}

/// The Figure 6 cost classes for one (write, read) pair.
inline const char *pairClass(const analysis::PairRecord &P) {
  if (!P.UsedGeneralTest)
    return "fast"; // refinement/coverage decided without the Omega test
  if (P.SplitVectors)
    return "split"; // the dependence split into several vectors
  return "general";
}

} // namespace bench
} // namespace omega

#endif // OMEGA_BENCH_BENCHUTILS_H
