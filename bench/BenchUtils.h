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
