//===- tools/omega_fuzz.cpp - Oracle-backed fuzzer for the Omega stack ----===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// Drives seeded random generation of constraint Problems, Presburger
// formulas, and tiny-language programs through the three ground-truth
// oracles in src/oracle/:
//
//  * Problems: bounded-model satisfiability / projection / gist /
//    implication cross-checks plus metamorphic invariance.
//  * Formulas: the Presburger decision procedure against brute-force
//    evaluation over the generated box guards.
//  * Programs: the trace oracle (memory- and value-based witnesses from
//    real execution) against the Section 4 engine, run at jobs 1 and 4
//    with structural results required identical; plus the schedule
//    oracle and loop-bound-widening monotonicity.
//
// Any mismatch is delta-debugged to a minimal reproducer (a calc script
// for Problems, tiny source for programs) written into --out, which the
// RegressionReplay ctest replays.
//
//===----------------------------------------------------------------------===//

#include "engine/DependenceEngine.h"
#include "ir/Sema.h"
#include "oracle/CrossCheck.h"
#include "oracle/Generate.h"
#include "oracle/Metamorphic.h"
#include "oracle/ModelOracle.h"
#include "oracle/ScheduleOracle.h"
#include "oracle/Shrink.h"
#include "oracle/TraceOracle.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

using namespace omega;

namespace {

struct Options {
  unsigned Problems = 2000;
  unsigned Programs = 100;
  unsigned Formulas = 500;
  unsigned Pipelines = 0;
  unsigned Seed = 0;
  bool SeedSet = false;
  std::string OutDir = "tests/corpus/regressions";
  double MaxSeconds = 0; // 0 == unlimited
  bool InjectKillBug = false;
  bool InjectPipelineBug = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: omega-fuzz [options]\n"
      "  --problems N     random constraint problems to check (default "
      "2000)\n"
      "  --programs N     random tiny programs to check (default 100)\n"
      "  --formulas N     random Presburger formulas to check (default "
      "500)\n"
      "  --seed S         base seed (default: OMEGA_FUZZ_SEED or 12345)\n"
      "  --out DIR        directory for shrunk reproducers\n"
      "                   (default tests/corpus/regressions)\n"
      "  --max-seconds S  stop generating new inputs after S seconds\n"
      "  --pipelines N    random tiny programs whose pipelined schedules to\n"
      "                   execute against the original (default 0)\n"
      "  --inject-kill-bug  demonstrate the oracle: simulate a kill-analysis\n"
      "                   bug, require the trace oracle to catch it and\n"
      "                   shrink it to a <=10-line reproducer\n"
      "  --inject-pipeline-bug  demonstrate the schedule oracle: drop one\n"
      "                   loop-carried dependence before pipeline planning,\n"
      "                   require the interpreter-backed oracle to catch the\n"
      "                   unsound schedule and shrink it to <=10 lines\n");
}

bool parseArgs(int Argc, char **Argv, Options &Opt) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (A == "--problems") {
      const char *V = Next();
      if (!V)
        return false;
      Opt.Problems = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (A == "--programs") {
      const char *V = Next();
      if (!V)
        return false;
      Opt.Programs = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (A == "--formulas") {
      const char *V = Next();
      if (!V)
        return false;
      Opt.Formulas = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (A == "--seed") {
      const char *V = Next();
      if (!V)
        return false;
      Opt.Seed = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
      Opt.SeedSet = true;
    } else if (A == "--out") {
      const char *V = Next();
      if (!V)
        return false;
      Opt.OutDir = V;
    } else if (A == "--max-seconds") {
      const char *V = Next();
      if (!V)
        return false;
      Opt.MaxSeconds = std::strtod(V, nullptr);
    } else if (A == "--pipelines") {
      const char *V = Next();
      if (!V)
        return false;
      Opt.Pipelines = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (A == "--inject-kill-bug") {
      Opt.InjectKillBug = true;
    } else if (A == "--inject-pipeline-bug") {
      Opt.InjectPipelineBug = true;
    } else if (A == "-h" || A == "--help") {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "omega-fuzz: unknown option '%s'\n", A.c_str());
      return false;
    }
  }
  return true;
}

struct Clock {
  std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();
  double MaxSeconds;

  explicit Clock(double MaxSeconds) : MaxSeconds(MaxSeconds) {}
  bool expired() const {
    if (MaxSeconds <= 0)
      return false;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
               .count() >= MaxSeconds;
  }
};

void writeReproducer(const std::string &Dir, const std::string &Name,
                     const std::string &Contents) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::string Path = Dir + "/" + Name;
  std::ofstream OS(Path);
  OS << Contents;
  std::fprintf(stderr, "omega-fuzz: wrote reproducer %s\n", Path.c_str());
}

//===----------------------------------------------------------------------===//
// Problem + formula fuzzing
//===----------------------------------------------------------------------===//

/// Every model-oracle check on one problem (gist/implication get a second
/// problem generated over the same layout from the same stream).
oracle::ModelReport checkOneProblem(const Problem &P, const Problem &Given,
                                    int64_t Box, std::mt19937 &Rng) {
  oracle::ModelReport Report;
  OmegaContext Ctx; // fresh stats: each check independent
  oracle::checkSatisfiability(P, Box, Report, Ctx);
  if (P.getNumVars() > 1)
    oracle::checkProjection(P, P.getNumVars() - 1, Box, Report, Ctx);
  oracle::checkGist(P, Given, Box, Report, Ctx);
  oracle::checkImplication(Given, P, Box, Report, Ctx);
  oracle::checkProblemMetamorphic(P, Rng, Report, Ctx);
  return Report;
}

unsigned fuzzProblems(const Options &Opt, const Clock &Clock,
                      unsigned &Checked) {
  oracle::RandomProblemConfig Cfg;
  unsigned Failures = 0;
  for (unsigned I = 0; I != Opt.Problems && !Clock.expired(); ++I) {
    std::mt19937 Rng(Opt.Seed + I);
    Problem P = oracle::randomProblem(Rng, Cfg);
    Problem Given = oracle::randomProblem(Rng, Cfg);
    oracle::ModelReport Report = checkOneProblem(P, Given, Cfg.Box, Rng);
    Checked += Report.Checked;
    if (Report.ok())
      continue;

    ++Failures;
    std::fprintf(stderr, "omega-fuzz: problem %u FAILED (%s):\n%s\n", I,
                 oracle::seedMessage(Opt.Seed).c_str(),
                 Report.summary().c_str());
    // Shrink against "this problem alone still fails some oracle check".
    Problem Small = oracle::shrinkProblem(P, [&](const Problem &Cand) {
      std::mt19937 R2(Opt.Seed + I);
      oracle::randomProblem(R2, Cfg); // advance the stream identically
      Problem G2 = oracle::randomProblem(R2, Cfg);
      return !checkOneProblem(Cand, G2, Cfg.Box, R2).ok();
    });
    writeReproducer(Opt.OutDir,
                    "problem_seed" + std::to_string(Opt.Seed) + "_" +
                        std::to_string(I) + ".calc",
                    oracle::problemToCalcScript(Small));
  }
  return Failures;
}

unsigned fuzzFormulas(const Options &Opt, const Clock &Clock,
                      unsigned &Checked) {
  oracle::RandomFormulaConfig Cfg;
  unsigned Failures = 0;
  for (unsigned I = 0; I != Opt.Formulas && !Clock.expired(); ++I) {
    std::mt19937 Rng(Opt.Seed + 1000000 + I);
    pres::FormulaContext Ctx;
    pres::Formula F = oracle::randomFormula(Rng, Ctx, Cfg);
    oracle::ModelReport Report;
    OmegaContext OC;
    oracle::checkFormula(F, Ctx, Cfg.Box, Report, OC);
    Checked += Report.Checked;
    if (Report.ok())
      continue;
    ++Failures;
    std::fprintf(stderr, "omega-fuzz: formula %u FAILED (%s):\n%s\n%s\n", I,
                 oracle::seedMessage(Opt.Seed).c_str(),
                 F.toString(Ctx).c_str(), Report.summary().c_str());
  }
  return Failures;
}

//===----------------------------------------------------------------------===//
// Program fuzzing
//===----------------------------------------------------------------------===//

/// All oracle checks for one program source. Returns mismatch strings.
std::vector<std::string> checkOneProgram(const std::string &Source) {
  return oracle::crossCheckProgram(Source);
}

unsigned fuzzPrograms(const Options &Opt, const Clock &Clock,
                      unsigned &Checked) {
  unsigned Failures = 0;
  for (unsigned I = 0; I != Opt.Programs && !Clock.expired(); ++I) {
    oracle::ProgramGenerator Gen(Opt.Seed + 2000000 + I);
    std::string Source = Gen.generate();
    std::vector<std::string> Mismatches = checkOneProgram(Source);
    ++Checked;
    if (Mismatches.empty())
      continue;

    ++Failures;
    std::fprintf(stderr, "omega-fuzz: program %u FAILED (%s):\n%s\n", I,
                 oracle::seedMessage(Opt.Seed).c_str(), Source.c_str());
    for (const std::string &M : Mismatches)
      std::fprintf(stderr, "  %s\n", M.c_str());
    std::string Small = oracle::shrinkProgramSource(
        Source,
        [](const std::string &Cand) { return !checkOneProgram(Cand).empty(); });
    writeReproducer(Opt.OutDir,
                    "program_seed" + std::to_string(Opt.Seed) + "_" +
                        std::to_string(I) + ".tiny",
                    Small);
  }
  return Failures;
}

//===----------------------------------------------------------------------===//
// Pipeline-schedule fuzzing
//===----------------------------------------------------------------------===//

unsigned fuzzPipelines(const Options &Opt, const Clock &Clock,
                       unsigned &Checked) {
  unsigned Failures = 0;
  for (unsigned I = 0; I != Opt.Pipelines && !Clock.expired(); ++I) {
    oracle::ProgramGenerator Gen(Opt.Seed + 4000000 + I);
    std::string Source = Gen.generate();
    oracle::ScheduleReport Report = oracle::checkPipelineSchedules(Source);
    Checked += Report.PlansChecked;
    if (Report.ok())
      continue;

    ++Failures;
    std::fprintf(stderr, "omega-fuzz: pipeline %u FAILED (%s):\n%s\n", I,
                 oracle::seedMessage(Opt.Seed).c_str(), Source.c_str());
    for (const std::string &M : Report.Mismatches)
      std::fprintf(stderr, "  %s\n", M.c_str());
    std::string Small =
        oracle::shrinkProgramSource(Source, [](const std::string &Cand) {
          return !oracle::checkPipelineSchedules(Cand).ok();
        });
    writeReproducer(Opt.OutDir,
                    "pipeline_seed" + std::to_string(Opt.Seed) + "_" +
                        std::to_string(I) + ".tiny",
                    Small);
  }
  return Failures;
}

//===----------------------------------------------------------------------===//
// Injected-bug demonstration
//===----------------------------------------------------------------------===//

/// Simulates the kill-analysis bug documented in TESTING.md: mark every
/// live flow split dead as "killed", exactly what an over-eager Section 4.1
/// kill pass would do. Returns true when the trace oracle flags a false
/// kill for \p Source.
bool buggyAnalysisCaught(const std::string &Source) {
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  if (!AP.ok())
    return false;
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);
  for (deps::Dependence &D : R.Flow)
    for (deps::DepSplit &S : D.Splits)
      if (!S.Dead) {
        S.Dead = true;
        S.DeadReason = 'k';
      }
  deps::DependenceAnalysis DA(AP);
  std::vector<deps::Dependence> UnrefinedFlow =
      DA.computeDependences(deps::DepKind::Flow);
  oracle::TraceReport Trace = oracle::checkTraceWitnesses(AP, R, UnrefinedFlow);
  // A genuine catch: the program executed and a value witness was refused.
  return !Trace.ExecFailed && !Trace.Truncated && !Trace.Mismatches.empty();
}

int demonstrateInjectedKillBug(const Options &Opt) {
  // Find a random program whose execution actually reuses a written value,
  // so the injected bug is observable.
  for (unsigned I = 0; I != 200; ++I) {
    oracle::ProgramGenerator Gen(Opt.Seed + 3000000 + I);
    std::string Source = Gen.generate();
    if (!buggyAnalysisCaught(Source))
      continue;

    std::fprintf(stderr,
                 "omega-fuzz: injected kill bug caught on program %u (%s)\n",
                 I, oracle::seedMessage(Opt.Seed).c_str());
    std::string Small =
        oracle::shrinkProgramSource(Source, buggyAnalysisCaught);
    unsigned Lines = oracle::lineCount(Small);
    std::fprintf(stderr,
                 "omega-fuzz: shrunk reproducer (%u lines):\n%s", Lines,
                 Small.c_str());
    if (Lines > 10) {
      std::fprintf(stderr,
                   "omega-fuzz: FAILED: reproducer larger than 10 lines\n");
      return 1;
    }
    std::printf("injected kill bug: caught and shrunk to %u lines\n", Lines);
    return 0;
  }
  std::fprintf(stderr,
               "omega-fuzz: FAILED: no program exposed the injected bug\n");
  return 1;
}

/// True when dropping some live loop-carried PDG edge of \p Source yields
/// a pipeline plan the interpreter refutes. The shrink predicate for the
/// pipeline canary.
bool injectedPipelineBugCaught(const std::string &Source) {
  std::vector<std::string> Mismatches;
  return oracle::injectPipelineBug(Source, oracle::TraceOracleOptions(),
                                   Mismatches);
}

int demonstrateInjectedPipelineBug(const Options &Opt) {
  // Find a random program where deleting one carried edge actually reorders
  // dependent statements (not every program pipelines, and dropping a
  // forward edge that fission preserves anyway is harmless).
  for (unsigned I = 0; I != 200; ++I) {
    oracle::ProgramGenerator Gen(Opt.Seed + 5000000 + I);
    std::string Source = Gen.generate();
    std::vector<std::string> Mismatches;
    if (!oracle::injectPipelineBug(Source, oracle::TraceOracleOptions(),
                                   Mismatches))
      continue;

    std::fprintf(
        stderr,
        "omega-fuzz: injected pipeline bug caught on program %u (%s)\n", I,
        oracle::seedMessage(Opt.Seed).c_str());
    for (const std::string &M : Mismatches)
      std::fprintf(stderr, "  %s\n", M.c_str());
    std::string Small =
        oracle::shrinkProgramSource(Source, injectedPipelineBugCaught);
    unsigned Lines = oracle::lineCount(Small);
    std::fprintf(stderr, "omega-fuzz: shrunk reproducer (%u lines):\n%s",
                 Lines, Small.c_str());
    if (Lines > 10) {
      std::fprintf(stderr,
                   "omega-fuzz: FAILED: reproducer larger than 10 lines\n");
      return 1;
    }
    std::printf("injected pipeline bug: caught and shrunk to %u lines\n",
                Lines);
    return 0;
  }
  std::fprintf(stderr,
               "omega-fuzz: FAILED: no program exposed the injected bug\n");
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  if (!parseArgs(Argc, Argv, Opt)) {
    usage();
    return 2;
  }
  if (!Opt.SeedSet)
    Opt.Seed = oracle::fuzzSeed(12345);

  if (Opt.InjectKillBug)
    return demonstrateInjectedKillBug(Opt);
  if (Opt.InjectPipelineBug)
    return demonstrateInjectedPipelineBug(Opt);

  Clock Clock(Opt.MaxSeconds);
  unsigned Checked = 0;
  unsigned Failures = 0;
  Failures += fuzzProblems(Opt, Clock, Checked);
  Failures += fuzzFormulas(Opt, Clock, Checked);
  Failures += fuzzPrograms(Opt, Clock, Checked);
  Failures += fuzzPipelines(Opt, Clock, Checked);

  std::printf("omega-fuzz: %s: %u checks, %u failures%s\n",
              oracle::seedMessage(Opt.Seed).c_str(), Checked, Failures,
              Clock.expired() ? " (time box hit)" : "");
  return Failures == 0 ? 0 : 1;
}
