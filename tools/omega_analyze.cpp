//===- tools/omega_analyze.cpp - Command-line dependence analyzer ---------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// A command-line front door to the analysis, in the spirit of the
// augmented `tiny` tool the paper describes:
//
//   omega-analyze [options] [file.tiny]     (stdin when no file)
//
// Options are the shared api::AnalysisOptions surface (see --help; the
// same table drives omega-calc and omega-serve), plus two tool-specific
// arguments: the input file positional and `--sym name=value` symbol
// bindings for --run. Machine-readable output (--json) is the schema-6
// response document of api/Response.h, byte-identical in its "result"
// section to an omega-serve response for the same program.
//
//===----------------------------------------------------------------------===//

#include "analysis/Transforms.h"
#include "api/Options.h"
#include "api/Response.h"
#include "deps/DepSpace.h"
#include "engine/DependenceEngine.h"
#include "engine/ResultStore.h"
#include "ir/Interp.h"
#include "obs/Trace.h"
#include "transform/Apply.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>

using namespace omega;

namespace {

int usage(FILE *To) {
  std::fprintf(To, "usage: omega-analyze [options] [file.tiny]\n"
                   "\nShared analysis options:\n%s"
                   "\nTool arguments:\n"
                   "  --sym NAME=VALUE          bind a symbolic constant "
                   "(repeatable; with --run)\n"
                   "  file.tiny                 input program (stdin when "
                   "omitted or \"-\")\n",
               api::optionsHelp(api::ToolAnalyze).c_str());
  return To == stderr ? 2 : 0;
}

void printDeps(const std::vector<deps::Dependence> &Deps, const char *Title,
               bool Dead, bool Compress) {
  std::printf("\n%s:\n%-24s%-24s%-14s%s\n", Title, "FROM", "TO", "dir/dist",
              "status");
  for (const deps::Dependence &D : Deps) {
    std::vector<deps::DepSplit> Rows =
        Compress ? deps::compressSplits(D.Splits) : D.Splits;
    for (const deps::DepSplit &S : Rows) {
      if (S.Dead != Dead)
        continue;
      std::string From =
          std::to_string(D.Src->StmtLabel) + ": " + D.Src->Text;
      std::string To = std::to_string(D.Dst->StmtLabel) + ": " + D.Dst->Text;
      std::string Status;
      if (D.Covers)
        Status += 'C';
      if (S.DeadReason)
        Status += S.DeadReason;
      if (S.Refined)
        Status += 'r';
      std::printf("%-24s%-24s%-14s%s\n", From.c_str(), To.c_str(),
                  S.dirToString().c_str(),
                  Status.empty() ? "" : ("[" + Status + "]").c_str());
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  api::ParsedArgs Parsed;
  std::string Err;
  if (!api::parseArgs(Args, api::ToolAnalyze, Parsed, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return usage(stderr);
  }
  if (Parsed.Help)
    return usage(stdout);
  api::AnalysisOptions &Opts = Parsed.Options;

  // Tool-specific leftovers: --sym bindings and the input file.
  std::map<std::string, int64_t> Symbols;
  std::string File;
  for (std::size_t I = 0; I != Parsed.Rest.size(); ++I) {
    const std::string &Arg = Parsed.Rest[I];
    if (Arg == "--sym") {
      if (I + 1 == Parsed.Rest.size())
        return usage(stderr);
      std::string Binding = Parsed.Rest[++I];
      std::size_t Eq = Binding.find('=');
      if (Eq == std::string::npos)
        return usage(stderr);
      try {
        Symbols[Binding.substr(0, Eq)] = std::stoll(Binding.substr(Eq + 1));
      } catch (...) {
        return usage(stderr);
      }
    } else if (Arg != "-" && !Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option %s\n", Arg.c_str());
      return usage(stderr);
    } else if (File.empty()) {
      File = Arg;
    } else {
      return usage(stderr);
    }
  }

  std::string Source;
  if (File.empty() || File == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Source = SS.str();
  } else {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", File.c_str());
      return 1;
    }
    Source.assign(std::istreambuf_iterator<char>(In),
                  std::istreambuf_iterator<char>());
  }

  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  if (!AP.ok()) {
    for (const ir::Diagnostic &D : AP.Diags)
      std::fprintf(stderr, "error: %s\n", D.toString().c_str());
    return 1;
  }

  if (Opts.Run) {
    ir::ExecConfig Config;
    Config.Symbols = Symbols;
    ir::ExecResult R = ir::interpret(AP.Source, Config);
    if (R.Failed) {
      std::fprintf(stderr, "run error: %s (bind symbols with --sym)\n",
                   R.Error.c_str());
      return 1;
    }
    std::printf("executed %zu accesses%s\n", R.Trace.size(),
                R.Truncated ? " (truncated)" : "");
    for (const ir::TraceEntry &T : R.Trace) {
      std::printf("  %u: %-6s %s(", T.StmtLabel,
                  T.IsWrite ? "write" : "read", T.Array.c_str());
      for (unsigned I = 0; I != T.Location.size(); ++I)
        std::printf("%s%lld", I ? "," : "",
                    static_cast<long long>(T.Location[I]));
      std::printf(")\n");
    }
    return 0;
  }

  std::unique_ptr<obs::Tracer> Tracer;
  engine::AnalysisRequest Req = Opts.toEngineRequest();
  if (!Opts.TraceFile.empty() ||
      Opts.Profile != api::AnalysisOptions::ProfileOff || Opts.Explain) {
    Tracer = std::make_unique<obs::Tracer>();
    Req.Trace = Tracer.get();
  }

  // --result-cache-file attaches the cross-request result store the way
  // omega-serve does: load (missing or corrupt files cold-start with a
  // warning), consult and feed during the run, save back after. Reuse is
  // result-invisible; only "stats" reports the store traffic.
  engine::ResultStore Store(
      static_cast<std::size_t>(Opts.ResultStoreCap));
  if (!Opts.ResultCacheFile.empty()) {
    std::ifstream Probe(Opts.ResultCacheFile, std::ios::binary);
    if (Probe.is_open()) {
      Probe.close();
      std::string LoadErr;
      if (!Store.loadFile(Opts.ResultCacheFile, &LoadErr))
        std::fprintf(stderr, "warning: result store cold start: %s\n",
                     LoadErr.c_str());
    }
    Req.Store = &Store;
  }

  engine::DependenceEngine Engine(Req);

  auto WallStart = std::chrono::steady_clock::now();
  engine::AnalysisResult R = Engine.analyze(AP);
  double WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - WallStart)
                      .count();

  if (!Opts.ResultCacheFile.empty()) {
    std::string Tmp = Opts.ResultCacheFile + ".tmp";
    std::string SaveErr;
    if (Store.saveFile(Tmp, &SaveErr)) {
      std::rename(Tmp.c_str(), Opts.ResultCacheFile.c_str());
    } else {
      std::remove(Tmp.c_str());
      std::fprintf(stderr, "warning: cannot write %s: %s\n",
                   Opts.ResultCacheFile.c_str(), SaveErr.c_str());
    }
  }

  if (!Opts.TraceFile.empty()) {
    std::ofstream TraceOut(Opts.TraceFile);
    if (!TraceOut) {
      std::fprintf(stderr, "error: cannot write %s\n", Opts.TraceFile.c_str());
      return 1;
    }
    TraceOut << Tracer->chromeTraceJson();
  }

  if (Opts.Json) {
    std::string ProfileJson;
    if (Opts.Profile != api::AnalysisOptions::ProfileOff)
      ProfileJson = Tracer->profileReport(/*Json=*/true, WallMs, Engine.jobs());
    std::string Explain;
    if (Opts.Explain)
      Explain = Tracer->explainLog();
    std::fputs(api::renderDocument(api::renderResult(
                                       R, Opts.Pipeline ? &AP : nullptr),
                                   api::renderMetrics(R, Engine.jobs(), WallMs,
                                                      ProfileJson, Explain))
                   .c_str(),
               stdout);
    return 0;
  }

  std::printf("%s", AP.Source.toString().c_str());

  printDeps(R.Flow, "live flow dependences", /*Dead=*/false, Opts.Compress);
  printDeps(R.Flow, "dead flow dependences", /*Dead=*/true, Opts.Compress);
  if (Opts.All) {
    printDeps(R.Anti, "anti dependences", false, Opts.Compress);
    printDeps(R.Output, "output dependences", false, Opts.Compress);
  }

  if (Opts.Transforms)
    std::printf("\ntransformation opportunities:\n%s",
                analysis::transformReport(AP, R).c_str());

  if (Opts.Schedule)
    std::printf("\nparallel schedule:\n%s",
                transform::renderParallelSchedule(AP, R).c_str());

  if (Opts.Pipeline)
    std::printf("\npipeline partition:\n%s",
                transform::renderPipelineSchedule(AP, R).c_str());

  if (Opts.Restraints) {
    std::printf("\nrestraint vectors (Section 2.1.2):\n");
    for (const deps::Dependence &D : R.Flow) {
      deps::DepSpace Space(AP, {D.Src, D.Dst});
      Problem Pair = deps::buildPairProblem(Space);
      std::string Vectors;
      for (const deps::DepSpace::RestraintVector &V :
           Space.computeRestraintVectors(Pair, 0, 1)) {
        if (!Vectors.empty())
          Vectors += " ";
        Vectors += V.toString();
      }
      std::printf("  %s -> %s: %s\n", D.Src->Text.c_str(),
                  D.Dst->Text.c_str(),
                  Vectors.empty() ? "(none)" : Vectors.c_str());
    }
  }

  if (Opts.Stats) {
    std::printf("\nper-pair analysis costs:\n%-24s%-24s%12s%12s%10s\n",
                "write", "read", "std_usec", "ext_usec", "class");
    for (const analysis::PairRecord &P : R.Pairs) {
      const char *Class = !P.UsedGeneralTest ? "fast"
                          : P.SplitVectors    ? "split"
                                              : "general";
      std::printf("%-24s%-24s%12.1f%12.1f%10s\n", P.Write->Text.c_str(),
                  P.Read->Text.c_str(), P.StandardSecs * 1e6,
                  P.ExtendedSecs * 1e6, Class);
    }
    std::printf("\nomega test work: %llu sat calls, %llu exact / %llu "
                "inexact eliminations, %llu splinters\n",
                static_cast<unsigned long long>(R.Stats.SatisfiabilityCalls),
                static_cast<unsigned long long>(R.Stats.ExactEliminations),
                static_cast<unsigned long long>(R.Stats.InexactEliminations),
                static_cast<unsigned long long>(R.Stats.SplintersExplored));
    std::printf("pair tiers: %llu decided by quick tests (%llu ziv, %llu "
                "gcd, %llu bounds, %llu trivial)\n",
                static_cast<unsigned long long>(R.Stats.QuickTestDecided),
                static_cast<unsigned long long>(R.Stats.QuickTestZIV),
                static_cast<unsigned long long>(R.Stats.QuickTestGCD),
                static_cast<unsigned long long>(R.Stats.QuickTestBounds),
                static_cast<unsigned long long>(R.Stats.QuickTestTrivialDep));
  }

  if (Opts.Profile != api::AnalysisOptions::ProfileOff) {
    std::printf("\n");
    std::fputs(
        Tracer
            ->profileReport(Opts.Profile == api::AnalysisOptions::ProfileJson,
                            WallMs, Engine.jobs())
            .c_str(),
        stdout);
  }
  if (Opts.Explain) {
    std::printf("\ndecision explain log:\n");
    std::fputs(Tracer->explainLog().c_str(), stdout);
  }
  return 0;
}
