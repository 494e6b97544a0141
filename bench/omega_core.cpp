//===- bench/omega_core.cpp - Experiment A3 (Omega core micros) -----------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// Micro-benchmarks of the Omega test core operations: satisfiability on
// exact and dark-shadow paths, equality elimination via mod-hat,
// projection, gist computation, and one end-to-end CHOLSKY dependence
// pair.
//
// Two modes:
//  * default: the google-benchmark micro suite (BM_* below);
//  * --json <path>: a fixed-iteration, deterministic run of the core
//    operations (sat + gist + projection) over synthetic problems and the
//    whole kernel corpus, emitting a machine-readable record
//    (BENCH_omega_core.json) with wall times, peak RSS, and the OmegaStats
//    counters. The committed baseline at the repo root tracks the perf
//    trajectory; CI fails on >25% regression of core_ops.wall_ms.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "analysis/Driver.h"
#include "api/Json.h"
#include "api/Response.h"
#include "api/Serve.h"
#include "deps/DependenceAnalysis.h"
#include "kernels/Kernels.h"
#include "transform/Pipeline.h"
#include "omega/Gist.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

using namespace omega;

namespace {

Problem darkShadowClassic() {
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 11}, {Y, 13}}, -27);
  P.addGEQ({{X, -11}, {Y, -13}}, 45);
  P.addGEQ({{X, 7}, {Y, -9}}, 10);
  P.addGEQ({{X, -7}, {Y, 9}}, 4);
  return P;
}

Problem boxed4D() {
  Problem P;
  std::vector<VarId> V;
  for (int I = 0; I != 4; ++I)
    V.push_back(P.addVar("v" + std::to_string(I)));
  for (VarId X : V) {
    P.addGEQ({{X, 1}}, 100);
    P.addGEQ({{X, -1}}, 100);
  }
  P.addGEQ({{V[0], 2}, {V[1], 3}, {V[2], -1}}, -7);
  P.addGEQ({{V[1], -2}, {V[3], 5}}, 11);
  P.addEQ({{V[0], 1}, {V[2], 1}, {V[3], -2}}, -1);
  return P;
}

/// An 8-variable dependence-shaped system: two 4-deep triangular
/// iteration-space copies coupled by subscript equalities, the shape the
/// engine feeds the core thousands of times.
Problem triangularPair8D() {
  Problem P;
  std::vector<VarId> I, J;
  for (int D = 0; D != 4; ++D)
    I.push_back(P.addVar("i" + std::to_string(D)));
  for (int D = 0; D != 4; ++D)
    J.push_back(P.addVar("j" + std::to_string(D)));
  for (int D = 0; D != 4; ++D) {
    P.addGEQ({{I[D], 1}}, -1);   // i_d >= 1
    P.addGEQ({{I[D], -1}}, 40);  // i_d <= 40
    P.addGEQ({{J[D], 1}}, -1);
    P.addGEQ({{J[D], -1}}, 40);
    if (D) {
      P.addGEQ({{I[D], 1}, {I[D - 1], -1}}, 0); // i_d >= i_{d-1}
      P.addGEQ({{J[D], 1}, {J[D - 1], -1}}, 0);
    }
  }
  P.addEQ({{I[0], 1}, {J[0], -1}}, -1); // subscript: i0 == j0 + 1
  P.addEQ({{I[1], 1}, {J[2], -1}}, 0);  // coupled subscript
  P.addGEQ({{J[3], 1}, {I[3], -1}}, -1); // ordering
  return P;
}

//===--------------------------------------------------------------------===//
// google-benchmark micro suite
//===--------------------------------------------------------------------===//

void BM_SatisfiabilityExactPath(benchmark::State &State) {
  Problem P = boxed4D();
  for (auto _ : State)
    benchmark::DoNotOptimize(isSatisfiable(P));
}
BENCHMARK(BM_SatisfiabilityExactPath);

void BM_SatisfiabilityDarkShadow(benchmark::State &State) {
  Problem P = darkShadowClassic();
  for (auto _ : State)
    benchmark::DoNotOptimize(isSatisfiable(P));
}
BENCHMARK(BM_SatisfiabilityDarkShadow);

void BM_EqualityModHatChain(benchmark::State &State) {
  for (auto _ : State) {
    Problem P;
    VarId X = P.addVar("x");
    VarId Y = P.addVar("y");
    VarId Z = P.addVar("z");
    P.addEQ({{X, 7}, {Y, 12}, {Z, 31}}, -17);
    P.addGEQ({{X, 1}}, 100);
    P.addGEQ({{X, -1}}, 100);
    P.addGEQ({{Y, 1}}, 100);
    P.addGEQ({{Z, -1}}, 100);
    benchmark::DoNotOptimize(isSatisfiable(std::move(P)));
  }
}
BENCHMARK(BM_EqualityModHatChain);

void BM_ProjectionPaperExample(benchmark::State &State) {
  Problem P;
  VarId A = P.addVar("a");
  VarId B = P.addVar("b");
  P.addGEQ({{A, 1}}, 0);
  P.addGEQ({{A, -1}}, 5);
  P.addGEQ({{A, 1}, {B, -1}}, -1);
  P.addGEQ({{A, -1}, {B, 5}}, 0);
  for (auto _ : State)
    benchmark::DoNotOptimize(projectOnto(P, {A}));
}
BENCHMARK(BM_ProjectionPaperExample);

void BM_ProjectionWithSplinters(benchmark::State &State) {
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{Y, 3}, {X, -1}}, -5);
  P.addGEQ({{Y, -3}, {X, 1}}, 6);
  for (auto _ : State)
    benchmark::DoNotOptimize(projectOnto(P, {X}));
}
BENCHMARK(BM_ProjectionWithSplinters);

void BM_GistWithFastChecks(benchmark::State &State) {
  Problem Layout;
  VarId X = Layout.addVar("x");
  VarId Y = Layout.addVar("y");
  Problem P = Layout.cloneLayout();
  P.addGEQ({{X, 1}}, 0);
  P.addGEQ({{X, 1}, {Y, 1}}, -2);
  P.addGEQ({{X, -1}, {Y, 2}}, 30);
  Problem Q = Layout.cloneLayout();
  Q.addGEQ({{X, 1}}, -1);
  Q.addGEQ({{Y, 1}}, -1);
  Q.addGEQ({{X, -1}}, 40);
  Q.addGEQ({{Y, -1}}, 40);
  for (auto _ : State)
    benchmark::DoNotOptimize(gist(P, Q));
}
BENCHMARK(BM_GistWithFastChecks);

void BM_CholskyOnePairStandard(benchmark::State &State) {
  static ir::AnalyzedProgram AP = ir::analyzeSource(kernels::cholsky());
  const ir::Access *W = nullptr, *R = nullptr;
  for (const ir::Access &A : AP.Accesses) {
    if (A.StmtLabel == 1 && A.IsWrite)
      W = &A;
    if (A.StmtLabel == 1 && !A.IsWrite && A.Text == "A(L,I,J)")
      R = &A;
  }
  deps::DependenceAnalysis DA(AP);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        DA.computeDependence(*W, *R, deps::DepKind::Flow));
}
BENCHMARK(BM_CholskyOnePairStandard);

void BM_CholskyWholeProgram(benchmark::State &State) {
  static ir::AnalyzedProgram AP = ir::analyzeSource(kernels::cholsky());
  for (auto _ : State)
    benchmark::DoNotOptimize(analysis::analyzeProgram(AP));
}
BENCHMARK(BM_CholskyWholeProgram);

//===--------------------------------------------------------------------===//
// --json mode: deterministic fixed-iteration runs
//===--------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// One rep of the pure-core workload: satisfiability, projection, and gist
/// over the fixed problem suite. Everything runs through \p Ctx so the
/// counters record exactly the work done.
void coreOpsRep(const std::vector<Problem> &SatSuite,
                const Problem &ProjPaper, const Problem &ProjSplinter,
                const Problem &Tri, const Problem &GistP,
                const Problem &GistQ, OmegaContext &Ctx) {
  for (const Problem &P : SatSuite)
    benchmark::DoNotOptimize(isSatisfiable(P, SatOptions(), Ctx));
  benchmark::DoNotOptimize(
      projectOnto(ProjPaper, {0}, ProjectOptions(), Ctx));
  benchmark::DoNotOptimize(
      projectOnto(ProjSplinter, {0}, ProjectOptions(), Ctx));
  benchmark::DoNotOptimize(projectOnto(Tri, {0, 1, 2, 3}, ProjectOptions(),
                                       Ctx));
  benchmark::DoNotOptimize(gist(GistP, GistQ, GistOptions(), Ctx));
}

/// Deterministic rendering of every dependence an analysis produced, for
/// the incremental section's equality check: baseline reuse must be
/// invisible in the results.
std::string renderDeps(const std::vector<deps::Dependence> &Deps) {
  std::string Out;
  for (const deps::Dependence &D : Deps) {
    Out += D.Src->Text;
    Out += "->";
    Out += D.Dst->Text;
    Out += ':';
    Out += deps::depKindName(D.Kind);
    if (D.Covers)
      Out += "[C]";
    if (D.CoverLoopIndependent)
      Out += "[CI]";
    for (const deps::DepSplit &S : D.Splits) {
      Out += " L" + std::to_string(S.Level) + "(" + S.dirToString() + ")";
      if (S.Dead) {
        Out += '!';
        Out += S.DeadReason;
      }
      if (S.Refined)
        Out += 'r';
    }
    Out += '\n';
  }
  return Out;
}

std::string renderResult(const engine::AnalysisResult &R) {
  return renderDeps(R.Flow) + "|" + renderDeps(R.Anti) + "|" +
         renderDeps(R.Output);
}

//===--------------------------------------------------------------------===//
// server section: omega-serve throughput over the corpus
//===--------------------------------------------------------------------===//

/// Extracts the bytes of the "result" value from one server response line
/// (brace-balanced, string-aware), so the bit-identity gate can compare it
/// against the one-shot renderer's output.
std::string serverResultBytes(const std::string &Line) {
  const std::string Marker = "\"result\": ";
  std::size_t At = Line.find(Marker);
  if (At == std::string::npos)
    return {};
  std::size_t Start = At + Marker.size();
  int Depth = 0;
  bool InString = false;
  for (std::size_t I = Start; I != Line.size(); ++I) {
    char C = Line[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{')
      ++Depth;
    else if (C == '}' && --Depth == 0)
      return Line.substr(Start, I + 1 - Start);
  }
  return {};
}

struct ServerLegNumbers {
  uint64_t Requests = 0;
  double WallMs = 0;
  double Rps = 0;
  double P50Ms = 0;
  double P99Ms = 0;
  bool Identical = true;
};

/// One closed-loop leg: \p Clients threads each submit every request line
/// in \p Lines once (offset per client so interleavings differ), waiting
/// for each response before sending the next. Latency is submit-to-response
/// per request; identity is the response's result bytes against
/// \p Expected.
ServerLegNumbers runServerLeg(api::Server &Server, unsigned Clients,
                              const std::vector<std::string> &Lines,
                              const std::vector<std::string> &Expected) {
  std::vector<std::vector<double>> Latencies(Clients);
  std::vector<char> Ok(Clients, 1);
  Clock::time_point LegStart = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C) {
    Threads.emplace_back([&, C] {
      for (std::size_t I = 0; I != Lines.size(); ++I) {
        std::size_t Pick = (I + C) % Lines.size();
        std::mutex Mu;
        std::condition_variable CV;
        bool Done = false;
        std::string Response;
        Clock::time_point Start = Clock::now();
        Server.submit(Lines[Pick], [&](std::string Line) {
          std::lock_guard<std::mutex> Lock(Mu);
          Response = std::move(Line);
          Done = true;
          CV.notify_one();
        });
        std::unique_lock<std::mutex> Lock(Mu);
        CV.wait(Lock, [&] { return Done; });
        Latencies[C].push_back(msSince(Start));
        if (serverResultBytes(Response) != Expected[Pick])
          Ok[C] = 0;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();

  ServerLegNumbers N;
  N.WallMs = msSince(LegStart);
  std::vector<double> All;
  for (unsigned C = 0; C != Clients; ++C) {
    All.insert(All.end(), Latencies[C].begin(), Latencies[C].end());
    N.Identical = N.Identical && Ok[C];
  }
  std::sort(All.begin(), All.end());
  N.Requests = All.size();
  N.Rps = N.WallMs > 0 ? 1000.0 * static_cast<double>(All.size()) / N.WallMs
                       : 0.0;
  if (!All.empty()) {
    N.P50Ms = All[All.size() / 2];
    N.P99Ms = All[std::min(All.size() - 1, All.size() * 99 / 100)];
  }
  return N;
}

void writeServerLeg(bench::JsonWriter &W, const char *K,
                    const ServerLegNumbers &N) {
  W.beginObject(K);
  W.field("requests", N.Requests);
  W.field("wall_ms", N.WallMs);
  W.field("requests_per_sec", N.Rps);
  W.field("p50_ms", N.P50Ms);
  W.field("p99_ms", N.P99Ms);
  W.endObject();
}

/// Submits one request line and blocks for its response.
std::string submitAndWait(api::Server &Server, const std::string &Line) {
  std::mutex Mu;
  std::condition_variable CV;
  bool Done = false;
  std::string Response;
  Server.submit(Line, [&](std::string R) {
    std::lock_guard<std::mutex> Lock(Mu);
    Response = std::move(R);
    Done = true;
    CV.notify_one();
  });
  std::unique_lock<std::mutex> Lock(Mu);
  CV.wait(Lock, [&] { return Done; });
  return Response;
}

/// Reads an integer stats counter (e.g. resultStoreHits) out of a
/// response line; the stats keys are unique within a document.
uint64_t statCounter(const std::string &Line, const std::string &Name) {
  std::string Marker = "\"" + Name + "\": ";
  std::size_t At = Line.find(Marker);
  if (At == std::string::npos)
    return 0;
  return std::strtoull(Line.c_str() + At + Marker.size(), nullptr, 10);
}

/// The cross-session pair: four 3-D nests whose solve (with the pair
/// quick tests disabled per request) takes tens of milliseconds. Gen-2 is
/// gen-1 under a rename that also REORDERS first mentions -- the symbolic
/// declaration order flips and every variable and array gets a name whose
/// lexical order reverses -- the hardest rename for a result store keyed
/// on canonical, name-free fingerprints.
std::string crossSessionProgram(bool Renamed) {
  const char *N = Renamed ? "zz" : "n";
  const char *M = Renamed ? "yy" : "m";
  const char *P = Renamed ? "xx" : "p";
  const char *I = Renamed ? "w" : "i";
  const char *J = Renamed ? "v" : "j";
  const char *K = Renamed ? "u" : "k";
  const char *A = Renamed ? "h" : "a";
  const char *B = Renamed ? "g" : "b";
  const char *C = Renamed ? "f" : "c";
  const char *D = Renamed ? "e" : "d";
  std::string Text =
      Renamed ? "symbolic xx, yy, zz;\n" : "symbolic n, m, p;\n";
  for (int Nest = 0; Nest != 4; ++Nest) {
    std::string S = std::to_string(Nest);
    std::string AN = A + S, BN = B + S, CN = C + S, DN = D + S;
    std::string IJK = std::string(I) + "," + J + "," + K;
    Text += std::string("for ") + I + " := 2 to " + N + " do\n" +
            "  for " + J + " := 2 to " + M + " do\n" +
            "    for " + K + " := 2 to " + P + " do\n" +
            "      " + AN + "(" + IJK + ") := " + AN + "(" + I + "-1," + J +
            "," + K + ") + " + AN + "(" + I + "," + J + "-1," + K + ") + " +
            BN + "(" + I + "-1," + J + "-1," + K + ") + " + CN + "(" + I +
            "," + J + "," + K + "-1);\n" +
            "      " + BN + "(" + IJK + ") := " + AN + "(" + IJK + ") + " +
            BN + "(" + I + "-1," + J + "," + K + "-1) + " + CN + "(" + I +
            "," + J + "-1," + K + ");\n" +
            "      " + CN + "(" + IJK + ") := " + BN + "(" + I + "," + J +
            "-1," + K + ") + " + CN + "(" + I + "-1," + J + "," + K +
            ") + " + AN + "(" + I + "-1," + J + "," + K + "-1);\n" +
            "      " + DN + "(" + IJK + ") := " + DN + "(" + I + "-1," + J +
            "-1," + K + "-1) + " + CN + "(" + IJK + ") + " + BN + "(" +
            IJK + ");\n" +
            "    endfor\n  endfor\nendfor\n";
  }
  return Text;
}

int runJsonMode(const char *Path, unsigned CoreReps, unsigned CorpusReps) {
  // -- core_ops: sat + gist + projection on the synthetic suite ----------
  std::vector<Problem> SatSuite;
  SatSuite.push_back(boxed4D());
  SatSuite.push_back(darkShadowClassic());
  SatSuite.push_back(triangularPair8D());
  {
    Problem P;
    VarId X = P.addVar("x");
    VarId Y = P.addVar("y");
    VarId Z = P.addVar("z");
    P.addEQ({{X, 7}, {Y, 12}, {Z, 31}}, -17);
    P.addGEQ({{X, 1}}, 100);
    P.addGEQ({{X, -1}}, 100);
    P.addGEQ({{Y, 1}}, 100);
    P.addGEQ({{Z, -1}}, 100);
    SatSuite.push_back(std::move(P));
  }

  Problem ProjPaper;
  {
    VarId A = ProjPaper.addVar("a");
    VarId B = ProjPaper.addVar("b");
    ProjPaper.addGEQ({{A, 1}}, 0);
    ProjPaper.addGEQ({{A, -1}}, 5);
    ProjPaper.addGEQ({{A, 1}, {B, -1}}, -1);
    ProjPaper.addGEQ({{A, -1}, {B, 5}}, 0);
  }
  Problem ProjSplinter;
  {
    VarId X = ProjSplinter.addVar("x");
    VarId Y = ProjSplinter.addVar("y");
    ProjSplinter.addGEQ({{Y, 3}, {X, -1}}, -5);
    ProjSplinter.addGEQ({{Y, -3}, {X, 1}}, 6);
  }
  Problem Tri = triangularPair8D();

  Problem GistLayout;
  VarId GX = GistLayout.addVar("x");
  VarId GY = GistLayout.addVar("y");
  Problem GistP = GistLayout.cloneLayout();
  GistP.addGEQ({{GX, 1}}, 0);
  GistP.addGEQ({{GX, 1}, {GY, 1}}, -2);
  GistP.addGEQ({{GX, -1}, {GY, 2}}, 30);
  Problem GistQ = GistLayout.cloneLayout();
  GistQ.addGEQ({{GX, 1}}, -1);
  GistQ.addGEQ({{GY, 1}}, -1);
  GistQ.addGEQ({{GX, -1}}, 40);
  GistQ.addGEQ({{GY, -1}}, 40);

  OmegaContext CoreCtx;
  Clock::time_point CoreStart = Clock::now();
  for (unsigned R = 0; R != CoreReps; ++R)
    coreOpsRep(SatSuite, ProjPaper, ProjSplinter, Tri, GistP, GistQ,
               CoreCtx);
  double CoreMs = msSince(CoreStart);

  // -- corpus: the whole Section 4 pipeline, serial, no reuse -------------
  std::vector<std::unique_ptr<ir::AnalyzedProgram>> Programs;
  for (const kernels::Kernel &K : kernels::corpus()) {
    auto AP = std::make_unique<ir::AnalyzedProgram>(
        ir::analyzeSource(K.Source));
    if (AP->ok())
      Programs.push_back(std::move(AP));
  }
  engine::AnalysisRequest Req;
  Req.Jobs = 1;
  OmegaStats CorpusStats;
  Clock::time_point CorpusStart = Clock::now();
  for (unsigned R = 0; R != CorpusReps; ++R) {
    engine::DependenceEngine Engine(Req);
    for (const auto &AP : Programs) {
      engine::AnalysisResult Result = Engine.analyze(*AP);
      CorpusStats.merge(Result.Stats);
    }
  }
  double CorpusMs = msSince(CorpusStart);

  // -- server: omega-serve closed-loop throughput over the corpus --------
  // For each client count, a fresh daemon runs a cold pass (empty result
  // store) and a warm pass (same requests again); every response's result
  // section must match the one-shot renderer byte for byte.
  std::vector<std::string> ServeLines, ServeExpected;
  {
    engine::AnalysisRequest OneShot;
    OneShot.Jobs = 1;
    engine::DependenceEngine OneShotEngine(OneShot);
    for (const kernels::Kernel &K : kernels::corpus()) {
      ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
      if (!AP.ok())
        continue;
      ServeExpected.push_back(api::renderResult(OneShotEngine.analyze(AP)));
      ServeLines.push_back(
          "{\"id\": " + std::to_string(ServeLines.size() + 1) +
          ", \"source\": \"" + api::json::escape(K.Source) + "\"}");
    }
  }
  const unsigned ClientCounts[] = {1, 4, 16};
  ServerLegNumbers ServerCold[3], ServerWarm[3];
  bool ServerIdentical = true;
  for (int I = 0; I != 3; ++I) {
    api::Server::Config Cfg;
    Cfg.Workers = 4;
    Cfg.MaxQueue = 1024; // closed-loop clients: never shed
    api::Server Server(Cfg);
    ServerCold[I] = runServerLeg(Server, ClientCounts[I], ServeLines,
                                 ServeExpected);
    ServerWarm[I] = runServerLeg(Server, ClientCounts[I], ServeLines,
                                 ServeExpected);
    Server.stop();
    ServerIdentical = ServerIdentical && ServerCold[I].Identical &&
                      ServerWarm[I].Identical;
  }

  // -- server telemetry overhead: the same warm 4-client leg with the
  // access log and Prometheus exposition on versus off. Recording is a
  // few relaxed atomics plus one log line per request, so the wall-clock
  // delta must stay inside the CI gate's few-percent bound, and results
  // stay byte-identical either way.
  ServerLegNumbers TeleOff, TeleOn;
  bool TeleIdentical = true;
  {
    auto RunTelemetryLeg = [&](bool On) {
      api::Server::Config Cfg;
      Cfg.Workers = 4;
      Cfg.MaxQueue = 1024;
      std::string AccessPath = "omega_core_bench.access.jsonl";
      std::string PromPath = "omega_core_bench.metrics.prom";
      if (On) {
        Cfg.AccessLog = AccessPath;
        Cfg.MetricsFile = PromPath;
      }
      api::Server Server(Cfg);
      ServerLegNumbers Cold =
          runServerLeg(Server, 4, ServeLines, ServeExpected); // warm the store
      TeleIdentical = TeleIdentical && Cold.Identical;
      // Best of three warm passes: the overhead gate compares a few
      // percent, which single runs of a sub-second leg cannot resolve.
      ServerLegNumbers Best;
      for (int Rep = 0; Rep != 3; ++Rep) {
        ServerLegNumbers N =
            runServerLeg(Server, 4, ServeLines, ServeExpected);
        TeleIdentical = TeleIdentical && N.Identical;
        if (Rep == 0 || N.WallMs < Best.WallMs)
          Best = N;
      }
      Server.stop();
      if (On) {
        std::remove(AccessPath.c_str());
        std::remove(PromPath.c_str());
      }
      return Best;
    };
    TeleOff = RunTelemetryLeg(false);
    TeleOn = RunTelemetryLeg(true);
  }

  // -- server.cross_session: the global result store across "restarts" --
  // Cold solves gen-2 on a fresh server (empty store); warm feeds gen-1
  // into a fresh server's store first, then gen-2 -- a rename of gen-1
  // that reorders first mentions -- arrives sessionless and must
  // materialize every pair and kill group from the store. The hit/miss
  // counters come from the responses themselves and are exact,
  // machine-independent gates.
  struct CrossSessionNumbers {
    double ColdMs = 0, WarmMs = 0;
    uint64_t ColdHits = 0, ColdMisses = 0, WarmHits = 0, WarmMisses = 0;
    bool Identical = true;
  } Cross;
  const unsigned CrossReps = 5;
  {
    std::string Gen1 = crossSessionProgram(/*Renamed=*/false);
    std::string Gen2 = crossSessionProgram(/*Renamed=*/true);
    auto Line = [](const std::string &Src, int Id) {
      return "{\"id\": " + std::to_string(Id) + ", \"source\": \"" +
             api::json::escape(Src) +
             "\", \"options\": {\"quicktests\": false}}";
    };
    std::string Expected;
    {
      engine::AnalysisRequest OneShot;
      OneShot.Jobs = 1;
      OneShot.PairQuickTests = false;
      engine::DependenceEngine OneShotEngine(OneShot);
      ir::AnalyzedProgram AP = ir::analyzeSource(Gen2);
      Expected = api::renderResult(OneShotEngine.analyze(AP));
    }
    for (unsigned R = 0; R != CrossReps; ++R) {
      {
        api::Server::Config Cfg;
        Cfg.Workers = 1;
        api::Server Server(Cfg);
        Clock::time_point Start = Clock::now();
        std::string Resp = submitAndWait(Server, Line(Gen2, 1));
        Cross.ColdMs += msSince(Start);
        Server.stop();
        Cross.Identical =
            Cross.Identical && serverResultBytes(Resp) == Expected;
        if (R == 0) {
          Cross.ColdHits = statCounter(Resp, "resultStoreHits");
          Cross.ColdMisses = statCounter(Resp, "resultStoreMisses");
        }
      }
      {
        api::Server::Config Cfg;
        Cfg.Workers = 1;
        api::Server Server(Cfg);
        submitAndWait(Server, Line(Gen1, 2)); // feed the store, untimed
        Clock::time_point Start = Clock::now();
        std::string Resp = submitAndWait(Server, Line(Gen2, 3));
        Cross.WarmMs += msSince(Start);
        Server.stop();
        Cross.Identical =
            Cross.Identical && serverResultBytes(Resp) == Expected;
        if (R == 0) {
          Cross.WarmHits = statCounter(Resp, "resultStoreHits");
          Cross.WarmMisses = statCounter(Resp, "resultStoreMisses");
        }
      }
    }
  }

  // -- incremental: edit-corpus replay against a recorded baseline -------
  // For each edited program, three legs re-analyze it EditReps times: cold
  // (one engine, no reuse at all), warm (a fresh engine that has just
  // analyzed the base program, with no baseline), and incremental (the
  // same, plus the baseline recorded on the base program). The solver
  // keeps no state between runs, so warm measures the same work as cold
  // on a fresh engine. Every leg's rendered result must match the cold
  // one; the single-statement edits carry the >=5x target of incremental
  // over warm.
  struct EditLeg {
    std::string Name;
    bool SingleStmt;
    double ColdMs = 0, WarmMs = 0, IncMs = 0;
    engine::DeltaMetrics Delta;
  };
  std::vector<EditLeg> EditLegs;
  bool IncIdentical = true;
  double IncSectionMs = 0;
  unsigned EditReps = std::max(1u, CorpusReps * 10);
  {
    auto ReadEdit = [](const char *Name) {
      std::ifstream In(std::string(OMEGA_EDITS_DIR) + "/" + Name + ".tiny");
      std::ostringstream SS;
      SS << In.rdbuf();
      return SS.str();
    };
    ir::AnalyzedProgram BaseAP = ir::analyzeSource(ReadEdit("base"));
    const struct {
      const char *Name;
      bool SingleStmt;
    } Edits[] = {{"rename", false},
                 {"bound", false},
                 {"stmt-new", true},
                 {"stmt-edit", true},
                 {"loop-del", false},
                 {"interchange", false},
                 {"rename-reorder", false}};
    for (const auto &E : Edits) {
      ir::AnalyzedProgram EditAP = ir::analyzeSource(ReadEdit(E.Name));
      if (!BaseAP.ok() || !EditAP.ok())
        continue;
      EditLeg Leg;
      Leg.Name = E.Name;
      Leg.SingleStmt = E.SingleStmt;

      engine::AnalysisRequest ColdReq;
      ColdReq.Jobs = 1;
      engine::DependenceEngine ColdEngine(ColdReq);
      std::string ColdRender;
      Clock::time_point Start = Clock::now();
      for (unsigned R = 0; R != EditReps; ++R) {
        engine::AnalysisResult Result = ColdEngine.analyze(EditAP);
        if (R == 0)
          ColdRender = renderResult(Result);
      }
      Leg.ColdMs = msSince(Start);

      // Warm and incremental legs share a setup: a fresh engine that has
      // analyzed the base program once (the state a long-lived server is
      // in when the edit arrives). The engine is rebuilt each rep, so rep
      // N never rides on rep N-1's baseline.
      auto RunLeg = [&](bool UseBaseline, double &OutMs) {
        std::string Render;
        double Total = 0;
        for (unsigned R = 0; R != EditReps; ++R) {
          engine::AnalysisRequest WReq;
          WReq.Jobs = 1;
          WReq.BuildBaseline = UseBaseline;
          engine::DependenceEngine Engine(WReq);
          engine::AnalysisResult BaseRes = Engine.analyze(BaseAP);
          engine::AnalysisRequest EReq = WReq;
          EReq.Baseline = UseBaseline ? BaseRes.Baseline.get() : nullptr;
          Engine.applyOptions(EReq);
          Clock::time_point LegStart = Clock::now();
          engine::AnalysisResult Result = Engine.analyze(EditAP);
          Total += msSince(LegStart);
          if (R == 0) {
            Render = renderResult(Result);
            if (UseBaseline)
              Leg.Delta = Result.Delta;
          }
        }
        OutMs = Total;
        IncIdentical = IncIdentical && Render == ColdRender;
      };
      RunLeg(/*UseBaseline=*/false, Leg.WarmMs);
      RunLeg(/*UseBaseline=*/true, Leg.IncMs);
      IncSectionMs += Leg.ColdMs + Leg.WarmMs + Leg.IncMs;
      EditLegs.push_back(std::move(Leg));
    }
  }
  double SingleStmtSpeedup = 0;
  {
    bool First = true;
    for (const EditLeg &L : EditLegs)
      if (L.SingleStmt && L.IncMs > 0) {
        double S = L.WarmMs / L.IncMs;
        SingleStmtSpeedup = First ? S : std::min(SingleStmtSpeedup, S);
        First = false;
      }
  }

  // -- transform.pipeline: statement PDGs + PS-DSWP stage partitioning ---
  // Planning runs over the kernel corpus plus the shipped pipeline4
  // showcase. The per-loop stage counts and parallel flags are exact,
  // machine-independent gates; the schema-5 documents with the pipeline
  // block must be byte-identical for jobs 1 and jobs 4.
  struct PipelineLoopNumbers {
    std::string Key; ///< "<kernel>/<ordinal>:<loop var>@<depth>"
    uint64_t Stages = 0;
    bool Parallel = false;
  };
  std::vector<PipelineLoopNumbers> PipeLoops;
  bool PipeIdentical = true;
  double PipeMs = 0;
  unsigned PipeReps = std::max(1u, CorpusReps * 10);
  {
    std::vector<std::pair<std::string, ir::AnalyzedProgram>> Named;
    for (const kernels::Kernel &K : kernels::corpus()) {
      ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
      if (AP.ok())
        Named.emplace_back(K.Name, std::move(AP));
    }
    {
      std::ifstream In(std::string(OMEGA_EXAMPLES_DIR) + "/pipeline4.tiny");
      std::ostringstream SS;
      SS << In.rdbuf();
      ir::AnalyzedProgram AP = ir::analyzeSource(SS.str());
      if (AP.ok())
        Named.emplace_back("pipeline4", std::move(AP));
    }

    engine::AnalysisRequest P1;
    P1.Jobs = 1;
    engine::AnalysisRequest P4 = P1;
    P4.Jobs = 4;
    std::vector<engine::AnalysisResult> Analyses;
    for (auto &[Name, AP] : Named) {
      engine::DependenceEngine E1(P1), E4(P4);
      engine::AnalysisResult R1 = E1.analyze(AP);
      engine::AnalysisResult R4 = E4.analyze(AP);
      PipeIdentical = PipeIdentical && api::renderResult(R1, &AP) ==
                                           api::renderResult(R4, &AP);
      unsigned Ordinal = 0;
      for (const transform::PipelineFacts &F :
           transform::analyzePipelines(AP, R1)) {
        PipelineLoopNumbers N;
        N.Key = Name + "/" + std::to_string(Ordinal++) + ":" +
                F.Loop->SourceVar + "@" + std::to_string(F.Loop->Depth + 1);
        N.Stages = F.Plan.valid() ? F.Plan.Stages.size() : 0;
        N.Parallel = F.Plan.hasParallelStage();
        PipeLoops.push_back(std::move(N));
      }
      Analyses.push_back(std::move(R1));
    }

    Clock::time_point Start = Clock::now();
    for (unsigned R = 0; R != PipeReps; ++R)
      for (unsigned I = 0; I != Named.size(); ++I)
        transform::analyzePipelines(Named[I].second, Analyses[I]);
    PipeMs = msSince(Start);
  }

  std::FILE *Out = std::fopen(Path, "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open %s for writing\n", Path);
    return 1;
  }
  bench::JsonWriter W(Out);
  W.field("bench", "omega_core");
  W.field("schema", static_cast<uint64_t>(1));
#ifdef NDEBUG
  W.field("asserts", "off");
#else
  W.field("asserts", "on");
#endif
  W.beginObject("core_ops");
  W.field("reps", static_cast<uint64_t>(CoreReps));
  W.field("wall_ms", CoreMs);
  bench::writeStatsJson(W, "stats", CoreCtx.Stats);
  W.endObject();
  W.beginObject("corpus");
  W.field("reps", static_cast<uint64_t>(CorpusReps));
  W.field("kernels", static_cast<uint64_t>(Programs.size()));
  W.field("wall_ms", CorpusMs);
  bench::writeStatsJson(W, "stats", CorpusStats);
  W.endObject();
  W.beginObject("server");
  W.field("requests_per_leg", static_cast<uint64_t>(ServeLines.size()));
  W.field("workers", static_cast<uint64_t>(4));
  for (int I = 0; I != 3; ++I) {
    std::string K = "clients_" + std::to_string(ClientCounts[I]);
    W.beginObject(K.c_str());
    writeServerLeg(W, "cold", ServerCold[I]);
    writeServerLeg(W, "warm", ServerWarm[I]);
    W.endObject();
  }
  W.beginObject("telemetry");
  writeServerLeg(W, "off", TeleOff);
  writeServerLeg(W, "on", TeleOn);
  W.field("overhead_pct",
          TeleOff.WallMs > 0
              ? (TeleOn.WallMs / TeleOff.WallMs - 1.0) * 100.0
              : 0.0);
  W.field("results_identical", TeleIdentical);
  W.endObject();
  W.beginObject("cross_session");
  W.field("reps", static_cast<uint64_t>(CrossReps));
  W.field("cold_wall_ms", Cross.ColdMs);
  W.field("warm_wall_ms", Cross.WarmMs);
  W.field("speedup", Cross.WarmMs > 0 ? Cross.ColdMs / Cross.WarmMs : 0.0);
  W.field("cold_store_hits", Cross.ColdHits);
  W.field("cold_store_misses", Cross.ColdMisses);
  W.field("warm_store_hits", Cross.WarmHits);
  W.field("warm_store_misses", Cross.WarmMisses);
  W.field("results_identical", Cross.Identical);
  W.endObject();
  W.field("results_identical", ServerIdentical);
  W.endObject();
  W.beginObject("incremental");
  W.field("reps", static_cast<uint64_t>(EditReps));
  for (const EditLeg &L : EditLegs) {
    W.beginObject(L.Name.c_str());
    W.field("single_stmt", L.SingleStmt);
    W.field("cold_wall_ms", L.ColdMs);
    W.field("warm_wall_ms", L.WarmMs);
    W.field("incremental_wall_ms", L.IncMs);
    W.field("speedup_vs_warm", L.IncMs > 0 ? L.WarmMs / L.IncMs : 0.0);
    W.field("pairs_reused", L.Delta.PairsReused);
    W.field("pairs_resolved", L.Delta.PairsResolved);
    W.field("pairs_new", L.Delta.PairsNew);
    W.field("pairs_removed", L.Delta.PairsRemoved);
    W.field("kill_groups_reused", L.Delta.KillGroupsReused);
    W.field("kill_groups_total", L.Delta.KillGroupsTotal);
    W.endObject();
  }
  W.field("single_stmt_speedup", SingleStmtSpeedup);
  W.field("results_identical", IncIdentical);
  W.endObject();
  W.beginObject("transform.pipeline");
  W.field("reps", static_cast<uint64_t>(PipeReps));
  W.field("wall_ms", PipeMs);
  W.field("results_identical", PipeIdentical);
  W.beginObject("loops");
  for (const PipelineLoopNumbers &N : PipeLoops) {
    W.beginObject(N.Key.c_str());
    W.field("stages", N.Stages);
    W.field("parallel", N.Parallel);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  W.field("total_wall_ms", CoreMs + CorpusMs);
  W.field("peak_rss_kb", bench::peakRSSKB());
  W.finish();
  std::fclose(Out);
  std::printf("core_ops %.1f ms, corpus %.1f ms -> %s\n", CoreMs, CorpusMs,
              Path);
  std::printf("server: 1/4/16 clients warm %.0f/%.0f/%.0f req/s "
              "(results %s)\n",
              ServerWarm[0].Rps, ServerWarm[1].Rps, ServerWarm[2].Rps,
              ServerIdentical ? "identical" : "DIFFER");
  std::printf("telemetry: off %.1f ms, on %.1f ms (%+.1f%%, results %s)\n",
              TeleOff.WallMs, TeleOn.WallMs,
              TeleOff.WallMs > 0
                  ? (TeleOn.WallMs / TeleOff.WallMs - 1.0) * 100.0
                  : 0.0,
              TeleIdentical ? "identical" : "DIFFER");
  std::printf("cross_session: cold %.1f ms, warm-renamed %.1f ms (%.2fx), "
              "store %llu/%llu warm hits/misses (results %s)\n",
              Cross.ColdMs, Cross.WarmMs,
              Cross.WarmMs > 0 ? Cross.ColdMs / Cross.WarmMs : 0.0,
              static_cast<unsigned long long>(Cross.WarmHits),
              static_cast<unsigned long long>(Cross.WarmMisses),
              Cross.Identical ? "identical" : "DIFFER");
  std::printf("incremental: %.1f ms over %zu edits, single-statement "
              "speedup %.2fx vs warm (results %s)\n",
              IncSectionMs, EditLegs.size(), SingleStmtSpeedup,
              IncIdentical ? "identical" : "DIFFER");
  {
    unsigned Planned = 0, ParallelLoops = 0;
    for (const PipelineLoopNumbers &N : PipeLoops) {
      Planned += N.Stages >= 2;
      ParallelLoops += N.Parallel;
    }
    std::printf("transform.pipeline: %.1f ms, %u/%zu loops planned, "
                "%u with a parallel stage (jobs 1 vs 4 results %s)\n",
                PipeMs, Planned, PipeLoops.size(), ParallelLoops,
                PipeIdentical ? "identical" : "DIFFER");
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = nullptr;
  unsigned CoreReps = 400, CorpusReps = 3;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--json") && I + 1 < argc)
      JsonPath = argv[++I];
    else if (!std::strcmp(argv[I], "--core-reps") && I + 1 < argc)
      CoreReps = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--corpus-reps") && I + 1 < argc)
      CorpusReps = static_cast<unsigned>(std::atoi(argv[++I]));
  }
  if (JsonPath)
    return runJsonMode(JsonPath, CoreReps, CorpusReps);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
