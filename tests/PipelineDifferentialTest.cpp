//===- tests/PipelineDifferentialTest.cpp ---------------------------------===//
//
// The pipeline tier's differential battery. Two independent referees:
//
//  * the interpreter-backed schedule oracle (oracle/ScheduleOracle.h)
//    executes every pipelined schedule the planner emits -- for the whole
//    kernel/example corpus and for hundreds of seeded random programs --
//    and requires final memory to match the original program;
//  * the schema-7 "pipeline" response block must be byte-identical across
//    jobs 1 vs 4, with and without the cross-request result store, and
//    invariant under label-preserving source reformatting (comments and
//    blank lines), the same determinism gate the rest of "result" obeys.
//
// Seeds follow the fuzz convention: OMEGA_FUZZ_SEED overrides the base.
//
//===----------------------------------------------------------------------===//

#include "api/Options.h"
#include "api/Response.h"
#include "engine/DependenceEngine.h"
#include "engine/ResultStore.h"
#include "ir/Sema.h"
#include "kernels/Kernels.h"
#include "oracle/Generate.h"
#include "oracle/ScheduleOracle.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace omega;
namespace fs = std::filesystem;

namespace {

std::string readFile(const fs::path &P) {
  std::ifstream In(P);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

/// The schedule oracle over one source; returns plans checked.
unsigned checkSchedules(const std::string &Name, const std::string &Source) {
  SCOPED_TRACE(Name);
  oracle::ScheduleReport R = oracle::checkPipelineSchedules(Source);
  for (const std::string &M : R.Mismatches)
    ADD_FAILURE() << Name << ": " << M;
  return R.PlansChecked;
}

/// Renders the full schema-7 result (pipeline block included) from a
/// fresh engine run with \p Jobs workers and optional result store.
std::string renderWithPipeline(const ir::AnalyzedProgram &AP, unsigned Jobs,
                               engine::ResultStore *Store = nullptr) {
  engine::AnalysisRequest Req;
  Req.Jobs = Jobs;
  Req.Store = Store;
  engine::DependenceEngine Engine(Req);
  engine::AnalysisResult R = Engine.analyze(AP);
  return api::renderResult(R, &AP);
}

} // namespace

TEST(PipelineDifferential, CorpusSchedulesExecuteEquivalently) {
  unsigned Plans = 0;
  for (const kernels::Kernel &K : kernels::corpus())
    Plans += checkSchedules(K.Name, K.Source);
  fs::path Dir = fs::path(OMEGA_EXAMPLES_DIR);
  ASSERT_TRUE(fs::is_directory(Dir));
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    if (!E.is_regular_file() || E.path().extension() != ".tiny")
      continue;
    Plans += checkSchedules(E.path().filename().string(),
                            readFile(E.path()));
  }
  EXPECT_GT(Plans, 0u) << "corpus produced no executable pipeline plans";
}

TEST(PipelineDifferential, RandomProgramsSchedulesExecuteEquivalently) {
  // The acceptance bar: hundreds of seeded random programs, zero
  // schedule-oracle mismatches. Each failure message carries the seed.
  const unsigned Base = oracle::fuzzSeed(12345);
  unsigned Plans = 0;
  unsigned Parallel = 0;
  for (unsigned I = 0; I != 200; ++I) {
    oracle::ProgramGenerator Gen(Base + 4000000 + I);
    std::string Source = Gen.generate();
    SCOPED_TRACE("program " + std::to_string(I) + " (" +
                 oracle::seedMessage(Base) + ")\n" + Source);
    oracle::ScheduleReport R = oracle::checkPipelineSchedules(Source);
    for (const std::string &M : R.Mismatches)
      ADD_FAILURE() << M;
    Plans += R.PlansChecked;
    Parallel += R.ParallelPlans;
  }
  EXPECT_GT(Plans, 0u) << "no random program pipelined at all";
  EXPECT_GT(Parallel, 0u) << "no random plan had a parallel stage";
}

// The default options (jobs 0: every usable core), 2 and 4 jobs all
// render the --jobs 1 bytes over the corpus kernels, the edit corpus and
// the examples.
TEST(PipelineDifferential, ResponseBlockIdenticalAcrossJobs) {
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const kernels::Kernel &K : kernels::corpus())
    Programs.emplace_back(K.Name, K.Source);
  for (const char *Dir : {OMEGA_EDITS_DIR, OMEGA_EXAMPLES_DIR}) {
    ASSERT_TRUE(fs::is_directory(Dir)) << Dir;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.is_regular_file() && E.path().extension() == ".tiny")
        Programs.emplace_back(E.path().filename().string(),
                              readFile(E.path()));
  }
  ASSERT_GE(Programs.size(), 44u);
  const unsigned DefaultJobs = api::AnalysisOptions().Jobs;
  ASSERT_EQ(DefaultJobs, 0u);
  for (const auto &[Name, Source] : Programs) {
    SCOPED_TRACE(Name);
    ir::AnalyzedProgram AP = ir::analyzeSource(Source);
    ASSERT_TRUE(AP.ok());
    const std::string Serial = renderWithPipeline(AP, 1);
    for (unsigned Jobs : {DefaultJobs, 2u, 4u})
      EXPECT_EQ(renderWithPipeline(AP, Jobs), Serial) << "jobs " << Jobs;
  }
}

TEST(PipelineDifferential, ResponseBlockIdenticalWithResultStore) {
  // A cold store run, a warm store run (second pass materializes pairs
  // from the store), and a no-store run must all render the same bytes.
  fs::path File = fs::path(OMEGA_EXAMPLES_DIR) / "pipeline4.tiny";
  ir::AnalyzedProgram AP = ir::analyzeSource(readFile(File));
  ASSERT_TRUE(AP.ok());
  std::string Bare = renderWithPipeline(AP, 1);
  engine::ResultStore Store(64);
  std::string Cold = renderWithPipeline(AP, 1, &Store);
  std::string Warm = renderWithPipeline(AP, 2, &Store);
  EXPECT_EQ(Bare, Cold);
  EXPECT_EQ(Bare, Warm);
  EXPECT_NE(Bare.find("\"pipeline\": "), std::string::npos);
}

TEST(PipelineDifferential, ResponseBlockInvariantUnderReformatting) {
  // Labels come from statement order, never from source positions:
  // comments and blank lines cannot perturb the pipeline block.
  const unsigned Base = oracle::fuzzSeed(12345);
  for (unsigned I = 0; I != 25; ++I) {
    oracle::ProgramGenerator Gen(Base + 4000000 + I);
    std::string Source = Gen.generate();
    std::string Reformatted = "# metamorphic reformat\n\n" + Source + "\n\n";
    ir::AnalyzedProgram A = ir::analyzeSource(Source);
    ir::AnalyzedProgram B = ir::analyzeSource(Reformatted);
    if (!A.ok() || !B.ok())
      continue;
    SCOPED_TRACE("program " + std::to_string(I) + " (" +
                 oracle::seedMessage(Base) + ")");
    EXPECT_EQ(renderWithPipeline(A, 1), renderWithPipeline(B, 1));
  }
}

TEST(PipelineDifferential, PipelineOptInOnlyAppends) {
  // Requesting the pipeline block must not perturb the base result: the
  // schema-7 document with the block is the one without it, extended.
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::cholsky());
  ASSERT_TRUE(AP.ok());
  engine::DependenceEngine Engine;
  engine::AnalysisResult R = Engine.analyze(AP);
  std::string Without = api::renderResult(R);
  std::string With = api::renderResult(R, &AP);
  ASSERT_EQ(Without.back(), '}');
  EXPECT_EQ(With.compare(0, Without.size() - 1, Without, 0,
                         Without.size() - 1),
            0)
      << "pipeline opt-in rewrote the base result";
  EXPECT_NE(With.find(", \"pipeline\": ["), std::string::npos);
}
