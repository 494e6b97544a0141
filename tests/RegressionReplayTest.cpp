//===- tests/RegressionReplayTest.cpp -------------------------------------===//
//
// Replays every shrunk reproducer in tests/corpus/regressions/ through
// the same oracle battery that produced it (see the README there). A
// file that once exposed a bug keeps guarding against its return.
//
//===----------------------------------------------------------------------===//

#include "calc/Calc.h"
#include "omega/Satisfiability.h"
#include "oracle/CrossCheck.h"
#include "oracle/ModelOracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

using namespace omega;
namespace fs = std::filesystem;

namespace {

fs::path regressionDir() { return fs::path(OMEGA_REGRESSION_DIR); }

std::string readFile(const fs::path &P) {
  std::ifstream In(P);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

std::vector<fs::path> corpusFiles(const std::string &Ext) {
  std::vector<fs::path> Files;
  for (const fs::directory_entry &E : fs::directory_iterator(regressionDir()))
    if (E.is_regular_file() && E.path().extension() == Ext)
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

} // namespace

TEST(RegressionReplay, CorpusIsPresent) {
  ASSERT_TRUE(fs::is_directory(regressionDir()))
      << "missing " << regressionDir();
  // The corpus ships with at least one program and one calc reproducer;
  // an empty glob would make the other tests pass vacuously.
  EXPECT_FALSE(corpusFiles(".tiny").empty());
  EXPECT_FALSE(corpusFiles(".calc").empty());
}

TEST(RegressionReplay, Programs) {
  for (const fs::path &File : corpusFiles(".tiny")) {
    SCOPED_TRACE(File.filename().string());
    std::vector<std::string> Mismatches =
        oracle::crossCheckProgram(readFile(File));
    for (const std::string &M : Mismatches)
      ADD_FAILURE() << M;
  }
}

TEST(RegressionReplay, CalcScripts) {
  for (const fs::path &File : corpusFiles(".calc")) {
    SCOPED_TRACE(File.filename().string());
    calc::Calculator C;
    std::string Out = C.run(readFile(File));
    EXPECT_FALSE(C.hadError()) << Out;

    // Cross-check the reproducer's set (the shrinker always names it P):
    // a satisfiable verdict must surface a verified witness, an
    // unsatisfiable one must survive brute force over a box larger than
    // any shrunk reproducer's coefficients.
    const calc::NamedSet *Set = C.lookup("P");
    ASSERT_NE(Set, nullptr) << "reproducer defines no set named P";
    OmegaContext Ctx;
    if (isSatisfiable(Set->P, Ctx)) {
      std::optional<std::vector<int64_t>> Point = findSolution(Set->P, Ctx);
      ASSERT_TRUE(Point.has_value()) << "P is SAT but has no witness";
      EXPECT_TRUE(oracle::evalProblem(Set->P, *Point))
          << "P: witness fails the constraints";
    } else {
      EXPECT_FALSE(oracle::bruteForceSat(Set->P, /*Box=*/12))
          << "P: claimed UNSAT but brute force found a point";
    }
  }
}
