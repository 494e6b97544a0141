//===- tests/DifferentialTest.cpp -----------------------------------------===//
//
// Ground-truth differential testing over the kernel corpus: run each
// kernel through the reference interpreter with pinned symbolic
// constants, derive the *actual* dependences from the execution trace,
// and check the whole analysis stack against them (see DiffHarness.h):
//
//  * soundness of the memory-based analysis: every executed pair of
//    conflicting accesses must be covered by a computed dependence split
//    whose carried level and distance ranges admit the observed distance;
//  * soundness of the Section 4 kill/cover/refine machinery: every
//    *value-based* flow (last write before a read) must be admitted by a
//    split that is still alive.
//
// A false kill, a wrong refinement, or a dropped dependence anywhere in
// the stack shows up here as a concrete witness.
//
//===----------------------------------------------------------------------===//

#include "DiffHarness.h"

#include "kernels/Kernels.h"

#include <gtest/gtest.h>

using namespace omega;
using namespace omega::testutil;

namespace {

struct DiffCase {
  const char *Name;
  const char *Source;
  std::map<std::string, int64_t> Symbols;
};

// Print a case as its kernel name. The default printer dumps the case's
// bytes, pointers included, so the test names would change from build to
// build.
void PrintTo(const DiffCase &Case, std::ostream *OS) { *OS << Case.Name; }

class DifferentialTest : public ::testing::TestWithParam<DiffCase> {};

} // namespace

TEST_P(DifferentialTest, TraceWitnessesAreAdmitted) {
  const DiffCase &Case = GetParam();
  ir::AnalyzedProgram AP = ir::analyzeSource(Case.Source);
  ASSERT_TRUE(AP.ok()) << Case.Name;
  unsigned Checked = checkTraceWitnesses(AP, Case.Symbols, Case.Name);
  EXPECT_GT(Checked, 0u) << Case.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, DifferentialTest,
    ::testing::Values(
        DiffCase{"example1", kernels::example1(), {{"n", 3}}},
        DiffCase{"example2", kernels::example2(), {{"n", 5}, {"m", 3}}},
        DiffCase{"example3", kernels::example3(), {{"n", 4}, {"m", 5}}},
        DiffCase{"example4", kernels::example4(), {{"n", 4}, {"m", 7}}},
        DiffCase{"example5", kernels::example5(), {{"n", 4}, {"m", 6}}},
        DiffCase{"example6", kernels::example6(), {{"n", 5}, {"m", 4}}},
        DiffCase{"example7",
                 kernels::example7(),
                 {{"n", 6}, {"m", 3}, {"x", 2}, {"y", 1}}},
        DiffCase{"example8", kernels::example8(), {{"n", 5}}},
        DiffCase{"example10", kernels::example10(), {{"n", 3}}},
        DiffCase{"example11", kernels::example11(), {{"n", 3}}},
        DiffCase{"wavefront",
                 "symbolic n, m;\n"
                 "for i := 2 to n do\n"
                 "  for j := 2 to m do\n"
                 "    a(i,j) := a(i-1,j) + a(i,j-1);\n"
                 "  endfor\n"
                 "endfor\n",
                 {{"n", 5}, {"m", 5}}},
        DiffCase{"lu",
                 "symbolic n;\n"
                 "for k := 1 to n do\n"
                 "  for i := k+1 to n do\n"
                 "    a(i,k) := a(i,k) + a(k,k);\n"
                 "  endfor\n"
                 "  for i := k+1 to n do\n"
                 "    for j := k+1 to n do\n"
                 "      a(i,j) := a(i,j) - a(i,k) * a(k,j);\n"
                 "    endfor\n"
                 "  endfor\n"
                 "endfor\n",
                 {{"n", 4}}},
        DiffCase{"double_buffer",
                 "symbolic n;\n"
                 "for t := 1 to 6 do\n"
                 "  for i := 1 to n do\n"
                 "    b(i) := a(i);\n"
                 "  endfor\n"
                 "  for i := 1 to n do\n"
                 "    a(i) := b(i) + 1;\n"
                 "  endfor\n"
                 "endfor\n",
                 {{"n", 4}}},
        DiffCase{"privatizable",
                 "symbolic n;\n"
                 "for i := 1 to n do\n"
                 "  t(0) := a(i);\n"
                 "  b(i) := t(0) + t(0);\n"
                 "endfor\n",
                 {{"n", 6}}},
        DiffCase{"inplace_stencil",
                 "symbolic n;\n"
                 "for t := 1 to 5 do\n"
                 "  for i := 2 to n-1 do\n"
                 "    a(i) := a(i-1) + a(i+1);\n"
                 "  endfor\n"
                 "endfor\n",
                 {{"n", 6}}},
        DiffCase{"strides",
                 "symbolic n;\n"
                 "for i := 1 to n step 2 do\n"
                 "  a(i) := a(i-2);\n"
                 "endfor\n"
                 "for i := 1 to n do\n"
                 "  c(i) := a(i);\n"
                 "endfor\n",
                 {{"n", 9}}},
        DiffCase{"downward",
                 "symbolic n;\n"
                 "for k := n to 1 step -1 do\n"
                 "  a(k) := a(k+1);\n"
                 "endfor\n",
                 {{"n", 6}}},
        DiffCase{"cholsky",
                 kernels::cholsky(),
                 {{"N", 3},
                  {"M", 2},
                  {"NMAT", 1},
                  {"NRHS", 1},
                  {"EPS", 1}}}));

namespace {

/// The corpus entries past the hand-listed ones run with one shared
/// symbol binding; kernels whose symbols are absent simply skip.
const std::map<std::string, int64_t> CorpusSymbols = {
    {"n", 4}, {"m", 4}, {"p", 3}, {"w", 2}, {"k", 1},
    {"N", 2}, {"M", 2}, {"NMAT", 1}, {"NRHS", 1}, {"EPS", 1},
    {"x", 1}, {"y", 1}, {"maxB", 3},
};

class CorpusSweepTest : public ::testing::Test {};

} // namespace

TEST_F(CorpusSweepTest, EveryKernelPassesDifferentialCheck) {
  for (const kernels::Kernel &K : kernels::corpus()) {
    ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
    ASSERT_TRUE(AP.ok()) << K.Name;
    checkTraceWitnesses(AP, CorpusSymbols, K.Name);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "kernel: " << K.Name;
      return;
    }
  }
}
