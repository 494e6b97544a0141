//===- tests/CounterGoldenTest.cpp - Exact solver-counter gates -----------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// How hard the solver works, per program, pinned exactly. Every row holds
// the OmegaStats counters of one cold, serial analysis, the program's
// Figure 6 pair classes and kill split, and the stage plan of each of its
// loops. These numbers do not depend on the machine, so any change in
// them is a change in the algorithm: a cost model gets reviewed here,
// while wall times live only in perfbench/. Nor do they depend on the
// schedule: every program row is measured again on four workers and must
// match field for field.
//
// The rows cover the 30 kernels, examples/programs/pipeline4.tiny, one
// repetition of a synthetic suite of core operations, and thirteen
// generated programs under tests/corpus/costly/ -- the only rows that pin
// splinters, dark shadows and mod-hat steps in the dependence analyzer,
// because the kernels run none of them.
//
// When a change deliberately moves a counter, the failure prints the
// measured row; paste it in and explain the delta in the commit.
//
//===----------------------------------------------------------------------===//

#include "engine/DependenceEngine.h"
#include "kernels/Kernels.h"
#include "omega/Gist.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

using namespace omega;

namespace {

/// The table's columns: the OmegaStats counters in declaration order
/// (result-store counters aside; a cold run has none), then the Figure 6
/// pair classes and the kill candidates resolved quickly or by the Omega
/// test.
const char *const FieldNames[] = {
    "sat_calls",          "projection_calls",    "gist_calls",
    "exact_eliminations", "inexact_eliminations", "splinters_explored",
    "dark_shadow_decided", "real_shadow_decided", "mod_hat_substitutions",
    "gist_sat_tests",     "pairs_fast",          "pairs_general",
    "pairs_split",        "kills_quick",         "kills_omega"};
constexpr unsigned NumFields = std::size(FieldNames);
using Counts = std::array<uint64_t, NumFields>;

unsigned column(std::string_view Name) {
  return std::find(std::begin(FieldNames), std::end(FieldNames), Name) -
         std::begin(FieldNames);
}

struct Row {
  const char *Program;
  Counts Expected;
  /// One token per loop in analyzePipelines order: `<var>@<depth>`, then
  /// `/<stages>` when the loop gets a pipeline plan, then `*` when a
  /// stage of that plan is parallel.
  const char *Loops;
};

// Counts in FieldNames order.
// clang-format off
const Row Rows[] = {
    {"cholsky",
     {898, 432, 0, 2271, 0, 0, 0, 0, 0, 0, 47, 34, 0, 21, 15},
     "J@1/2 I@2 JJ@3 L@4* L@3* L@2* JJ@2 L@3* L@2* I@1/2* K@2 L@3* JJ@3* "
     "L@4* K@2 L@3* JJ@3* L@4*"},
    {"example1",
     {16, 3, 0, 8, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 1},
     "L1@1* L1@1*"},
    {"example2",
     {132, 58, 0, 177, 0, 0, 0, 0, 0, 0, 0, 3, 1, 2, 4},
     "L1@1/2 L2@2/2* L2@2*"},
    {"example3",
     {24, 15, 0, 39, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0},
     "L1@1 L2@2"},
    {"example4",
     {24, 15, 0, 39, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0},
     "L1@1 L2@2"},
    {"example5",
     {29, 20, 0, 50, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0},
     "L1@1 L2@2"},
    {"example6",
     {21, 14, 0, 30, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0},
     "L1@1 L2@2*"},
    {"example7",
     {26, 12, 0, 57, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0},
     "L1@1 L2@2"},
    {"example8",
     {14, 6, 0, 17, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0},
     "L1@1"},
    {"example9",
     {2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     "i@1* j@2*"},
    {"example10",
     {6, 4, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     "i@1 j@2"},
    {"example11",
     {160, 92, 0, 224, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0},
     "i@1 j@2"},
    {"lu",
     {125, 67, 0, 144, 0, 0, 0, 0, 0, 0, 4, 6, 0, 1, 1},
     "k@1 i@2* i@2* j@3*"},
    {"wavefront",
     {16, 4, 0, 6, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0},
     "i@1 j@2"},
    {"skewed_wavefront",
     {16, 4, 0, 4, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0},
     "i@1 j@2*"},
    {"cholesky_dense",
     {184, 82, 0, 202, 0, 0, 0, 0, 0, 0, 9, 9, 0, 3, 3},
     "k@1 i@2* j@2* i@3*"},
    {"privatizable",
     {45, 21, 0, 40, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0},
     "i@1/2*"},
    {"inplace_stencil",
     {41, 27, 0, 45, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0},
     "t@1 i@2"},
    {"reduction_chain",
     {40, 13, 0, 21, 0, 0, 0, 0, 0, 0, 0, 4, 0, 2, 2},
     "i@1"},
    {"double_buffer",
     {37, 19, 0, 55, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0},
     "t@1 i@2* i@2*"},
    {"triangles_strides",
     {32, 16, 0, 32, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0},
     "i@1 i@1* j@2"},
    {"matmul",
     {62, 41, 0, 128, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 1},
     "i@1/2* j@2/2* k@3"},
    {"transpose_copy",
     {12, 2, 0, 16, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0},
     "i@1* j@2* i@1* j@2*"},
    {"gauss_seidel",
     {114, 89, 0, 205, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0},
     "t@1 i@2 j@3"},
    {"jacobi_two_array",
     {46, 24, 0, 69, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0},
     "t@1 i@2* i@2*"},
    {"prefix_sums",
     {30, 6, 0, 16, 0, 0, 0, 0, 0, 0, 2, 4, 0, 4, 0},
     "i@1 i@1*"},
    {"banded_solve",
     {34, 19, 0, 49, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0},
     "i@1 j@2"},
    {"convolution",
     {43, 23, 0, 67, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 1},
     "i@1/2* j@2"},
    {"odd_even_phases",
     {97, 42, 0, 88, 0, 0, 0, 0, 0, 0, 4, 4, 0, 0, 0},
     "t@1 i@2* i@2*"},
    {"diagonal_sweep",
     {16, 4, 0, 4, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0},
     "d@1 i@2*"},
    {"pipeline4",
     {77, 37, 0, 67, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0},
     "i@1/4*"},
    {"seed2_502",
     {3354, 264, 0, 1459, 0, 1441, 0, 0, 372, 0, 2, 3, 3, 0, 4},
     "i@1 j@2 k@3 i@1* j@2*"},
    {"seed1_234",
     {5840, 1087, 0, 4420, 79, 2017, 31, 39, 3502, 0, 0, 0, 15, 0, 30},
     "i@1 j@2 k@3"},
    {"seed1_125",
     {1718, 174, 0, 1214, 213, 614, 133, 70, 305, 0, 0, 0, 3, 0, 2},
     "i@1 j@2 k@3/2*"},
    {"seed1_353",
     {3385, 583, 0, 2035, 4, 1003, 4, 0, 637, 0, 12, 1, 7, 3, 10},
     "i@1 j@2 k@3 i@1*"},
    {"seed1_247",
     {2841, 409, 0, 919, 11, 1356, 3, 8, 681, 0, 1, 0, 7, 3, 3},
     "i@1 j@2 k@3"},
    {"seed1_211",
     {2331, 238, 0, 310, 103, 2713, 80, 22, 583, 0, 4, 2, 6, 4, 10},
     "i@1 j@2 k@3 i@1* j@2*"},
    {"seed1_337",
     {2109, 474, 0, 1389, 6, 675, 0, 6, 302, 0, 7, 3, 6, 6, 8},
     "i@1 j@2 k@3 i@1*"},
    {"seed1_201",
     {1704, 374, 0, 1121, 87, 902, 78, 7, 276, 0, 8, 4, 6, 0, 8},
     "i@1 j@2 k@3 i@1* j@2*"},
    {"seed1_100",
     {1838, 314, 0, 1101, 238, 888, 211, 17, 335, 0, 8, 4, 4, 0, 8},
     "i@1/2 j@2/2* k@3/2* i@1*"},
    {"seed1_395",
     {1806, 187, 0, 231, 45, 1797, 34, 10, 1004, 0, 13, 7, 4, 4, 6},
     "i@1 j@2 k@3 i@1*"},
    {"seed1_82",
     {2076, 205, 0, 418, 321, 1157, 303, 14, 472, 0, 0, 0, 3, 0, 6},
     "i@1 j@2 k@3"},
    {"seed1_25",
     {742, 53, 0, 305, 4, 255, 4, 0, 74, 0, 2, 1, 1, 0, 0},
     "i@1 j@2 k@3 i@1* j@2*"},
    {"seed2_268",
     {5335, 770, 0, 4492, 498, 1695, 379, 110, 695, 0, 1, 2, 9, 0, 20},
     "i@1 j@2 k@3"},
    {"core_ops",
     {25, 3, 1, 42, 3, 18, 2, 0, 50, 3, 0, 0, 0, 0, 0},
     ""},
};
// clang-format on

/// The first kernels::corpus().size() rows are the kernels, in corpus
/// order; pipeline4 follows them.
constexpr unsigned NumKernels = 30;

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.is_open()) << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string sourceOf(const std::string &Program) {
  for (const kernels::Kernel &K : kernels::corpus())
    if (Program == K.Name)
      return K.Source;
  if (Program == "pipeline4")
    return readFile(std::string(OMEGA_EXAMPLES_DIR) + "/pipeline4.tiny");
  return readFile(std::string(OMEGA_COSTLY_DIR) + "/" + Program + ".tiny");
}

void putStats(Counts &C, const OmegaStats &S) {
  const uint64_t Stats[] = {
      S.SatisfiabilityCalls, S.ProjectionCalls,     S.GistCalls,
      S.ExactEliminations,   S.InexactEliminations, S.SplintersExplored,
      S.DarkShadowDecided,   S.RealShadowDecided,   S.ModHatSubstitutions,
      S.GistSatTests};
  std::copy(std::begin(Stats), std::end(Stats), C.begin());
}

struct Measured {
  Counts Got{};
  std::string Loops;
};

/// One cold analysis of \p Source on a fresh engine with \p Jobs workers.
Measured measureProgram(const std::string &Source, unsigned Jobs) {
  Measured M;
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  EXPECT_TRUE(AP.ok());
  engine::AnalysisRequest Req;
  Req.Jobs = Jobs;
  engine::DependenceEngine Engine(Req);
  engine::AnalysisResult R = Engine.analyze(AP);
  putStats(M.Got, R.Stats);
  for (const analysis::PairRecord &P : R.Pairs)
    ++M.Got[column(!P.UsedGeneralTest ? "pairs_fast"
                   : P.SplitVectors  ? "pairs_split"
                                     : "pairs_general")];
  for (const analysis::KillRecord &K : R.Kills)
    ++M.Got[column(K.UsedOmega ? "kills_omega" : "kills_quick")];
  for (const transform::PipelineFacts &F :
       transform::analyzePipelines(AP, R)) {
    if (!M.Loops.empty())
      M.Loops += ' ';
    M.Loops += F.Loop->SourceVar + "@" + std::to_string(F.Loop->Depth + 1);
    if (F.Plan.valid())
      M.Loops += "/" + std::to_string(F.Plan.Stages.size());
    if (F.Plan.hasParallelStage())
      M.Loops += '*';
  }
  return M;
}

//===----------------------------------------------------------------------===//
// core_ops: satisfiability on the exact, dark-shadow and mod-hat paths,
// projection with and without splinters, and one gist
//===----------------------------------------------------------------------===//

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

/// Two 4-deep triangular iteration spaces coupled by subscript
/// equalities: the shape the engine feeds the core thousands of times.
Problem triangularPair8D() {
  Problem P;
  std::vector<VarId> I, J;
  for (int D = 0; D != 4; ++D)
    I.push_back(P.addVar("i" + std::to_string(D)));
  for (int D = 0; D != 4; ++D)
    J.push_back(P.addVar("j" + std::to_string(D)));
  for (int D = 0; D != 4; ++D) {
    P.addGEQ({{I[D], 1}}, -1);
    P.addGEQ({{I[D], -1}}, 40);
    P.addGEQ({{J[D], 1}}, -1);
    P.addGEQ({{J[D], -1}}, 40);
    if (D) {
      P.addGEQ({{I[D], 1}, {I[D - 1], -1}}, 0);
      P.addGEQ({{J[D], 1}, {J[D - 1], -1}}, 0);
    }
  }
  P.addEQ({{I[0], 1}, {J[0], -1}}, -1);
  P.addEQ({{I[1], 1}, {J[2], -1}}, 0);
  P.addGEQ({{J[3], 1}, {I[3], -1}}, -1);
  return P;
}

Problem modHatChain() {
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  VarId Z = P.addVar("z");
  P.addEQ({{X, 7}, {Y, 12}, {Z, 31}}, -17);
  P.addGEQ({{X, 1}}, 100);
  P.addGEQ({{X, -1}}, 100);
  P.addGEQ({{Y, 1}}, 100);
  P.addGEQ({{Z, -1}}, 100);
  return P;
}

Measured measureCoreOps() {
  OmegaContext Ctx;
  for (const Problem &P :
       {boxed4D(), darkShadowClassic(), triangularPair8D(), modHatChain()})
    isSatisfiable(P, Ctx);

  Problem Paper;
  VarId A = Paper.addVar("a");
  VarId B = Paper.addVar("b");
  Paper.addGEQ({{A, 1}}, 0);
  Paper.addGEQ({{A, -1}}, 5);
  Paper.addGEQ({{A, 1}, {B, -1}}, -1);
  Paper.addGEQ({{A, -1}, {B, 5}}, 0);
  projectOnto(Paper, {A}, Ctx);

  Problem Splinter;
  VarId X = Splinter.addVar("x");
  VarId Y = Splinter.addVar("y");
  Splinter.addGEQ({{Y, 3}, {X, -1}}, -5);
  Splinter.addGEQ({{Y, -3}, {X, 1}}, 6);
  projectOnto(Splinter, {X}, Ctx);
  projectOnto(triangularPair8D(), {0, 1, 2, 3}, Ctx);

  Problem Layout;
  VarId GX = Layout.addVar("x");
  VarId GY = Layout.addVar("y");
  Problem P = Layout.cloneLayout();
  P.addGEQ({{GX, 1}}, 0);
  P.addGEQ({{GX, 1}, {GY, 1}}, -2);
  P.addGEQ({{GX, -1}, {GY, 2}}, 30);
  Problem Given = Layout.cloneLayout();
  Given.addGEQ({{GX, 1}}, -1);
  Given.addGEQ({{GY, 1}}, -1);
  Given.addGEQ({{GX, -1}}, 40);
  Given.addGEQ({{GY, -1}}, 40);
  gist(P, Given, Ctx);

  Measured M;
  putStats(M.Got, Ctx.Stats);
  return M;
}

std::string formatRow(const char *Program, const Measured &M) {
  std::string Out = "{\"" + std::string(Program) + "\", {";
  for (unsigned F = 0; F != NumFields; ++F)
    Out += (F ? ", " : "") + std::to_string(M.Got[F]);
  return Out + "}, \"" + M.Loops + "\"},";
}

/// Test logs name a row by its program, not by its bytes.
void PrintTo(const Row &R, std::ostream *OS) { *OS << R.Program; }

class CounterGolden : public ::testing::TestWithParam<Row> {};

} // namespace

TEST_P(CounterGolden, Counters) {
  const Row &R = GetParam();
  bool IsProgram = std::string(R.Program) != "core_ops";
  Measured M = IsProgram ? measureProgram(sourceOf(R.Program), /*Jobs=*/1)
                         : measureCoreOps();
  for (unsigned F = 0; F != NumFields; ++F)
    EXPECT_EQ(M.Got[F], R.Expected[F]) << R.Program << " " << FieldNames[F];
  EXPECT_EQ(M.Loops, R.Loops) << R.Program << " loops";
  if (HasFailure())
    ADD_FAILURE() << "measured row:\n    " << formatRow(R.Program, M);
  if (!IsProgram)
    return;
  // The same work however the tasks land on workers.
  Measured Parallel = measureProgram(sourceOf(R.Program), /*Jobs=*/4);
  for (unsigned F = 0; F != NumFields; ++F)
    EXPECT_EQ(Parallel.Got[F], M.Got[F])
        << R.Program << " " << FieldNames[F] << " at 4 jobs";
  EXPECT_EQ(Parallel.Loops, M.Loops) << R.Program << " loops at 4 jobs";
}

INSTANTIATE_TEST_SUITE_P(Programs, CounterGolden, ::testing::ValuesIn(Rows),
                         [](const ::testing::TestParamInfo<Row> &I) {
                           return std::string(I.param.Program);
                         });

// The table's kernel rows add up to the corpus-wide figures: solver work
// per cold pass, the Figure 6 classes (the paper: 417 pairs in classes
// 264/81/72, 284 quick kill tests against 54 that consulted the Omega
// test), and the pipeline plans over the kernels plus pipeline4.
TEST(CounterGoldenTotals, CorpusFigures) {
  const std::vector<kernels::Kernel> &Corpus = kernels::corpus();
  ASSERT_EQ(Corpus.size(), NumKernels);
  ASSERT_GT(std::size(Rows), NumKernels);
  for (unsigned I = 0; I != NumKernels; ++I)
    ASSERT_STREQ(Rows[I].Program, Corpus[I].Name);
  auto Total = [](const char *Field) {
    uint64_t Sum = 0;
    for (unsigned I = 0; I != NumKernels; ++I)
      Sum += Rows[I].Expected[column(Field)];
    return Sum;
  };
  EXPECT_EQ(Total("sat_calls"), 2342u);
  EXPECT_EQ(Total("projection_calls"), 1174u);
  EXPECT_EQ(Total("exact_eliminations"), 4110u);
  EXPECT_EQ(Total("pairs_fast") + Total("pairs_general") +
                Total("pairs_split"),
            173u);
  EXPECT_EQ(Total("pairs_fast"), 74u);
  EXPECT_EQ(Total("pairs_general"), 92u);
  EXPECT_EQ(Total("pairs_split"), 7u);
  EXPECT_EQ(Total("kills_quick"), 36u);
  EXPECT_EQ(Total("kills_omega"), 28u);

  ASSERT_STREQ(Rows[NumKernels].Program, "pipeline4");
  unsigned Loops = 0, Planned = 0, Parallel = 0;
  for (unsigned I = 0; I <= NumKernels; ++I) {
    std::istringstream In(Rows[I].Loops);
    for (std::string Tok; In >> Tok;) {
      ++Loops;
      Planned += Tok.find('/') != std::string::npos;
      Parallel += Tok.back() == '*';
    }
  }
  EXPECT_EQ(Loops, 87u);
  EXPECT_EQ(Planned, 9u);
  EXPECT_EQ(Parallel, 44u);
}
