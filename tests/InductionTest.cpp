//===- tests/InductionTest.cpp --------------------------------------------===//
//
// Tests for scalar recurrence recognition and its use in symbolic
// dependence analysis (the paper's Example 11 from program s141 of
// [LCD91], which no compiler in that study handled).
//
//===----------------------------------------------------------------------===//

#include "symbolic/Induction.h"

#include "kernels/Kernels.h"
#include "symbolic/SymbolicAnalysis.h"

#include <gtest/gtest.h>

using namespace omega;
using namespace omega::symbolic;
using omega::ir::Access;
using omega::ir::AnalyzedProgram;
using omega::ir::analyzeSource;

namespace {

const Access *findAccess(const AnalyzedProgram &AP, const std::string &Array,
                         bool IsWrite, const std::string &Text = "") {
  for (const Access &A : AP.Accesses)
    if (A.Array == Array && A.IsWrite == IsWrite &&
        (Text.empty() || A.Text == Text))
      return &A;
  return nullptr;
}

} // namespace

TEST(Induction, RecognizesStrictAccumulation) {
  OmegaContext Ctx;
  // Example 11's pattern: k := k + j with j >= i >= 1.
  AnalyzedProgram AP = analyzeSource(kernels::example11());
  ASSERT_TRUE(AP.ok());
  InductionInfo Info = recognizeInductions(AP, Ctx);
  const ScalarRecurrence *Rec = Info.recurrenceOf("k");
  ASSERT_NE(Rec, nullptr);
  EXPECT_EQ(Rec->Direction, Monotonicity::StrictlyIncreasing);
  EXPECT_EQ(Rec->Updates.size(), 1u);
}

TEST(Induction, NonNegativeAddendIsNonStrict) {
  OmegaContext Ctx;
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 0 to n do\n"
                                     "  k := k + i;\n" // i can be 0
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  InductionInfo Info = recognizeInductions(AP, Ctx);
  const ScalarRecurrence *Rec = Info.recurrenceOf("k");
  ASSERT_NE(Rec, nullptr);
  EXPECT_EQ(Rec->Direction, Monotonicity::Increasing);
}

TEST(Induction, DecreasingRecognized) {
  OmegaContext Ctx;
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  k := k - 2;\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  InductionInfo Info = recognizeInductions(AP, Ctx);
  const ScalarRecurrence *Rec = Info.recurrenceOf("k");
  ASSERT_NE(Rec, nullptr);
  EXPECT_EQ(Rec->Direction, Monotonicity::StrictlyDecreasing);
}

TEST(Induction, MixedSignAddendUnrecognized) {
  OmegaContext Ctx;
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 0-3 to n do\n"
                                     "  k := k + i;\n" // sign varies
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  InductionInfo Info = recognizeInductions(AP, Ctx);
  EXPECT_EQ(Info.recurrenceOf("k"), nullptr);
}

TEST(Induction, NonAccumulatingWriteUnrecognized) {
  OmegaContext Ctx;
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  k := k + 1;\n"
                                     "endfor\n"
                                     "k := 0;\n"); // a reset breaks it
  ASSERT_TRUE(AP.ok());
  InductionInfo Info = recognizeInductions(AP, Ctx);
  EXPECT_EQ(Info.recurrenceOf("k"), nullptr);
}

TEST(Induction, MultipleConsistentUpdatesMeet) {
  OmegaContext Ctx;
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  k := k + 2;\n"
                                     "  k := k + i - 1;\n" // >= 0 only
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  InductionInfo Info = recognizeInductions(AP, Ctx);
  const ScalarRecurrence *Rec = Info.recurrenceOf("k");
  ASSERT_NE(Rec, nullptr);
  EXPECT_EQ(Rec->Direction, Monotonicity::Increasing);
  EXPECT_EQ(Rec->Updates.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Example 11 end to end.
//===----------------------------------------------------------------------===//

TEST(Induction, Example11KillsCarriedSelfDependences) {
  OmegaContext Ctx;
  AnalyzedProgram AP = analyzeSource(kernels::example11());
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  const Access *R = findAccess(AP, "a", false, "a(k)");
  ASSERT_TRUE(W && R);
  AssertionDB DB;

  // k strictly increases between iterations, so a(k) never revisits a
  // location: no carried output or flow dependence at either level.
  EXPECT_FALSE(dependencePossible(AP, *W, *W, 1, DB, Ctx));
  EXPECT_FALSE(dependencePossible(AP, *W, *W, 2, DB, Ctx));
  EXPECT_FALSE(dependencePossible(AP, *W, *R, 1, DB, Ctx));
  EXPECT_FALSE(dependencePossible(AP, *W, *R, 2, DB, Ctx));

  // The loop-independent anti dependence (read then write of the same
  // instance) is real and must stay.
  EXPECT_TRUE(dependencePossible(AP, *R, *W, 0, DB, Ctx));
}

TEST(Induction, NonStrictScalarKeepsDependence) {
  OmegaContext Ctx;
  // With a possibly-zero addend the location can repeat: the carried
  // dependence must be assumed.
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 0 to n do\n"
                                     "  a(k) := a(k) + 1;\n"
                                     "  k := k + i;\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  AssertionDB DB;
  EXPECT_TRUE(dependencePossible(AP, *W, *W, 1, DB, Ctx));
}

TEST(Induction, UpdateNestedDeeperStaysNonStrict) {
  OmegaContext Ctx;
  // The update sits inside a further loop that may iterate zero times
  // (m symbolic): between outer iterations k may not change, so the
  // carried dependence survives.
  AnalyzedProgram AP = analyzeSource("symbolic n, m;\n"
                                     "for i := 1 to n do\n"
                                     "  a(k) := a(k) + 1;\n"
                                     "  for j := 1 to m do\n"
                                     "    k := k + 1;\n"
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  AssertionDB DB;
  EXPECT_TRUE(dependencePossible(AP, *W, *W, 1, DB, Ctx));
}

TEST(Induction, UpdateBeforeReadNotCountedStrict) {
  OmegaContext Ctx;
  // The update runs textually before the a(k) statement: between the
  // level-1 instances there IS still an update (the one in the later
  // iteration), but our sound syntactic rule only counts updates after
  // the earlier read, so the dependence survives; importantly it must
  // NOT be reported impossible unless justified.
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  k := k + 1;\n"
                                     "  a(k) := a(k) + 1;\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  AssertionDB DB;
  // Note: this is conservative -- the dependence is in fact impossible,
  // but the syntactic strictness rule doesn't fire here.
  EXPECT_TRUE(dependencePossible(AP, *W, *W, 1, DB, Ctx));
}
