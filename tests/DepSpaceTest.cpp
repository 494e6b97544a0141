//===- tests/DepSpaceTest.cpp ---------------------------------------------===//
//
// Unit tests for the DepSpace layout and constraint builders underneath
// every dependence question.
//
//===----------------------------------------------------------------------===//

#include "deps/DepSpace.h"

#include "omega/Projection.h"
#include "omega/Satisfiability.h"

#include <gtest/gtest.h>

using namespace omega;
using namespace omega::deps;
using omega::ir::Access;
using omega::ir::AnalyzedProgram;
using omega::ir::analyzeSource;

namespace {

const Access *findAccess(const AnalyzedProgram &AP, const std::string &Array,
                         bool IsWrite) {
  for (const Access &A : AP.Accesses)
    if (A.Array == Array && A.IsWrite == IsWrite)
      return &A;
  return nullptr;
}

} // namespace

TEST(DepSpace, LayoutHasIterAndSymbolVars) {
  AnalyzedProgram AP = analyzeSource("symbolic n, m;\n"
                                     "for i := 1 to n do\n"
                                     "  for j := 1 to m do\n"
                                     "    a(i+j) := a(i);\n"
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  const Access *R = findAccess(AP, "a", false);
  DepSpace Space(AP, {W, R});
  // 2 iter vars per instance + n + m.
  EXPECT_EQ(Space.base().getNumVars(), 6u);
  EXPECT_EQ(Space.symConstVars().size(), 2u);
  EXPECT_NE(Space.iterVar(0, 0), Space.iterVar(1, 0));
  EXPECT_NE(Space.iterVar(0, 1), Space.iterVar(1, 1));
}

TEST(DepSpace, IterationSpaceEncodesBounds) {
  OmegaContext Ctx;
  AnalyzedProgram AP = analyzeSource("for i := 3 to 7 do\n"
                                     "  a(i) := 0;\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  DepSpace Space(AP, {W});
  Problem P = Space.base();
  Space.addIterationSpace(P, 0);
  IntRange R = computeVarRange(P, Space.iterVar(0, 0), Ctx);
  EXPECT_EQ(R.Min, 3);
  EXPECT_EQ(R.Max, 7);
}

TEST(DepSpace, StrideAddsExistential) {
  OmegaContext Ctx;
  AnalyzedProgram AP = analyzeSource("for i := 1 to 9 step 4 do\n"
                                     "  a(i) := 0;\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  DepSpace Space(AP, {W});
  Problem P = Space.base();
  Space.addIterationSpace(P, 0);
  // i in {1, 5, 9}: pin and test.
  for (int64_t V = 0; V <= 10; ++V) {
    Problem Pinned = P;
    Pinned.addEQ({{Space.iterVar(0, 0), 1}}, -V);
    EXPECT_EQ(isSatisfiable(std::move(Pinned), Ctx), V == 1 || V == 5 || V == 9)
        << "i = " << V;
  }
}

TEST(DepSpace, SubscriptEqualityCouplesInstances) {
  OmegaContext Ctx;
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  a(2*i) := a(i+3);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  const Access *R = findAccess(AP, "a", false);
  DepSpace Space(AP, {W, R});
  Problem P = Space.base();
  Space.addIterationSpace(P, 0);
  Space.addIterationSpace(P, 1);
  Space.addSubscriptsEqual(P, 0, 1);
  // 2*i == j + 3: pin i = 4 => j = 5.
  P.addEQ({{Space.iterVar(0, 0), 1}}, -4);
  IntRange R2 = computeVarRange(P, Space.iterVar(1, 0), Ctx);
  EXPECT_EQ(R2.Min, 5);
  EXPECT_EQ(R2.Max, 5);
}

TEST(DepSpace, PrecedesCasesCountAndShape) {
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  for j := 1 to n do\n"
                                     "    a(i,j) := a(i,j) + 1;\n"
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  const Access *R = findAccess(AP, "a", false);

  // Read -> write: two carried levels plus the loop-independent case
  // (the read textually precedes the write).
  DepSpace SpaceRW(AP, {R, W});
  std::vector<Problem> Cases =
      SpaceRW.precedesCases(SpaceRW.base(), 0, 1);
  EXPECT_EQ(Cases.size(), 3u);

  // Write -> read: only the two carried levels.
  DepSpace SpaceWR(AP, {W, R});
  EXPECT_EQ(SpaceWR.precedesCases(SpaceWR.base(), 0, 1).size(), 2u);
}

TEST(DepSpace, DistanceVarsMeasureDifferences) {
  OmegaContext Ctx;
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  a(i) := a(i-3);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  const Access *R = findAccess(AP, "a", false);
  DepSpace Space(AP, {W, R});
  Problem P = Space.base();
  Space.addIterationSpace(P, 0);
  Space.addIterationSpace(P, 1);
  Space.addSubscriptsEqual(P, 0, 1);
  std::vector<VarId> Deltas = Space.addDistanceVars(P, 0, 1);
  ASSERT_EQ(Deltas.size(), 1u);
  IntRange R2 = computeVarRange(P, Deltas.front(), Ctx);
  EXPECT_EQ(R2.Min, 3);
  EXPECT_EQ(R2.Max, 3);
}

TEST(DepSpace, SharedAndPerInstanceTerms) {
  // Q is read-only and loop-invariant, so its subscript term is shared;
  // the i*j term depends on loop variables, so it is per-instance.
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  for j := 1 to n do\n"
                                     "    a(i*j + Q(0)) := a(i*j + Q(0));\n"
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  const Access *R = findAccess(AP, "a", false);
  DepSpace Space(AP, {W, R});
  unsigned Shared = 0, PerInstance = 0;
  for (const DepSpace::TermVar &T : Space.termVars())
    (T.Inst < 0 ? Shared : PerInstance)++;
  EXPECT_EQ(Shared, 2u);      // Q(0): one per textual occurrence, shared
  EXPECT_EQ(PerInstance, 2u); // i*j per instance
}

TEST(DepSpace, ThreeInstanceSpaces) {
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  a(i) := a(i-1);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  const Access *R = findAccess(AP, "a", false);
  DepSpace Space(AP, {W, W, R});
  EXPECT_EQ(Space.getNumInstances(), 3u);
  // Three distinct iteration variables.
  EXPECT_NE(Space.iterVar(0, 0), Space.iterVar(1, 0));
  EXPECT_NE(Space.iterVar(1, 0), Space.iterVar(2, 0));
}
