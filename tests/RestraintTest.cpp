//===- tests/RestraintTest.cpp --------------------------------------------===//
//
// Tests for restraint-vector computation (Section 2.1.2): the merged
// single restraint for coupled distances, and the per-level fallback.
//
//===----------------------------------------------------------------------===//

#include "deps/DependenceAnalysis.h"

#include "kernels/Kernels.h"
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

std::vector<DepSpace::RestraintVector>
restraintsFor(const AnalyzedProgram &AP, const Access &Src,
              const Access &Dst) {
  OmegaContext Ctx;
  DepSpace Space(AP, {&Src, &Dst});
  Problem Pair = buildPairProblem(Space);
  return Space.computeRestraintVectors(Pair, 0, 1, Ctx);
}

} // namespace

TEST(Restraints, CoupledDistancesNeedOneRestraint) {
  // Example 6: distances (a,a) -- the single restraint (0+,*) suffices.
  AnalyzedProgram AP = analyzeSource(kernels::example6());
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  const Access *R = findAccess(AP, "a", false);
  auto Rs = restraintsFor(AP, *W, *R);
  ASSERT_EQ(Rs.size(), 1u);
  EXPECT_EQ(Rs.front().toString(), "(0+,*)");
}

TEST(Restraints, Example7NeedsTwoRestraints) {
  // The paper: "There are two apparent restraint vectors for this
  // dependence: (+,*) and (0,+)."
  AnalyzedProgram AP = analyzeSource(kernels::example7());
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "A", true);
  const Access *R = findAccess(AP, "A", false);
  auto Rs = restraintsFor(AP, *W, *R);
  ASSERT_EQ(Rs.size(), 2u);
  EXPECT_EQ(Rs[0].toString(), "(+,*)");
  EXPECT_EQ(Rs[1].toString(), "(0,+)");
}

TEST(Restraints, RecurrenceSingleRestraint) {
  // a(i) := a(i-1): distance pinned to 1, so Delta_1 >= 0 already rules
  // out everything backward.
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 2 to n do\n"
                                     "  a(i) := a(i-1);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  const Access *R = findAccess(AP, "a", false);
  auto Rs = restraintsFor(AP, *W, *R);
  ASSERT_EQ(Rs.size(), 1u);
  EXPECT_EQ(Rs.front().toString(), "(0+)");
}

TEST(Restraints, NoCommonLoopsTextualOrder) {
  AnalyzedProgram AP = analyzeSource("a(1) := 0;\n"
                                     "x(1) := a(1);\n");
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  const Access *R = findAccess(AP, "a", false);
  auto Rs = restraintsFor(AP, *W, *R);
  ASSERT_EQ(Rs.size(), 1u);
  EXPECT_TRUE(Rs.front().MinAtLevel.empty());

  // Reverse direction: the read cannot precede the write.
  auto RsBack = restraintsFor(AP, *R, *W);
  EXPECT_TRUE(RsBack.empty());
}

TEST(Restraints, RestraintsCoverAllForwardSolutions) {
  OmegaContext Ctx;
  // Property: adding each restraint in turn, the union of satisfiable
  // ordered pairs equals the per-level union computed by the analysis.
  AnalyzedProgram AP = analyzeSource(kernels::example5());
  ASSERT_TRUE(AP.ok());
  const Access *W = findAccess(AP, "a", true);
  const Access *R = findAccess(AP, "a", false);
  DepSpace Space(AP, {W, R});
  Problem Pair = buildPairProblem(Space);
  auto Rs = Space.computeRestraintVectors(Pair, 0, 1, Ctx);
  ASSERT_FALSE(Rs.empty());
  for (const auto &RV : Rs) {
    Problem Test = Pair;
    Space.addRestraint(Test, 0, 1, RV);
    EXPECT_TRUE(isSatisfiable(Test, Ctx)) << RV.toString();
  }
}
