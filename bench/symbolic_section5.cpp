//===- bench/symbolic_section5.cpp - Experiment E7 -------------------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// Regenerates the Section 5 worked results: Example 7's symbolic
// conditions and Example 8's index-array verdicts, each checked against
// the paper's stated answer.
//
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"
#include "omega/Satisfiability.h"
#include "symbolic/SymbolicAnalysis.h"

#include <cstdio>

using namespace omega;
using namespace omega::symbolic;

namespace {

const ir::Access *find(const ir::AnalyzedProgram &AP, const char *Array,
                       bool IsWrite, const char *Text = nullptr) {
  for (const ir::Access &A : AP.Accesses)
    if (A.Array == Array && A.IsWrite == IsWrite &&
        (!Text || A.Text == Text))
      return &A;
  return nullptr;
}

bool allows(const SymbolicCondition &C,
            std::vector<std::pair<std::string, int64_t>> Pins) {
  OmegaContext Ctx;
  if (C.Impossible)
    return false;
  Problem P = C.Condition;
  for (const auto &[Name, Value] : Pins)
    for (VarId V = 0; V != static_cast<VarId>(P.getNumVars()); ++V)
      if (P.getVarName(V) == Name)
        P.addEQ({{V, 1}}, -Value);
  return isSatisfiable(P, Ctx);
}

unsigned Passed = 0, Total = 0;
void verdict(const char *What, bool OK) {
  ++Total;
  Passed += OK;
  std::printf("  %-58s %s\n", What, OK ? "PASS" : "FAIL");
}

} // namespace

int main() {
  OmegaContext Ctx;
  std::printf("== Experiment E7: Section 5 symbolic analysis ==\n");

  {
    std::printf("\nExample 7 (conditions over x, y, m; asserted "
                "50 <= n <= 100):\n");
    ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example7());
    const ir::Access *W = find(AP, "A", true);
    const ir::Access *R = find(AP, "A", false);
    AssertionDB DB;
    DB.assumeInBounds();
    ArrayBounds AB;
    AB.Dims = {{SymExpr::constant(1), SymExpr::name("n")},
               {SymExpr::constant(1), SymExpr::name("m")}};
    DB.declareArrayBounds("A", AB);
    DB.declareArrayBounds("C", AB);
    DB.assertRelation(SymExpr::constant(50), SymRelation::Rel::LE,
                      SymExpr::name("n"));
    DB.assertRelation(SymExpr::name("n"), SymRelation::Rel::LE,
                      SymExpr::constant(100));

    SymbolicCondition C1 =
        dependenceCondition(AP, *W, *R, 1, DB, {"x", "y", "m"}, Ctx);
    std::printf("  outer-carried (+,*): %s\n", C1.Text.c_str());
    verdict("paper: 1 <= x <= 50",
            allows(C1, {{"x", 1}}) && allows(C1, {{"x", 50}}) &&
                !allows(C1, {{"x", 0}}) && !allows(C1, {{"x", 51}}));

    SymbolicCondition C2 =
        dependenceCondition(AP, *W, *R, 2, DB, {"x", "y", "m"}, Ctx);
    std::printf("  inner-carried (0,+): %s\n", C2.Text.c_str());
    verdict("paper: x = 0 and y < m",
            allows(C2, {{"x", 0}, {"y", 1}, {"m", 2}}) &&
                !allows(C2, {{"x", 1}}) &&
                !allows(C2, {{"x", 0}, {"y", 2}, {"m", 2}}));
  }

  {
    std::printf("\nExample 8 (index array Q):\n");
    ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example8());
    const ir::Access *W = find(AP, "A", true);
    const ir::Access *R = find(AP, "A", false, "A(Q(L1+1)-1)");
    AssertionDB DB;
    DB.assumeInBounds();
    ArrayBounds AB;
    AB.Dims = {{SymExpr::constant(1), SymExpr::name("n")}};
    DB.declareArrayBounds("A", AB);
    DB.declareArrayBounds("Q", AB);
    DB.declareArrayBounds("C", AB);

    std::vector<UserQuery> OutQ = generateQueries(AP, *W, *W, 1, DB, Ctx);
    for (const UserQuery &Q : OutQ)
      std::printf("  output-dep query: never %s given %s\n",
                  Q.Offending.c_str(), Q.Condition.c_str());
    verdict("paper: asks whether Q[a] = Q[b] can happen",
            OutQ.size() == 1 &&
                OutQ.front().Offending.find("Q[a]") != std::string::npos);

    std::vector<UserQuery> FlowQ = generateQueries(AP, *W, *R, 1, DB, Ctx);
    for (const UserQuery &Q : FlowQ)
      std::printf("  flow-dep query:   never %s given %s\n",
                  Q.Offending.c_str(), Q.Condition.c_str());
    verdict("paper: asks whether Q[a] = Q[b] - 1 can happen",
            FlowQ.size() == 1 &&
                FlowQ.front().Offending.find("Q[") != std::string::npos);

    AssertionDB Perm = DB;
    Perm.assertPermutation("Q");
    verdict("permutation assertion kills the output dependence",
            !dependencePossible(AP, *W, *W, 1, Perm, Ctx));

    AssertionDB Incr = DB;
    Incr.assertStrictlyIncreasing("Q");
    verdict("strictly-increasing assertion kills the carried flow",
            !dependencePossible(AP, *W, *R, 1, Incr, Ctx));
    verdict("without assertions both dependences assumed",
            dependencePossible(AP, *W, *W, 1, DB, Ctx) &&
                dependencePossible(AP, *W, *R, 1, DB, Ctx));
  }

  std::printf("\n%u/%u Section 5 checks pass\n", Passed, Total);
  return Passed == Total ? 0 : 1;
}
