//===- examples/symbolic_dialog.cpp - The Section 5 dialog ----------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// Demonstrates symbolic dependence analysis: conditions under which a
// dependence exists (Example 7), index arrays with generated user queries
// and property assertions (Example 8), and non-linear terms (Example 10).
//
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"
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

} // namespace

int main() {
  OmegaContext Ctx;
  // ----------------------------------------------------------------- //
  std::printf("==== Example 7: symbolic conditions ====\n%s\n",
              kernels::example7());
  {
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
    std::printf("asserted: all references in bounds, 50 <= n <= 100\n\n");

    SymbolicCondition C1 =
        dependenceCondition(AP, *W, *R, 1, DB, {"x", "y", "m"}, Ctx);
    std::printf("outer-carried dependence (+,*) exists iff:  %s\n",
                C1.Text.c_str());
    SymbolicCondition C2 =
        dependenceCondition(AP, *W, *R, 2, DB, {"x", "y", "m"}, Ctx);
    std::printf("inner-carried dependence (0,+) exists iff:  %s\n",
                C2.Text.c_str());
    std::printf("(paper: 1 <= x <= 50, and x = 0 && y < m)\n\n");
  }

  // ----------------------------------------------------------------- //
  std::printf("==== Example 8: index arrays ====\n%s\n",
              kernels::example8());
  {
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

    std::printf("checking for an output dependence of A(Q(L1)):\n");
    for (const UserQuery &Q : generateQueries(AP, *W, *W, 1, DB, Ctx))
      std::printf("  query> %s\n", Q.Text.c_str());
    std::printf("\nchecking for a carried flow dependence:\n");
    for (const UserQuery &Q : generateQueries(AP, *W, *R, 1, DB, Ctx))
      std::printf("  query> %s\n", Q.Text.c_str());

    std::printf("\nuser answers: \"Q is a permutation array\"\n");
    DB.assertPermutation("Q");
    std::printf("  output dependence possible now: %s\n",
                dependencePossible(AP, *W, *W, 1, DB, Ctx) ? "yes" : "no");
    std::printf("\nuser answers: \"Q is strictly increasing\"\n");
    DB.assertStrictlyIncreasing("Q");
    std::printf("  carried flow dependence possible now: %s\n",
                dependencePossible(AP, *W, *R, 1, DB, Ctx) ? "yes" : "no");
  }

  // ----------------------------------------------------------------- //
  std::printf("\n==== Example 10: non-linear terms ====\n%s\n",
              kernels::example10());
  {
    ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example10());
    const ir::Access *W = find(AP, "A", true);
    AssertionDB DB;
    std::printf("i*j is handled as an uninterpreted term; without further "
                "knowledge the\ncarried output dependence must be "
                "assumed: %s\n",
                dependencePossible(AP, *W, *W, 1, DB, Ctx) ? "assumed"
                                                           : "none");
  }

  // ----------------------------------------------------------------- //
  std::printf("\n==== Example 11: scalar recurrences (s141 of [LCD91]) "
              "====\n%s\n",
              kernels::example11());
  {
    ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example11());
    const ir::Access *W = find(AP, "a", true);
    AssertionDB DB;
    std::printf("k := k + j is recognized as a strictly increasing "
                "recurrence, so a(k)\nnever revisits a location:\n");
    std::printf("  carried output dependence at level 1: %s\n",
                dependencePossible(AP, *W, *W, 1, DB, Ctx) ? "assumed"
                                                           : "impossible");
    std::printf("  carried output dependence at level 2: %s\n",
                dependencePossible(AP, *W, *W, 2, DB, Ctx) ? "assumed"
                                                           : "impossible");
    std::printf("(no compiler in the [LCD91] study vectorized this "
                "loop)\n");
  }
  return 0;
}
