//===- tests/CalcTest.cpp -------------------------------------------------===//
//
// Tests for the omega-calc scripting surface.
//
//===----------------------------------------------------------------------===//

#include "calc/Calc.h"

#include "omega/Satisfiability.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace omega;
using namespace omega::calc;

TEST(Calc, SatAndUnsat) {
  Calculator C;
  std::string Out = C.run("P := {[x] : 2 <= x && x <= 5};\n"
                          "sat P;\n"
                          "Q := {[x] : x <= 1 && x >= 3};\n"
                          "sat Q;\n");
  EXPECT_FALSE(C.hadError());
  EXPECT_NE(Out.find("P is satisfiable"), std::string::npos);
  EXPECT_NE(Out.find("Q is unsatisfiable"), std::string::npos);
}

TEST(Calc, IntegerExactness) {
  Calculator C;
  std::string Out = C.run("P := {[x] : 4 <= 3x && 3x <= 5};\n"
                          "sat P;\n");
  // 3x in [4,5] has no integer solution.
  EXPECT_NE(Out.find("P is unsatisfiable"), std::string::npos);
}

TEST(Calc, RelationChains) {
  OmegaContext Ctx;
  Calculator C;
  C.run("P := {[i,j] : 1 <= i < j <= 4};");
  const NamedSet *P = C.lookup("P");
  ASSERT_NE(P, nullptr);
  // Chain lowers to 1<=i, i<j, j<=4.
  EXPECT_EQ(P->P.getNumConstraints(), 3u);
  EXPECT_TRUE(isSatisfiable(P->P, Ctx));
}

TEST(Calc, ProjectionMatchesPaperExample) {
  Calculator C;
  std::string Out =
      C.run("S := {[a,b] : 0 <= a <= 5 && b < a && a <= 5b};\n"
            "project S onto [a];\n");
  EXPECT_FALSE(C.hadError());
  EXPECT_NE(Out.find("a >= 2"), std::string::npos);
  EXPECT_NE(Out.find("-a >= -5"), std::string::npos);
}

TEST(Calc, ExistsIntroducesStride) {
  Calculator C;
  std::string Out = C.run("E := {[x] : exists w : (x = 2w) && 1 <= x <= 8};\n"
                          "sat E;\n"
                          "O := {[x] : exists w : (x = 2w + 1) && x = 4};\n"
                          "sat O;\n");
  EXPECT_NE(Out.find("E is satisfiable"), std::string::npos);
  EXPECT_NE(Out.find("O is unsatisfiable"), std::string::npos);
}

TEST(Calc, IntersectionSharesSymbolics) {
  Calculator C;
  std::string Out = C.run("P := {[i] : 1 <= i <= n};\n"
                          "Q := {[i] : i >= n + 1};\n"
                          "R := P && Q;\n"
                          "sat R;\n");
  EXPECT_NE(Out.find("R is unsatisfiable"), std::string::npos);
}

TEST(Calc, GistDropsKnownInformation) {
  Calculator C;
  std::string Out = C.run("P := {[x] : 0 <= x <= 50};\n"
                          "Q := {[x] : 10 <= x};\n"
                          "gist P given Q;\n");
  EXPECT_EQ(Out.find("x >= 0"), std::string::npos);
  EXPECT_NE(Out.find("-x >= -50"), std::string::npos);
}

TEST(Calc, SolutionSatisfiesSet) {
  Calculator C;
  std::string Out = C.run("P := {[x,y] : x + y = 7 && 2 <= x <= 3};\n"
                          "solution P;\n");
  EXPECT_NE(Out.find("x=2"), std::string::npos);
  EXPECT_NE(Out.find("y=5"), std::string::npos);
}

TEST(Calc, SimplifyRemovesRedundancy) {
  Calculator C;
  std::string Out = C.run("P := {[x] : x >= 0 && x >= 2 && x <= 9};\n"
                          "simplify P;\n");
  EXPECT_EQ(Out.find("x >= 0"), std::string::npos);
  EXPECT_NE(Out.find("x >= 2"), std::string::npos);
}

TEST(Calc, ErrorsAreReportedAndRecovered) {
  Calculator C;
  std::string Out = C.run("sat NoSuchSet;\n"
                          "P := {[x] : x >= 1};\n"
                          "sat P;\n");
  EXPECT_TRUE(C.hadError());
  EXPECT_NE(Out.find("unknown set"), std::string::npos);
  EXPECT_NE(Out.find("P is satisfiable"), std::string::npos);
}

TEST(Calc, SyntaxErrorRecovery) {
  Calculator C;
  std::string Out = C.run("P := {[x] x >= 1};\n" // missing ':'
                          "Q := {[x] : x >= 1};\n"
                          "sat Q;\n");
  EXPECT_TRUE(C.hadError());
  EXPECT_NE(Out.find("Q is satisfiable"), std::string::npos);
}

TEST(Calc, IncompatibleTuplesRejected) {
  Calculator C;
  std::string Out = C.run("P := {[i] : i >= 0};\n"
                          "Q := {[i,j] : i >= 0};\n"
                          "R := P && Q;\n");
  EXPECT_TRUE(C.hadError());
  EXPECT_NE(Out.find("different tuples"), std::string::npos);
}

TEST(Calc, ApproxProjection) {
  Calculator C;
  std::string Out = C.run("S := {[x,y] : 3y <= x + 6 && x + 5 <= 3y};\n"
                          "approx S onto [x];\n");
  EXPECT_EQ(Out, "approx: { TRUE } (over-approximate)\n");
}

// The example script's approx lines, exact and over-approximate, in full:
// approx is the one calculator command that builds the real shadow.
TEST(Calc, ExampleScriptApproxLines) {
  std::ifstream In(std::string(OMEGA_EXAMPLES_DIR) + "/sets.calc");
  ASSERT_TRUE(In.is_open());
  std::ostringstream Script;
  Script << In.rdbuf();
  Calculator C;
  std::string Out = C.run(Script.str());
  EXPECT_FALSE(C.hadError());
  EXPECT_NE(Out.find("\napprox: { -i + n >= 1; i >= 1 } (exact)\n"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\napprox: { TRUE } (over-approximate)\n"),
            std::string::npos)
      << Out;
}

TEST(Calc, CommentsIgnored) {
  Calculator C;
  std::string Out = C.run("# a comment\n"
                          "P := {[x] : x = 3}; # trailing\n"
                          "sat P;\n");
  EXPECT_FALSE(C.hadError());
  EXPECT_NE(Out.find("P is satisfiable"), std::string::npos);
}

TEST(Calc, NegativeCoefficients) {
  OmegaContext Ctx;
  Calculator C;
  C.run("P := {[x,y] : -2x + 3y = 1 && -4 <= x <= 4 && -4 <= y <= 4};");
  const NamedSet *P = C.lookup("P");
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(isSatisfiable(P->P, Ctx)); // x=1, y=1
}

TEST(Calc, RangeCommand) {
  Calculator C;
  std::string Out = C.run("P := {[x,y] : 2 <= x <= 9 && y = 2x};\n"
                          "range P [y];\n");
  EXPECT_FALSE(C.hadError());
  EXPECT_NE(Out.find("y in [4, 18]"), std::string::npos);
}

TEST(Calc, RangeUnboundedEnds) {
  Calculator C;
  std::string Out = C.run("P := {[x] : x >= 5};\n"
                          "range P [x];\n");
  EXPECT_NE(Out.find("x in [5, +inf]"), std::string::npos);
}

TEST(Calc, RangeOverWideStride) {
  // A stride period past the range's linear probe cap (4096) is searched
  // by bisection; both ends land on the lattice.
  Calculator C;
  std::string Out =
      C.run("E := {[x] : exists w : (x = 5000w) && 1 <= x <= 99999};\n"
            "range E [x];\n"
            "F := {[x] : exists w : (x = 4000w) && 1 <= x <= 99999};\n"
            "range F [x];\n"
            "G := {[x] : exists w : (x = 7919w + 3) && x >= 4};\n"
            "range G [x];\n");
  EXPECT_FALSE(C.hadError()) << Out;
  EXPECT_NE(Out.find("x in [5000, 95000]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("x in [4000, 96000]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("x in [7922, +inf]"), std::string::npos) << Out;
}

TEST(Calc, ToggleDirectives) {
  // The solver has one path, so there are no toggle directives: neither
  // `quicktests` nor `incremental` is a command.
  Calculator C;
  for (const char *Gone : {"quicktests", "incremental"}) {
    std::string Out = C.run(std::string(Gone) + " off;\n");
    EXPECT_TRUE(C.hadError());
    EXPECT_NE(Out.find("unknown command '" + std::string(Gone) + "'"),
              std::string::npos)
        << Out;
  }
}

TEST(Calc, ToggleDirectiveBadArgRecovers) {
  Calculator C;
  std::string Out = C.run("quicktests maybe;\n"
                          "P := {[x] : x = 1};\n"
                          "sat P;\n");
  EXPECT_TRUE(C.hadError());
  EXPECT_NE(Out.find("P is satisfiable"), std::string::npos);
}
