//===- examples/quickstart.cpp - Tour of the public API -------------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// A guided tour: build constraint systems with the Omega test core, check
// satisfiability, project, compute gists; then parse a small loop nest and
// run the full dependence analysis on it.
//
//===----------------------------------------------------------------------===//

#include "analysis/Driver.h"
#include "omega/Gist.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"

#include <cstdio>

using namespace omega;

static void banner(const char *Title) {
  std::printf("\n== %s ==\n", Title);
}

int main() {
  OmegaContext Ctx;
  // ----------------------------------------------------------------- //
  banner("1. Integer satisfiability (the Omega test)");
  {
    // 27 <= 11x + 13y <= 45, -10 <= 7x - 9y <= 4: real solutions exist,
    // integer ones do not -- the classic dark-shadow example.
    Problem P;
    VarId X = P.addVar("x");
    VarId Y = P.addVar("y");
    P.addGEQ({{X, 11}, {Y, 13}}, -27);
    P.addGEQ({{X, -11}, {Y, -13}}, 45);
    P.addGEQ({{X, 7}, {Y, -9}}, 10);
    P.addGEQ({{X, -7}, {Y, 9}}, 4);
    std::printf("system: %s\n", P.toString().c_str());
    std::printf("integer satisfiable: %s\n",
                isSatisfiable(P, Ctx) ? "yes" : "no");
    SatOptions Real;
    Real.Mode = SatMode::RealShadowOnly;
    std::printf("real relaxation says: %s\n",
                isSatisfiable(P, Ctx, Real) ? "yes (too optimistic!)" : "no");
  }

  // ----------------------------------------------------------------- //
  banner("2. Projection (the paper's Section 3 example)");
  {
    // Projecting {0 <= a <= 5; b < a <= 5b} onto a gives {2 <= a <= 5}.
    Problem P;
    VarId A = P.addVar("a");
    VarId B = P.addVar("b");
    P.addGEQ({{A, 1}}, 0);
    P.addGEQ({{A, -1}}, 5);
    P.addGEQ({{A, 1}, {B, -1}}, -1);
    P.addGEQ({{A, -1}, {B, 5}}, 0);
    std::printf("system: %s\n", P.toString().c_str());
    ProjectionResult R = projectOnto(P, {A}, Ctx);
    std::printf("projected onto a: %s\n",
                R.Pieces.front().toString().c_str());
  }

  // ----------------------------------------------------------------- //
  banner("3. Gist: 'the new information in p, given q'");
  {
    Problem Layout;
    VarId X = Layout.addVar("x");
    Problem P = Layout.cloneLayout();
    P.addGEQ({{X, 1}}, 0);   // x >= 0
    P.addGEQ({{X, -1}}, 50); // x <= 50
    Problem Q = Layout.cloneLayout();
    Q.addGEQ({{X, 1}}, -10); // x >= 10 (already known)
    Problem G = gist(P, Q, Ctx);
    std::printf("gist %s given %s  =  %s\n", P.toString().c_str(),
                Q.toString().c_str(), G.toString().c_str());
  }

  // ----------------------------------------------------------------- //
  banner("4. Dependence analysis on a loop nest");
  {
    const char *Source = "symbolic n, m;\n"
                         "for L1 := 1 to n do\n"
                         "  for L2 := 2 to m do\n"
                         "    a(L2) := a(L2-1);\n"
                         "  endfor\n"
                         "endfor\n";
    std::printf("%s", Source);
    ir::AnalyzedProgram AP = ir::analyzeSource(Source);
    if (!AP.ok()) {
      for (const ir::Diagnostic &D : AP.Diags)
        std::printf("error: %s\n", D.toString().c_str());
      return 1;
    }
    analysis::AnalysisResult R = analysis::analyzeProgram(AP);
    std::printf("\nLive flow dependences (note the refined (0,1) -- most "
                "tools report (0+,1)):\n%s",
                R.liveFlowTable().c_str());
  }
  return 0;
}
