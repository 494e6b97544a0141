//===- examples/parallelize.cpp - Transformation legality demo ------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// What the analysis buys a compiler: for several kernels, show which
// loops parallelize (and which only parallelize once false dependences
// are eliminated), which adjacent loops may be interchanged, and which
// arrays are privatizable.
//
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"
#include "transform/Apply.h"

#include <cstdio>

using namespace omega;
using namespace omega::analysis;
using namespace omega::transform;

namespace {

void demo(const char *Title, const char *Source,
          const std::vector<std::string> &PrivatizationCandidates = {}) {
  std::printf("==== %s ====\n%s\n", Title, Source);
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  if (!AP.ok()) {
    for (const ir::Diagnostic &D : AP.Diags)
      std::printf("error: %s\n", D.toString().c_str());
    return;
  }
  AnalysisResult R = analyzeProgram(AP);
  std::printf("%s", transformReport(AP, R).c_str());
  for (const std::string &Array : PrivatizationCandidates)
    for (const auto &L : AP.Loops)
      std::printf("privatize %s over %s: %s\n", Array.c_str(),
                  L->SourceVar.c_str(),
                  isPrivatizable(AP, R, Array, L.get()) ? "yes" : "no");
  std::printf("\n");
}

} // namespace

int main() {
  demo("Example 3: refinement shows the outer loop carries no value flow",
       kernels::example3());

  demo("Wavefront: serial both ways, but interchange is legal",
       "symbolic n, m;\n"
       "for i := 2 to n do\n"
       "  for j := 2 to m do\n"
       "    a(i,j) := a(i-1,j) + a(i,j-1);\n"
       "  endfor\n"
       "endfor\n");

  demo("Privatizable temporary (the paper's motivating pattern)",
       "symbolic n;\n"
       "for i := 1 to n do\n"
       "  t(0) := a(i) + 1;\n"
       "  b(i) := t(0) + t(0);\n"
       "endfor\n",
       {"t"});

  demo("Anti-diagonal stencil: interchange would reverse a dependence",
       "symbolic n, m;\n"
       "for i := 2 to n do\n"
       "  for j := 2 to m do\n"
       "    a(i,j) := a(i-1,j+1);\n"
       "  endfor\n"
       "endfor\n");

  return 0;
}
