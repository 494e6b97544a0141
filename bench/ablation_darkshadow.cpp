//===- bench/ablation_darkshadow.cpp - Experiment A1 -----------------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// Ablation: the exact Omega test (dark shadow + splinters) vs. the classic
// Fourier-Motzkin real relaxation that pre-Omega dependence tests
// effectively used. Measures, over random constraint systems of increasing
// coefficient size, how often the relaxation wrongly reports "satisfiable"
// (a false dependence) and what the exactness costs in time.
//
//===----------------------------------------------------------------------===//

#include "omega/Satisfiability.h"

#include <chrono>
#include <cstdio>
#include <random>

using namespace omega;

namespace {

Problem randomSystem(std::mt19937 &Rng, unsigned NumVars, unsigned NumGEQs,
                     int64_t CoeffRange, int64_t Box) {
  Problem P;
  std::vector<VarId> Vars;
  for (unsigned I = 0; I != NumVars; ++I)
    Vars.push_back(P.addVar("x" + std::to_string(I)));
  std::uniform_int_distribution<int64_t> Coeff(-CoeffRange, CoeffRange);
  std::uniform_int_distribution<int64_t> Const(-3 * CoeffRange,
                                               3 * CoeffRange);
  for (unsigned I = 0; I != NumGEQs; ++I) {
    Constraint &Row = P.addRow(ConstraintKind::GEQ);
    for (VarId V : Vars)
      Row.setCoeff(V, Coeff(Rng));
    Row.setConstant(Const(Rng));
  }
  for (VarId V : Vars) {
    P.addGEQ({{V, 1}}, Box);
    P.addGEQ({{V, -1}}, Box);
  }
  return P;
}

} // namespace

int main() {
  OmegaContext Ctx;
  std::printf("== Experiment A1: dark shadow + splinters vs. real-shadow "
              "relaxation ==\n\n");
  std::printf("%8s%8s%10s%12s%12s%14s%14s\n", "coeff", "vars", "systems",
              "sat", "false-sat", "exact_usec", "relax_usec");

  std::mt19937 Rng(12345);
  for (int64_t CoeffRange : {2, 4, 8, 16, 32}) {
    for (unsigned NumVars : {2u, 3u}) {
      const unsigned Systems = 400;
      unsigned Sat = 0, FalseSat = 0;
      double ExactSecs = 0, RelaxSecs = 0;
      for (unsigned I = 0; I != Systems; ++I) {
        Problem P = randomSystem(Rng, NumVars, NumVars + 2, CoeffRange,
                                 4 * CoeffRange);

        auto T0 = std::chrono::steady_clock::now();
        bool Exact = isSatisfiable(P, Ctx);
        auto T1 = std::chrono::steady_clock::now();
        SatOptions Relax;
        Relax.Mode = SatMode::RealShadowOnly;
        bool Relaxed = isSatisfiable(P, Ctx, Relax);
        auto T2 = std::chrono::steady_clock::now();

        ExactSecs += std::chrono::duration<double>(T1 - T0).count();
        RelaxSecs += std::chrono::duration<double>(T2 - T1).count();
        Sat += Exact;
        // The relaxation is an over-approximation: Exact => Relaxed.
        if (Relaxed && !Exact)
          ++FalseSat;
      }
      std::printf("%8lld%8u%10u%12u%12u%14.2f%14.2f\n",
                  static_cast<long long>(CoeffRange), NumVars, Systems, Sat,
                  FalseSat, ExactSecs / Systems * 1e6,
                  RelaxSecs / Systems * 1e6);
    }
  }
  std::printf("\nshape: false-sat (spurious dependences) grows with "
              "coefficient size while the\nexact test stays within a small "
              "constant factor of the relaxation's cost\n");
  return 0;
}
