//===- tests/SmallCoeffVectorTest.cpp -------------------------------------===//
//
// Unit tests for the inline-storage coefficient vector and the
// zero-allocation property of small constraint rows.
//
//===----------------------------------------------------------------------===//

#include "support/SmallCoeffVector.h"

#include "omega/OmegaContext.h"
#include "omega/Problem.h"
#include "omega/Satisfiability.h"

#include <gtest/gtest.h>

#include <utility>

using namespace omega;

namespace {

/// Counts SmallCoeffVector heap buffers allocated while \p Fn runs.
template <typename Fn> uint64_t heapSpills(Fn &&F) {
  uint64_t Before = SmallCoeffVector::heapAllocationsThisThread();
  F();
  return SmallCoeffVector::heapAllocationsThisThread() - Before;
}

} // namespace

TEST(SmallCoeffVector, InlineConstructionIsAllocationFree) {
  EXPECT_EQ(heapSpills([] {
              SmallCoeffVector V(SmallCoeffVector::InlineCapacity);
              for (unsigned I = 0; I != V.size(); ++I)
                V[I] = static_cast<int64_t>(I) - 3;
              SmallCoeffVector Copy(V);
              SmallCoeffVector Moved(std::move(Copy));
              EXPECT_EQ(Moved, V);
            }),
            0u);
}

TEST(SmallCoeffVector, ZeroFilledAndGrowKeepsValues) {
  SmallCoeffVector V(3);
  EXPECT_EQ(V.size(), 3u);
  for (int64_t C : V)
    EXPECT_EQ(C, 0);
  V[0] = 7;
  V[2] = -9;
  V.resize(12); // spills to the heap, preserving prefix, zeroing the rest
  ASSERT_EQ(V.size(), 12u);
  EXPECT_EQ(V[0], 7);
  EXPECT_EQ(V[1], 0);
  EXPECT_EQ(V[2], -9);
  for (unsigned I = 3; I != 12; ++I)
    EXPECT_EQ(V[I], 0);
}

TEST(SmallCoeffVector, SpillCountsAreObservable) {
  EXPECT_GE(heapSpills([] {
              SmallCoeffVector V(SmallCoeffVector::InlineCapacity + 1);
              V[SmallCoeffVector::InlineCapacity] = 1;
            }),
            1u);
}

TEST(SmallCoeffVector, HeapCopyAndMoveSemantics) {
  SmallCoeffVector Big(20);
  for (unsigned I = 0; I != 20; ++I)
    Big[I] = I * I;
  SmallCoeffVector Copy(Big);
  EXPECT_EQ(Copy, Big);

  // Copy-assign into an existing heap buffer of sufficient capacity must
  // not allocate again.
  EXPECT_EQ(heapSpills([&] {
              SmallCoeffVector Dst(20);
              Dst = Big;
              EXPECT_EQ(Dst, Big);
            }),
            1u); // exactly the one allocation for Dst itself

  SmallCoeffVector Moved(std::move(Copy));
  EXPECT_EQ(Moved, Big);
  SmallCoeffVector Target;
  Target = std::move(Moved);
  EXPECT_EQ(Target, Big);
}

TEST(SmallCoeffVector, EqualityComparesSizeAndContents) {
  SmallCoeffVector A(4), B(4), C(5);
  A[1] = 3;
  B[1] = 3;
  EXPECT_TRUE(A == B);
  B[2] = -1;
  EXPECT_FALSE(A == B);
  EXPECT_FALSE(A == C);
}

//===----------------------------------------------------------------------===//
// Zero-allocation property of the Omega core on small problems
//===----------------------------------------------------------------------===//

TEST(SmallCoeffVector, ConstraintRowsStayInlineUpToCapacity) {
  EXPECT_EQ(heapSpills([] {
              Problem P;
              VarId V[SmallCoeffVector::InlineCapacity];
              for (unsigned I = 0; I != SmallCoeffVector::InlineCapacity; ++I)
                V[I] = P.addVar("v" + std::to_string(I));
              for (unsigned I = 0; I + 1 < SmallCoeffVector::InlineCapacity;
                   ++I) {
                P.addGEQ({{V[I], 1}, {V[I + 1], -1}}, 0);
                P.addGEQ({{V[I], -2}, {V[I + 1], 3}}, 11);
              }
              Problem Copy = P;
              Copy.normalize();
            }),
            0u);
}

TEST(SmallCoeffVector, SatisfiabilityOnSmallProblemsIsRowAllocationFree) {
  // A full Omega-test run (equality elimination, Fourier-Motzkin with
  // splinters) over problems that stay within the inline capacity must
  // never spill a coefficient row to the heap. Mod-hat wildcards grow the
  // column count, so leave headroom below the capacity.
  EXPECT_EQ(heapSpills([] {
              OmegaContext Ctx;
              Problem P;
              VarId I = P.addVar("i");
              VarId J = P.addVar("j");
              VarId K = P.addVar("k");
              P.addGEQ({{I, 1}}, 0);
              P.addGEQ({{I, -1}}, 40);
              P.addGEQ({{J, 2}, {I, -1}}, 0);
              P.addGEQ({{J, -3}, {I, 1}}, 50);
              P.addEQ({{K, 1}, {I, -1}, {J, -2}}, 4);
              EXPECT_TRUE(isSatisfiable(P, Ctx));

              Problem Q = P;
              Q.addGEQ({{K, 5}, {J, -7}}, -3);
              isSatisfiable(std::move(Q), Ctx);
            }),
            0u);
}
