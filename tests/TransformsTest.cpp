//===- tests/TransformsTest.cpp -------------------------------------------===//
//
// Tests for the transformation legality queries: parallelization,
// interchange, privatization -- the consumers the paper's introduction
// motivates.
//
//===----------------------------------------------------------------------===//

#include "transform/Apply.h"

#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace omega;
using namespace omega::analysis;
using namespace omega::transform;
using omega::ir::AnalyzedProgram;
using omega::ir::analyzeSource;
using omega::ir::LoopInfo;
namespace fs = std::filesystem;

namespace {

const LoopInfo *loopNamed(const AnalyzedProgram &AP, const std::string &V) {
  for (const auto &L : AP.Loops)
    if (L->SourceVar == V)
      return L.get();
  return nullptr;
}

const LoopFacts *factsOf(const std::vector<LoopFacts> &Fs,
                         const LoopInfo *L) {
  for (const LoopFacts &F : Fs)
    if (F.Loop == L)
      return &F;
  return nullptr;
}

} // namespace

TEST(Transforms, IndependentLoopIsParallel) {
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  b(i) := a(i) + 1;\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  std::vector<LoopFacts> Facts = analyzeLoops(AP, R);
  const LoopFacts *F = factsOf(Facts, loopNamed(AP, "i"));
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->Parallelizable);
}

TEST(Transforms, RecurrenceLoopIsSerial) {
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 2 to n do\n"
                                     "  a(i) := a(i-1);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  std::vector<LoopFacts> Facts = analyzeLoops(AP, R);
  const LoopFacts *F = factsOf(Facts, loopNamed(AP, "i"));
  ASSERT_NE(F, nullptr);
  EXPECT_FALSE(F->Parallelizable);
  EXPECT_FALSE(F->FlowParallelizable); // a real value recurrence
  EXPECT_FALSE(F->Blockers.empty());
}

TEST(Transforms, Example3OuterLoopFlowParallelAfterRefinement) {
  // Example 3's outer loop carries only FALSE flow dependences:
  // refinement moves the flow to (0,1). What remains carried by L1 is
  // storage traffic (anti/output), removable by renaming or expansion --
  // which is exactly why the paper insists on separating flow from
  // storage dependences.
  AnalyzedProgram AP = analyzeSource(kernels::example3());
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  std::vector<LoopFacts> Facts = analyzeLoops(AP, R);
  const LoopFacts *L1 = factsOf(Facts, loopNamed(AP, "L1"));
  ASSERT_NE(L1, nullptr);
  EXPECT_TRUE(L1->FlowParallelizable);
  EXPECT_FALSE(L1->Parallelizable); // anti (+,-1) remains: storage only
  const LoopFacts *L2 = factsOf(Facts, loopNamed(AP, "L2"));
  ASSERT_NE(L2, nullptr);
  EXPECT_FALSE(L2->FlowParallelizable); // the (0,1) recurrence is real

  // Without refinement L1 appears to carry a value flow too.
  DriverOptions NoRefine;
  NoRefine.Refine = false;
  AnalysisResult R2 = analyzeProgram(AP, NoRefine);
  std::vector<LoopFacts> Facts2 = analyzeLoops(AP, R2);
  const LoopFacts *L1Un = factsOf(Facts2, loopNamed(AP, "L1"));
  ASSERT_NE(L1Un, nullptr);
  EXPECT_FALSE(L1Un->FlowParallelizable);
}

TEST(Transforms, WavefrontInterchangeLegal) {
  // (1,0) and (0,1) dependences permit interchange.
  AnalyzedProgram AP = analyzeSource("symbolic n, m;\n"
                                     "for i := 2 to n do\n"
                                     "  for j := 2 to m do\n"
                                     "    a(i,j) := a(i-1,j) + a(i,j-1);\n"
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  EXPECT_TRUE(canInterchange(R, loopNamed(AP, "i"), loopNamed(AP, "j")));
}

TEST(Transforms, AntiDiagonalInterchangeIllegal) {
  // a(i,j) := a(i-1,j+1): dependence (1,-1) blocks interchange.
  AnalyzedProgram AP = analyzeSource("symbolic n, m;\n"
                                     "for i := 2 to n do\n"
                                     "  for j := 2 to m do\n"
                                     "    a(i,j) := a(i-1,j+1);\n"
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  EXPECT_FALSE(canInterchange(R, loopNamed(AP, "i"), loopNamed(AP, "j")));
}

TEST(Transforms, PrivatizableTemporary) {
  // The paper's motivating pattern: t is written then read in each
  // iteration; only kill analysis sees it is private.
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  t(0) := a(i);\n"
                                     "  b(i) := t(0) + t(0);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  const LoopInfo *I = loopNamed(AP, "i");
  EXPECT_TRUE(isPrivatizable(AP, R, "t", I));

  // With privatization t's output/anti deps vanish, so i parallelizes
  // conceptually -- but as-is, the loop still carries t's storage deps.
  std::vector<LoopFacts> Facts = analyzeLoops(AP, R);
  const LoopFacts *F = factsOf(Facts, I);
  ASSERT_NE(F, nullptr);
  EXPECT_FALSE(F->Parallelizable);
}

TEST(Transforms, NotPrivatizableWhenCarried) {
  // t's value crosses iterations: not privatizable.
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  b(i) := t(0) + 1;\n"
                                     "  t(0) := a(i);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  EXPECT_FALSE(isPrivatizable(AP, R, "t", loopNamed(AP, "i")));
}

TEST(Transforms, UpwardExposedReadNotPrivatizable) {
  // t is only read: the value comes from outside the loop.
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  b(i) := t(0);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  EXPECT_FALSE(isPrivatizable(AP, R, "t", loopNamed(AP, "i")));
}

TEST(Transforms, PartialWriteNotPrivatizable) {
  // The covering write only runs for even i-like subsets... here: the
  // write covers only elements 2..n, the read touches 1..n: some reads
  // get values from the previous iteration's write: not privatizable.
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  for j := 2 to n do\n"
                                     "    t(j) := a(i,j);\n"
                                     "  endfor\n"
                                     "  for j := 1 to n do\n"
                                     "    b(i,j) := t(j);\n"
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  EXPECT_FALSE(isPrivatizable(AP, R, "t", loopNamed(AP, "i")));
}

TEST(Transforms, FullWritePrivatizable) {
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  for j := 1 to n do\n"
                                     "    t(j) := a(i,j);\n"
                                     "  endfor\n"
                                     "  for j := 1 to n do\n"
                                     "    b(i,j) := t(j);\n"
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  EXPECT_TRUE(isPrivatizable(AP, R, "t", loopNamed(AP, "i")));
}

//===----------------------------------------------------------------------===//
// Loop distribution.
//===----------------------------------------------------------------------===//

TEST(Transforms, DistributionSplitsIndependentStatements) {
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  a(i) := x(i);\n"
                                     "  b(i) := y(i);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  auto Groups = distributeLoop(AP, R, loopNamed(AP, "i"));
  ASSERT_EQ(Groups.size(), 2u);
  EXPECT_FALSE(Groups[0].Cyclic);
  EXPECT_FALSE(Groups[1].Cyclic);
}

TEST(Transforms, DistributionKeepsCyclesTogether) {
  // s1 feeds s2 in the same iteration; s2 feeds s1 in the next: a cycle.
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 2 to n do\n"
                                     "  a(i) := b(i-1);\n"
                                     "  b(i) := a(i);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  auto Groups = distributeLoop(AP, R, loopNamed(AP, "i"));
  ASSERT_EQ(Groups.size(), 1u);
  EXPECT_TRUE(Groups[0].Cyclic);
  EXPECT_EQ(Groups[0].StmtLabels, (std::vector<unsigned>{1, 2}));
}

TEST(Transforms, DistributionOrdersForwardChain) {
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 2 to n do\n"
                                     "  a(i) := x(i);\n"
                                     "  c(i) := a(i-1);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  auto Groups = distributeLoop(AP, R, loopNamed(AP, "i"));
  ASSERT_EQ(Groups.size(), 2u);
  EXPECT_EQ(Groups[0].StmtLabels, (std::vector<unsigned>{1}));
  EXPECT_EQ(Groups[1].StmtLabels, (std::vector<unsigned>{2}));
  EXPECT_FALSE(Groups[0].Cyclic);
}

TEST(Transforms, DistributionReordersBackwardEdge) {
  // The (textually later) producer must come first after distribution.
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 2 to n do\n"
                                     "  c(i) := b(i-1);\n"
                                     "  b(i) := x(i);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  auto Groups = distributeLoop(AP, R, loopNamed(AP, "i"));
  ASSERT_EQ(Groups.size(), 2u);
  EXPECT_EQ(Groups[0].StmtLabels, (std::vector<unsigned>{2})); // b first
  EXPECT_EQ(Groups[1].StmtLabels, (std::vector<unsigned>{1}));
}

TEST(Transforms, DistributionSelfRecurrenceCyclic) {
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for i := 2 to n do\n"
                                     "  a(i) := a(i-1);\n"
                                     "  b(i) := x(i);\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  auto Groups = distributeLoop(AP, R, loopNamed(AP, "i"));
  ASSERT_EQ(Groups.size(), 2u);
  unsigned CyclicCount = 0;
  for (const auto &G : Groups)
    CyclicCount += G.Cyclic;
  EXPECT_EQ(CyclicCount, 1u);
}

TEST(Transforms, DistributionIgnoresOuterCarriedEdges) {
  // The t-carried dependence between the two statements orders whole
  // i-iterations; inside i they are independent, so i distributes.
  AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                     "for t := 1 to 5 do\n"
                                     "  for i := 1 to n do\n"
                                     "    a(i) := b(i);\n"
                                     "    c(i) := d(i);\n"
                                     "  endfor\n"
                                     "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  auto Groups = distributeLoop(AP, R, loopNamed(AP, "i"));
  EXPECT_EQ(Groups.size(), 2u);
}

TEST(Transforms, ReportRenders) {
  AnalyzedProgram AP = analyzeSource(kernels::example3());
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  std::string Report = transformReport(AP, R);
  EXPECT_NE(Report.find("loop L1"), std::string::npos);
  EXPECT_NE(Report.find("interchange(L1, L2)"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Pinned report text.
//===----------------------------------------------------------------------===//

namespace {

/// The full transformReport and renderParallelSchedule text of every
/// shipped example and edit-corpus program, relative to the source tree.
struct PinnedReport {
  const char *File;
  const char *Report;
  const char *Schedule;
};

const PinnedReport PinnedReports[] = {
    {"examples/programs/induction.tiny",
     R"(loop i (depth 1): serial; carried: a(k)->a(k) k->k k->k k->k a(k)->a(k) k->k k->k k->k a(k)->a(k) k->k
loop j (depth 2): serial; carried: a(k)->a(k) k->k k->k k->k a(k)->a(k) k->k k->k k->k a(k)->a(k) k->k
interchange(i, j): illegal
)",
     R"(for i := 1 to n do
  for j := i to n do
    a(k) := a(k)+bb(i,j);
    k := k+j;
  endfor
endfor
)"},
    {"examples/programs/killed_flow.tiny",
     R"(loop L1@2 (depth 1): parallelizable
loop L1@3 (depth 1): parallelizable
)",
     R"(a(n) := 0;
parallel for L1 := n to n+10 do
  a(L1) := 0;
endfor
parallel for L1 := n to n+20 do
  x(L1) := a(L1);
endfor
)"},
    {"examples/programs/pipeline4.tiny",
     R"(loop i (depth 1): serial; carried: s(0)->s(0) d(0)->d(0) s(0)->s(0) t(0)->t(0) t(0)->t(0) d(0)->d(0) s(0)->s(0) t(0)->t(0) d(0)->d(0)
distribute i: {2,3}* {4}* {1}*
)",
     R"(for i := 1 to n do
  s(0) := s(0)+a(i);
  t(0) := a(i-1)+a(i+1);
  b(i) := t(0)*t(0);
  d(0) := d(0)+b(i);
endfor
)"},
    {"examples/programs/privatizable.tiny",
     R"(loop i (depth 1): parallelizable after storage elimination (only anti/output dependences carried)
)",
     R"(parallel(after renaming) for i := 1 to n do
  t(0) := a(i);
  b(i) := t(0)+t(0);
endfor
)"},
    {"examples/programs/recurrence.tiny",
     R"(loop L1 (depth 1): parallelizable after storage elimination (only anti/output dependences carried)
loop L2 (depth 2): serial; carried: a(L2)->a(L2-1)
interchange(L1, L2): illegal
)",
     R"(parallel(after renaming) for L1 := 1 to n do
  for L2 := 2 to m do
    a(L2) := a(L2-1);
  endfor
endfor
)"},
    {"examples/programs/wavefront.tiny",
     R"(loop i (depth 1): serial; carried: a(i,j)->a(i-1,j)
loop j (depth 2): serial; carried: a(i,j)->a(i,j-1)
interchange(i, j): legal
)",
     R"(for i := 2 to n do
  for j := 2 to m do
    a(i,j) := a(i-1,j)+a(i,j-1);
  endfor
endfor
)"},
    {"tests/corpus/edits/base.tiny",
     R"(loop i@1 (depth 1): serial; carried: a(i)->a(i-1) b(i)->b(i-1)
loop i@3 (depth 1): serial; carried: c(i,j)->c(i-1,j)
loop j@3 (depth 2): serial; carried: c(i,j)->c(i,j-1) d(i,j)->d(i,j-1)
loop i@5 (depth 1): serial; carried: e(j)->e(j) e(j)->e(j) e(j)->e(j)
loop j@5 (depth 2): parallelizable
interchange(i@3, j@3): legal
interchange(i@5, j@5): legal
distribute i@1: {1}* {2}*
distribute i@3: {3}* {4}*
distribute j@3: {3}* {4}*
)",
     R"(for i := 1 to n do
  a(i) := a(i-1)+1;
  b(i) := a(i)+b(i-1);
endfor
for i := 2 to n do
  for j := 2 to m do
    c(i,j) := c(i-1,j)+c(i,j-1);
    d(i,j) := c(i,j)+d(i,j-1);
  endfor
endfor
for i := 1 to n do
  parallel for j := 1 to m do
    e(j) := e(j)+d(i,j);
  endfor
endfor
)"},
    {"tests/corpus/edits/bound.tiny",
     R"(loop i@1 (depth 1): serial; carried: a(i)->a(i-1) b(i)->b(i-1)
loop i@3 (depth 1): serial; carried: c(i,j)->c(i-1,j)
loop j@3 (depth 2): serial; carried: c(i,j)->c(i,j-1) d(i,j)->d(i,j-1)
loop i@5 (depth 1): serial; carried: e(j)->e(j) e(j)->e(j) e(j)->e(j)
loop j@5 (depth 2): parallelizable
interchange(i@3, j@3): legal
interchange(i@5, j@5): legal
distribute i@1: {1}* {2}*
distribute i@3: {3}* {4}*
distribute j@3: {3}* {4}*
)",
     R"(for i := 1 to n do
  a(i) := a(i-1)+1;
  b(i) := a(i)+b(i-1);
endfor
for i := 2 to n do
  for j := 3 to m do
    c(i,j) := c(i-1,j)+c(i,j-1);
    d(i,j) := c(i,j)+d(i,j-1);
  endfor
endfor
for i := 1 to n do
  parallel for j := 1 to m do
    e(j) := e(j)+d(i,j);
  endfor
endfor
)"},
    {"tests/corpus/edits/interchange.tiny",
     R"(loop i@1 (depth 1): serial; carried: a(i)->a(i-1) b(i)->b(i-1)
loop j (depth 1): serial; carried: c(i,j)->c(i,j-1) d(i,j)->d(i,j-1)
loop i (depth 2): serial; carried: c(i,j)->c(i-1,j)
loop i@5 (depth 1): serial; carried: e(j)->e(j) e(j)->e(j) e(j)->e(j)
loop j (depth 2): parallelizable
interchange(j, i): legal
interchange(i@5, j): legal
distribute i@1: {1}* {2}*
distribute j: {3}* {4}*
distribute i: {3}* {4}
)",
     R"(for i := 1 to n do
  a(i) := a(i-1)+1;
  b(i) := a(i)+b(i-1);
endfor
for j := 2 to m do
  for i := 2 to n do
    c(i,j) := c(i-1,j)+c(i,j-1);
    d(i,j) := c(i,j)+d(i,j-1);
  endfor
endfor
for i := 1 to n do
  parallel for j := 1 to m do
    e(j) := e(j)+d(i,j);
  endfor
endfor
)"},
    {"tests/corpus/edits/loop-del.tiny",
     R"(loop i@1 (depth 1): serial; carried: a(i)->a(i-1) b(i)->b(i-1)
loop i@3 (depth 1): serial; carried: c(i,j)->c(i-1,j)
loop j (depth 2): serial; carried: c(i,j)->c(i,j-1) d(i,j)->d(i,j-1)
interchange(i@3, j): legal
distribute i@1: {1}* {2}*
distribute i@3: {3}* {4}*
distribute j: {3}* {4}*
)",
     R"(for i := 1 to n do
  a(i) := a(i-1)+1;
  b(i) := a(i)+b(i-1);
endfor
for i := 2 to n do
  for j := 2 to m do
    c(i,j) := c(i-1,j)+c(i,j-1);
    d(i,j) := c(i,j)+d(i,j-1);
  endfor
endfor
)"},
    {"tests/corpus/edits/rename-reorder.tiny",
     R"(loop q@1 (depth 1): serial; carried: a(q)->a(q-1) b(q)->b(q-1)
loop q@3 (depth 1): serial; carried: c(q,p)->c(q-1,p)
loop p@3 (depth 2): serial; carried: c(q,p)->c(q,p-1) d(q,p)->d(q,p-1)
loop q@5 (depth 1): serial; carried: e(p)->e(p) e(p)->e(p) e(p)->e(p)
loop p@5 (depth 2): parallelizable
interchange(q@3, p@3): legal
interchange(q@5, p@5): legal
distribute q@1: {1}* {2}*
distribute q@3: {3}* {4}*
distribute p@3: {3}* {4}*
)",
     R"(for q := 1 to zz do
  a(q) := a(q-1)+1;
  b(q) := a(q)+b(q-1);
endfor
for q := 2 to zz do
  for p := 2 to aa do
    c(q,p) := c(q-1,p)+c(q,p-1);
    d(q,p) := c(q,p)+d(q,p-1);
  endfor
endfor
for q := 1 to zz do
  parallel for p := 1 to aa do
    e(p) := e(p)+d(q,p);
  endfor
endfor
)"},
    {"tests/corpus/edits/rename.tiny",
     R"(loop i@1 (depth 1): serial; carried: a(i)->a(i-1) b(i)->b(i-1)
loop ii (depth 1): serial; carried: c(ii,jj)->c(ii-1,jj)
loop jj (depth 2): serial; carried: c(ii,jj)->c(ii,jj-1) d(ii,jj)->d(ii,jj-1)
loop i@5 (depth 1): serial; carried: e(j)->e(j) e(j)->e(j) e(j)->e(j)
loop j (depth 2): parallelizable
interchange(ii, jj): legal
interchange(i@5, j): legal
distribute i@1: {1}* {2}*
distribute ii: {3}* {4}*
distribute jj: {3}* {4}*
)",
     R"(for i := 1 to n do
  a(i) := a(i-1)+1;
  b(i) := a(i)+b(i-1);
endfor
for ii := 2 to n do
  for jj := 2 to cols do
    c(ii,jj) := c(ii-1,jj)+c(ii,jj-1);
    d(ii,jj) := c(ii,jj)+d(ii,jj-1);
  endfor
endfor
for i := 1 to n do
  parallel for j := 1 to cols do
    e(j) := e(j)+d(i,j);
  endfor
endfor
)"},
    {"tests/corpus/edits/stmt-edit.tiny",
     R"(loop i@1 (depth 1): serial; carried: a(i)->a(i-1) b(i)->b(i-1)
loop i@3 (depth 1): serial; carried: c(i,j)->c(i-1,j)
loop j@3 (depth 2): serial; carried: c(i,j)->c(i,j-1) d(i,j)->d(i,j-2)
loop i@5 (depth 1): serial; carried: e(j)->e(j) e(j)->e(j) e(j)->e(j)
loop j@5 (depth 2): parallelizable
interchange(i@3, j@3): legal
interchange(i@5, j@5): legal
distribute i@1: {1}* {2}*
distribute i@3: {3}* {4}*
distribute j@3: {3}* {4}*
)",
     R"(for i := 1 to n do
  a(i) := a(i-1)+1;
  b(i) := a(i)+b(i-1);
endfor
for i := 2 to n do
  for j := 2 to m do
    c(i,j) := c(i-1,j)+c(i,j-1);
    d(i,j) := c(i,j)+d(i,j-2);
  endfor
endfor
for i := 1 to n do
  parallel for j := 1 to m do
    e(j) := e(j)+d(i,j);
  endfor
endfor
)"},
    {"tests/corpus/edits/stmt-new.tiny",
     R"(loop i@1 (depth 1): serial; carried: a(i)->a(i-1) b(i)->b(i-1)
loop i@4 (depth 1): serial; carried: c(i,j)->c(i-1,j)
loop j@4 (depth 2): serial; carried: c(i,j)->c(i,j-1) d(i,j)->d(i,j-1)
loop i@6 (depth 1): serial; carried: e(j)->e(j) e(j)->e(j) e(j)->e(j)
loop j@6 (depth 2): parallelizable
interchange(i@4, j@4): legal
interchange(i@6, j@6): legal
distribute i@1: {1}* {2}* {3}
distribute i@4: {4}* {5}*
distribute j@4: {4}* {5}*
)",
     R"(for i := 1 to n do
  a(i) := a(i-1)+1;
  b(i) := a(i)+b(i-1);
  f(i) := a(i)+b(i);
endfor
for i := 2 to n do
  for j := 2 to m do
    c(i,j) := c(i-1,j)+c(i,j-1);
    d(i,j) := c(i,j)+d(i,j-1);
  endfor
endfor
for i := 1 to n do
  parallel for j := 1 to m do
    e(j) := e(j)+d(i,j);
  endfor
endfor
)"},
};

} // namespace

TEST(Transforms, ReportTextIsPinned) {
  std::set<std::string> Pinned;
  for (const PinnedReport &P : PinnedReports) {
    SCOPED_TRACE(P.File);
    Pinned.insert(P.File);
    std::ifstream In(fs::path(OMEGA_SOURCE_DIR) / P.File);
    ASSERT_TRUE(In) << "missing " << P.File;
    std::ostringstream OS;
    OS << In.rdbuf();
    AnalyzedProgram AP = analyzeSource(OS.str());
    ASSERT_TRUE(AP.ok());
    AnalysisResult R = analyzeProgram(AP);
    EXPECT_EQ(transformReport(AP, R), P.Report);
    EXPECT_EQ(transform::renderParallelSchedule(AP, R), P.Schedule);
  }
  // Every program in both directories is pinned.
  for (const char *Dir : {"examples/programs", "tests/corpus/edits"}) {
    for (const fs::directory_entry &E :
         fs::directory_iterator(fs::path(OMEGA_SOURCE_DIR) / Dir)) {
      if (E.path().extension() != ".tiny")
        continue;
      std::string Name = std::string(Dir) + "/" + E.path().filename().string();
      EXPECT_EQ(Pinned.count(Name), 1u) << Name << " is not pinned";
    }
  }
}
