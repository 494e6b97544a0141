//===- tests/PersistenceTest.cpp - Result-store save/load contract --------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// The warm-start file contract of the result store, fed by real engine
// runs: save -> load -> save round-trips bit-identically, fingerprint keys
// are stable across engine lifetimes (a warm-started engine re-misses
// nothing), and a corrupted file is rejected into a cold start -- never
// into wrong answers.
//
//===----------------------------------------------------------------------===//

#include "engine/DependenceEngine.h"
#include "engine/ResultStore.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <string>

using namespace omega;

namespace {

/// Analyzes the first few corpus kernels on a fresh engine feeding
/// \p Store, and returns the number analyzed.
unsigned warm(engine::ResultStore &Store, unsigned MaxKernels = 5) {
  engine::AnalysisRequest Req;
  Req.Store = &Store;
  engine::DependenceEngine Engine(Req);
  unsigned Analyzed = 0;
  for (const kernels::Kernel &K : kernels::corpus()) {
    ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
    if (!AP.ok())
      continue;
    (void)Engine.analyze(AP);
    if (++Analyzed == MaxKernels)
      break;
  }
  return Analyzed;
}

engine::AnalysisResult analyzeWith(engine::ResultStore *Store,
                                   const ir::AnalyzedProgram &AP) {
  engine::AnalysisRequest Req;
  Req.Store = Store;
  engine::DependenceEngine Engine(Req);
  return Engine.analyze(AP);
}

} // namespace

// save -> load -> save must be byte-identical: entries are emitted sorted
// by key, so the file is independent of hash-map iteration order.
TEST(Persistence, RoundTripIsBitIdentical) {
  engine::ResultStore Store;
  ASSERT_GT(warm(Store), 0u);
  ASSERT_GT(Store.size(), 0u);

  std::string First = Store.serialize();
  ASSERT_FALSE(First.empty());

  engine::ResultStore Restored;
  std::string Err;
  ASSERT_TRUE(Restored.deserialize(First, &Err)) << Err;
  EXPECT_EQ(Restored.size(), Store.size());
  EXPECT_EQ(Restored.serialize(), First);
}

// Keys are canonical pair fingerprints, derived purely from the programs,
// so two fresh engines given the same programs persist the same bytes --
// which is what makes a warm-start file from one server lifetime valid in
// the next.
TEST(Persistence, KeysAreStableAcrossEngineLifetimes) {
  engine::ResultStore A, B;
  ASSERT_GT(warm(A), 0u);
  ASSERT_GT(warm(B), 0u);
  EXPECT_EQ(A.serialize(), B.serialize());
}

// A warm-started engine materializes every group from the loaded entries
// and returns the exact structural result a cold engine computes.
TEST(Persistence, WarmStartHitsAndMatchesColdResults) {
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());
  engine::ResultStore ColdStore;
  engine::AnalysisResult ColdResult = analyzeWith(&ColdStore, AP);
  std::string File = ColdStore.serialize();

  engine::ResultStore WarmStore;
  std::string Err;
  ASSERT_TRUE(WarmStore.deserialize(File, &Err)) << Err;
  engine::AnalysisResult WarmResult = analyzeWith(&WarmStore, AP);

  EXPECT_EQ(ColdResult.liveFlowTable(), WarmResult.liveFlowTable());
  EXPECT_EQ(ColdResult.deadFlowTable(), WarmResult.deadFlowTable());
  EXPECT_EQ(WarmResult.Stats.ResultStoreMisses, 0u)
      << "a warm start must re-miss nothing example1 already answered";
  EXPECT_EQ(WarmResult.Stats.ResultStoreHits,
            ColdResult.Stats.ResultStoreMisses);
}

// Corruption in any region -- magic, version, payload, checksum,
// truncation, trailing bytes -- must be rejected, leaving the store empty
// (cold start), and analysis afterwards still produces correct results.
TEST(Persistence, CorruptFilesAreRejectedToColdStart) {
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());
  engine::ResultStore Source;
  engine::AnalysisResult Expect = analyzeWith(&Source, AP);
  std::string Good = Source.serialize();
  ASSERT_GT(Good.size(), 24u);

  std::vector<std::pair<const char *, std::string>> Corruptions;
  std::string T = Good;
  T[0] = 'X'; // magic
  Corruptions.push_back({"bad magic", T});
  T = Good;
  T[4] = static_cast<char>(T[4] + 1); // version
  Corruptions.push_back({"bad version", T});
  T = Good;
  T[Good.size() / 2] = static_cast<char>(T[Good.size() / 2] ^ 0x5a);
  Corruptions.push_back({"payload bit flip", T});
  T = Good;
  T.back() = static_cast<char>(T.back() ^ 0x01);
  Corruptions.push_back({"checksum flip", T});
  Corruptions.push_back({"truncated", Good.substr(0, Good.size() - 9)});
  Corruptions.push_back({"empty", std::string()});
  Corruptions.push_back({"trailing garbage", Good + "zzzz"});

  for (const auto &[Name, Bytes] : Corruptions) {
    engine::ResultStore Victim;
    std::string Err;
    EXPECT_FALSE(Victim.deserialize(Bytes, &Err)) << Name;
    EXPECT_FALSE(Err.empty()) << Name;
    EXPECT_EQ(Victim.size(), 0u) << Name << ": must degrade to cold start";

    // Cold-started analysis is still correct.
    engine::AnalysisResult R = analyzeWith(&Victim, AP);
    EXPECT_EQ(Expect.liveFlowTable(), R.liveFlowTable()) << Name;
    EXPECT_EQ(Expect.deadFlowTable(), R.deadFlowTable()) << Name;
  }

  // And the untouched file still loads.
  engine::ResultStore Fine;
  std::string Err;
  EXPECT_TRUE(Fine.deserialize(Good, &Err)) << Err;
  EXPECT_GT(Fine.size(), 0u);
}
