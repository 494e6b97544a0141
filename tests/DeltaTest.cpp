//===- tests/DeltaTest.cpp - Edit-incremental re-analysis -----------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// The incremental contract, end to end: canonical pair fingerprints are
// name-free and semantics-sensitive; baselines round-trip through their
// binary format and reject corruption; an analysis replayed against a
// baseline renders byte-identical results while classifying every pair
// group exactly once; the global result store answers structurally-seen
// pairs across unrelated requests (LRU-bounded, sig-gated, thread-safe,
// with checksummed persistence that rejects corruption whole); and the
// serving stack retains per-session baselines, falls back to the global
// store after eviction, and clamps per-request parallelism to the worker
// pool.
//
//===----------------------------------------------------------------------===//

#include "api/Json.h"
#include "api/Response.h"
#include "api/Serve.h"
#include "deps/Fingerprint.h"
#include "engine/DeltaPlanner.h"
#include "engine/DependenceEngine.h"
#include "engine/ResultStore.h"
#include "engine/WorkerPool.h"
#include "ir/Sema.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace omega;

namespace {

std::string readEdit(const std::string &Name) {
  std::ifstream In(std::string(OMEGA_EDITS_DIR) + "/" + Name + ".tiny");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

ir::AnalyzedProgram analyzeOk(const std::string &Source) {
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  EXPECT_TRUE(AP.ok()) << Source;
  return AP;
}

/// The access-pair group count of \p AP, measured the way the planner
/// counts: a delta run with no baseline to consult classifies every
/// group "new".
uint64_t groupTotal(const ir::AnalyzedProgram &AP) {
  engine::AnalysisRequest Req;
  Req.BuildBaseline = true;
  engine::DependenceEngine Engine(Req);
  engine::AnalysisResult R = Engine.analyze(AP);
  EXPECT_TRUE(R.Delta.Active);
  EXPECT_EQ(R.Delta.PairsReused, 0u);
  EXPECT_EQ(R.Delta.PairsResolved, 0u);
  return R.Delta.PairsNew;
}

/// First access of \p Array with the requested role.
const ir::Access &find(const ir::AnalyzedProgram &AP, const std::string &Array,
                       bool IsWrite) {
  for (const ir::Access &A : AP.Accesses)
    if (A.Array == Array && A.IsWrite == IsWrite)
      return A;
  ADD_FAILURE() << "no " << (IsWrite ? "write" : "read") << " of " << Array;
  return AP.Accesses.front();
}

/// One BuildBaseline run over \p Source; returns the recorded baseline.
std::shared_ptr<const engine::BaselineResult>
recordBaseline(const std::string &Source) {
  engine::AnalysisRequest Req;
  Req.BuildBaseline = true;
  engine::DependenceEngine Engine(Req);
  engine::AnalysisResult R = Engine.analyze(analyzeOk(Source));
  EXPECT_NE(R.Baseline, nullptr);
  return R.Baseline;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

// Renaming loop variables, arrays, and symbolic constants leaves every
// pair and kill-group fingerprint unchanged: the two baselines carry
// identical key sets.
TEST(Fingerprint, NameFree) {
  std::shared_ptr<const engine::BaselineResult> Base =
      recordBaseline(readEdit("base"));
  std::shared_ptr<const engine::BaselineResult> Renamed =
      recordBaseline(readEdit("rename"));
  ASSERT_NE(Base, nullptr);
  ASSERT_NE(Renamed, nullptr);

  std::vector<std::string> BaseKeys, RenamedKeys;
  for (const auto &KV : Base->Pairs)
    BaseKeys.push_back(KV.first);
  for (const auto &KV : Renamed->Pairs)
    RenamedKeys.push_back(KV.first);
  EXPECT_EQ(BaseKeys, RenamedKeys);

  std::vector<std::string> BaseKills, RenamedKills;
  for (const auto &KV : Base->KillGroups)
    BaseKills.push_back(KV.first);
  for (const auto &KV : Renamed->KillGroups)
    RenamedKills.push_back(KV.first);
  EXPECT_EQ(BaseKills, RenamedKills);
}

// An array rename alone also preserves fingerprints (names never enter
// the serialization), while semantic edits -- a different subscript or a
// different loop bound -- change the affected pair's key.
TEST(Fingerprint, SemanticEditsChangeKeysRenamesDoNot) {
  const std::string Base = "symbolic n;\n"
                           "for i := 1 to n do\n"
                           "  a(i) := a(i-1) + 1;\n"
                           "endfor\n";
  const std::string Renamed = "symbolic m;\n"
                              "for k := 1 to m do\n"
                              "  zz(k) := zz(k-1) + 1;\n"
                              "endfor\n";
  const std::string Subscript = "symbolic n;\n"
                                "for i := 1 to n do\n"
                                "  a(i) := a(i-2) + 1;\n"
                                "endfor\n";
  const std::string Bound = "symbolic n;\n"
                            "for i := 2 to n do\n"
                            "  a(i) := a(i-1) + 1;\n"
                            "endfor\n";

  ir::AnalyzedProgram APBase = analyzeOk(Base);
  deps::FingerprintBuilder FBBase(APBase);
  deps::PairFingerprint Orig =
      FBBase.pair(find(APBase, "a", true), find(APBase, "a", false));

  ir::AnalyzedProgram APRen = analyzeOk(Renamed);
  EXPECT_EQ(Orig.Key, deps::FingerprintBuilder(APRen).pair(
                          find(APRen, "zz", true), find(APRen, "zz", false))
                          .Key);

  ir::AnalyzedProgram APSub = analyzeOk(Subscript);
  EXPECT_NE(Orig.Key, deps::FingerprintBuilder(APSub).pair(
                          find(APSub, "a", true), find(APSub, "a", false))
                          .Key);

  ir::AnalyzedProgram APBound = analyzeOk(Bound);
  EXPECT_NE(Orig.Key, deps::FingerprintBuilder(APBound)
                          .pair(find(APBound, "a", true),
                                find(APBound, "a", false))
                          .Key);
}

// The unordered-pair key is orientation-canonical: both argument orders
// produce the same key, with Swapped recording which order the canonical
// serialization lists. Self pairs are never swapped.
TEST(Fingerprint, OrientationCanonical) {
  ir::AnalyzedProgram AP = analyzeOk("symbolic n;\n"
                                     "for i := 1 to n do\n"
                                     "  a(i) := a(i-1) + 1;\n"
                                     "endfor\n");
  deps::FingerprintBuilder FB(AP);
  const ir::Access &W = find(AP, "a", true);
  const ir::Access &R = find(AP, "a", false);

  deps::PairFingerprint WR = FB.pair(W, R);
  deps::PairFingerprint RW = FB.pair(R, W);
  EXPECT_EQ(WR.Key, RW.Key);
  EXPECT_NE(WR.Swapped, RW.Swapped);

  deps::PairFingerprint Self = FB.pair(W, W);
  EXPECT_FALSE(Self.Swapped);
  EXPECT_NE(Self.Key, WR.Key);
}

//===----------------------------------------------------------------------===//
// Baseline persistence
//===----------------------------------------------------------------------===//

TEST(Baseline, SerializeRoundTrip) {
  std::shared_ptr<const engine::BaselineResult> Base =
      recordBaseline(readEdit("base"));
  ASSERT_NE(Base, nullptr);
  EXPECT_FALSE(Base->Pairs.empty());
  EXPECT_FALSE(Base->Arrays.empty());

  std::string Bytes = Base->serialize();
  engine::BaselineResult Loaded;
  std::string Err;
  ASSERT_TRUE(engine::BaselineResult::deserialize(Bytes, &Loaded, &Err))
      << Err;
  EXPECT_TRUE(Loaded.Sig == Base->Sig);
  EXPECT_EQ(Loaded.Arrays, Base->Arrays);
  ASSERT_EQ(Loaded.Pairs.size(), Base->Pairs.size());
  ASSERT_EQ(Loaded.KillGroups.size(), Base->KillGroups.size());
  // Deterministic serialization: a round-trip reproduces the bytes.
  EXPECT_EQ(Loaded.serialize(), Bytes);
}

TEST(Baseline, CorruptionRejected) {
  std::shared_ptr<const engine::BaselineResult> Base =
      recordBaseline(readEdit("base"));
  ASSERT_NE(Base, nullptr);
  std::string Bytes = Base->serialize();

  engine::BaselineResult Out;
  std::string Err;
  EXPECT_FALSE(engine::BaselineResult::deserialize(
      Bytes.substr(0, Bytes.size() / 2), &Out, &Err));
  EXPECT_FALSE(Err.empty());

  std::string Flipped = Bytes;
  Flipped.back() = static_cast<char>(Flipped.back() ^ 0x40);
  Err.clear();
  EXPECT_FALSE(engine::BaselineResult::deserialize(Flipped, &Out, &Err));
  EXPECT_FALSE(Err.empty());

  std::string BadMagic = Bytes;
  BadMagic.front() = static_cast<char>(BadMagic.front() ^ 0x01);
  Err.clear();
  EXPECT_FALSE(engine::BaselineResult::deserialize(BadMagic, &Out, &Err));
  EXPECT_FALSE(Err.empty());

  Err.clear();
  EXPECT_FALSE(engine::BaselineResult::deserialize(std::string(), &Out, &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(Baseline, SaveLoadFile) {
  std::shared_ptr<const engine::BaselineResult> Base =
      recordBaseline(readEdit("base"));
  ASSERT_NE(Base, nullptr);

  std::string Path = ::testing::TempDir() + "delta_test.baseline";
  std::string Err;
  ASSERT_TRUE(Base->saveFile(Path, &Err)) << Err;

  engine::BaselineResult Loaded;
  ASSERT_TRUE(engine::BaselineResult::loadFile(Path, &Loaded, &Err)) << Err;
  EXPECT_EQ(Loaded.serialize(), Base->serialize());
  std::remove(Path.c_str());

  EXPECT_FALSE(engine::BaselineResult::loadFile(
      ::testing::TempDir() + "delta_test_missing.baseline", &Loaded, &Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Global result store
//===----------------------------------------------------------------------===//

namespace {

/// A minimal but non-trivial pair outcome for store unit tests.
engine::PairOutcome samplePair(unsigned Tag) {
  engine::PairOutcome Out;
  engine::PortableDep D;
  D.Kind = static_cast<uint8_t>(Tag & 0x7);
  D.Present = true;
  Out.Queries.push_back(D);
  Out.HasFlowRecord = (Tag & 1) != 0;
  Out.RecHasFlow = Out.HasFlowRecord;
  return Out;
}

engine::KillGroupOutcome sampleKillGroup(unsigned Tag) {
  engine::KillGroupOutcome Out;
  engine::PortableKillRecord Rec;
  Rec.VictimPos = Tag;
  Rec.Killed = true;
  Out.Records.push_back(Rec);
  engine::KillGroupOutcome::DepState St;
  St.WritePos = Tag;
  St.Splits.emplace_back(true, 'K');
  Out.States.push_back(St);
  return Out;
}

} // namespace

// Lookups hit only under the (kind, pipeline signature) they were stored
// with, and every lookup lands on exactly one of the hit/miss counters.
TEST(ResultStore, HitMissSigAndKindSeparation) {
  engine::ResultStore Store(0); // unbounded
  engine::PipelineSig Sig;
  EXPECT_FALSE(Store.lookupPair("fp", Sig).has_value()); // miss 1

  EXPECT_EQ(Store.storePair("fp", Sig, samplePair(1)), 0u);
  EXPECT_EQ(Store.size(), 1u);

  std::optional<engine::PairOutcome> Hit = Store.lookupPair("fp", Sig);
  ASSERT_TRUE(Hit.has_value()); // hit 1
  ASSERT_EQ(Hit->Queries.size(), 1u);
  EXPECT_TRUE(Hit->Queries[0].Present);

  // The pipeline signature is part of the key ...
  engine::PipelineSig Other;
  Other.Kill = false;
  EXPECT_FALSE(Store.lookupPair("fp", Other).has_value()); // miss 2
  // ... and so is the entry kind: a pair entry never answers a
  // kill-group lookup of the same fingerprint.
  EXPECT_FALSE(Store.lookupKillGroup("fp", Sig).has_value()); // miss 3

  EXPECT_EQ(Store.storeKillGroup("fp", Sig, sampleKillGroup(2)), 0u);
  EXPECT_EQ(Store.size(), 2u);
  std::optional<engine::KillGroupOutcome> KHit =
      Store.lookupKillGroup("fp", Sig); // hit 2
  ASSERT_TRUE(KHit.has_value());
  ASSERT_EQ(KHit->Records.size(), 1u);
  EXPECT_TRUE(KHit->Records[0].Killed);

  // Re-storing an existing key refreshes in place, no growth.
  EXPECT_EQ(Store.storePair("fp", Sig, samplePair(3)), 0u);
  EXPECT_EQ(Store.size(), 2u);

  engine::ResultStoreStats St = Store.stats();
  EXPECT_EQ(St.Hits, 2u);
  EXPECT_EQ(St.Misses, 3u);
  EXPECT_EQ(St.Evictions, 0u);
  EXPECT_EQ(St.Entries, 2u);
}

TEST(ResultStore, CapacityBoundAndLRURecency) {
  engine::PipelineSig Sig;

  // Capacity 16 over 16 shards bounds every shard to one entry, so two
  // fingerprints evict each other iff they share a shard. Probe for two
  // fingerprints that collide with "seed".
  auto collides = [&](const std::string &FP) {
    engine::ResultStore Probe(16);
    Probe.storePair("seed", Sig, samplePair(0));
    return Probe.storePair(FP, Sig, samplePair(0)) == 1;
  };
  std::vector<std::string> Colliders;
  for (unsigned I = 0; I != 4096 && Colliders.size() < 2; ++I) {
    std::string FP = "cand" + std::to_string(I);
    if (collides(FP))
      Colliders.push_back(FP);
  }
  ASSERT_EQ(Colliders.size(), 2u) << "no shard colliders found";

  // Per-shard capacity 2 (total 32): seed and the first collider fit. A
  // lookup refreshes seed's recency, so the second collider evicts the
  // first collider, not seed.
  engine::ResultStore Store(32);
  Store.storePair("seed", Sig, samplePair(0));
  Store.storePair(Colliders[0], Sig, samplePair(1));
  EXPECT_TRUE(Store.lookupPair("seed", Sig).has_value());
  EXPECT_EQ(Store.storePair(Colliders[1], Sig, samplePair(2)), 1u);
  EXPECT_TRUE(Store.lookupPair("seed", Sig).has_value());
  EXPECT_FALSE(Store.lookupPair(Colliders[0], Sig).has_value());
  EXPECT_TRUE(Store.lookupPair(Colliders[1], Sig).has_value());
  EXPECT_EQ(Store.stats().Evictions, 1u);

  // The bound holds under churn: 64 distinct entries through capacity
  // 16 leave at most 16 alive, the overflow counted as evictions, and
  // the most recent store always survives.
  engine::ResultStore Small(16);
  for (unsigned I = 0; I != 64; ++I)
    Small.storePair("fp" + std::to_string(I), Sig, samplePair(I));
  EXPECT_LE(Small.size(), 16u);
  EXPECT_EQ(Small.stats().Evictions, 64u - Small.size());
  EXPECT_TRUE(Small.lookupPair("fp63", Sig).has_value());

  // Capacity 0 lifts the bound; shrinking re-imposes it immediately.
  Small.setCapacity(0);
  std::size_t Before = Small.size();
  for (unsigned I = 100; I != 164; ++I)
    Small.storePair("fp" + std::to_string(I), Sig, samplePair(I));
  EXPECT_EQ(Small.size(), Before + 64u);
  Small.setCapacity(16);
  EXPECT_LE(Small.size(), 16u);
}

// The 'OMRS' file: save -> load -> save is bit-identical, loaded entries
// answer under their recorded signature, and every corruption flavor
// (empty, bad magic, version skew, checksum flip, truncation, trailing
// garbage) rejects the whole file and leaves the store empty.
TEST(ResultStore, PersistenceRoundTripAndCorruption) {
  engine::PipelineSig Sig;
  engine::PipelineSig Alt;
  Alt.QuickTests = false;

  engine::ResultStore Store(0);
  for (unsigned I = 0; I != 8; ++I)
    Store.storePair("p" + std::to_string(I), I % 2 ? Sig : Alt,
                    samplePair(I));
  for (unsigned I = 0; I != 4; ++I)
    Store.storeKillGroup("k" + std::to_string(I), Sig, sampleKillGroup(I));

  std::string Bytes = Store.serialize();
  engine::ResultStore Loaded(0);
  std::string Err;
  ASSERT_TRUE(Loaded.deserialize(Bytes, &Err)) << Err;
  EXPECT_EQ(Loaded.size(), Store.size());
  EXPECT_EQ(Loaded.serialize(), Bytes);
  EXPECT_TRUE(Loaded.lookupPair("p1", Sig).has_value());
  EXPECT_TRUE(Loaded.lookupPair("p0", Alt).has_value());
  EXPECT_FALSE(Loaded.lookupPair("p0", Sig).has_value());
  EXPECT_TRUE(Loaded.lookupKillGroup("k3", Sig).has_value());

  struct Corrupt {
    const char *Tag;
    std::string Bytes;
  } Cases[] = {
      {"empty", std::string()},
      {"bad-magic",
       [&] {
         std::string B = Bytes;
         B[0] = static_cast<char>(B[0] ^ 0x20);
         return B;
       }()},
      {"version-skew",
       [&] {
         std::string B = Bytes;
         B[4] = static_cast<char>(B[4] ^ 0x01);
         return B;
       }()},
      {"checksum",
       [&] {
         std::string B = Bytes;
         B.back() = static_cast<char>(B.back() ^ 0x01);
         return B;
       }()},
      {"truncated", Bytes.substr(0, Bytes.size() / 2)},
      {"oversized", Bytes + "x"},
  };
  for (const Corrupt &C : Cases) {
    SCOPED_TRACE(C.Tag);
    engine::ResultStore Victim(0);
    Victim.storePair("stale", Sig, samplePair(9));
    Err.clear();
    EXPECT_FALSE(Victim.deserialize(C.Bytes, &Err));
    EXPECT_FALSE(Err.empty());
    EXPECT_EQ(Victim.size(), 0u);
  }

  std::string Path = ::testing::TempDir() + "delta_test.resultstore";
  ASSERT_TRUE(Store.saveFile(Path, &Err)) << Err;
  engine::ResultStore FromFile(0);
  ASSERT_TRUE(FromFile.loadFile(Path, &Err)) << Err;
  EXPECT_EQ(FromFile.serialize(), Bytes);
  std::remove(Path.c_str());
  EXPECT_FALSE(FromFile.loadFile(Path, &Err));
  EXPECT_FALSE(Err.empty());
}

// N threads hammer one store with mixed lookups, stores, capacity
// changes, and serializations (run under TSan in CI). The at-rest gates:
// exact hit+miss accounting, the capacity bound, and a clean round-trip
// of whatever population survived.
TEST(ResultStore, ConcurrentHammer) {
  engine::ResultStore Store(64);
  engine::PipelineSig Sig;
  constexpr unsigned Threads = 8, Ops = 600, KeySpace = 48;
  std::atomic<uint64_t> Lookups{0};

  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&Store, &Sig, &Lookups, T] {
      for (unsigned I = 0; I != Ops; ++I) {
        std::string FP = "fp" + std::to_string((T * 7 + I) % KeySpace);
        switch (I % 5) {
        case 0:
          Store.storePair(FP, Sig, samplePair(I));
          break;
        case 1:
          Store.lookupPair(FP, Sig);
          Lookups.fetch_add(1);
          break;
        case 2:
          Store.storeKillGroup(FP, Sig, sampleKillGroup(I));
          break;
        case 3:
          Store.lookupKillGroup(FP, Sig);
          Lookups.fetch_add(1);
          break;
        case 4:
          if (I % 100 == 4) {
            Store.serialize();
          } else {
            Store.lookupPair(FP, Sig);
            Lookups.fetch_add(1);
          }
          break;
        }
        if (T == 0 && I % 200 == 199)
          Store.setCapacity(I % 400 == 199 ? 32 : 64);
      }
    });
  for (std::thread &Th : Pool)
    Th.join();

  engine::ResultStoreStats St = Store.stats();
  EXPECT_EQ(St.Hits + St.Misses, Lookups.load());
  Store.setCapacity(64);
  EXPECT_LE(Store.size(), 64u);

  std::string Bytes = Store.serialize();
  engine::ResultStore Copy(0);
  std::string Err;
  ASSERT_TRUE(Copy.deserialize(Bytes, &Err)) << Err;
  EXPECT_EQ(Copy.serialize(), Bytes);
}

//===----------------------------------------------------------------------===//
// Incremental analysis over the edit corpus
//===----------------------------------------------------------------------===//

// The central gate: for every entry of the edit corpus, replaying the
// base program's baseline renders a byte-identical result, reuses at
// least one pair, and classifies every pair group exactly once.
TEST(Delta, CorpusByteIdentityAndAccounting) {
  std::shared_ptr<const engine::BaselineResult> Base =
      recordBaseline(readEdit("base"));
  ASSERT_NE(Base, nullptr);

  const char *Edits[] = {"rename",   "bound",       "stmt-new",
                         "stmt-edit", "loop-del",   "interchange",
                         "rename-reorder"};
  for (const char *Name : Edits) {
    SCOPED_TRACE(Name);
    ir::AnalyzedProgram AP = analyzeOk(readEdit(Name));

    engine::DependenceEngine Scratch;
    std::string Expected = api::renderResult(Scratch.analyze(AP));

    engine::AnalysisRequest Req;
    Req.Baseline = Base.get();
    Req.BuildBaseline = true;
    engine::DependenceEngine Engine(Req);
    engine::AnalysisResult R = Engine.analyze(AP);

    EXPECT_EQ(api::renderResult(R), Expected);
    ASSERT_TRUE(R.Delta.Active);
    EXPECT_GT(R.Delta.PairsReused, 0u);
    EXPECT_EQ(R.Delta.PairsReused + R.Delta.PairsResolved + R.Delta.PairsNew,
              groupTotal(AP));
    // The stats mirror carries the same tallies.
    EXPECT_EQ(R.Stats.DeltaPairsReused, R.Delta.PairsReused);
    EXPECT_EQ(R.Stats.DeltaPairsResolved, R.Delta.PairsResolved);
    EXPECT_EQ(R.Stats.DeltaPairsNew, R.Delta.PairsNew);
  }
}

// Every class has a witness. A structurally novel pair on an unknown
// array is "new" (the corpus itself never produces one: its added pairs
// all structurally match existing fingerprints); an edited pair on a
// known array is "resolved"; its orphaned baseline key is "removed".
TEST(Delta, ClassificationWitnesses) {
  const std::string Base = "symbolic n;\n"
                           "for i := 1 to n do\n"
                           "  a(i) := a(i-1) + 1;\n"
                           "endfor\n";
  std::shared_ptr<const engine::BaselineResult> BP = recordBaseline(Base);
  ASSERT_NE(BP, nullptr);

  // A second nest on a new array, transposed 2-D subscripts: nothing in
  // the baseline matches structurally, and "z" is not a known array.
  const std::string AddsNewArray = Base +
                                   "for i := 1 to n do\n"
                                   "  for j := 1 to n do\n"
                                   "    z(i,j) := z(j,i) + 1;\n"
                                   "  endfor\n"
                                   "endfor\n";
  // Same arrays, different subscript: fingerprints miss on a known array.
  const std::string EditsPair = "symbolic n;\n"
                                "for i := 1 to n do\n"
                                "  a(i) := a(i-2) + 1;\n"
                                "endfor\n";

  struct Case {
    const char *Tag;
    const std::string &Source;
    bool WantNew, WantResolved, WantRemoved;
  } Cases[] = {
      {"new-array", AddsNewArray, true, false, false},
      {"edited-pair", EditsPair, false, true, true},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Tag);
    ir::AnalyzedProgram AP = analyzeOk(C.Source);

    engine::DependenceEngine Scratch;
    std::string Expected = api::renderResult(Scratch.analyze(AP));

    engine::AnalysisRequest Req;
    Req.Baseline = BP.get();
    Req.BuildBaseline = true;
    engine::DependenceEngine Engine(Req);
    engine::AnalysisResult R = Engine.analyze(AP);

    EXPECT_EQ(api::renderResult(R), Expected);
    ASSERT_TRUE(R.Delta.Active);
    EXPECT_GT(R.Delta.PairsReused, 0u);
    EXPECT_EQ(R.Delta.PairsNew > 0, C.WantNew);
    EXPECT_EQ(R.Delta.PairsResolved > 0, C.WantResolved);
    EXPECT_EQ(R.Delta.PairsRemoved > 0, C.WantRemoved);
    EXPECT_EQ(R.Delta.PairsReused + R.Delta.PairsResolved + R.Delta.PairsNew,
              groupTotal(AP));
  }
}

// An identical replay reuses every pair and every kill group.
TEST(Delta, IdenticalReplayReusesEverything) {
  std::string Source = readEdit("base");
  std::shared_ptr<const engine::BaselineResult> Base = recordBaseline(Source);
  ASSERT_NE(Base, nullptr);
  ir::AnalyzedProgram AP = analyzeOk(Source);

  engine::AnalysisRequest Req;
  Req.Baseline = Base.get();
  Req.BuildBaseline = true;
  engine::DependenceEngine Engine(Req);
  engine::AnalysisResult R = Engine.analyze(AP);

  ASSERT_TRUE(R.Delta.Active);
  EXPECT_EQ(R.Delta.PairsResolved, 0u);
  EXPECT_EQ(R.Delta.PairsNew, 0u);
  EXPECT_EQ(R.Delta.PairsRemoved, 0u);
  EXPECT_EQ(R.Delta.PairsReused, groupTotal(AP));
  EXPECT_GT(R.Delta.KillGroupsTotal, 0u);
  EXPECT_EQ(R.Delta.KillGroupsReused, R.Delta.KillGroupsTotal);
}

// The rename gate, both tiers: plain renames and renames that reorder
// first mentions are 100% reused per-session (full baseline reuse) AND
// via the global result store with no baseline or session at all.
TEST(Delta, RenameEditsFullyReusedViaStore) {
  std::string BaseSrc = readEdit("base");
  for (const char *Name : {"rename", "rename-reorder"}) {
    SCOPED_TRACE(Name);
    ir::AnalyzedProgram AP = analyzeOk(readEdit(Name));
    uint64_t Pairs = groupTotal(AP);

    // Per-session: replaying base's baseline reuses every pair and
    // every kill group.
    std::shared_ptr<const engine::BaselineResult> Base =
        recordBaseline(BaseSrc);
    ASSERT_NE(Base, nullptr);
    engine::AnalysisRequest SReq;
    SReq.Baseline = Base.get();
    SReq.BuildBaseline = true;
    engine::DependenceEngine Session(SReq);
    engine::AnalysisResult SR = Session.analyze(AP);
    ASSERT_TRUE(SR.Delta.Active);
    EXPECT_EQ(SR.Delta.PairsResolved, 0u);
    EXPECT_EQ(SR.Delta.PairsNew, 0u);
    EXPECT_EQ(SR.Delta.PairsReused, Pairs);
    EXPECT_GT(SR.Delta.KillGroupsTotal, 0u);
    EXPECT_EQ(SR.Delta.KillGroupsReused, SR.Delta.KillGroupsTotal);

    // Global store: feed it with a baseline-less, session-less run of
    // the base program ...
    engine::ResultStore Store;
    engine::AnalysisRequest Feed;
    Feed.Store = &Store;
    engine::DependenceEngine Feeder(Feed);
    engine::AnalysisResult FR = Feeder.analyze(analyzeOk(BaseSrc));
    EXPECT_EQ(FR.Stats.ResultStoreHits, 0u);
    EXPECT_GT(FR.Stats.ResultStoreMisses, 0u);
    // Structurally identical groups share one entry, so the population
    // is at most (and usually below) the miss count.
    EXPECT_GT(Store.size(), 0u);
    EXPECT_LE(Store.size(), FR.Stats.ResultStoreMisses);

    // ... then a fresh engine on the renamed program materializes every
    // pair and every kill group, byte-identical to a from-scratch run.
    engine::AnalysisRequest Use;
    Use.Store = &Store;
    engine::DependenceEngine User(Use);
    engine::AnalysisResult UR = User.analyze(AP);
    EXPECT_EQ(UR.Stats.ResultStoreMisses, 0u);
    EXPECT_EQ(UR.Stats.ResultStoreHits, Pairs + SR.Delta.KillGroupsTotal);

    engine::DependenceEngine Scratch;
    EXPECT_EQ(api::renderResult(UR), api::renderResult(Scratch.analyze(AP)));
  }
}

// Partial structural overlap reuses exactly the overlap: the interchange
// edit re-solves the second nest, and the untouched nests materialize
// from the store -- results still byte-identical to scratch.
TEST(Delta, StorePartialReuseOnInterchange) {
  engine::ResultStore Store;
  engine::AnalysisRequest Feed;
  Feed.Store = &Store;
  engine::DependenceEngine Feeder(Feed);
  Feeder.analyze(analyzeOk(readEdit("base")));

  ir::AnalyzedProgram AP = analyzeOk(readEdit("interchange"));
  engine::AnalysisRequest Use;
  Use.Store = &Store;
  engine::DependenceEngine User(Use);
  engine::AnalysisResult UR = User.analyze(AP);
  EXPECT_GT(UR.Stats.ResultStoreHits, 0u);
  EXPECT_GT(UR.Stats.ResultStoreMisses, 0u);

  engine::DependenceEngine Scratch;
  EXPECT_EQ(api::renderResult(UR), api::renderResult(Scratch.analyze(AP)));
}

// A baseline recorded under a different pipeline signature is unusable;
// Terminate opts out of the delta model entirely.
TEST(Delta, SignatureMismatchAndTerminateDisable) {
  std::string Source = readEdit("base");
  std::shared_ptr<const engine::BaselineResult> Base = recordBaseline(Source);
  ASSERT_NE(Base, nullptr);
  ir::AnalyzedProgram AP = analyzeOk(Source);

  engine::AnalysisRequest Req;
  Req.Baseline = Base.get();
  Req.BuildBaseline = true;
  Req.Refine = false; // signature mismatch: everything classifies new
  engine::DependenceEngine Mismatch(Req);
  engine::AnalysisResult R = Mismatch.analyze(AP);
  ASSERT_TRUE(R.Delta.Active);
  EXPECT_EQ(R.Delta.PairsReused, 0u);

  engine::AnalysisRequest TReq;
  TReq.Baseline = Base.get();
  TReq.BuildBaseline = true;
  TReq.Terminate = true;
  engine::DependenceEngine Terminating(TReq);
  engine::AnalysisResult TR = Terminating.analyze(AP);
  EXPECT_FALSE(TR.Delta.Active);
  EXPECT_EQ(TR.Baseline, nullptr);
}

//===----------------------------------------------------------------------===//
// Jobs clamp
//===----------------------------------------------------------------------===//

// applyOptions clamps the requested parallelism to the pool built at
// construction; jobs() always reports the effective count.
TEST(JobsClamp, RequestsClampToPool) {
  const unsigned Two = std::min(2u, engine::usableCores());
  engine::AnalysisRequest Req;
  Req.Jobs = 2;
  engine::DependenceEngine Engine(Req);
  ASSERT_EQ(Engine.maxJobs(), Two);
  EXPECT_EQ(Engine.jobs(), Two);

  engine::AnalysisRequest O = Req;
  O.Jobs = 16;
  Engine.applyOptions(O);
  EXPECT_EQ(Engine.jobs(), Two);

  O.Jobs = 1;
  Engine.applyOptions(O);
  EXPECT_EQ(Engine.jobs(), 1u);

  O.Jobs = 0; // "every usable core" resolves to the pool's capability
  Engine.applyOptions(O);
  EXPECT_EQ(Engine.jobs(), Two);
}

//===----------------------------------------------------------------------===//
// Serving stack: sessions and per-request jobs
//===----------------------------------------------------------------------===//

namespace {

/// Submits one request line and blocks until its response arrives.
std::string ask(api::Server &Server, const std::string &Line) {
  std::mutex Mu;
  std::condition_variable CV;
  std::string Response;
  bool Done = false;
  Server.submit(Line, [&](std::string R) {
    std::lock_guard<std::mutex> Lock(Mu);
    Response = std::move(R);
    Done = true;
    CV.notify_one();
  });
  std::unique_lock<std::mutex> Lock(Mu);
  CV.wait(Lock, [&] { return Done; });
  return Response;
}

std::string sessionRequest(uint64_t Id, const std::string &Session,
                           const std::string &Source) {
  return "{\"id\": " + std::to_string(Id) + ", \"session\": \"" + Session +
         "\", \"source\": \"" + api::json::escape(Source) + "\"}";
}

/// metrics.delta.<Field> of a response line, or -1 when absent.
int64_t deltaField(const std::string &Response, const std::string &Field) {
  api::json::Value Doc;
  std::string Err;
  if (!api::json::parse(Response, Doc, Err))
    return -1;
  if (const api::json::Value *M = Doc.get("metrics"))
    if (const api::json::Value *D = M->get("delta"))
      if (const api::json::Value *F = D->get(Field))
        return F->asInt();
  return -1;
}

/// metrics.stats.<Field> of a response line, or -1 when absent.
int64_t statsField(const std::string &Response, const std::string &Field) {
  api::json::Value Doc;
  std::string Err;
  if (!api::json::parse(Response, Doc, Err))
    return -1;
  if (const api::json::Value *M = Doc.get("metrics"))
    if (const api::json::Value *S = M->get("stats"))
      if (const api::json::Value *F = S->get(Field))
        return F->asInt();
  return -1;
}

/// The raw bytes of the top-level "result" object of a response line.
std::string resultBytes(const std::string &Response) {
  std::size_t At = Response.find("\"result\": ");
  if (At == std::string::npos)
    return std::string();
  At += 10;
  int Depth = 0;
  bool InString = false;
  for (std::size_t I = At; I != Response.size(); ++I) {
    char C = Response[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{')
      ++Depth;
    else if (C == '}' && --Depth == 0)
      return Response.substr(At, I + 1 - At);
  }
  return std::string();
}

} // namespace

// A session's second request reuses the baseline its first request
// recorded, with the result still byte-identical to a one-shot run; the
// session map holds MaxSessions baselines and evicts the least recently
// used one, which then falls back to the global result store instead of
// starting over; sessionless requests consult the store too.
TEST(ServeSessions, RetainReuseAndEvict) {
  api::Server::Config Cfg;
  Cfg.Workers = 1;
  Cfg.Defaults.Jobs = 1;
  Cfg.MaxSessions = 2;
  api::Server Server(Cfg);

  std::string Base = readEdit("base");
  std::string Edit = readEdit("stmt-edit");

  engine::DependenceEngine Reference;
  std::string Expected =
      api::renderResult(Reference.analyze(analyzeOk(Edit)));

  // First request of a session: nothing to reuse, everything new.
  std::string R1 = ask(Server, sessionRequest(1, "s1", Base));
  EXPECT_EQ(deltaField(R1, "pairsReused"), 0);
  int64_t BaseGroups = deltaField(R1, "pairsNew");
  EXPECT_GT(BaseGroups, 0);

  // Second request: the edit reuses the retained baseline.
  std::string R2 = ask(Server, sessionRequest(2, "s1", Edit));
  EXPECT_GT(deltaField(R2, "pairsReused"), 0);
  EXPECT_EQ(resultBytes(R2), resultBytes(
                                 "{\"result\": " + Expected + "}"));

  // Two more sessions overflow MaxSessions = 2 and evict s1 (least
  // recently used). s1's baseline is gone, but every pair of the edit
  // was already solved under this server, so the replay materializes
  // entirely from the global result store: all-reused, nothing
  // re-solved, and still byte-identical.
  ask(Server, sessionRequest(3, "s2", Base));
  ask(Server, sessionRequest(4, "s3", Base));
  std::string R5 = ask(Server, sessionRequest(5, "s1", Edit));
  EXPECT_EQ(deltaField(R5, "pairsReused"),
            deltaField(R2, "pairsReused") + deltaField(R2, "pairsResolved") +
                deltaField(R2, "pairsNew"));
  EXPECT_EQ(deltaField(R5, "pairsResolved"), 0);
  EXPECT_EQ(deltaField(R5, "pairsNew"), 0);
  EXPECT_GT(statsField(R5, "resultStoreHits"), 0);
  EXPECT_EQ(resultBytes(R5), resultBytes(R2));

  // Sessionless requests never activate the delta layer, but they do
  // consult the store: the whole program materializes without a solve.
  std::string R6 = ask(Server, "{\"id\": 6, \"source\": \"" +
                                   api::json::escape(Edit) + "\"}");
  EXPECT_EQ(deltaField(R6, "pairsReused"), -1);
  EXPECT_GT(statsField(R6, "resultStoreHits"), 0);
  EXPECT_EQ(statsField(R6, "resultStoreMisses"), 0);
  EXPECT_EQ(resultBytes(R6), resultBytes(R2));
}

// Per-request jobs are honored but clamped to the worker's pool; the
// effective value is what metrics reports.
TEST(ServeSessions, PerRequestJobsClamped) {
  api::Server::Config Cfg;
  Cfg.Workers = 1;
  Cfg.Defaults.Jobs = 2;
  api::Server Server(Cfg);

  std::string Source = readEdit("base");
  auto jobsOf = [&](const std::string &OptionsJson) {
    std::string Line = "{\"id\": 1, \"source\": \"" +
                       api::json::escape(Source) + "\"";
    if (!OptionsJson.empty())
      Line += ", \"options\": " + OptionsJson;
    Line += "}";
    std::string Response = ask(Server, Line);
    api::json::Value Doc;
    std::string Err;
    EXPECT_TRUE(api::json::parse(Response, Doc, Err)) << Err;
    if (const api::json::Value *M = Doc.get("metrics"))
      if (const api::json::Value *J = M->get("jobs"))
        return J->asInt();
    return int64_t(-1);
  };

  EXPECT_EQ(jobsOf(""), 2);                  // defaults
  EXPECT_EQ(jobsOf("{\"jobs\": 16}"), 2);    // clamped to the pool
  EXPECT_EQ(jobsOf("{\"jobs\": 1}"), 1);     // lower requests honored
}

// With the default jobs (0), each worker engine gets an equal share of the
// usable cores, at least one; "jobs": 0 in a request asks for that share.
TEST(ServeSessions, DefaultJobsShareTheCores) {
  const std::string Source = readEdit("base");
  for (unsigned Workers : {1u, 4u, 16u}) {
    api::Server::Config Cfg;
    Cfg.Workers = Workers;
    ASSERT_EQ(Cfg.Defaults.Jobs, 0u);
    api::Server Server(Cfg);
    const int64_t Share = engine::resolveJobs(0, Workers);
    EXPECT_EQ(Share, std::max<int64_t>(1, engine::usableCores() / Workers));
    for (const char *Options : {"", ", \"options\": {\"jobs\": 0}"}) {
      std::string Response =
          ask(Server, "{\"id\": 1, \"source\": \"" +
                          api::json::escape(Source) + "\"" + Options + "}");
      api::json::Value Doc;
      std::string Err;
      ASSERT_TRUE(api::json::parse(Response, Doc, Err)) << Err;
      const api::json::Value *M = Doc.get("metrics");
      ASSERT_NE(M, nullptr) << Response;
      ASSERT_NE(M->get("jobs"), nullptr) << Response;
      EXPECT_EQ(M->get("jobs")->asInt(), Share) << Workers << Options;
    }
  }
}
