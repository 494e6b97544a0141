//===- tests/DeltaTest.cpp - Edit-incremental re-analysis -----------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// The incremental contract, end to end: canonical pair fingerprints are
// name-free and semantics-sensitive; the result store -- the one
// cross-run reuse path -- answers structurally-seen pair and kill groups
// across program versions and unrelated requests (LRU-bounded,
// sig-gated, thread-safe, with checksummed persistence that rejects
// corruption whole); an edit analyzed against a store fed by the base
// program renders byte-identical results while every group is either a
// hit or a miss, and a single-statement edit runs at least 5x faster than
// cold; and the serving stack reuses through the store whatever
// session label a request carries, and clamps per-request parallelism to
// the worker pool.
//
//===----------------------------------------------------------------------===//

#include "api/Json.h"
#include "api/Response.h"
#include "api/Serve.h"
#include "deps/Fingerprint.h"
#include "engine/DependenceEngine.h"
#include "engine/ResultStore.h"
#include "engine/WorkerPool.h"
#include "ir/Sema.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

/// One run of \p AP against \p Store (consulted and fed).
engine::AnalysisResult runWithStore(engine::ResultStore &Store,
                                    const ir::AnalyzedProgram &AP,
                                    engine::AnalysisRequest Req = {}) {
  Req.Store = &Store;
  engine::DependenceEngine Engine(Req);
  return Engine.analyze(AP);
}

/// The pair groups plus kill groups of \p AP: what a run against an
/// empty store looks up, and misses.
uint64_t groupTotal(const ir::AnalyzedProgram &AP) {
  engine::ResultStore Empty;
  engine::AnalysisResult R = runWithStore(Empty, AP);
  EXPECT_EQ(R.Stats.ResultStoreHits, 0u);
  return R.Stats.ResultStoreMisses;
}

/// Feeds \p Store with one run over \p Source.
void feed(engine::ResultStore &Store, const std::string &Source) {
  runWithStore(Store, analyzeOk(Source));
}

/// The from-scratch "result" bytes of \p AP.
std::string scratchResult(const ir::AnalyzedProgram &AP) {
  engine::DependenceEngine Scratch;
  return api::renderResult(Scratch.analyze(AP));
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

} // namespace

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

// Renaming loop variables, arrays, and symbolic constants leaves every
// pair and kill-group fingerprint -- and every portable outcome --
// unchanged: stores fed by the two programs hold identical bytes.
TEST(Fingerprint, NameFree) {
  engine::ResultStore Base(0), Renamed(0);
  feed(Base, readEdit("base"));
  feed(Renamed, readEdit("rename"));
  EXPECT_GT(Base.size(), 0u);
  EXPECT_EQ(Base.serialize(), Renamed.serialize());
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
// Result store
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

// The central gate: for every entry of the edit corpus, a run against a
// store fed only by the base program renders a byte-identical result,
// and every pair and kill group is exactly one hit or one miss. The hits,
// misses and satisfiability calls are exact per edit, cold and against
// the store; edits the store covers completely make no satisfiability
// call.
TEST(Delta, CorpusByteIdentityAndAccounting) {
  engine::ResultStore Fed(0);
  feed(Fed, readEdit("base"));
  const std::string FedBytes = Fed.serialize();

  struct Edit {
    const char *Name;
    uint64_t Hits, Misses, ColdSat, Sat;
  } Edits[] = {{"rename", 23, 0, 84, 0},
               {"bound", 11, 12, 84, 43},
               {"stmt-new", 28, 0, 105, 0},
               {"stmt-edit", 21, 2, 84, 7},
               {"loop-del", 18, 0, 58, 0},
               {"interchange", 11, 12, 84, 43},
               {"rename-reorder", 23, 0, 84, 0}};
  for (const Edit &E : Edits) {
    SCOPED_TRACE(E.Name);
    ir::AnalyzedProgram AP = analyzeOk(readEdit(E.Name));
    engine::ResultStore Store(0);
    std::string Err;
    ASSERT_TRUE(Store.deserialize(FedBytes, &Err)) << Err;
    engine::AnalysisResult R = runWithStore(Store, AP);

    EXPECT_EQ(api::renderResult(R), scratchResult(AP));
    EXPECT_EQ(R.Stats.ResultStoreHits, E.Hits);
    EXPECT_EQ(R.Stats.ResultStoreMisses, E.Misses);
    EXPECT_EQ(R.Stats.ResultStoreHits + R.Stats.ResultStoreMisses,
              groupTotal(AP));
    engine::DependenceEngine Cold;
    EXPECT_EQ(Cold.analyze(AP).Stats.SatisfiabilityCalls, E.ColdSat);
    EXPECT_EQ(R.Stats.SatisfiabilityCalls, E.Sat);
  }
}

// The payoff of the store: single-statement edits re-analyze at least 5x
// faster against a store fed by the base program than cold. Each side is
// the fastest of several serial runs, so a run slowed by other load on
// the machine does not decide the ratio; every incremental run starts
// from a fresh copy of the fed store.
TEST(Delta, SingleStatementEditsFiveTimesFasterThanCold) {
  using Clock = std::chrono::steady_clock;
  engine::AnalysisRequest Serial;
  Serial.Jobs = 1;
  engine::ResultStore Fed(0);
  runWithStore(Fed, analyzeOk(readEdit("base")), Serial);
  const std::string FedBytes = Fed.serialize();

  for (const char *Name : {"stmt-new", "stmt-edit"}) {
    SCOPED_TRACE(Name);
    ir::AnalyzedProgram AP = analyzeOk(readEdit(Name));
    Clock::duration Cold = Clock::duration::max();
    Clock::duration Inc = Clock::duration::max();
    for (int Rep = 0; Rep != 15; ++Rep) {
      engine::DependenceEngine ColdEngine(Serial);
      Clock::time_point Start = Clock::now();
      ColdEngine.analyze(AP);
      Cold = std::min(Cold, Clock::now() - Start);

      engine::ResultStore Store(0);
      ASSERT_TRUE(Store.deserialize(FedBytes, nullptr));
      engine::AnalysisRequest Req = Serial;
      Req.Store = &Store;
      engine::DependenceEngine IncEngine(Req);
      Start = Clock::now();
      IncEngine.analyze(AP);
      Inc = std::min(Inc, Clock::now() - Start);
    }
    EXPECT_GE(Cold, 5 * Inc)
        << "cold " << std::chrono::duration<double, std::micro>(Cold).count()
        << " us, incremental "
        << std::chrono::duration<double, std::micro>(Inc).count() << " us";
  }
}

// Hits and misses each have a witness. A second nest on a new array
// misses exactly its own groups while every group of the original nest
// hits; an edited subscript misses the edited pair and its kill group
// but still hits the untouched write/write pair.
TEST(Delta, ClassificationWitnesses) {
  const std::string Base = "symbolic n;\n"
                           "for i := 1 to n do\n"
                           "  a(i) := a(i-1) + 1;\n"
                           "endfor\n";
  // Transposed 2-D subscripts on a new array: nothing in the store
  // matches it structurally.
  const std::string NewNest = "symbolic n;\n"
                              "for i := 1 to n do\n"
                              "  for j := 1 to n do\n"
                              "    z(i,j) := z(j,i) + 1;\n"
                              "  endfor\n"
                              "endfor\n";
  const std::string AddsNewArray = Base + NewNest.substr(NewNest.find('\n') + 1);
  // Same arrays, different subscript.
  const std::string EditsPair = "symbolic n;\n"
                                "for i := 1 to n do\n"
                                "  a(i) := a(i-2) + 1;\n"
                                "endfor\n";
  const uint64_t BaseGroups = groupTotal(analyzeOk(Base));

  {
    SCOPED_TRACE("new-array");
    engine::ResultStore Store(0);
    feed(Store, Base);
    ir::AnalyzedProgram AP = analyzeOk(AddsNewArray);
    engine::AnalysisResult R = runWithStore(Store, AP);
    EXPECT_EQ(api::renderResult(R), scratchResult(AP));
    EXPECT_EQ(R.Stats.ResultStoreHits, BaseGroups);
    EXPECT_EQ(R.Stats.ResultStoreMisses, groupTotal(analyzeOk(NewNest)));
  }
  {
    SCOPED_TRACE("edited-pair");
    engine::ResultStore Store(0);
    feed(Store, Base);
    ir::AnalyzedProgram AP = analyzeOk(EditsPair);
    engine::AnalysisResult R = runWithStore(Store, AP);
    EXPECT_EQ(api::renderResult(R), scratchResult(AP));
    EXPECT_GT(R.Stats.ResultStoreHits, 0u);
    EXPECT_GT(R.Stats.ResultStoreMisses, 0u);
    EXPECT_EQ(R.Stats.ResultStoreHits + R.Stats.ResultStoreMisses,
              groupTotal(AP));
  }
}

// An identical replay reuses every pair and every kill group and makes
// no satisfiability call.
TEST(Delta, IdenticalReplayReusesEverything) {
  std::string Source = readEdit("base");
  ir::AnalyzedProgram AP = analyzeOk(Source);
  engine::ResultStore Store;
  feed(Store, Source);

  engine::AnalysisResult R = runWithStore(Store, AP);
  EXPECT_EQ(R.Stats.ResultStoreMisses, 0u);
  EXPECT_EQ(R.Stats.ResultStoreHits, groupTotal(AP));
  EXPECT_EQ(R.Stats.SatisfiabilityCalls, 0u);
  EXPECT_EQ(api::renderResult(R), scratchResult(AP));
}

// The rename gate: plain renames and renames that reorder first mentions
// materialize every pair and every kill group from a store fed by the
// base program, byte-identical to a from-scratch run.
TEST(Delta, RenameEditsFullyReusedViaStore) {
  std::string BaseSrc = readEdit("base");
  for (const char *Name : {"rename", "rename-reorder"}) {
    SCOPED_TRACE(Name);
    ir::AnalyzedProgram AP = analyzeOk(readEdit(Name));

    engine::ResultStore Store;
    engine::AnalysisResult FR = runWithStore(Store, analyzeOk(BaseSrc));
    EXPECT_EQ(FR.Stats.ResultStoreHits, 0u);
    EXPECT_GT(FR.Stats.ResultStoreMisses, 0u);
    // Structurally identical groups share one entry, so the population
    // is at most (and usually below) the miss count.
    EXPECT_GT(Store.size(), 0u);
    EXPECT_LE(Store.size(), FR.Stats.ResultStoreMisses);

    engine::AnalysisResult UR = runWithStore(Store, AP);
    EXPECT_EQ(UR.Stats.ResultStoreMisses, 0u);
    EXPECT_EQ(UR.Stats.ResultStoreHits, groupTotal(AP));
    EXPECT_EQ(api::renderResult(UR), scratchResult(AP));
  }
}

// Partial structural overlap reuses exactly the overlap: the interchange
// edit re-solves the second nest, and the untouched nests materialize
// from the store -- results still byte-identical to scratch.
TEST(Delta, StorePartialReuseOnInterchange) {
  engine::ResultStore Store;
  feed(Store, readEdit("base"));

  ir::AnalyzedProgram AP = analyzeOk(readEdit("interchange"));
  engine::AnalysisResult UR = runWithStore(Store, AP);
  EXPECT_GT(UR.Stats.ResultStoreHits, 0u);
  EXPECT_GT(UR.Stats.ResultStoreMisses, 0u);
  EXPECT_EQ(api::renderResult(UR), scratchResult(AP));
}

// Outcomes recorded under one pipeline signature are invisible under
// another; Terminate opts out of store reuse entirely.
TEST(Delta, SignatureMismatchAndTerminateDisable) {
  std::string Source = readEdit("base");
  ir::AnalyzedProgram AP = analyzeOk(Source);
  engine::ResultStore Store(0);
  feed(Store, Source);

  engine::AnalysisRequest Req;
  Req.Refine = false; // signature mismatch: every lookup misses
  engine::AnalysisResult R = runWithStore(Store, AP, Req);
  EXPECT_EQ(R.Stats.ResultStoreHits, 0u);
  EXPECT_EQ(R.Stats.ResultStoreMisses, groupTotal(AP));

  engine::AnalysisRequest TReq;
  TReq.Terminate = true;
  std::size_t Before = Store.size();
  engine::AnalysisResult TR = runWithStore(Store, AP, TReq);
  EXPECT_EQ(TR.Stats.ResultStoreHits, 0u);
  EXPECT_EQ(TR.Stats.ResultStoreMisses, 0u);
  EXPECT_EQ(Store.size(), Before);
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
// Serving stack: session labels and per-request jobs
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

// Session-labelled requests reuse through the one result store: a
// session's edit materializes what its first request solved, another
// label -- or none -- reuses the same entries, every result stays
// byte-identical to a one-shot run, and the label shows up only in the
// access log.
TEST(ServeSessions, LabelledRequestsReuseThroughTheStore) {
  std::string Log = ::testing::TempDir() + "delta_test.access.log";
  std::remove(Log.c_str());
  api::AnalysisOptions Cfg;
  Cfg.ServeWorkers = 1;
  Cfg.Jobs = 1;
  Cfg.AccessLogFile = Log;
  api::Server Server(Cfg);

  std::string Base = readEdit("base");
  std::string Edit = readEdit("stmt-edit");
  std::string Expected = resultBytes(
      "{\"result\": " + scratchResult(analyzeOk(Edit)) + "}");

  // A session's first request: nothing stored yet, every group misses.
  std::string R1 = ask(Server, sessionRequest(1, "s1", Base));
  EXPECT_EQ(statsField(R1, "resultStoreHits"), 0);
  EXPECT_EQ(statsField(R1, "resultStoreMisses"),
            int64_t(groupTotal(analyzeOk(Base))));

  // Its edit re-solves only what the edit touched.
  std::string R2 = ask(Server, sessionRequest(2, "s1", Edit));
  EXPECT_GT(statsField(R2, "resultStoreHits"), 0);
  EXPECT_GT(statsField(R2, "resultStoreMisses"), 0);
  EXPECT_EQ(resultBytes(R2), Expected);

  // The label partitions nothing: another session and a request with no
  // label both materialize the whole edit from the store.
  const int64_t Groups =
      statsField(R2, "resultStoreHits") + statsField(R2, "resultStoreMisses");
  std::string R3 = ask(Server, sessionRequest(3, "s2", Edit));
  std::string R4 = ask(Server, "{\"id\": 4, \"source\": \"" +
                                   api::json::escape(Edit) + "\"}");
  for (const std::string *R : {&R3, &R4}) {
    EXPECT_EQ(statsField(*R, "resultStoreHits"), Groups);
    EXPECT_EQ(statsField(*R, "resultStoreMisses"), 0);
    EXPECT_EQ(statsField(*R, "satisfiabilityCalls"), 0);
    EXPECT_EQ(resultBytes(*R), Expected);
  }
  Server.stop();

  std::vector<std::string> Sessions;
  std::ifstream In(Log);
  for (std::string Line; std::getline(In, Line);) {
    api::json::Value Doc;
    std::string Err;
    ASSERT_TRUE(api::json::parse(Line, Doc, Err)) << Err;
    const api::json::Value *S = Doc.get("session");
    ASSERT_NE(S, nullptr);
    Sessions.push_back(S->isNull() ? "null" : S->asString());
  }
  EXPECT_EQ(Sessions,
            (std::vector<std::string>{"s1", "s1", "s2", "null"}));
  std::remove(Log.c_str());
}

// Per-request jobs are honored but clamped to the worker's pool; the
// effective value is what metrics reports.
TEST(ServeSessions, PerRequestJobsClamped) {
  api::AnalysisOptions Cfg;
  Cfg.ServeWorkers = 1;
  Cfg.Jobs = 2;
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
    api::AnalysisOptions Cfg;
    Cfg.ServeWorkers = Workers;
    ASSERT_EQ(Cfg.Jobs, 0u);
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
