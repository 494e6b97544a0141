//===- engine/ResultStore.h - Global fingerprint-keyed result store -------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A global, content-addressed store of solved pair and kill-group
/// outcomes, keyed by the canonical name-free fingerprints of
/// src/deps/Fingerprint.h. It is the analyzer's one cross-run reuse
/// path: every analysis -- a stateless request, an edit of a program
/// seen before, a restarted server -- consults the store before solving
/// a pair group or a kill group, and a structurally-seen group is
/// materialized instead of solved. The paper decides each access pair
/// (Figure 6) and each kill group (Section 4.1) from that group's own
/// constraints alone, which is why one content-addressed map can answer
/// any program version.
///
/// Soundness: a stored outcome is only consulted under the pipeline
/// signature it was recorded with (the signature is part of the key),
/// equal fingerprints imply byte-identical solver inputs, and the engine
/// re-validates the outcome's shape against the current group before
/// materializing. A hit can therefore never change results, only skip
/// work.
///
/// Outcomes are "portable": access pointers are replaced by roles and
/// positions, so an outcome recorded against one program version can be
/// rebound to the accesses of another.
///
/// The store is sharded (per-shard mutex + LRU list) so N worker
/// engines can consult it concurrently, LRU-bounded with eviction
/// accounting, and persists to a versioned checksummed file ('OMRS'):
/// corruption or version skew rejects the whole file (warned cold start,
/// never a wrong answer), and save -> load -> save is bit-identical.
///
/// Entries hold the serialized wire form of the outcome rather than the
/// structured form: lookups deserialize a private copy, so a returned
/// outcome is immune to concurrent eviction, and persistence is a sorted
/// dump of the map with no re-encoding.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ENGINE_RESULTSTORE_H
#define OMEGA_ENGINE_RESULTSTORE_H

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace omega {
namespace ir {
struct Access;
}
namespace deps {
struct Dependence;
}
namespace engine {

//===----------------------------------------------------------------------===//
// Portable outcome records
//===----------------------------------------------------------------------===//

/// Mirror of omega::IntRange with no dependence on the solver headers.
struct PortableRange {
  bool HasMin = false, HasMax = false;
  int64_t Min = 0, Max = 0;
  bool Empty = true;
};

/// Mirror of deps::DepSplit (Dir ranges flattened to PortableRange).
struct PortableSplit {
  uint32_t Level = 0;
  std::vector<PortableRange> Dir;
  bool Dead = false;
  char DeadReason = 0;
  bool Refined = false;
};

/// The answer to one pair query, with accesses replaced by roles:
/// role 0 is the canonical-first instance of the pair fingerprint,
/// role 1 the canonical-second (equal to 0 for self pairs).
struct PortableDep {
  uint8_t Kind = 0; ///< deps::DepKind as an integer
  uint8_t SrcRole = 0;
  uint8_t DstRole = 0;
  bool Present = false; ///< false: the query produced no dependence
  bool Covers = false;
  bool CoverLoopIndependent = false;
  std::vector<PortableSplit> Splits;
};

/// Everything phase 1 + phase 2 produce for one pair group: the answers
/// to all of its queries (in ask order) and, when the group contains a
/// flow task, the PairRecord flags phase 2 accumulated.
struct PairOutcome {
  std::vector<PortableDep> Queries;
  bool HasFlowRecord = false;
  bool RecHasFlow = false;
  bool RecUsedGeneralTest = false;
  bool RecSplitVectors = false;
};

/// One kill attempt, with writes identified by their position in the
/// read's array write list (enumeration order).
struct PortableKillRecord {
  uint32_t VictimPos = 0;
  uint32_t KillerPos = 0;
  bool UsedOmega = false;
  bool Killed = false;
};

/// Phase 3's effect on one kill group (all live flow deps into one read):
/// the kill records in emission order plus the final per-split liveness of
/// every member dependence, listed in the group's dep-index order.
struct KillGroupOutcome {
  struct DepState {
    uint32_t WritePos = 0; ///< Src's position in the array's write list
    /// (Dead, DeadReason) per split, post phase 3.
    std::vector<std::pair<bool, char>> Splits;
  };
  std::vector<PortableKillRecord> Records;
  std::vector<DepState> States;
};

/// The pipeline switches a stored outcome depends on. An outcome recorded
/// under one signature is invisible under another (the pair quick tests
/// are excluded: they are result-identical by construction).
struct PipelineSig {
  bool Refine = true;
  bool Cover = true;
  bool Kill = true;
  bool QuickTests = true;
};

/// Portable form of one query answer; \p Dep may be null (absent result).
PortableDep portableDep(const deps::Dependence *Dep, uint8_t Kind,
                        uint8_t SrcRole, uint8_t DstRole);

/// Rebinds a stored answer to current accesses. Only meaningful when
/// \p P.Present; the caller resolves roles to accesses.
deps::Dependence materializeDep(const PortableDep &P, const ir::Access *Src,
                                const ir::Access *Dst);

//===----------------------------------------------------------------------===//
// The store
//===----------------------------------------------------------------------===//

/// Point-in-time counters for one store (monotonic over its lifetime).
struct ResultStoreStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Entries = 0;
};

/// Sharded LRU map: pipeline-sig-qualified fingerprint -> serialized
/// outcome. Thread-safe; one instance is shared by every engine of a
/// server (and may also back a CLI run via --result-cache-file).
class ResultStore {
public:
  /// Default entry bound; generous for whole-corpus workloads while
  /// keeping the worst-case footprint bounded.
  static constexpr std::size_t DefaultCapacity = 1 << 16;

  /// \p Capacity 0 means unbounded.
  explicit ResultStore(std::size_t Capacity = DefaultCapacity);

  ResultStore(const ResultStore &) = delete;
  ResultStore &operator=(const ResultStore &) = delete;

  /// Fetches a stored pair outcome by fingerprint under \p Sig. A hit
  /// refreshes LRU recency and returns a private copy. Nullopt on miss
  /// (or on an undecodable entry, which is dropped).
  std::optional<PairOutcome> lookupPair(const std::string &Fingerprint,
                                        const PipelineSig &Sig);

  /// Inserts (or refreshes) a pair outcome. Returns the number of
  /// entries evicted to make room.
  std::size_t storePair(const std::string &Fingerprint,
                        const PipelineSig &Sig, const PairOutcome &Outcome);

  /// Kill-group flavors of the two calls above.
  std::optional<KillGroupOutcome>
  lookupKillGroup(const std::string &Fingerprint, const PipelineSig &Sig);
  std::size_t storeKillGroup(const std::string &Fingerprint,
                             const PipelineSig &Sig,
                             const KillGroupOutcome &Outcome);

  /// Re-bounds the store; 0 means unbounded. Shrinking evicts LRU
  /// entries immediately (counted as evictions).
  void setCapacity(std::size_t Capacity);

  std::size_t size() const;
  ResultStoreStats stats() const;
  void clear();

  //===--------------------------------------------------------------------===//
  // Persistence ('OMRS': magic, version, checksum; sorted entry dump)
  //===--------------------------------------------------------------------===//

  static constexpr uint32_t PersistFormatVersion = 1;

  std::string serialize() const;
  /// Replaces the contents on success; on any corruption (bad magic,
  /// version skew, checksum mismatch, truncation) leaves the store
  /// empty and reports why via \p Err.
  bool deserialize(const std::string &Bytes, std::string *Err);
  bool saveFile(const std::string &Path, std::string *Err) const;
  bool loadFile(const std::string &Path, std::string *Err);

private:
  static constexpr unsigned NumShards = 16;

  struct Shard {
    mutable std::mutex Mu;
    /// Key -> (serialized outcome, LRU position).
    struct Entry {
      std::string Bytes;
      std::list<std::string>::iterator LRUPos;
    };
    std::unordered_map<std::string, Entry> Map;
    /// Front = most recent. Holds keys; splice-based refresh.
    std::list<std::string> LRU;
  };

  Shard &shardFor(const std::string &Key);
  const Shard &shardFor(const std::string &Key) const;
  std::size_t perShardCap() const;

  std::optional<std::string> lookupBytes(const std::string &Key);
  std::size_t storeBytes(const std::string &Key, std::string Bytes);

  Shard Shards[NumShards];
  std::atomic<std::size_t> Capacity;
  std::atomic<uint64_t> HitCount{0};
  std::atomic<uint64_t> MissCount{0};
  std::atomic<uint64_t> EvictionCount{0};
};

} // namespace engine
} // namespace omega

#endif // OMEGA_ENGINE_RESULTSTORE_H
