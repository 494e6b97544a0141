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
/// src/deps/Fingerprint.h. Where a BaselineResult carries one program
/// version's answers across edits of that program, the ResultStore
/// generalizes it to "everything any request ever solved": every
/// analysis — stateless requests and fresh sessions included — consults
/// the store before solving a pair group, and a structurally-seen pair
/// is materialized instead of solved.
///
/// Soundness is gated exactly like the delta planner's reuse: a stored
/// outcome is only consulted under the pipeline signature it was
/// recorded with (the signature is part of the key), equal fingerprints
/// imply byte-identical solver inputs, and the engine re-validates the
/// outcome's shape against the current group before materializing. A
/// hit can therefore never change results, only skip work.
///
/// The store is sharded (per-shard mutex + LRU list) so N worker
/// engines can consult it concurrently, LRU-bounded with eviction
/// accounting, and persists to a versioned checksummed file ('OMRS'):
/// corruption or version skew rejects the whole file (warned cold start,
/// never a wrong answer), and save -> load -> save is bit-identical.
///
/// Entries hold the serialized wire form of the outcome (the same
/// encoding BaselineResult persists with) rather than the structured
/// form: lookups deserialize a private copy, so a returned outcome is
/// immune to concurrent eviction, and persistence is a sorted dump of
/// the map with no re-encoding.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ENGINE_RESULTSTORE_H
#define OMEGA_ENGINE_RESULTSTORE_H

#include "engine/DeltaPlanner.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace omega {
namespace engine {

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
