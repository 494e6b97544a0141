//===- engine/DeltaPlanner.h - Cross-version incremental planning ---------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The delta planner: carries dependence results across program versions.
///
/// A BaselineResult is a portable snapshot of one analysis run, keyed by
/// the canonical pair fingerprints of src/deps/Fingerprint.h: for every
/// pair group the answers to all of its queries (post-refinement,
/// post-cover, pre-kill), and for every kill group the records plus the
/// final liveness state of its members. "Portable" means access pointers
/// are replaced by roles and positions, so an outcome recorded against
/// one program version can be rebound to the accesses of another.
///
/// When DependenceEngine::analyze runs with a baseline, it classifies
/// each pair group of the new program:
///
///   reused   -- fingerprint matches a baseline outcome; the stored
///               answers are materialized and the solve is skipped.
///   resolved -- no fingerprint match, but the pair's array appears in
///               the baseline (an edited pair): solved from scratch.
///   new      -- the pair's array is new to the program: solved from
///               scratch.
///   removed  -- baseline fingerprints no current pair matched.
///
/// Because equal fingerprints imply byte-identical solver inputs and the
/// engine's merge order is positional, the merged result is guaranteed
/// byte-identical to a from-scratch run no matter how many pairs were
/// reused. The classification is metrics-level only: a misclassification
/// (e.g. resolved vs new after an array rename) can never change results,
/// and a reuse can only happen on an exact fingerprint match.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ENGINE_DELTAPLANNER_H
#define OMEGA_ENGINE_DELTAPLANNER_H

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
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

//===----------------------------------------------------------------------===//
// Baseline
//===----------------------------------------------------------------------===//

/// The pipeline switches a stored outcome depends on. A baseline recorded
/// under one signature is unusable under another (the quick pair tests
/// are excluded: they are result-identical by construction).
struct PipelineSig {
  bool Refine = true;
  bool Cover = true;
  bool Kill = true;
  bool QuickTests = true;

  friend bool operator==(const PipelineSig &A, const PipelineSig &B) {
    return A.Refine == B.Refine && A.Cover == B.Cover && A.Kill == B.Kill &&
           A.QuickTests == B.QuickTests;
  }
};

/// A portable prior AnalysisResult, keyed by canonical fingerprints.
/// Duplicate fingerprints within one program collapse to the first
/// occurrence -- sound, since equal keys imply equal outcomes.
struct BaselineResult {
  PipelineSig Sig;
  std::map<std::string, PairOutcome> Pairs;
  std::map<std::string, KillGroupOutcome> KillGroups;
  /// Arrays accessed by the baseline program; used only to classify a
  /// fingerprint miss as resolved (known array) vs new.
  std::set<std::string> Arrays;

  /// Versioned binary serialization (magic, format version, checksum;
  /// map iteration is sorted, so bytes are deterministic).
  std::string serialize() const;
  /// Rejects wrong magic/version and checksum mismatches via \p Err.
  static bool deserialize(const std::string &Bytes, BaselineResult *Out,
                          std::string *Err);
  bool saveFile(const std::string &Path, std::string *Err) const;
  static bool loadFile(const std::string &Path, BaselineResult *Out,
                       std::string *Err);
};

//===----------------------------------------------------------------------===//
// Planner
//===----------------------------------------------------------------------===//

/// Per-run delta accounting, reported through stats/metrics/responses.
/// When Active, PairsReused + PairsResolved + PairsNew equals the number
/// of pair groups exactly.
struct DeltaMetrics {
  bool Active = false;
  uint64_t PairsReused = 0;
  uint64_t PairsResolved = 0;
  uint64_t PairsNew = 0;
  uint64_t PairsRemoved = 0;
  uint64_t KillGroupsReused = 0;
  uint64_t KillGroupsTotal = 0;
};

/// Matches the new program's fingerprints against a baseline and keeps
/// the classification tally. Not thread-safe: the engine drives it from
/// the coordinating thread only (fingerprinting itself is parallel).
class DeltaPlanner {
public:
  /// \p Baseline may be null (every pair classifies as new). A baseline
  /// whose pipeline signature differs from \p Sig is ignored entirely.
  DeltaPlanner(const BaselineResult *Baseline, const PipelineSig &Sig);

  /// True when a usable baseline is present.
  bool hasBaseline() const { return Baseline != nullptr; }

  /// Looks up a pair fingerprint; marks the key as matched for removed
  /// accounting. Null on miss.
  const PairOutcome *matchPair(const std::string &Key);

  /// Looks up a kill-group fingerprint. Null on miss.
  const KillGroupOutcome *matchKillGroup(const std::string &Key) const;

  /// True when a fingerprint miss for \p Array is an edit of known data
  /// (resolved) rather than new data.
  bool knownArray(const std::string &Array) const;

  /// Baseline pair fingerprints no current pair matched.
  uint64_t removedCount() const;

private:
  const BaselineResult *Baseline; ///< null when absent or sig-mismatched
  std::set<std::string> Matched;
};

//===----------------------------------------------------------------------===//
// Conversion helpers
//===----------------------------------------------------------------------===//

/// Portable form of one query answer; \p Dep may be null (absent result).
PortableDep portableDep(const deps::Dependence *Dep, uint8_t Kind,
                        uint8_t SrcRole, uint8_t DstRole);

/// Rebinds a stored answer to current accesses. Only meaningful when
/// \p P.Present; the caller resolves roles to accesses.
deps::Dependence materializeDep(const PortableDep &P, const ir::Access *Src,
                                const ir::Access *Dst);

//===----------------------------------------------------------------------===//
// Wire-format helpers (shared with ResultStore)
//===----------------------------------------------------------------------===//

/// The little-endian length-prefixed encoding BaselineResult persists with.
/// ResultStore reuses it so a pair outcome has exactly one byte form.
namespace detail {

/// FNV-1a over a byte string; the checksum every persisted artifact carries.
uint64_t checksum64(const std::string &Bytes);

void appendU32(std::string &Out, uint32_t V);
void appendU64(std::string &Out, uint64_t V);
void appendLenString(std::string &Out, const std::string &S);

/// Bounds-checked cursor over a serialized byte string. All take/uN calls
/// set Ok=false (and return zeros) past the end instead of reading wild.
struct ByteReader {
  const std::string &Bytes;
  std::size_t Pos = 0;
  bool Ok = true;

  explicit ByteReader(const std::string &B) : Bytes(B) {}

  bool take(void *Dst, std::size_t N) {
    if (!Ok || Pos + N > Bytes.size()) {
      Ok = false;
      return false;
    }
    std::memcpy(Dst, Bytes.data() + Pos, N);
    Pos += N;
    return true;
  }
  uint8_t u8();
  uint32_t u32();
  uint64_t u64();
  int64_t i64();
  std::string lenString();
};

void appendPairOutcome(std::string &Out, const PairOutcome &P);
PairOutcome readPairOutcome(ByteReader &R);
void appendKillGroup(std::string &Out, const KillGroupOutcome &G);
KillGroupOutcome readKillGroup(ByteReader &R);

} // namespace detail

} // namespace engine
} // namespace omega

#endif // OMEGA_ENGINE_DELTAPLANNER_H
