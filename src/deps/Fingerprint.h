//===- deps/Fingerprint.h - Canonical access-pair fingerprints ------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical fingerprints for unordered access pairs and kill groups.
///
/// A fingerprint is a deterministic serialization of everything a pair's
/// dependence solve can observe: the iteration spaces of both accesses
/// (loop bounds, strides, nesting and sharing of loops), the subscript
/// functions, the schedule relation (textual order both ways, self pair
/// or not, read/write roles), and the symbolic facts the constraint
/// system is sensitive to (symbol identity/sharing patterns, loop
/// parameterization, and whether an index-array read sees mutable
/// state). Source-level names are deliberately excluded: renaming
/// variables, arrays, or symbolic constants leaves fingerprints
/// unchanged, while any semantic edit changes them.
///
/// Two pairs with equal fingerprints present byte-identical constraint
/// systems to the solver and traverse byte-identical decision paths, so
/// the full dependence answer of one can be reused for the other. The
/// result store (src/engine/ResultStore.h) relies on exactly this
/// property to carry results across requests and program versions.
///
/// The canonical string itself is the match key -- hashes are never used
/// as keys, only for display.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_DEPS_FINGERPRINT_H
#define OMEGA_DEPS_FINGERPRINT_H

#include "ir/Sema.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace omega {
namespace deps {

/// Canonical key for one unordered access pair.
struct PairFingerprint {
  /// The canonical serialization; equal keys imply identical solves.
  std::string Key;
  /// True when the canonical orientation swaps the caller's (A, B) order.
  /// Reused outcomes must be mirrored back before materialization.
  bool Swapped = false;
};

/// Builds fingerprints over one analyzed program. Construction gathers
/// the program-global facts a pair solve can observe from outside the
/// pair itself (today: the set of written arrays, which decides whether
/// an index-array read sees mutable state).
class FingerprintBuilder {
public:
  explicit FingerprintBuilder(const ir::AnalyzedProgram &AP);

  /// Fingerprint of the unordered pair {A, B} (A == B for a self pair).
  /// Variable-order independent: the lexicographically smaller of the
  /// two orientations is the key, and Swapped records whether that
  /// orientation lists \p B first.
  PairFingerprint pair(const ir::Access &A, const ir::Access &B) const;

  /// Fingerprint of a kill group: one read plus every write of the
  /// read's array, in program enumeration order. Covers the footprints
  /// of all member accesses and their pairwise schedule relations, so
  /// it determines every input of the engine's kill phase for this
  /// read. Order-sensitive by design (the engine enumerates writes
  /// deterministically); no canonical reorientation is needed.
  std::string killGroup(const ir::Access &Read,
                        const std::vector<const ir::Access *> &Writes) const;

private:
  /// Serializes the ordered instance list plus pairwise schedule bits.
  std::string serialize(const std::vector<const ir::Access *> &Insts) const;

  const ir::AnalyzedProgram &AP;
  /// Arrays written anywhere in the program (mirrors DepSpace's notion
  /// of mutable state for index-array reads).
  std::set<std::string> WrittenArrays;
};

/// 64-bit display hash of a fingerprint key (mix64 chain over the
/// bytes). Never used for matching.
uint64_t fingerprintHash(const std::string &Key);

} // namespace deps
} // namespace omega

#endif // OMEGA_DEPS_FINGERPRINT_H
