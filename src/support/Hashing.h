//===- support/Hashing.h - Shared structural-hash primitives -------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one hashing scheme shared by every structural canonicalization in
/// the Omega core: Problem::normalize()'s hash-bucketed row merging and
/// the Constraint row signature it is built from.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_HASHING_H
#define OMEGA_SUPPORT_HASHING_H

#include <cstdint>

namespace omega {

/// Finalizer of splitmix64: a cheap, well-distributed 64-bit mixer.
inline uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Mixes one (position, value) coefficient pair into a commutative
/// accumulator: callers sum these, so the hash of a set of pairs is
/// independent of visit order.
inline uint64_t hashCoeffTerm(unsigned Position, int64_t Value) {
  return mix64(mix64(static_cast<uint64_t>(Position) + 1) ^
               static_cast<uint64_t>(Value));
}

} // namespace omega

#endif // OMEGA_SUPPORT_HASHING_H
