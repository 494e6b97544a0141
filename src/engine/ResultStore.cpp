//===- engine/ResultStore.cpp ---------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "engine/ResultStore.h"

#include "deps/Dependence.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

using namespace omega;
using namespace omega::engine;

namespace {

//===----------------------------------------------------------------------===//
// Wire format: little-endian, length-prefixed
//===----------------------------------------------------------------------===//

/// Bounds-checked cursor over a serialized byte string. Every read sets
/// Ok=false (and returns zeros) past the end instead of reading wild.
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
  int64_t i64() { return static_cast<int64_t>(u64()); }
  std::string lenString();
};

/// FNV-1a over the payload bytes; the checksum the OMRS file carries.
uint64_t checksum64(const std::string &Bytes) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

void appendU32(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void appendU64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void appendLenString(std::string &Out, const std::string &S) {
  appendU64(Out, S.size());
  Out += S;
}

uint8_t ByteReader::u8() {
  uint8_t C = 0;
  take(&C, 1);
  return C;
}

uint32_t ByteReader::u32() {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I) {
    unsigned char C = 0;
    if (!take(&C, 1))
      return 0;
    V |= static_cast<uint32_t>(C) << (8 * I);
  }
  return V;
}

uint64_t ByteReader::u64() {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I) {
    unsigned char C = 0;
    if (!take(&C, 1))
      return 0;
    V |= static_cast<uint64_t>(C) << (8 * I);
  }
  return V;
}

std::string ByteReader::lenString() {
  uint64_t N = u64();
  if (!Ok || Pos + N > Bytes.size()) {
    Ok = false;
    return {};
  }
  std::string S = Bytes.substr(Pos, N);
  Pos += N;
  return S;
}

void appendI64(std::string &Out, int64_t V) {
  appendU64(Out, static_cast<uint64_t>(V));
}

void appendRange(std::string &Out, const PortableRange &R) {
  Out.push_back(static_cast<char>((R.HasMin ? 1 : 0) | (R.HasMax ? 2 : 0) |
                                  (R.Empty ? 4 : 0)));
  appendI64(Out, R.Min);
  appendI64(Out, R.Max);
}

PortableRange readRange(ByteReader &R) {
  PortableRange Out;
  uint8_t Bits = R.u8();
  Out.HasMin = Bits & 1;
  Out.HasMax = Bits & 2;
  Out.Empty = Bits & 4;
  Out.Min = R.i64();
  Out.Max = R.i64();
  return Out;
}

void appendSplit(std::string &Out, const PortableSplit &S) {
  appendU32(Out, S.Level);
  Out.push_back(static_cast<char>((S.Dead ? 1 : 0) | (S.Refined ? 2 : 0)));
  Out.push_back(S.DeadReason);
  appendU64(Out, S.Dir.size());
  for (const PortableRange &R : S.Dir)
    appendRange(Out, R);
}

PortableSplit readSplit(ByteReader &R) {
  PortableSplit S;
  S.Level = R.u32();
  uint8_t Bits = R.u8();
  S.Dead = Bits & 1;
  S.Refined = Bits & 2;
  S.DeadReason = static_cast<char>(R.u8());
  uint64_t N = R.u64();
  for (uint64_t I = 0; R.Ok && I != N; ++I)
    S.Dir.push_back(readRange(R));
  return S;
}

void appendDep(std::string &Out, const PortableDep &D) {
  Out.push_back(static_cast<char>(D.Kind));
  Out.push_back(static_cast<char>(D.SrcRole));
  Out.push_back(static_cast<char>(D.DstRole));
  Out.push_back(static_cast<char>((D.Present ? 1 : 0) | (D.Covers ? 2 : 0) |
                                  (D.CoverLoopIndependent ? 4 : 0)));
  appendU64(Out, D.Splits.size());
  for (const PortableSplit &S : D.Splits)
    appendSplit(Out, S);
}

PortableDep readDep(ByteReader &R) {
  PortableDep D;
  D.Kind = R.u8();
  D.SrcRole = R.u8();
  D.DstRole = R.u8();
  uint8_t Bits = R.u8();
  D.Present = Bits & 1;
  D.Covers = Bits & 2;
  D.CoverLoopIndependent = Bits & 4;
  uint64_t N = R.u64();
  for (uint64_t I = 0; R.Ok && I != N; ++I)
    D.Splits.push_back(readSplit(R));
  return D;
}

void appendPairOutcome(std::string &Out, const PairOutcome &P) {
  Out.push_back(static_cast<char>(
      (P.HasFlowRecord ? 1 : 0) | (P.RecHasFlow ? 2 : 0) |
      (P.RecUsedGeneralTest ? 4 : 0) | (P.RecSplitVectors ? 8 : 0)));
  appendU64(Out, P.Queries.size());
  for (const PortableDep &D : P.Queries)
    appendDep(Out, D);
}

PairOutcome readPairOutcome(ByteReader &R) {
  PairOutcome P;
  uint8_t Bits = R.u8();
  P.HasFlowRecord = Bits & 1;
  P.RecHasFlow = Bits & 2;
  P.RecUsedGeneralTest = Bits & 4;
  P.RecSplitVectors = Bits & 8;
  uint64_t N = R.u64();
  for (uint64_t I = 0; R.Ok && I != N; ++I)
    P.Queries.push_back(readDep(R));
  return P;
}

void appendKillGroup(std::string &Out, const KillGroupOutcome &G) {
  appendU64(Out, G.Records.size());
  for (const PortableKillRecord &KR : G.Records) {
    appendU32(Out, KR.VictimPos);
    appendU32(Out, KR.KillerPos);
    Out.push_back(static_cast<char>((KR.UsedOmega ? 1 : 0) |
                                    (KR.Killed ? 2 : 0)));
  }
  appendU64(Out, G.States.size());
  for (const KillGroupOutcome::DepState &S : G.States) {
    appendU32(Out, S.WritePos);
    appendU64(Out, S.Splits.size());
    for (const auto &[Dead, Reason] : S.Splits) {
      Out.push_back(Dead ? 1 : 0);
      Out.push_back(Reason);
    }
  }
}

KillGroupOutcome readKillGroup(ByteReader &R) {
  KillGroupOutcome G;
  uint64_t NR = R.u64();
  for (uint64_t I = 0; R.Ok && I != NR; ++I) {
    PortableKillRecord KR;
    KR.VictimPos = R.u32();
    KR.KillerPos = R.u32();
    uint8_t Bits = R.u8();
    KR.UsedOmega = Bits & 1;
    KR.Killed = Bits & 2;
    G.Records.push_back(KR);
  }
  uint64_t NS = R.u64();
  for (uint64_t I = 0; R.Ok && I != NS; ++I) {
    KillGroupOutcome::DepState S;
    S.WritePos = R.u32();
    uint64_t N = R.u64();
    for (uint64_t J = 0; R.Ok && J != N; ++J) {
      bool Dead = R.u8() != 0;
      char Reason = static_cast<char>(R.u8());
      S.Splits.emplace_back(Dead, Reason);
    }
    G.States.push_back(std::move(S));
  }
  return G;
}

const char StoreMagic[4] = {'O', 'M', 'R', 'S'};

/// Qualifies a fingerprint with the entry kind and the pipeline
/// signature: an outcome recorded under one pipeline is invisible under
/// another.
std::string makeKey(char Kind, const PipelineSig &Sig,
                    const std::string &Fingerprint) {
  std::string Key;
  Key.reserve(Fingerprint.size() + 6);
  Key.push_back(Kind);
  Key.push_back(Sig.Refine ? '1' : '0');
  Key.push_back(Sig.Cover ? '1' : '0');
  Key.push_back(Sig.Kill ? '1' : '0');
  Key.push_back(Sig.QuickTests ? '1' : '0');
  Key.push_back('|');
  Key += Fingerprint;
  return Key;
}

} // namespace

ResultStore::ResultStore(std::size_t Capacity) : Capacity(Capacity) {}

ResultStore::Shard &ResultStore::shardFor(const std::string &Key) {
  return Shards[std::hash<std::string>{}(Key) % NumShards];
}

const ResultStore::Shard &ResultStore::shardFor(const std::string &Key) const {
  return Shards[std::hash<std::string>{}(Key) % NumShards];
}

std::size_t ResultStore::perShardCap() const {
  std::size_t Cap = Capacity.load(std::memory_order_relaxed);
  if (Cap == 0)
    return 0;
  return std::max<std::size_t>(1, (Cap + NumShards - 1) / NumShards);
}

std::optional<std::string> ResultStore::lookupBytes(const std::string &Key) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Map.find(Key);
  if (It == S.Map.end())
    return std::nullopt;
  S.LRU.splice(S.LRU.begin(), S.LRU, It->second.LRUPos);
  return It->second.Bytes;
}

std::size_t ResultStore::storeBytes(const std::string &Key,
                                    std::string Bytes) {
  Shard &S = shardFor(Key);
  std::size_t Cap = perShardCap();
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Map.find(Key);
  if (It != S.Map.end()) {
    It->second.Bytes = std::move(Bytes);
    S.LRU.splice(S.LRU.begin(), S.LRU, It->second.LRUPos);
    return 0;
  }
  S.LRU.push_front(Key);
  S.Map.emplace(Key, Shard::Entry{std::move(Bytes), S.LRU.begin()});
  std::size_t Evicted = 0;
  while (Cap != 0 && S.Map.size() > Cap) {
    S.Map.erase(S.LRU.back());
    S.LRU.pop_back();
    ++Evicted;
  }
  EvictionCount.fetch_add(Evicted, std::memory_order_relaxed);
  return Evicted;
}

std::optional<PairOutcome>
ResultStore::lookupPair(const std::string &Fingerprint,
                        const PipelineSig &Sig) {
  std::string Key = makeKey('P', Sig, Fingerprint);
  std::optional<std::string> Bytes = lookupBytes(Key);
  if (Bytes) {
    ByteReader R(*Bytes);
    PairOutcome P = readPairOutcome(R);
    if (R.Ok && R.Pos == Bytes->size()) {
      HitCount.fetch_add(1, std::memory_order_relaxed);
      return P;
    }
  }
  MissCount.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

std::size_t ResultStore::storePair(const std::string &Fingerprint,
                                   const PipelineSig &Sig,
                                   const PairOutcome &Outcome) {
  std::string Bytes;
  appendPairOutcome(Bytes, Outcome);
  return storeBytes(makeKey('P', Sig, Fingerprint), std::move(Bytes));
}

std::optional<KillGroupOutcome>
ResultStore::lookupKillGroup(const std::string &Fingerprint,
                             const PipelineSig &Sig) {
  std::string Key = makeKey('K', Sig, Fingerprint);
  std::optional<std::string> Bytes = lookupBytes(Key);
  if (Bytes) {
    ByteReader R(*Bytes);
    KillGroupOutcome G = readKillGroup(R);
    if (R.Ok && R.Pos == Bytes->size()) {
      HitCount.fetch_add(1, std::memory_order_relaxed);
      return G;
    }
  }
  MissCount.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

std::size_t ResultStore::storeKillGroup(const std::string &Fingerprint,
                                        const PipelineSig &Sig,
                                        const KillGroupOutcome &Outcome) {
  std::string Bytes;
  appendKillGroup(Bytes, Outcome);
  return storeBytes(makeKey('K', Sig, Fingerprint), std::move(Bytes));
}

void ResultStore::setCapacity(std::size_t NewCapacity) {
  Capacity.store(NewCapacity, std::memory_order_relaxed);
  std::size_t Cap = perShardCap();
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    std::size_t Evicted = 0;
    while (Cap != 0 && S.Map.size() > Cap) {
      S.Map.erase(S.LRU.back());
      S.LRU.pop_back();
      ++Evicted;
    }
    EvictionCount.fetch_add(Evicted, std::memory_order_relaxed);
  }
}

std::size_t ResultStore::size() const {
  std::size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    N += S.Map.size();
  }
  return N;
}

ResultStoreStats ResultStore::stats() const {
  ResultStoreStats St;
  St.Hits = HitCount.load(std::memory_order_relaxed);
  St.Misses = MissCount.load(std::memory_order_relaxed);
  St.Evictions = EvictionCount.load(std::memory_order_relaxed);
  St.Entries = size();
  return St;
}

void ResultStore::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.Map.clear();
    S.LRU.clear();
  }
}

//===----------------------------------------------------------------------===//
// Persistence
//===----------------------------------------------------------------------===//

std::string ResultStore::serialize() const {
  std::vector<std::pair<std::string, std::string>> Entries;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    for (const auto &[Key, E] : S.Map)
      Entries.emplace_back(Key, E.Bytes);
  }
  std::sort(Entries.begin(), Entries.end());

  std::string Payload;
  appendU64(Payload, Entries.size());
  for (const auto &[Key, Bytes] : Entries) {
    appendLenString(Payload, Key);
    appendLenString(Payload, Bytes);
  }

  std::string Out(StoreMagic, sizeof(StoreMagic));
  appendU32(Out, PersistFormatVersion);
  appendU64(Out, checksum64(Payload));
  Out += Payload;
  return Out;
}

bool ResultStore::deserialize(const std::string &Bytes, std::string *Err) {
  clear();
  auto Reject = [&](const char *Why) {
    clear();
    if (Err)
      *Err = Why;
    return false;
  };
  ByteReader R(Bytes);
  char Magic[4];
  if (!R.take(Magic, 4) || std::memcmp(Magic, StoreMagic, 4) != 0)
    return Reject("not a result-store file (bad magic)");
  if (R.u32() != PersistFormatVersion)
    return Reject("unsupported result-store format version");
  uint64_t Sum = R.u64();
  if (!R.Ok || checksum64(Bytes.substr(R.Pos)) != Sum)
    return Reject("result-store checksum mismatch");

  uint64_t N = R.u64();
  for (uint64_t I = 0; R.Ok && I != N; ++I) {
    std::string Key = R.lenString();
    std::string Value = R.lenString();
    if (R.Ok)
      storeBytes(std::move(Key), std::move(Value));
  }
  if (!R.Ok || R.Pos != Bytes.size())
    return Reject("result-store payload truncated or oversized");
  return true;
}

bool ResultStore::saveFile(const std::string &Path, std::string *Err) const {
  std::string Bytes = serialize();
  std::string Tmp = Path + ".tmp";
  auto Fail = [&](std::string Why) {
    std::remove(Tmp.c_str());
    if (Err)
      *Err = std::move(Why);
    return false;
  };
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return Fail("cannot open " + Tmp + " for writing");
  bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  Ok &= std::fclose(F) == 0;
  if (!Ok)
    return Fail("short write to " + Tmp);
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0)
    return Fail("cannot rename " + Tmp + " to " + Path);
  return true;
}

bool ResultStore::loadFile(const std::string &Path, std::string *Err,
                           bool *NoFile) {
  clear();
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  bool Missing = !F && errno == ENOENT;
  if (NoFile)
    *NoFile = Missing;
  if (!F) {
    if (Err)
      *Err = (Missing ? "no file at " : "cannot open ") + Path;
    return false;
  }
  std::string Bytes;
  char Buf[1 << 16];
  std::size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.append(Buf, N);
  std::fclose(F);
  return deserialize(Bytes, Err);
}

//===----------------------------------------------------------------------===//
// Conversion
//===----------------------------------------------------------------------===//

PortableDep omega::engine::portableDep(const deps::Dependence *Dep,
                                       uint8_t Kind, uint8_t SrcRole,
                                       uint8_t DstRole) {
  PortableDep P;
  P.Kind = Kind;
  P.SrcRole = SrcRole;
  P.DstRole = DstRole;
  if (!Dep)
    return P;
  P.Present = true;
  P.Covers = Dep->Covers;
  P.CoverLoopIndependent = Dep->CoverLoopIndependent;
  for (const deps::DepSplit &S : Dep->Splits) {
    PortableSplit PS;
    PS.Level = S.Level;
    PS.Dead = S.Dead;
    PS.DeadReason = S.DeadReason;
    PS.Refined = S.Refined;
    for (const deps::DirectionElem &E : S.Dir) {
      PortableRange R;
      R.HasMin = E.Range.HasMin;
      R.HasMax = E.Range.HasMax;
      R.Min = E.Range.Min;
      R.Max = E.Range.Max;
      R.Empty = E.Range.Empty;
      PS.Dir.push_back(R);
    }
    P.Splits.push_back(std::move(PS));
  }
  return P;
}

deps::Dependence omega::engine::materializeDep(const PortableDep &P,
                                               const ir::Access *Src,
                                               const ir::Access *Dst) {
  deps::Dependence D;
  D.Src = Src;
  D.Dst = Dst;
  D.Kind = static_cast<deps::DepKind>(P.Kind);
  D.Covers = P.Covers;
  D.CoverLoopIndependent = P.CoverLoopIndependent;
  for (const PortableSplit &PS : P.Splits) {
    deps::DepSplit S;
    S.Level = PS.Level;
    S.Dead = PS.Dead;
    S.DeadReason = PS.DeadReason;
    S.Refined = PS.Refined;
    for (const PortableRange &R : PS.Dir) {
      deps::DirectionElem E;
      E.Range.HasMin = R.HasMin;
      E.Range.HasMax = R.HasMax;
      E.Range.Min = R.Min;
      E.Range.Max = R.Max;
      E.Range.Empty = R.Empty;
      // The store does not record exactness, so a range read back from
      // it claims none. Nothing recomputes from it today: reused groups
      // skip refinement, the one reader of the bit.
      E.Range.Exact = false;
      S.Dir.push_back(E);
    }
    D.Splits.push_back(std::move(S));
  }
  return D;
}
