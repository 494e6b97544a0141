//===- engine/DeltaPlanner.cpp --------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "engine/DeltaPlanner.h"

#include "deps/Dependence.h"

#include <cstdio>
#include <cstring>

using namespace omega;
using namespace omega::engine;
using namespace omega::engine::detail;

//===----------------------------------------------------------------------===//
// Persistence
//===----------------------------------------------------------------------===//

namespace omega {
namespace engine {
namespace detail {

/// FNV-1a over the payload bytes.
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

int64_t ByteReader::i64() { return static_cast<int64_t>(u64()); }

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

} // namespace detail
} // namespace engine
} // namespace omega

namespace {

const char BaselineMagic[4] = {'O', 'M', 'B', 'L'};
constexpr uint32_t BaselineFormatVersion = 1;

using Reader = detail::ByteReader;

void appendI64(std::string &Out, int64_t V) {
  appendU64(Out, static_cast<uint64_t>(V));
}

void appendRange(std::string &Out, const PortableRange &R) {
  Out.push_back(static_cast<char>((R.HasMin ? 1 : 0) | (R.HasMax ? 2 : 0) |
                                  (R.Empty ? 4 : 0)));
  appendI64(Out, R.Min);
  appendI64(Out, R.Max);
}

PortableRange readRange(Reader &R) {
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

PortableSplit readSplit(Reader &R) {
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

PortableDep readDep(Reader &R) {
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

} // namespace

namespace omega {
namespace engine {
namespace detail {

void appendPairOutcome(std::string &Out, const PairOutcome &P) {
  Out.push_back(static_cast<char>(
      (P.HasFlowRecord ? 1 : 0) | (P.RecHasFlow ? 2 : 0) |
      (P.RecUsedGeneralTest ? 4 : 0) | (P.RecSplitVectors ? 8 : 0)));
  appendU64(Out, P.Queries.size());
  for (const PortableDep &D : P.Queries)
    appendDep(Out, D);
}

PairOutcome readPairOutcome(Reader &R) {
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

KillGroupOutcome readKillGroup(Reader &R) {
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

} // namespace detail
} // namespace engine
} // namespace omega

std::string BaselineResult::serialize() const {
  std::string Payload;
  Payload.push_back(Sig.Refine ? 1 : 0);
  Payload.push_back(Sig.Cover ? 1 : 0);
  Payload.push_back(Sig.Kill ? 1 : 0);
  Payload.push_back(Sig.QuickTests ? 1 : 0);
  appendU64(Payload, Pairs.size());
  for (const auto &[Key, Outcome] : Pairs) {
    appendLenString(Payload, Key);
    appendPairOutcome(Payload, Outcome);
  }
  appendU64(Payload, KillGroups.size());
  for (const auto &[Key, Group] : KillGroups) {
    appendLenString(Payload, Key);
    appendKillGroup(Payload, Group);
  }
  appendU64(Payload, Arrays.size());
  for (const std::string &A : Arrays)
    appendLenString(Payload, A);

  std::string Out(BaselineMagic, sizeof(BaselineMagic));
  appendU32(Out, BaselineFormatVersion);
  appendU64(Out, checksum64(Payload));
  Out += Payload;
  return Out;
}

bool BaselineResult::deserialize(const std::string &Bytes, BaselineResult *Out,
                                 std::string *Err) {
  auto Reject = [&](const char *Why) {
    if (Err)
      *Err = Why;
    return false;
  };
  Reader R(Bytes);
  char Magic[4];
  if (!R.take(Magic, 4) || std::memcmp(Magic, BaselineMagic, 4) != 0)
    return Reject("not a baseline file (bad magic)");
  if (R.u32() != BaselineFormatVersion)
    return Reject("unsupported baseline format version");
  uint64_t Sum = R.u64();
  if (!R.Ok || checksum64(Bytes.substr(R.Pos)) != Sum)
    return Reject("baseline checksum mismatch");

  BaselineResult B;
  B.Sig.Refine = R.u8() != 0;
  B.Sig.Cover = R.u8() != 0;
  B.Sig.Kill = R.u8() != 0;
  B.Sig.QuickTests = R.u8() != 0;
  uint64_t NP = R.u64();
  for (uint64_t I = 0; R.Ok && I != NP; ++I) {
    std::string Key = R.lenString();
    B.Pairs.emplace(std::move(Key), readPairOutcome(R));
  }
  uint64_t NG = R.u64();
  for (uint64_t I = 0; R.Ok && I != NG; ++I) {
    std::string Key = R.lenString();
    B.KillGroups.emplace(std::move(Key), readKillGroup(R));
  }
  uint64_t NA = R.u64();
  for (uint64_t I = 0; R.Ok && I != NA; ++I)
    B.Arrays.insert(R.lenString());
  if (!R.Ok || R.Pos != Bytes.size())
    return Reject("baseline payload truncated or oversized");
  *Out = std::move(B);
  return true;
}

bool BaselineResult::saveFile(const std::string &Path,
                              std::string *Err) const {
  std::string Bytes = serialize();
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    if (Err)
      *Err = "cannot open " + Path + " for writing";
    return false;
  }
  bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  Ok &= std::fclose(F) == 0;
  if (!Ok && Err)
    *Err = "short write to " + Path;
  return Ok;
}

bool BaselineResult::loadFile(const std::string &Path, BaselineResult *Out,
                              std::string *Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    if (Err)
      *Err = "cannot open " + Path;
    return false;
  }
  std::string Bytes;
  char Buf[1 << 16];
  std::size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.append(Buf, N);
  std::fclose(F);
  return deserialize(Bytes, Out, Err);
}

//===----------------------------------------------------------------------===//
// Planner
//===----------------------------------------------------------------------===//

DeltaPlanner::DeltaPlanner(const BaselineResult *Baseline,
                           const PipelineSig &Sig)
    : Baseline(Baseline && Baseline->Sig == Sig ? Baseline : nullptr) {}

const PairOutcome *DeltaPlanner::matchPair(const std::string &Key) {
  if (!Baseline)
    return nullptr;
  auto It = Baseline->Pairs.find(Key);
  if (It == Baseline->Pairs.end())
    return nullptr;
  Matched.insert(Key);
  return &It->second;
}

const KillGroupOutcome *
DeltaPlanner::matchKillGroup(const std::string &Key) const {
  if (!Baseline)
    return nullptr;
  auto It = Baseline->KillGroups.find(Key);
  return It == Baseline->KillGroups.end() ? nullptr : &It->second;
}

bool DeltaPlanner::knownArray(const std::string &Array) const {
  return Baseline && Baseline->Arrays.count(Array) != 0;
}

uint64_t DeltaPlanner::removedCount() const {
  if (!Baseline)
    return 0;
  uint64_t Removed = 0;
  for (const auto &[Key, Outcome] : Baseline->Pairs) {
    (void)Outcome;
    if (!Matched.count(Key))
      ++Removed;
  }
  return Removed;
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
      S.Dir.push_back(E);
    }
    D.Splits.push_back(std::move(S));
  }
  return D;
}
