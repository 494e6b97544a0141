//===- engine/DependenceEngine.cpp ----------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "engine/DependenceEngine.h"

#include "analysis/Kills.h"
#include "analysis/Refine.h"
#include "deps/Fingerprint.h"
#include "deps/PairSolver.h"
#include "engine/ResultStore.h"
#include "engine/WorkerPool.h"
#include "obs/Trace.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <string>

using namespace omega;
using namespace omega::engine;
using omega::deps::DepKind;
using omega::deps::Dependence;
using omega::deps::DepSplit;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Quick-test database built from the output dependences.
struct OutputDepInfo {
  /// Pairs of write access ids with an output dependence.
  std::map<std::pair<unsigned, unsigned>, bool> HasOutputDep;
  /// Writes with a self-output dependence carried by some loop.
  std::map<unsigned, bool> HasCarriedSelfOutput;

  bool outputDep(const ir::Access &A, const ir::Access &B) const {
    auto It = HasOutputDep.find({A.Id, B.Id});
    return It != HasOutputDep.end() && It->second;
  }
  bool carriedSelfOutput(const ir::Access &A) const {
    auto It = HasCarriedSelfOutput.find(A.Id);
    return It != HasCarriedSelfOutput.end() && It->second;
  }
};

OutputDepInfo buildOutputInfo(const std::vector<Dependence> &Output) {
  OutputDepInfo Info;
  for (const Dependence &Dep : Output) {
    Info.HasOutputDep[{Dep.Src->Id, Dep.Dst->Id}] = true;
    if (Dep.Src == Dep.Dst)
      for (const DepSplit &S : Dep.Splits)
        if (S.Level != 0)
          Info.HasCarriedSelfOutput[Dep.Src->Id] = true;
  }
  return Info;
}

/// "W completely precedes the cover A": every execution of W that can
/// source the covered read runs before the covering instance. Two sound
/// syntactic cases (Section 4.2):
///  * W is textually before A and shares no loops with it (it runs wholly
///    before A's nest), or
///  * the cover is loop-independent (the covering instance shares the
///    common A/B iteration) and W is textually before A without being
///    nested more deeply with A than B is -- otherwise W could run after
///    the covering instance inside the extra shared loops, and the
///    general pairwise kill test must decide.
bool completelyPrecedesCover(const ir::Access &W, const Dependence &Cover) {
  const ir::Access &A = *Cover.Src;
  if (!ir::AnalyzedProgram::textuallyBefore(W, A))
    return false;
  unsigned CommonWA = ir::AnalyzedProgram::numCommonLoops(W, A);
  if (CommonWA == 0)
    return true;
  return Cover.CoverLoopIndependent &&
         CommonWA <= ir::AnalyzedProgram::numCommonLoops(A, *Cover.Dst);
}

/// Work-item keys: phase in the top byte below the non-task marker, serial
/// enumeration index in the low bits. Identical for every Jobs value, so
/// the tracer's (key, seq) merge order is jobs-independent.
uint64_t taskKey(unsigned Phase, std::size_t Index) {
  return (static_cast<uint64_t>(Phase) << 48) | Index;
}

/// "s3 A(I,J)": statement number plus the source rendering.
std::string accessLabel(const ir::Access &A) {
  return "s" + std::to_string(A.StmtLabel) + " " + A.Text;
}

} // namespace

DependenceEngine::DependenceEngine(const AnalysisRequest &Req) : Req(Req) {
  Pool = std::make_unique<WorkerPool>(Req.Jobs, Req.Trace);
  // The pair solver reads its quick-test toggle off the worker's context,
  // so deep call chains (and the calc/CLI ablations) all steer one switch.
  applyOptions(Req);
}

DependenceEngine::~DependenceEngine() = default;

void DependenceEngine::applyOptions(const AnalysisRequest &O) {
  Req.QuickTests = O.QuickTests;
  Req.Refine = O.Refine;
  Req.Cover = O.Cover;
  Req.Kill = O.Kill;
  Req.Terminate = O.Terminate;
  Req.PairQuickTests = O.PairQuickTests;
  Req.Store = O.Store;
  // Per-request parallelism: clamp to the pool built at construction (0
  // asks for the full pool).
  Req.Jobs = O.Jobs;
  Pool->setActiveWorkers(O.Jobs);
  Pool->forEachContext([&](OmegaContext &Ctx) {
    Ctx.PairQuickTests = Req.PairQuickTests;
  });
}

void DependenceEngine::setTracer(obs::Tracer *T) {
  Req.Trace = T;
  Pool->setTracer(T);
}

unsigned DependenceEngine::jobs() const { return Pool->jobs(); }

unsigned DependenceEngine::maxJobs() const { return Pool->maxJobs(); }

AnalysisResult DependenceEngine::analyze(const ir::AnalyzedProgram &AP) {
  AnalysisResult Result;
  Pool->resetStats();

  // Phase 1: every unrefined dependence query -- output, anti, and the
  // flow computations phase 2 consumes -- scheduled per *pair* rather than
  // per query. Queries are enumerated exactly as the serial analysis does,
  // then grouped by unordered reference pair in first-appearance order:
  // one task per group builds one PairSolver (quick tests and the shared
  // pair problem once, on one worker) and answers all of the
  // pair's kinds, directions and levels on it. Results still land in
  // index-addressed per-query slots and merge in enumeration order, so the
  // output is identical to per-query scheduling.
  struct PairQuery {
    const ir::Access *Src;
    const ir::Access *Dst;
    DepKind Kind;
  };
  std::vector<PairQuery> Queries;
  auto enumeratePairs = [&](DepKind Kind) {
    for (const ir::Access &Src : AP.Accesses) {
      bool SrcIsWrite = Kind == DepKind::Flow || Kind == DepKind::Output;
      if (Src.IsWrite != SrcIsWrite)
        continue;
      for (const ir::Access &Dst : AP.Accesses) {
        bool DstIsWrite = Kind == DepKind::Anti || Kind == DepKind::Output;
        if (Dst.IsWrite != DstIsWrite || Dst.Array != Src.Array)
          continue;
        if (&Src == &Dst && Kind != DepKind::Output)
          continue; // a reference cannot flow to itself except write/write
        Queries.push_back({&Src, &Dst, Kind});
      }
    }
  };
  enumeratePairs(DepKind::Output);
  std::size_t NumOutputQueries = Queries.size();
  enumeratePairs(DepKind::Anti);
  std::size_t NumOrderedQueries = Queries.size();

  // Flow queries in phase 2's read-major order; FlowTasks[I] is query
  // NumOrderedQueries + I.
  std::vector<const ir::Access *> Writes, Reads;
  for (const ir::Access &A : AP.Accesses)
    (A.IsWrite ? Writes : Reads).push_back(&A);

  struct FlowTask {
    const ir::Access *Write;
    const ir::Access *Read;
  };
  std::vector<FlowTask> FlowTasks;
  for (const ir::Access *Read : Reads)
    for (const ir::Access *Write : Writes)
      if (Write->Array == Read->Array) {
        FlowTasks.push_back({Write, Read});
        Queries.push_back({Write, Read, DepKind::Flow});
      }

  // Group by unordered pair (the flow and anti questions about one
  // read/write pair share a solver, as do both output directions of a
  // write/write pair). Group order is the serial first-appearance order,
  // so task keys -- and with them the merged trace -- stay deterministic.
  std::vector<std::vector<std::size_t>> Groups;
  std::vector<std::size_t> QueryGroup(Queries.size());
  {
    std::map<std::pair<unsigned, unsigned>, std::size_t> GroupOf;
    for (std::size_t I = 0; I != Queries.size(); ++I) {
      auto Key = std::minmax(Queries[I].Src->Id, Queries[I].Dst->Id);
      auto [It, New] = GroupOf.try_emplace({Key.first, Key.second},
                                           Groups.size());
      if (New)
        Groups.emplace_back();
      Groups[It->second].push_back(I);
      QueryGroup[I] = It->second;
    }
  }

  // Cross-run reuse through the result store. Disabled under Terminate:
  // phase 4 kills across group boundaries, outside the per-group reuse
  // model.
  ResultStore *Store = Req.Terminate ? nullptr : Req.Store;
  PipelineSig Sig;
  Sig.Refine = Req.Refine;
  Sig.Cover = Req.Cover;
  Sig.Kill = Req.Kill;
  Sig.QuickTests = Req.QuickTests;
  uint64_t StoreHits = 0, StoreMisses = 0, StoreEvictions = 0;

  std::optional<deps::FingerprintBuilder> FPB;
  std::vector<deps::PairFingerprint> GroupFP;
  // Group -> the stored outcome it materializes from (sized once, so the
  // per-query pointers into it stay stable).
  std::vector<std::optional<PairOutcome>> GroupReuse(Groups.size());
  std::vector<const PortableDep *> QueryReuse(Queries.size(), nullptr);

  // Role of an access within its group's canonical pair orientation:
  // 0 == the fingerprint's first instance. For write/read and write/write
  // groups the two accesses always differ in role (their serializations
  // differ in the read/write or textual-order bits), so roles address the
  // stored queries unambiguously; self pairs use (0, 0).
  auto roleOf = [&](std::size_t GI, const ir::Access *A) -> uint8_t {
    const PairQuery &First = Queries[Groups[GI].front()];
    const ir::Access *CanonFirst =
        GroupFP[GI].Swapped ? First.Dst : First.Src;
    return A == CanonFirst ? 0 : 1;
  };

  if (Store) {
    FPB.emplace(AP);
    GroupFP.resize(Groups.size());
    // Pure string building; parallel and trace-silent.
    Pool->parallelFor(Groups.size(), [&](std::size_t GI, OmegaContext &) {
      const PairQuery &First = Queries[Groups[GI].front()];
      GroupFP[GI] = FPB->pair(*First.Src, *First.Dst);
    });
    // One lookup per group (serial: binds the stored answers).
    for (std::size_t GI = 0; GI != Groups.size(); ++GI) {
      std::optional<PairOutcome> &O = GroupReuse[GI];
      O = Store->lookupPair(GroupFP[GI].Key, Sig);
      bool Reusable = O && O->Queries.size() == Groups[GI].size();
      if (Reusable) {
        // Bind every query to a distinct stored answer by (kind, roles).
        std::vector<bool> Used(O->Queries.size(), false);
        for (std::size_t QI : Groups[GI]) {
          const PairQuery &Q = Queries[QI];
          uint8_t SrcRole = roleOf(GI, Q.Src), DstRole = roleOf(GI, Q.Dst);
          const PortableDep *Found = nullptr;
          for (std::size_t J = 0; J != O->Queries.size(); ++J) {
            const PortableDep &P = O->Queries[J];
            if (!Used[J] && P.Kind == static_cast<uint8_t>(Q.Kind) &&
                P.SrcRole == SrcRole && P.DstRole == DstRole) {
              Used[J] = true;
              Found = &P;
              break;
            }
          }
          if (!Found) {
            Reusable = false;
            break;
          }
          QueryReuse[QI] = Found;
          if (Q.Kind == DepKind::Flow && !O->HasFlowRecord)
            Reusable = false;
        }
      }
      if (Reusable) {
        ++StoreHits;
      } else {
        // A fingerprint miss (or, defensively, a malformed match) solves
        // from scratch.
        ++StoreMisses;
        O.reset();
        for (std::size_t QI : Groups[GI])
          QueryReuse[QI] = nullptr;
      }
    }
  }

  std::vector<std::optional<Dependence>> QueryDeps(Queries.size());
  std::vector<double> QuerySecs(Queries.size(), 0.0);

  // Materialize reused groups before scheduling the rest: their stored
  // answers (post-refinement, post-cover) land in the same per-query
  // slots a solve would fill, so the merges below cannot tell the
  // difference. Trace decisions go to the first context from this
  // coordinating thread (no helper holds a context between parallelFor
  // calls).
  std::vector<std::size_t> RunGroups;
  obs::TraceBuffer *TB = Req.Trace ? Pool->firstContext().Trace : nullptr;
  for (std::size_t GI = 0; GI != Groups.size(); ++GI) {
    if (!GroupReuse[GI]) {
      RunGroups.push_back(GI);
      continue;
    }
    for (std::size_t QI : Groups[GI]) {
      const PairQuery &Q = Queries[QI];
      const PortableDep &P = *QueryReuse[QI];
      if (P.Present)
        QueryDeps[QI] = materializeDep(P, Q.Src, Q.Dst);
    }
    if (TB) {
      const PairQuery &First = Queries[Groups[GI].front()];
      obs::TaskScope Task(TB, taskKey(1, GI),
                          "pair " + accessLabel(*First.Src) + " <-> " +
                              accessLabel(*First.Dst));
      TB->decision("result store: pair reused");
    }
  }

  Pool->parallelFor(RunGroups.size(), [&](std::size_t RI, OmegaContext &Ctx) {
    std::size_t GI = RunGroups[RI];
    const std::vector<std::size_t> &Group = Groups[GI];
    const PairQuery &First = Queries[Group.front()];
    obs::TaskScope Task(Ctx.Trace, taskKey(1, GI),
                        Ctx.Trace ? "pair " + accessLabel(*First.Src) +
                                        " <-> " + accessLabel(*First.Dst)
                                  : std::string());
    deps::PairSolver Solver(AP, *First.Src, *First.Dst, Ctx);
    for (std::size_t QI : Group) {
      const PairQuery &Q = Queries[QI];
      auto Start = std::chrono::steady_clock::now();
      QueryDeps[QI] = Solver.computeDependence(*Q.Src, *Q.Dst, Q.Kind);
      QuerySecs[QI] = secondsSince(Start);
    }
  });
  // Positions of each query's final record, for store capture: index
  // into Result.Output/Anti (ordered kinds) or Result.Flow, -1 if absent.
  std::vector<std::ptrdiff_t> QueryLoc(Queries.size(), -1);
  for (std::size_t I = 0; I != NumOrderedQueries; ++I)
    if (QueryDeps[I]) {
      std::vector<Dependence> &Into =
          I < NumOutputQueries ? Result.Output : Result.Anti;
      QueryLoc[I] = static_cast<std::ptrdiff_t>(Into.size());
      Into.push_back(std::move(*QueryDeps[I]));
    }
  OutputDepInfo OutInfo = buildOutputInfo(Result.Output);

  // Phase 2: per (read, write) pair, refinement and coverage on top of the
  // flow dependence phase 1 computed. Tasks enumerate read-major like the
  // serial driver; each touches only its own slot. Reused pairs skip the
  // refine/cover work entirely: their stored flow answers already carry
  // the post-phase-2 splits and cover flags.
  struct FlowSlot {
    analysis::PairRecord Record;
    std::optional<Dependence> Dep;
  };
  std::vector<FlowSlot> Slots(FlowTasks.size());
  Pool->parallelFor(FlowTasks.size(), [&](std::size_t I, OmegaContext &Ctx) {
    const ir::Access *Write = FlowTasks[I].Write;
    const ir::Access *Read = FlowTasks[I].Read;
    obs::TaskScope Task(Ctx.Trace, taskKey(2, I),
                        Ctx.Trace ? "flow " + accessLabel(*Write) + " -> " +
                                        accessLabel(*Read)
                                  : std::string());
    FlowSlot &Slot = Slots[I];
    Slot.Record.Write = Write;
    Slot.Record.Read = Read;

    if (const std::optional<PairOutcome> &O =
            GroupReuse[QueryGroup[NumOrderedQueries + I]]) {
      Slot.Dep = std::move(QueryDeps[NumOrderedQueries + I]);
      Slot.Record.HasFlow = O->RecHasFlow;
      Slot.Record.UsedGeneralTest = O->RecUsedGeneralTest;
      Slot.Record.SplitVectors = O->RecSplitVectors;
      if (Ctx.Trace)
        Ctx.Trace->decision("result store: flow record reused");
      return;
    }

    Slot.Dep = std::move(QueryDeps[NumOrderedQueries + I]);
    Slot.Record.StandardSecs = QuerySecs[NumOrderedQueries + I];

    auto ExtStart = std::chrono::steady_clock::now();
    if (Slot.Dep) {
      Slot.Record.HasFlow = true;
      // Refinement first (Section 4.4); a quick screen: refinement can
      // only help when the write has a carried self-output dependence.
      if (Req.Refine &&
          (!Req.QuickTests || OutInfo.carriedSelfOutput(*Write))) {
        analysis::RefineResult RR =
            analysis::refineDependence(AP, *Write, *Read, *Slot.Dep);
        Slot.Record.UsedGeneralTest |= RR.UsedGeneralTest;
        Slot.Record.SplitVectors |=
            Slot.Dep->Splits.size() > 1 && RR.UsedGeneralTest;
        if (Ctx.Trace && RR.Refined)
          Ctx.Trace->decision("refinement: tightened distance vector (" +
                              std::to_string(RR.LoopsFixed) + " loops fixed)");
      }
      // Coverage next (Section 4.2).
      if (Req.Cover &&
          (!Req.QuickTests || analysis::coverQuickTestPasses(*Slot.Dep))) {
        Slot.Record.UsedGeneralTest = true;
        Slot.Record.SplitVectors |= Slot.Dep->Splits.size() > 1;
        if (analysis::covers(AP, *Write, *Read)) {
          Slot.Dep->Covers = true;
          Slot.Dep->CoverLoopIndependent =
              analysis::covers(AP, *Write, *Read, /*LoopIndependentOnly=*/true);
          if (Ctx.Trace)
            Ctx.Trace->decision("cover: write covers every read instance");
        }
      }
    }
    Slot.Record.ExtendedSecs = Slot.Record.StandardSecs + secondsSince(ExtStart);
  });

  std::map<unsigned, std::vector<unsigned>> FlowByRead; // read id -> indices
  for (std::size_t I = 0; I != Slots.size(); ++I) {
    FlowSlot &Slot = Slots[I];
    if (Slot.Dep) {
      QueryLoc[NumOrderedQueries + I] =
          static_cast<std::ptrdiff_t>(Result.Flow.size());
      FlowByRead[Slot.Record.Read->Id].push_back(Result.Flow.size());
      Result.Flow.push_back(std::move(*Slot.Dep));
    }
    Result.Pairs.push_back(Slot.Record);
  }

  // Store capture point: output/anti records are final here, and flow
  // records hold their post-refinement, post-cover, pre-kill state -- the
  // exact state a future reuse must restore before its own kill phase.
  // Groups the store answered are already in it.
  if (Store) {
    for (std::size_t GI = 0; GI != Groups.size(); ++GI) {
      if (GroupReuse[GI])
        continue;
      PairOutcome O;
      for (std::size_t QI : Groups[GI]) {
        const PairQuery &Q = Queries[QI];
        const Dependence *D = nullptr;
        if (QueryLoc[QI] >= 0) {
          const std::vector<Dependence> &From =
              Q.Kind == DepKind::Flow
                  ? Result.Flow
                  : (QI < NumOutputQueries ? Result.Output : Result.Anti);
          D = &From[QueryLoc[QI]];
        }
        O.Queries.push_back(portableDep(D, static_cast<uint8_t>(Q.Kind),
                                        roleOf(GI, Q.Src),
                                        roleOf(GI, Q.Dst)));
        if (Q.Kind == DepKind::Flow) {
          const analysis::PairRecord &Rec =
              Slots[QI - NumOrderedQueries].Record;
          O.HasFlowRecord = true;
          O.RecHasFlow = Rec.HasFlow;
          O.RecUsedGeneralTest = Rec.UsedGeneralTest;
          O.RecSplitVectors = Rec.SplitVectors;
        }
      }
      StoreEvictions += Store->storePair(GroupFP[GI].Key, Sig, O);
    }
  }

  // Phase 3: covers kill dependences from writes that completely precede
  // them, then pairwise kill tests on what remains. Kill groups (one per
  // read) touch disjoint Flow entries, so they shard cleanly; each
  // group's records merge back in FlowByRead (read-id) order.
  if (Req.Kill) {
    struct KillGroup {
      const std::vector<unsigned> *DepIndices;
      std::vector<analysis::KillRecord> Records;
    };
    std::vector<KillGroup> KGroups;
    KGroups.reserve(FlowByRead.size());
    for (auto &[ReadId, DepIndices] : FlowByRead) {
      (void)ReadId;
      KGroups.push_back({&DepIndices, {}});
    }

    // Write positions within each array's write list (enumeration
    // order): the portable identity kill records travel under.
    std::map<std::string, std::vector<const ir::Access *>> WritesOf;
    std::map<unsigned, uint32_t> WritePosOfId;
    std::vector<std::string> KillFP(KGroups.size());
    std::vector<char> KillReused(KGroups.size(), 0);
    if (Store) {
      for (const ir::Access *W : Writes) {
        std::vector<const ir::Access *> &V = WritesOf[W->Array];
        WritePosOfId[W->Id] = static_cast<uint32_t>(V.size());
        V.push_back(W);
      }
      for (std::size_t GI = 0; GI != KGroups.size(); ++GI) {
        const ir::Access *Read =
            Result.Flow[KGroups[GI].DepIndices->front()].Dst;
        KillFP[GI] = FPB->killGroup(*Read, WritesOf[Read->Array]);
      }
    }

    // Reuse pass (serial): a matching kill-group fingerprint covers the
    // footprints and pairwise schedule of the read and every write of
    // its array, which determines the whole group's pre-kill state and
    // therefore every phase-3 decision -- even for members that were
    // themselves re-solved this run. Validation failures fall back to
    // running the group (correct either way; the hit counter is what
    // would expose a fingerprint bug).
    for (std::size_t GI = 0; Store && GI != KGroups.size(); ++GI) {
      std::optional<KillGroupOutcome> O =
          Store->lookupKillGroup(KillFP[GI], Sig);
      KillGroup &G = KGroups[GI];
      const std::vector<unsigned> &DepIndices = *G.DepIndices;
      const ir::Access *Read = Result.Flow[DepIndices.front()].Dst;
      const std::vector<const ir::Access *> &AW = WritesOf[Read->Array];
      bool Valid = O && O->States.size() == DepIndices.size();
      for (std::size_t I = 0; Valid && I != DepIndices.size(); ++I) {
        const KillGroupOutcome::DepState &S = O->States[I];
        const Dependence &Dep = Result.Flow[DepIndices[I]];
        Valid = S.WritePos == WritePosOfId[Dep.Src->Id] &&
                S.Splits.size() == Dep.Splits.size();
      }
      for (std::size_t I = 0; Valid && I != O->Records.size(); ++I)
        Valid = O->Records[I].VictimPos < AW.size() &&
                O->Records[I].KillerPos < AW.size();
      if (!Valid) {
        ++StoreMisses;
        continue;
      }
      for (std::size_t I = 0; I != DepIndices.size(); ++I) {
        Dependence &Dep = Result.Flow[DepIndices[I]];
        for (std::size_t S = 0; S != Dep.Splits.size(); ++S) {
          Dep.Splits[S].Dead = O->States[I].Splits[S].first;
          Dep.Splits[S].DeadReason = O->States[I].Splits[S].second;
        }
      }
      for (const PortableKillRecord &PKR : O->Records) {
        analysis::KillRecord KR;
        KR.From = AW[PKR.VictimPos];
        KR.Killer = AW[PKR.KillerPos];
        KR.To = Read;
        KR.UsedOmega = PKR.UsedOmega;
        KR.Killed = PKR.Killed;
        G.Records.push_back(KR);
      }
      KillReused[GI] = 1;
      ++StoreHits;
      if (TB) {
        obs::TaskScope Task(TB, taskKey(3, GI),
                            "kills into " + accessLabel(*Read));
        TB->decision("result store: kill group reused");
      }
    }

    std::vector<std::size_t> RunKills;
    for (std::size_t GI = 0; GI != KGroups.size(); ++GI)
      if (!KillReused[GI])
        RunKills.push_back(GI);

    Pool->parallelFor(RunKills.size(), [&](std::size_t RI, OmegaContext &Ctx) {
      std::size_t GI = RunKills[RI];
      KillGroup &G = KGroups[GI];
      const std::vector<unsigned> &DepIndices = *G.DepIndices;
      obs::TaskScope Task(
          Ctx.Trace, taskKey(3, GI),
          Ctx.Trace ? "kills into " +
                          accessLabel(*Result.Flow[DepIndices.front()].Dst)
                    : std::string());
      // Kill by cover.
      for (unsigned CoverIdx : DepIndices) {
        const Dependence &Cover = Result.Flow[CoverIdx];
        if (!Cover.Covers)
          continue;
        for (unsigned Idx : DepIndices) {
          if (Idx == CoverIdx)
            continue;
          Dependence &Victim = Result.Flow[Idx];
          if (!completelyPrecedesCover(*Victim.Src, Cover))
            continue;
          for (DepSplit &S : Victim.Splits)
            if (!S.Dead) {
              S.Dead = true;
              S.DeadReason = 'c';
            }
          if (Ctx.Trace)
            Ctx.Trace->decision("killed by cover: " + accessLabel(*Cover.Src) +
                                " supersedes " + accessLabel(*Victim.Src));
        }
      }
      // Pairwise killing.
      for (unsigned VictimIdx : DepIndices) {
        Dependence &Victim = Result.Flow[VictimIdx];
        for (unsigned KillerIdx : DepIndices) {
          if (KillerIdx == VictimIdx || Victim.allDead())
            continue;
          const Dependence &KillerDep = Result.Flow[KillerIdx];
          const ir::Access &Killer = *KillerDep.Src;
          if (&Killer == Victim.Src)
            continue;
          analysis::KillRecord KR;
          KR.From = Victim.Src;
          KR.Killer = &Killer;
          KR.To = Victim.Dst;
          auto Start = std::chrono::steady_clock::now();
          // Quick test: the killer must overwrite what the victim wrote,
          // i.e. there must be an output dependence victim -> killer.
          bool Plausible =
              !Req.QuickTests || OutInfo.outputDep(*Victim.Src, Killer);
          if (Plausible) {
            KR.UsedOmega = true;
            for (DepSplit &S : Victim.Splits) {
              if (S.Dead)
                continue;
              if (analysis::kills(AP, *Victim.Src, Killer, *Victim.Dst,
                                  S.Level)) {
                S.Dead = true;
                S.DeadReason = 'k';
                KR.Killed = true;
              }
            }
          }
          KR.Secs = secondsSince(Start);
          if (Ctx.Trace && KR.Killed)
            Ctx.Trace->decision("killed by write: " + accessLabel(Killer) +
                                " overwrites " + accessLabel(*Victim.Src));
          G.Records.push_back(KR);
        }
      }
    });
    for (KillGroup &G : KGroups)
      for (analysis::KillRecord &KR : G.Records)
        Result.Kills.push_back(KR);

    // Kill outcomes captured post-phase-3, for the groups the store did
    // not answer.
    for (std::size_t GI = 0; Store && GI != KGroups.size(); ++GI) {
      if (KillReused[GI])
        continue;
      const KillGroup &G = KGroups[GI];
      KillGroupOutcome KG;
      for (const analysis::KillRecord &KR : G.Records) {
        PortableKillRecord PKR;
        PKR.VictimPos = WritePosOfId[KR.From->Id];
        PKR.KillerPos = WritePosOfId[KR.Killer->Id];
        PKR.UsedOmega = KR.UsedOmega;
        PKR.Killed = KR.Killed;
        KG.Records.push_back(PKR);
      }
      for (unsigned Idx : *G.DepIndices) {
        const Dependence &Dep = Result.Flow[Idx];
        KillGroupOutcome::DepState S;
        S.WritePos = WritePosOfId[Dep.Src->Id];
        for (const DepSplit &Split : Dep.Splits)
          S.Splits.emplace_back(Split.Dead, Split.DeadReason);
        KG.States.push_back(std::move(S));
      }
      StoreEvictions += Store->storeKillGroup(KillFP[GI], Sig, KG);
    }
  }

  // Phase 4 (optional extension): terminating analysis (Section 4.3). If
  // some write B overwrites everything A wrote (B terminates A) and every
  // execution of B precedes every execution of the destination, nothing
  // can flow from A past B, so the dependence is dead. Each dependence is
  // independent of the others.
  if (Req.Terminate) {
    Pool->parallelFor(Result.Flow.size(), [&](std::size_t I,
                                              OmegaContext &Ctx) {
      Dependence &Dep = Result.Flow[I];
      obs::TaskScope Task(Ctx.Trace, taskKey(4, I),
                          Ctx.Trace ? "terminate " + accessLabel(*Dep.Src) +
                                          " -> " + accessLabel(*Dep.Dst)
                                    : std::string());
      if (Dep.allDead())
        return;
      for (const ir::Access *B : Writes) {
        if (B == Dep.Src || B->Array != Dep.Src->Array)
          continue;
        // Sound syntactic "wholly before the read" case.
        if (ir::AnalyzedProgram::numCommonLoops(*B, *Dep.Dst) != 0 ||
            !ir::AnalyzedProgram::textuallyBefore(*B, *Dep.Dst))
          continue;
        if (Req.QuickTests && !OutInfo.outputDep(*Dep.Src, *B))
          continue;
        if (!analysis::terminates(AP, *Dep.Src, *B))
          continue;
        for (DepSplit &S : Dep.Splits)
          if (!S.Dead) {
            S.Dead = true;
            S.DeadReason = 'k';
          }
        if (Ctx.Trace)
          Ctx.Trace->decision("terminated by: " + accessLabel(*B));
        break;
      }
    });
  }

  Result.Stats = Pool->mergedStats();
  if (Store) {
    Result.Stats.ResultStoreHits = StoreHits;
    Result.Stats.ResultStoreMisses = StoreMisses;
    Result.Stats.ResultStoreEvictions = StoreEvictions;
  }
  return Result;
}

// Legacy entry point, preserved on top of the engine: serial, no reuse,
// stats merged into the caller's current context so code (and tests) that
// watch the old global counters keep seeing them advance.
analysis::AnalysisResult
analysis::analyzeProgram(const ir::AnalyzedProgram &AP,
                         const DriverOptions &Opts) {
  AnalysisRequest Req = AnalysisRequest::fromDriverOptions(Opts);
  Req.Jobs = 1;
  DependenceEngine Engine(Req);
  engine::AnalysisResult R = Engine.analyze(AP);
  OmegaContext::current().Stats.merge(R.Stats);
  return std::move(static_cast<analysis::AnalysisResult &>(R));
}
