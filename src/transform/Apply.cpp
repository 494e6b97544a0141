//===- transform/Apply.cpp ------------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "transform/Apply.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <set>

using namespace omega;
using namespace omega::transform;

const char *transform::applyResultName(ApplyResult R) {
  switch (R) {
  case ApplyResult::Applied:
    return "applied";
  case ApplyResult::NotPerfectlyNested:
    return "not perfectly nested";
  case ApplyResult::BoundsDependOnOuter:
    return "bounds depend on the outer variable";
  case ApplyResult::NoSuchLoops:
    return "no such loop pair";
  case ApplyResult::BadPlan:
    return "invalid pipeline plan";
  }
  return "?";
}

bool transform::isPipelineTempArray(const std::string &Name) {
  std::string Suffix = PipelineTempSuffix;
  return Name.size() > Suffix.size() &&
         Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) ==
             0;
}

namespace {

bool referencesVar(const ir::Expr &E, const std::string &Var) {
  if (E.getKind() == ir::Expr::Kind::VarRef && E.getName() == Var)
    return true;
  for (const ir::Expr &Arg : E.args())
    if (referencesVar(Arg, Var))
      return true;
  return false;
}

ir::ForStmt *findLoop(std::vector<ir::Stmt> &Body, const std::string &Var) {
  for (ir::Stmt &S : Body) {
    if (!S.isFor())
      continue;
    if (S.asFor().Var == Var)
      return &S.asFor();
    if (ir::ForStmt *Found = findLoop(S.asFor().Body, Var))
      return Found;
  }
  return nullptr;
}

//===--------------------------------------------------------------------===//
// Pipeline application
//===--------------------------------------------------------------------===//

/// Rebuilds \p E with every access of a privatized array X renamed to
/// X@p and the partitioned loop's variable prepended to its subscripts
/// (per-iteration expansion).
ir::Expr rewriteExpr(const ir::Expr &E, const std::set<std::string> &Priv,
                     const std::string &LoopVar) {
  using Kind = ir::Expr::Kind;
  auto rewriteAll = [&](const std::vector<ir::Expr> &In) {
    std::vector<ir::Expr> Out;
    Out.reserve(In.size());
    for (const ir::Expr &A : In)
      Out.push_back(rewriteExpr(A, Priv, LoopVar));
    return Out;
  };
  switch (E.getKind()) {
  case Kind::IntLit:
    return ir::Expr::intLit(E.getIntValue(), E.getLoc());
  case Kind::VarRef:
    return ir::Expr::varRef(E.getName(), E.getLoc());
  case Kind::Read: {
    std::vector<ir::Expr> Subs = rewriteAll(E.args());
    if (Priv.count(E.getName())) {
      std::vector<ir::Expr> All;
      All.reserve(Subs.size() + 1);
      All.push_back(ir::Expr::varRef(LoopVar, E.getLoc()));
      for (ir::Expr &S : Subs)
        All.push_back(std::move(S));
      return ir::Expr::read(E.getName() + PipelineTempSuffix,
                            std::move(All), E.getLoc());
    }
    return ir::Expr::read(E.getName(), std::move(Subs), E.getLoc());
  }
  case Kind::Add:
    return ir::Expr::add(rewriteExpr(E.args()[0], Priv, LoopVar),
                         rewriteExpr(E.args()[1], Priv, LoopVar));
  case Kind::Sub:
    return ir::Expr::sub(rewriteExpr(E.args()[0], Priv, LoopVar),
                         rewriteExpr(E.args()[1], Priv, LoopVar));
  case Kind::Mul:
    return ir::Expr::mul(rewriteExpr(E.args()[0], Priv, LoopVar),
                         rewriteExpr(E.args()[1], Priv, LoopVar));
  case Kind::Neg:
    return ir::Expr::neg(rewriteExpr(E.args()[0], Priv, LoopVar));
  case Kind::Min:
    return ir::Expr::min(rewriteAll(E.args()), E.getLoc());
  case Kind::Max:
    return ir::Expr::max(rewriteAll(E.args()), E.getLoc());
  }
  return E;
}

/// One stage's view of a statement list: keeps assignments whose label is
/// in the stage, filters nested loops recursively (dropping emptied
/// ones), renames privatized arrays, and mirrors each privatized write
/// into the original array so final memory outside the scratch copies
/// matches the unstaged program.
std::vector<ir::Stmt> filterStmts(const std::vector<ir::Stmt> &In,
                                  const std::set<unsigned> &Keep,
                                  const std::set<std::string> &Priv,
                                  const std::string &LoopVar) {
  std::vector<ir::Stmt> Out;
  for (const ir::Stmt &S : In) {
    if (S.isFor()) {
      const ir::ForStmt &F = S.asFor();
      ir::ForStmt Copy;
      Copy.Var = F.Var;
      Copy.Lo = rewriteExpr(F.Lo, Priv, LoopVar);
      Copy.Hi = rewriteExpr(F.Hi, Priv, LoopVar);
      Copy.Step = F.Step;
      Copy.Loc = F.Loc;
      Copy.Body = filterStmts(F.Body, Keep, Priv, LoopVar);
      if (Copy.Body.empty())
        continue;
      ir::Stmt W;
      W.Node = std::move(Copy);
      Out.push_back(std::move(W));
      continue;
    }
    const ir::AssignStmt &A = S.asAssign();
    if (!Keep.count(A.Label))
      continue;
    ir::AssignStmt B;
    B.Array = A.Array;
    B.RHS = rewriteExpr(A.RHS, Priv, LoopVar);
    for (const ir::Expr &Sub : A.Subscripts)
      B.Subscripts.push_back(rewriteExpr(Sub, Priv, LoopVar));
    B.Label = A.Label;
    B.Loc = A.Loc;
    if (Priv.count(A.Array)) {
      // Renamed store first, then the duplicate into the original array.
      // Both evaluate the same rewritten RHS at the same point, so the
      // original array sees exactly the values the source program wrote.
      ir::AssignStmt Dup = B;
      B.Array = A.Array + PipelineTempSuffix;
      B.Subscripts.insert(B.Subscripts.begin(),
                          ir::Expr::varRef(LoopVar, A.Loc));
      ir::Stmt WB;
      WB.Node = std::move(B);
      Out.push_back(std::move(WB));
      ir::Stmt WD;
      WD.Node = std::move(Dup);
      Out.push_back(std::move(WD));
    } else {
      ir::Stmt W;
      W.Node = std::move(B);
      Out.push_back(std::move(W));
    }
  }
  return Out;
}

/// Does any statement of \p Body access an array that looks like one of
/// our scratch copies? Such programs cannot be transformed safely.
bool usesTempNames(const ir::Expr &E) {
  if (E.getKind() == ir::Expr::Kind::Read &&
      transform::isPipelineTempArray(E.getName()))
    return true;
  for (const ir::Expr &A : E.args())
    if (usesTempNames(A))
      return true;
  return false;
}

bool usesTempNames(const std::vector<ir::Stmt> &Body) {
  for (const ir::Stmt &S : Body) {
    if (S.isFor()) {
      const ir::ForStmt &F = S.asFor();
      if (usesTempNames(F.Lo) || usesTempNames(F.Hi) ||
          usesTempNames(F.Body))
        return true;
      continue;
    }
    const ir::AssignStmt &A = S.asAssign();
    if (transform::isPipelineTempArray(A.Array) || usesTempNames(A.RHS))
      return true;
    for (const ir::Expr &Sub : A.Subscripts)
      if (usesTempNames(Sub))
        return true;
  }
  return false;
}

/// Builds the staged loops for \p Plan from the original loop \p Orig.
std::vector<ir::Stmt> buildStagedLoops(const ir::ForStmt &Orig,
                                       const transform::PipelinePlan &Plan) {
  std::set<std::string> Priv(Plan.PrivatizedArrays.begin(),
                             Plan.PrivatizedArrays.end());
  std::vector<ir::Stmt> Staged;
  for (const transform::PipelineStage &Stage : Plan.Stages) {
    std::set<unsigned> Keep(Stage.StmtLabels.begin(),
                            Stage.StmtLabels.end());
    ir::ForStmt F;
    F.Var = Orig.Var;
    F.Lo = rewriteExpr(Orig.Lo, Priv, Orig.Var);
    F.Hi = rewriteExpr(Orig.Hi, Priv, Orig.Var);
    F.Step = Orig.Step;
    F.Loc = Orig.Loc;
    F.Body = filterStmts(Orig.Body, Keep, Priv, Orig.Var);
    if (F.Body.empty())
      return {};
    ir::Stmt W;
    W.Node = std::move(F);
    Staged.push_back(std::move(W));
  }
  return Staged;
}

/// Renders one statement like the source, two-space indent per level.
void printStmt(const ir::Stmt &S, unsigned Indent, std::string &Out) {
  Out.append(Indent, ' ');
  if (S.isFor()) {
    const ir::ForStmt &F = S.asFor();
    Out += "for " + F.Var + " := " + F.Lo.toString() + " to " +
           F.Hi.toString();
    if (F.Step != 1)
      Out += " step " + std::to_string(F.Step);
    Out += " do\n";
    for (const ir::Stmt &C : F.Body)
      printStmt(C, Indent + 2, Out);
    Out.append(Indent, ' ');
    Out += "endfor\n";
  } else {
    Out += S.asAssign().toString() + "\n";
  }
}

/// Walks \p LoopInfo::Path (body indices from the root, the last one
/// indexing the for itself) and returns the matching loop, or null when
/// the program does not match the analysis (stale Path).
const ir::ForStmt *loopAtPath(const ir::Program &P, const ir::LoopInfo *L) {
  if (!L || L->Path.empty())
    return nullptr;
  const std::vector<ir::Stmt> *Body = &P.Body;
  for (size_t I = 0; I + 1 < L->Path.size(); ++I) {
    if (L->Path[I] >= Body->size() || !(*Body)[L->Path[I]].isFor())
      return nullptr;
    Body = &(*Body)[L->Path[I]].asFor().Body;
  }
  if (L->Path.back() >= Body->size())
    return nullptr;
  const ir::Stmt &S = (*Body)[L->Path.back()];
  if (!S.isFor() || S.asFor().Var != L->SourceVar)
    return nullptr;
  return &S.asFor();
}

} // namespace

ApplyResult transform::applyPipeline(ir::Program &P,
                                     const PipelinePlan &Plan) {
  if (!Plan.valid() || !Plan.Loop || Plan.Loop->Path.empty())
    return ApplyResult::BadPlan;
  // A source program already using our scratch suffix would collide with
  // the expanded copies; refuse rather than silently alias.
  if (usesTempNames(P.Body))
    return ApplyResult::BadPlan;

  std::vector<ir::Stmt> *Body = &P.Body;
  const std::vector<unsigned> &Path = Plan.Loop->Path;
  for (size_t I = 0; I + 1 < Path.size(); ++I) {
    if (Path[I] >= Body->size() || !(*Body)[Path[I]].isFor())
      return ApplyResult::NoSuchLoops;
    Body = &(*Body)[Path[I]].asFor().Body;
  }
  unsigned Idx = Path.back();
  if (Idx >= Body->size() || !(*Body)[Idx].isFor() ||
      (*Body)[Idx].asFor().Var != Plan.Loop->SourceVar)
    return ApplyResult::NoSuchLoops;

  ir::ForStmt Orig = std::move((*Body)[Idx].asFor());
  std::vector<ir::Stmt> Staged = buildStagedLoops(Orig, Plan);
  if (Staged.size() != Plan.Stages.size()) {
    (*Body)[Idx].Node = std::move(Orig);
    return ApplyResult::BadPlan;
  }
  Body->erase(Body->begin() + Idx);
  Body->insert(Body->begin() + Idx,
               std::make_move_iterator(Staged.begin()),
               std::make_move_iterator(Staged.end()));
  return ApplyResult::Applied;
}

std::string
transform::renderPipelineSchedule(const ir::AnalyzedProgram &AP,
                                  const analysis::AnalysisResult &R) {
  std::string Out;
  for (const PipelineFacts &F : analyzePipelines(AP, R)) {
    Out += "loop " + F.Loop->SourceVar + " (depth " +
           std::to_string(F.Loop->Depth + 1) + "): ";
    const ir::ForStmt *Orig = loopAtPath(AP.Source, F.Loop);
    std::vector<ir::Stmt> Staged;
    if (F.Plan.valid() && Orig)
      Staged = buildStagedLoops(*Orig, F.Plan);
    if (Staged.size() != F.Plan.Stages.size() || Staged.empty()) {
      Out += "no pipeline\n";
      continue;
    }
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.2f", F.Plan.EstimatedSpeedup);
    Out += std::to_string(F.Plan.Stages.size()) + " stages, est speedup " +
           Buf + "\n";
    for (unsigned I = 0; I != Staged.size(); ++I) {
      const PipelineStage &S = F.Plan.Stages[I];
      Out += "stage " + std::to_string(I + 1) + " (" +
             (S.Parallel ? "parallel" : "sequential") + "), weight " +
             std::to_string(S.Weight) + ":\n";
      printStmt(Staged[I], 2, Out);
    }
  }
  return Out;
}

bool transform::canInterchange(const analysis::AnalysisResult &R,
                               const ir::LoopInfo *Outer,
                               const ir::LoopInfo *Inner) {
  auto blocked = [&](const std::vector<deps::Dependence> &Deps) {
    for (const deps::Dependence &D : Deps) {
      int DO = commonLoopDepth(D, Outer);
      int DI = commonLoopDepth(D, Inner);
      if (DO < 0 || DI != DO + 1)
        continue; // the pair of loops does not enclose both endpoints
      for (const deps::DepSplit &S : D.Splits) {
        if (S.Dead)
          continue;
        // Conservative: blocked when a (+, -) orientation is possible.
        const IntRange &A = S.Dir[DO].Range;
        const IntRange &B = S.Dir[DI].Range;
        bool OuterPlus = !A.Empty && (!A.HasMax || A.Max >= 1);
        bool InnerMinus = !B.Empty && (!B.HasMin || B.Min <= -1);
        if (OuterPlus && InnerMinus)
          return true;
      }
    }
    return false;
  };
  return !blocked(R.Flow) && !blocked(R.Anti) && !blocked(R.Output);
}

ApplyResult transform::interchange(ir::Program &P,
                                   const std::string &OuterVar,
                                   const std::string &InnerVar) {
  ir::ForStmt *Outer = findLoop(P.Body, OuterVar);
  if (!Outer)
    return ApplyResult::NoSuchLoops;
  if (Outer->Body.size() != 1 || !Outer->Body.front().isFor() ||
      Outer->Body.front().asFor().Var != InnerVar)
    return ApplyResult::NotPerfectlyNested;
  ir::ForStmt &Inner = Outer->Body.front().asFor();

  // A pure header swap is only correct when neither loop's bounds
  // reference the other's variable (rectangular nests). Triangular
  // interchange needs bound rewriting, which we do not attempt.
  if (referencesVar(Inner.Lo, OuterVar) || referencesVar(Inner.Hi, OuterVar) ||
      referencesVar(Outer->Lo, InnerVar) || referencesVar(Outer->Hi, InnerVar))
    return ApplyResult::BoundsDependOnOuter;

  std::swap(Outer->Var, Inner.Var);
  std::swap(Outer->Lo, Inner.Lo);
  std::swap(Outer->Hi, Inner.Hi);
  std::swap(Outer->Step, Inner.Step);
  return ApplyResult::Applied;
}

std::string transform::transformReport(const ir::AnalyzedProgram &AP,
                                       const analysis::AnalysisResult &R) {
  // One PDG per loop answers both its DOALL verdict and its distribution.
  std::vector<Pdg> Graphs;
  for (const std::unique_ptr<ir::LoopInfo> &L : AP.Loops)
    Graphs.push_back(buildPdg(AP, R, L.get()));

  // A loop is named by its variable. Where loops share a variable and a
  // depth, the name adds the loop's first statement label ("L1@2").
  std::vector<std::string> Names;
  for (const Pdg &G : Graphs) {
    const ir::LoopInfo &L = *G.Loop;
    bool Shared = std::count_if(AP.Loops.begin(), AP.Loops.end(),
                                [&](const std::unique_ptr<ir::LoopInfo> &M) {
                                  return M->SourceVar == L.SourceVar &&
                                         M->Depth == L.Depth;
                                }) > 1;
    Names.push_back(L.SourceVar);
    if (Shared && !G.StmtLabels.empty())
      Names.back() += "@" + std::to_string(G.StmtLabels.front());
  }

  std::string Out;
  for (std::size_t I = 0; I != Graphs.size(); ++I) {
    const Pdg &G = Graphs[I];
    LoopFacts F = loopFacts(G);
    Out += "loop " + Names[I] + " (depth " +
           std::to_string(G.Loop->Depth + 1) + "): ";
    if (F.Parallelizable) {
      Out += "parallelizable";
    } else if (F.FlowParallelizable) {
      Out += "parallelizable after storage elimination (only anti/output "
             "dependences carried)";
    } else {
      Out += "serial; carried:";
      for (const deps::Dependence *D : F.Blockers)
        Out += " " + D->Src->Text + "->" + D->Dst->Text;
    }
    Out += "\n";
  }
  // Adjacent-loop interchange opportunities.
  for (std::size_t O = 0; O != AP.Loops.size(); ++O)
    for (std::size_t I = 0; I != AP.Loops.size(); ++I) {
      const ir::LoopInfo *Outer = AP.Loops[O].get();
      const ir::LoopInfo *Inner = AP.Loops[I].get();
      if (Inner->Depth != Outer->Depth + 1)
        continue;
      // Inner must be nested directly inside Outer.
      if (Inner->Path.size() < Outer->Path.size() ||
          !std::equal(Outer->Path.begin(), Outer->Path.end(),
                      Inner->Path.begin()))
        continue;
      Out += "interchange(" + Names[O] + ", " + Names[I] + "): " +
             (canInterchange(R, Outer, Inner) ? "legal" : "illegal") + "\n";
    }
  // Distribution: only interesting when a loop body can actually split.
  for (std::size_t I = 0; I != Graphs.size(); ++I) {
    std::vector<DistributionGroup> Groups = distributeLoop(Graphs[I]);
    if (Groups.size() < 2)
      continue;
    Out += "distribute " + Names[I] + ":";
    for (const DistributionGroup &Grp : Groups) {
      Out += " {";
      for (unsigned I = 0; I != Grp.StmtLabels.size(); ++I)
        Out += (I ? "," : "") + std::to_string(Grp.StmtLabels[I]);
      Out += Grp.Cyclic ? "}*" : "}";
    }
    Out += "\n";
  }
  return Out;
}

std::string
transform::renderParallelSchedule(const ir::AnalyzedProgram &AP,
                                  const analysis::AnalysisResult &R) {
  std::vector<LoopFacts> Facts = analyzeLoops(AP, R);
  enum class Verdict { Serial, Parallel, FlowParallel };
  auto parallel = [&](const std::string &Var,
                      const std::vector<unsigned> &Path) {
    for (const LoopFacts &F : Facts)
      if (F.Loop->SourceVar == Var && F.Loop->Path == Path) {
        if (F.Parallelizable)
          return Verdict::Parallel;
        if (F.FlowParallelizable)
          return Verdict::FlowParallel;
        return Verdict::Serial;
      }
    return Verdict::Serial;
  };

  std::string Out;
  std::vector<unsigned> Path;
  std::function<void(const std::vector<ir::Stmt> &, unsigned)> Walk =
      [&](const std::vector<ir::Stmt> &Body, unsigned Indent) {
        for (unsigned I = 0; I != Body.size(); ++I) {
          Path.push_back(I);
          const ir::Stmt &S = Body[I];
          if (S.isFor()) {
            const ir::ForStmt &F = S.asFor();
            Out.append(Indent, ' ');
            switch (parallel(F.Var, Path)) {
            case Verdict::Parallel:
              Out += "parallel ";
              break;
            case Verdict::FlowParallel:
              Out += "parallel(after renaming) ";
              break;
            case Verdict::Serial:
              break;
            }
            Out += "for " + F.Var + " := " + F.Lo.toString() + " to " +
                   F.Hi.toString();
            if (F.Step != 1)
              Out += " step " + std::to_string(F.Step);
            Out += " do\n";
            Walk(F.Body, Indent + 2);
            Out.append(Indent, ' ');
            Out += "endfor\n";
          } else {
            Out.append(Indent, ' ');
            Out += S.asAssign().toString() + "\n";
          }
          Path.pop_back();
        }
      };
  Walk(AP.Source.Body, 0);
  return Out;
}
