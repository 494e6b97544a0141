//===- symbolic/SymbolicAnalysis.cpp --------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "symbolic/SymbolicAnalysis.h"

#include "omega/Gist.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"
#include "symbolic/Induction.h"

#include <map>
#include <set>

using namespace omega;
using namespace omega::symbolic;
using omega::deps::DepSpace;

namespace {

/// The dependence problem with red (dependence) and black (known) rows,
/// plus bookkeeping for symbol names and index-array terms.
struct SymProblem {
  DepSpace Space;
  Problem P;
  std::map<std::string, VarId> SymByName;
  bool Infeasible = false;

  SymProblem(const ir::AnalyzedProgram &AP, const ir::Access &Src,
             const ir::Access &Dst)
      : Space(AP, {&Src, &Dst}), P(Space.base()) {}

  VarId varForName(const std::string &Name) {
    auto It = SymByName.find(Name);
    if (It != SymByName.end())
      return It->second;
    const ir::AnalyzedProgram &AP = Space.program();
    ir::SymId S = AP.Symbols.lookup(Name);
    VarId V = -1;
    if (S >= 0) {
      // Use the space's shared variable when the accesses reference the
      // symbol; otherwise create a fresh column for the assertion.
      for (VarId Candidate = 0;
           Candidate != static_cast<VarId>(P.getNumVars()); ++Candidate)
        if (P.getVarName(Candidate) == Name && P.isProtected(Candidate)) {
          V = Candidate;
          break;
        }
    }
    if (V < 0)
      V = P.addVar(Name);
    SymByName[Name] = V;
    return V;
  }

  void accumulateSymExpr(Constraint &Row, const SymExpr &E, int64_t Scale) {
    for (const auto &[Name, Coeff] : E.Terms)
      Row.addToCoeff(varForName(Name), checkedMul(Coeff, Scale));
    Row.addToConstant(checkedMul(E.Const, Scale));
  }

  /// Adds "Lo <= E" style rows where E is an instance affine expression.
  void addInstBound(unsigned Inst, const ir::AffineExpr &E,
                    const SymExpr &Bound, bool IsLower) {
    Constraint &Row = P.addRow(ConstraintKind::GEQ);
    // IsLower: E - Bound >= 0; else Bound - E >= 0.
    Space.accumulate(Row, Inst, E, IsLower ? 1 : -1);
    accumulateSymExpr(Row, Bound, IsLower ? -1 : 1);
  }
};

/// Resolves a SymRelation into a row of \p SP (black).
void addRelation(SymProblem &SP, const SymRelation &R) {
  Constraint &Row = SP.P.addRow(R.Relation == SymRelation::Rel::EQ
                                    ? ConstraintKind::EQ
                                    : ConstraintKind::GEQ);
  // Normal orientation: Lhs REL Rhs becomes (Rhs - Lhs) or (Lhs - Rhs).
  int64_t LScale = 0, RScale = 0, Adjust = 0;
  switch (R.Relation) {
  case SymRelation::Rel::LE: // Rhs - Lhs >= 0
    LScale = -1;
    RScale = 1;
    break;
  case SymRelation::Rel::LT: // Rhs - Lhs - 1 >= 0
    LScale = -1;
    RScale = 1;
    Adjust = -1;
    break;
  case SymRelation::Rel::EQ: // Lhs - Rhs == 0
    LScale = 1;
    RScale = -1;
    break;
  case SymRelation::Rel::GE: // Lhs - Rhs >= 0
    LScale = 1;
    RScale = -1;
    break;
  case SymRelation::Rel::GT: // Lhs - Rhs - 1 >= 0
    LScale = 1;
    RScale = -1;
    Adjust = -1;
    break;
  }
  SP.accumulateSymExpr(Row, R.Lhs, LScale);
  SP.accumulateSymExpr(Row, R.Rhs, RScale);
  Row.addToConstant(Adjust);
}

/// Adds the in-bounds facts for one instance's subscripts, when its
/// array's bounds were declared.
void addInBoundsFacts(SymProblem &SP, const AssertionDB &DB) {
  if (!DB.inBoundsAssumed())
    return;
  for (unsigned Inst = 0; Inst != SP.Space.getNumInstances(); ++Inst) {
    const ir::Access &A = SP.Space.access(Inst);
    if (const ArrayBounds *B = DB.boundsOf(A.Array)) {
      unsigned Dims = std::min(B->Dims.size(), A.Subscripts.size());
      for (unsigned D = 0; D != Dims; ++D) {
        SP.addInstBound(Inst, A.Subscripts[D], B->Dims[D].first, true);
        SP.addInstBound(Inst, A.Subscripts[D], B->Dims[D].second, false);
      }
    }
  }
  // Index-array reads used inside subscripts: their own subscripts are in
  // the index array's bounds too.
  const ir::AnalyzedProgram &AP = SP.Space.program();
  for (const DepSpace::TermVar &T : SP.Space.termVars()) {
    const ir::SymbolInfo &Info = AP.Symbols.info(T.Sym);
    if (!Info.IsIndexArrayRead)
      continue;
    const ArrayBounds *B = DB.boundsOf(Info.IndexArray);
    if (!B)
      continue;
    unsigned Inst = T.Inst < 0 ? 0 : T.Inst;
    unsigned Dims = std::min(B->Dims.size(), Info.IndexSubs.size());
    for (unsigned D = 0; D != Dims; ++D) {
      SP.addInstBound(Inst, Info.IndexSubs[D], B->Dims[D].first, true);
      SP.addInstBound(Inst, Info.IndexSubs[D], B->Dims[D].second, false);
    }
  }
}

/// Do the given (known, black) constraints already imply Row?
bool knownImplies(const Problem &P, const Constraint &Row, OmegaContext &Ctx) {
  Problem Target = P.cloneLayout();
  Target.addConstraint(Row);
  return implies(P, Target, Ctx);
}

/// Adds the monotonicity facts a recognized scalar recurrence justifies
/// between two cross-instance reads of the scalar. Instance 0 executes
/// before instance 1 under the space's precedes constraints, so for an
/// increasing scalar the later read sees a value >= the earlier one; it
/// is strictly greater when some update provably executes in between:
/// an unconditional update (not nested below the shared loops) textually
/// after the earlier read, with the dependence carried at a loop
/// enclosing the update.
void instantiateRecurrence(SymProblem &SP, const ScalarRecurrence &Rec,
                           const DepSpace::TermVar &A,
                           const DepSpace::TermVar &B, unsigned Level) {
  if (Rec.Direction == Monotonicity::Unknown)
    return;
  // Orient so Lo's instance executes before Hi's.
  const DepSpace::TermVar &Lo = A.Inst <= B.Inst ? A : B;
  const DepSpace::TermVar &Hi = A.Inst <= B.Inst ? B : A;
  bool Increasing = Rec.Direction == Monotonicity::Increasing ||
                    Rec.Direction == Monotonicity::StrictlyIncreasing;

  bool Strict = false;
  if (Level >= 1 &&
      (Rec.Direction == Monotonicity::StrictlyIncreasing ||
       Rec.Direction == Monotonicity::StrictlyDecreasing)) {
    const ir::Access &AccLo = SP.Space.access(Lo.Inst);
    for (const ir::Access *U : Rec.Updates) {
      unsigned Shared = ir::AnalyzedProgram::numCommonLoops(*U, AccLo);
      if (U->Loops.size() == Shared && Shared >= Level &&
          ir::AnalyzedProgram::textuallyBefore(AccLo, *U)) {
        Strict = true;
        break;
      }
    }
  }
  // Increasing: t_hi - t_lo >= (Strict ? 1 : 0); decreasing mirrored.
  Constraint &Row = SP.P.addRow(ConstraintKind::GEQ);
  Row.setCoeff(Hi.Var, Increasing ? 1 : -1);
  Row.setCoeff(Lo.Var, Increasing ? -1 : 1);
  Row.setConstant(Strict ? -1 : 0);
}

/// Pairwise instantiation of function consistency ("same subscripts give
/// the same value"), the strictly-increasing property, and recognized
/// scalar recurrences, over the black facts gathered so far.
void instantiateTermFacts(SymProblem &SP, const AssertionDB &DB,
                          unsigned Level, const InductionInfo &Ind,
                          OmegaContext &Ctx) {
  const ir::AnalyzedProgram &AP = SP.Space.program();
  std::set<std::string> WrittenArrays;
  for (const ir::Access &A : AP.Accesses)
    if (A.IsWrite)
      WrittenArrays.insert(A.Array);

  std::vector<DepSpace::TermVar> Terms = SP.Space.termVars();
  for (unsigned I = 0; I != Terms.size(); ++I) {
    const ir::SymbolInfo &InfoA = AP.Symbols.info(Terms[I].Sym);
    if (!InfoA.IsIndexArrayRead)
      continue;
    for (unsigned J = I + 1; J != Terms.size(); ++J) {
      const ir::SymbolInfo &InfoB = AP.Symbols.info(Terms[J].Sym);
      if (!InfoB.IsIndexArrayRead || InfoA.IndexArray != InfoB.IndexArray ||
          InfoA.IndexSubs.size() != InfoB.IndexSubs.size())
        continue;
      unsigned InstA = Terms[I].Inst < 0 ? 0 : Terms[I].Inst;
      unsigned InstB = Terms[J].Inst < 0 ? 0 : Terms[J].Inst;
      bool Mutable = WrittenArrays.count(InfoA.IndexArray) != 0;
      bool SameInstance = Terms[I].Inst == Terms[J].Inst;

      // Recognized monotone scalar: relate reads across instances.
      if (Mutable && !SameInstance && InfoA.IndexSubs.empty()) {
        if (const ScalarRecurrence *Rec =
                Ind.recurrenceOf(InfoA.IndexArray)) {
          instantiateRecurrence(SP, *Rec, Terms[I], Terms[J], Level);
          continue;
        }
      }

      // Function consistency is only valid when no write can intervene:
      // within one instance, or for arrays the program never writes.
      if (Mutable && !SameInstance)
        continue;

      // subs_a == subs_b (all dims)?
      Problem EqTest = SP.P.cloneLayout();
      for (unsigned D = 0; D != InfoA.IndexSubs.size(); ++D) {
        Constraint &Row = EqTest.addRow(ConstraintKind::EQ);
        SP.Space.accumulate(Row, InstA, InfoA.IndexSubs[D], 1);
        SP.Space.accumulate(Row, InstB, InfoB.IndexSubs[D], -1);
      }
      if (implies(SP.P, EqTest, Ctx)) {
        Constraint &Row = SP.P.addRow(ConstraintKind::EQ);
        Row.setCoeff(Terms[I].Var, 1);
        Row.setCoeff(Terms[J].Var, -1);
        continue;
      }

      if (!DB.isStrictlyIncreasing(InfoA.IndexArray) ||
          InfoA.IndexSubs.size() != 1)
        continue;
      // For a strictly increasing integer array, sub_x <= sub_y implies
      // the full affine fact Q[sub_y] - Q[sub_x] >= sub_y - sub_x.
      auto subLE = [&](unsigned X, unsigned XInst, unsigned Y,
                       unsigned YInst) {
        // sub_y - sub_x >= 0.
        Constraint Row(ConstraintKind::GEQ, SP.P.getNumVars());
        SP.Space.accumulate(Row, YInst,
                            AP.Symbols.info(Terms[Y].Sym).IndexSubs[0], 1);
        SP.Space.accumulate(Row, XInst,
                            AP.Symbols.info(Terms[X].Sym).IndexSubs[0], -1);
        return Row;
      };
      auto addIncreasingFact = [&](unsigned X, unsigned XInst, unsigned Y,
                                   unsigned YInst) {
        // (t_y - t_x) - (sub_y - sub_x) >= 0.
        Constraint &Row = SP.P.addRow(ConstraintKind::GEQ);
        Row.setCoeff(Terms[Y].Var, 1);
        Row.setCoeff(Terms[X].Var, -1);
        SP.Space.accumulate(Row, YInst,
                            AP.Symbols.info(Terms[Y].Sym).IndexSubs[0], -1);
        SP.Space.accumulate(Row, XInst,
                            AP.Symbols.info(Terms[X].Sym).IndexSubs[0], 1);
      };
      if (knownImplies(SP.P, subLE(I, InstA, J, InstB), Ctx))
        addIncreasingFact(I, InstA, J, InstB);
      else if (knownImplies(SP.P, subLE(J, InstB, I, InstA), Ctx))
        addIncreasingFact(J, InstB, I, InstA);
    }
  }
}

/// Instantiates injectivity: whenever the whole system forces the values
/// equal, the subscripts must be equal too (red rows).
void instantiateInjectivity(SymProblem &SP, const AssertionDB &DB,
                            OmegaContext &Ctx) {
  const ir::AnalyzedProgram &AP = SP.Space.program();
  std::vector<DepSpace::TermVar> Terms = SP.Space.termVars();
  for (unsigned I = 0; I != Terms.size(); ++I) {
    const ir::SymbolInfo &InfoA = AP.Symbols.info(Terms[I].Sym);
    if (!InfoA.IsIndexArrayRead || !DB.isInjective(InfoA.IndexArray))
      continue;
    for (unsigned J = I + 1; J != Terms.size(); ++J) {
      const ir::SymbolInfo &InfoB = AP.Symbols.info(Terms[J].Sym);
      if (!InfoB.IsIndexArrayRead || InfoA.IndexArray != InfoB.IndexArray ||
          InfoA.IndexSubs.size() != InfoB.IndexSubs.size())
        continue;
      Problem ValueEq = SP.P.cloneLayout();
      Constraint &VRow = ValueEq.addRow(ConstraintKind::EQ);
      VRow.setCoeff(Terms[I].Var, 1);
      VRow.setCoeff(Terms[J].Var, -1);
      if (!implies(SP.P, ValueEq, Ctx))
        continue;
      unsigned InstA = Terms[I].Inst < 0 ? 0 : Terms[I].Inst;
      unsigned InstB = Terms[J].Inst < 0 ? 0 : Terms[J].Inst;
      for (unsigned D = 0; D != InfoA.IndexSubs.size(); ++D) {
        Constraint &Row = SP.P.addRow(ConstraintKind::EQ);
        Row.setRed(true);
        SP.Space.accumulate(Row, InstA, InfoA.IndexSubs[D], 1);
        SP.Space.accumulate(Row, InstB, InfoB.IndexSubs[D], -1);
      }
    }
  }
}

/// Builds the full symbolic dependence problem: black knowledge plus red
/// dependence rows.
SymProblem buildSymbolicProblem(const ir::AnalyzedProgram &AP,
                                const ir::Access &Src, const ir::Access &Dst,
                                unsigned Level, const AssertionDB &DB,
                                bool WithInjectivity, OmegaContext &Ctx) {
  SymProblem SP(AP, Src, Dst);

  if (Level == 0 && !SP.Space.textuallyBefore(0, 1)) {
    SP.Infeasible = true;
    return SP;
  }

  // Black: what we know.
  SP.Space.addIterationSpace(SP.P, 0);
  SP.Space.addIterationSpace(SP.P, 1);
  SP.Space.addPrecedesAtLevel(SP.P, 0, 1, Level);
  for (const SymRelation &R : DB.relations())
    addRelation(SP, R);
  addInBoundsFacts(SP, DB);
  instantiateTermFacts(SP, DB, Level, recognizeInductions(AP, Ctx), Ctx);

  // Red: the dependence itself.
  unsigned FirstRed = SP.P.getNumConstraints();
  SP.Space.addSubscriptsEqual(SP.P, 0, 1);
  for (unsigned I = FirstRed; I != SP.P.getNumConstraints(); ++I)
    SP.P.constraints()[I].setRed(true);

  if (WithInjectivity)
    instantiateInjectivity(SP, DB, Ctx);
  return SP;
}

/// gist(pi(All) given pi(Black)) over the kept variables, computed with
/// two independent projections (exact whenever neither splinters, in
/// which case the paper's combined red/black pass would also be exact).
struct ProjectedGist {
  Problem Gist;
  bool Exact = true;
  /// pi(Black) itself, for a caller that also reads the black context.
  ProjectionResult BlackProjection;
};

ProjectedGist gistOfProjections(const Problem &All, const Problem &Black,
                                const std::vector<bool> &Keep,
                                OmegaContext &Ctx) {
  ProjectedGist Out;
  ProjectOptions WithApprox;
  WithApprox.WantApprox = true;
  ProjectionResult ProjAll = projectOntoMask(All, Keep, Ctx, WithApprox);
  std::vector<bool> KeepBlack = Keep;
  KeepBlack.resize(Black.getNumVars(), false);
  ProjectionResult ProjBlack =
      projectOntoMask(Black, KeepBlack, Ctx, WithApprox);

  const Problem &PQ = ProjAll.isSinglePiece() ? ProjAll.Pieces.front()
                                              : ProjAll.Approx->Shadow;
  const Problem &Pp = ProjBlack.isSinglePiece() ? ProjBlack.Pieces.front()
                                                : ProjBlack.Approx->Shadow;
  Out.Exact = ProjAll.isSinglePiece() && ProjBlack.isSinglePiece();

  unsigned BaseVars = std::min(All.getNumVars(), Black.getNumVars());
  Problem Context = conjoinExtending(PQ.cloneLayout(), Pp, BaseVars);
  Problem Candidates = PQ;
  while (Candidates.getNumVars() < Context.getNumVars())
    Candidates.addWildcard();
  Out.Gist = gist(Candidates, Context, Ctx);
  Out.BlackProjection = std::move(ProjBlack);
  return Out;
}

} // namespace

SymbolicCondition symbolic::dependenceCondition(
    const ir::AnalyzedProgram &AP, const ir::Access &Src,
    const ir::Access &Dst, unsigned Level, const AssertionDB &DB,
    const std::vector<std::string> &KeepSymbols, OmegaContext &Ctx) {
  SymbolicCondition Out;
  SymProblem SP = buildSymbolicProblem(AP, Src, Dst, Level, DB,
                                       /*WithInjectivity=*/true, Ctx);
  if (SP.Infeasible || !isSatisfiable(SP.P, Ctx)) {
    Out.Impossible = true;
    Out.Text = "FALSE";
    return Out;
  }

  std::vector<bool> Keep(SP.P.getNumVars(), false);
  for (const std::string &Name : KeepSymbols) {
    VarId V = SP.varForName(Name);
    Keep.resize(SP.P.getNumVars(), false);
    Keep[V] = true;
  }

  Problem Black = SP.P.cloneLayout();
  for (const Constraint &Row : SP.P.constraints())
    if (!Row.isRed())
      Black.addConstraint(Row);

  ProjectedGist G = gistOfProjections(SP.P, Black, Keep, Ctx);
  Out.Condition = std::move(G.Gist);
  Out.Exact = G.Exact;
  if (!isSatisfiable(Out.Condition, Ctx)) {
    Out.Impossible = true;
    Out.Text = "FALSE";
    return Out;
  }

  std::string Text;
  for (const Constraint &Row : Out.Condition.constraints()) {
    if (!Text.empty())
      Text += " && ";
    Constraint Clean = Row;
    Clean.setRed(false);
    Text += Out.Condition.constraintToString(Clean);
  }
  Out.Text = Text.empty() ? "TRUE" : Text;
  return Out;
}

bool symbolic::dependencePossible(const ir::AnalyzedProgram &AP,
                                  const ir::Access &Src,
                                  const ir::Access &Dst, unsigned Level,
                                  const AssertionDB &DB, OmegaContext &Ctx) {
  SymProblem SP = buildSymbolicProblem(AP, Src, Dst, Level, DB,
                                       /*WithInjectivity=*/true, Ctx);
  return !SP.Infeasible && isSatisfiable(SP.P, Ctx);
}

std::vector<UserQuery> symbolic::generateQueries(const ir::AnalyzedProgram &AP,
                                                 const ir::Access &Src,
                                                 const ir::Access &Dst,
                                                 unsigned Level,
                                                 const AssertionDB &DB,
                                                 OmegaContext &Ctx) {
  std::vector<UserQuery> Out;
  // Queries replace unknown index-array facts, so injectivity is not
  // instantiated here.
  SymProblem SP = buildSymbolicProblem(AP, Src, Dst, Level, DB,
                                       /*WithInjectivity=*/false, Ctx);
  if (SP.Infeasible || !isSatisfiable(SP.P, Ctx))
    return Out; // nothing to ask: the dependence is already impossible

  // Introduce named subscript variables for the index-array terms (the
  // paper's s, s') and rename the value variables to "Q[a]" style.
  std::vector<DepSpace::TermVar> Terms = SP.Space.termVars();
  std::map<VarId, VarId> SubVarOf; // term var -> subscript var
  char NextName = 'a';
  for (const DepSpace::TermVar &T : Terms) {
    const ir::SymbolInfo &Info = AP.Symbols.info(T.Sym);
    if (!Info.IsIndexArrayRead || Info.IndexSubs.size() != 1)
      continue;
    std::string SubName(1, NextName++);
    VarId S = SP.P.addVar(SubName);
    Constraint &Row = SP.P.addRow(ConstraintKind::EQ);
    Row.setCoeff(S, -1);
    SP.Space.accumulate(Row, T.Inst < 0 ? 0 : T.Inst, Info.IndexSubs[0], 1);
    SubVarOf[T.Var] = S;
    SP.P.setVarName(T.Var, Info.IndexArray + "[" + SubName + "]");
  }
  if (SubVarOf.empty())
    return Out;

  // Keep the subscript vars, the value vars, and the symbolic constants;
  // gist the dependence information given the black knowledge.
  std::vector<bool> Keep(SP.P.getNumVars(), false);
  for (const auto &[TermVar, SubVar] : SubVarOf) {
    Keep[TermVar] = true;
    Keep[SubVar] = true;
  }
  for (VarId V : SP.Space.symConstVars())
    Keep[V] = true;

  Problem Black = SP.P.cloneLayout();
  for (const Constraint &Row : SP.P.constraints())
    if (!Row.isRed())
      Black.addConstraint(Row);

  ProjectedGist G = gistOfProjections(SP.P, Black, Keep, Ctx);
  if (G.Gist.getNumConstraints() == 0)
    return Out; // the dependence holds regardless of the index arrays

  // Context: the black knowledge over the same variables.
  const ProjectionResult &Known = G.BlackProjection;

  UserQuery Q;
  for (const DepSpace::TermVar &T : Terms)
    if (SubVarOf.count(T.Var)) {
      Q.Array = AP.Symbols.info(T.Sym).IndexArray;
      break;
    }
  std::string CtxText;
  if (!Known.Pieces.empty())
    for (const Constraint &Row : Known.Pieces.front().constraints()) {
      bool TouchesKept = false;
      for (const auto &[TermVar, SubVar] : SubVarOf)
        TouchesKept |= Row.involves(SubVar) || Row.involves(TermVar);
      if (!TouchesKept)
        continue;
      if (!CtxText.empty())
        CtxText += " && ";
      CtxText += Known.Pieces.front().constraintToString(Row);
    }
  Q.Condition = CtxText;

  std::string Offending;
  for (const Constraint &Row : G.Gist.constraints()) {
    Constraint Clean = Row;
    Clean.setRed(false);
    if (!Offending.empty())
      Offending += " && ";
    Offending += G.Gist.constraintToString(Clean);
  }
  Q.Offending = Offending;

  // A concrete offending scenario makes the question easier to answer:
  // solve context && offending and report the kept variables.
  {
    Problem Scenario = SP.P;
    if (std::optional<std::vector<int64_t>> Sol = findSolution(Scenario, Ctx)) {
      std::string Ex;
      for (const auto &[TermVar, SubVar] : SubVarOf) {
        if (!Ex.empty())
          Ex += ", ";
        Ex += Scenario.getVarName(SubVar) + " = " +
              std::to_string((*Sol)[SubVar]);
        Ex += ", " + Scenario.getVarName(TermVar) + " = " +
              std::to_string((*Sol)[TermVar]);
      }
      Q.Example = Ex;
    }
  }

  Q.Text = "Is it the case that for all subscripts such that " +
           (CtxText.empty() ? std::string("the references are in bounds")
                            : CtxText) +
           ", the following never happens?\n    " + Offending;
  if (!Q.Example.empty())
    Q.Text += "\n    (for instance: " + Q.Example + ")";
  Out.push_back(std::move(Q));
  return Out;
}
