//===- symbolic/Induction.cpp ---------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "symbolic/Induction.h"

#include "deps/DepSpace.h"
#include "omega/Satisfiability.h"

#include <functional>
#include <optional>

using namespace omega;
using namespace omega::symbolic;
using omega::ir::AffineExpr;

namespace {

const ir::AssignStmt *findAssign(const std::vector<ir::Stmt> &Body,
                                 unsigned Label) {
  for (const ir::Stmt &S : Body) {
    if (S.isFor()) {
      if (const ir::AssignStmt *A = findAssign(S.asFor().Body, Label))
        return A;
    } else if (S.asAssign().Label == Label) {
      return &S.asAssign();
    }
  }
  return nullptr;
}

bool referencesArray(const ir::Expr &E, const std::string &Name) {
  if (E.getKind() == ir::Expr::Kind::Read && E.getName() == Name)
    return true;
  for (const ir::Expr &Arg : E.args())
    if (referencesArray(Arg, Name))
      return true;
  return false;
}

/// Lowers \p E to an affine form over the write's enclosing loops and the
/// program's symbolic constants; nullopt when non-affine.
std::optional<AffineExpr> lowerAddend(const ir::Expr &E,
                                      const ir::AnalyzedProgram &AP,
                                      const ir::Access &Write) {
  switch (E.getKind()) {
  case ir::Expr::Kind::IntLit:
    return AffineExpr(E.getIntValue());
  case ir::Expr::Kind::VarRef: {
    for (const ir::LoopInfo *L : Write.Loops)
      if (L->SourceVar == E.getName())
        return L->sourceVarExpr();
    ir::SymId S = AP.Symbols.lookup(E.getName());
    if (S >= 0)
      return AffineExpr::symbol(S);
    return std::nullopt;
  }
  case ir::Expr::Kind::Add:
  case ir::Expr::Kind::Sub: {
    std::optional<AffineExpr> L = lowerAddend(E.args()[0], AP, Write);
    std::optional<AffineExpr> R = lowerAddend(E.args()[1], AP, Write);
    if (!L || !R)
      return std::nullopt;
    return E.getKind() == ir::Expr::Kind::Add ? *L + *R : *L - *R;
  }
  case ir::Expr::Kind::Neg: {
    std::optional<AffineExpr> Inner = lowerAddend(E.args()[0], AP, Write);
    if (!Inner)
      return std::nullopt;
    return Inner->negated();
  }
  case ir::Expr::Kind::Mul: {
    std::optional<AffineExpr> L = lowerAddend(E.args()[0], AP, Write);
    std::optional<AffineExpr> R = lowerAddend(E.args()[1], AP, Write);
    if (!L || !R)
      return std::nullopt;
    if (L->isConstant())
      return R->scaled(L->getConstant());
    if (R->isConstant())
      return L->scaled(R->getConstant());
    return std::nullopt;
  }
  default:
    return std::nullopt;
  }
}

/// The provable sign band of \p E over the write's iteration space.
Monotonicity addendDirection(const AffineExpr &E,
                             const ir::AnalyzedProgram &AP,
                             const ir::Access &Write, OmegaContext &Ctx) {
  deps::DepSpace Space(AP, {&Write});
  Problem Base = Space.base();
  Space.addIterationSpace(Base, 0);

  auto excluded = [&](int64_t UpperBoundOnE) {
    // Is "E <= UpperBoundOnE" impossible? (then E >= UpperBoundOnE + 1)
    Problem Test = Base;
    Constraint &Row = Test.addRow(ConstraintKind::GEQ);
    Space.accumulate(Row, 0, E, -1); // -E + UpperBound >= 0
    Row.addToConstant(UpperBoundOnE);
    return !isSatisfiable(std::move(Test), Ctx);
  };
  auto excludedBelow = [&](int64_t LowerBoundOnE) {
    // Is "E >= LowerBoundOnE" impossible? (then E <= LowerBoundOnE - 1)
    Problem Test = Base;
    Constraint &Row = Test.addRow(ConstraintKind::GEQ);
    Space.accumulate(Row, 0, E, 1); // E - LowerBound >= 0
    Row.addToConstant(-LowerBoundOnE);
    return !isSatisfiable(std::move(Test), Ctx);
  };

  if (excluded(0))
    return Monotonicity::StrictlyIncreasing; // E <= 0 impossible: E >= 1
  if (excluded(-1))
    return Monotonicity::Increasing; // E <= -1 impossible: E >= 0
  if (excludedBelow(0))
    return Monotonicity::StrictlyDecreasing; // E >= 0 impossible: E <= -1
  if (excludedBelow(1))
    return Monotonicity::Decreasing; // E >= 1 impossible: E <= 0
  return Monotonicity::Unknown;
}

/// Meet of two directions: the weakest claim covering both.
Monotonicity meet(Monotonicity A, Monotonicity B) {
  if (A == B)
    return A;
  auto increasingish = [](Monotonicity M) {
    return M == Monotonicity::Increasing ||
           M == Monotonicity::StrictlyIncreasing;
  };
  auto decreasingish = [](Monotonicity M) {
    return M == Monotonicity::Decreasing ||
           M == Monotonicity::StrictlyDecreasing;
  };
  if (increasingish(A) && increasingish(B))
    return Monotonicity::Increasing;
  if (decreasingish(A) && decreasingish(B))
    return Monotonicity::Decreasing;
  return Monotonicity::Unknown;
}

} // namespace

InductionInfo symbolic::recognizeInductions(const ir::AnalyzedProgram &AP,
                                            OmegaContext &Ctx) {
  InductionInfo Info;
  // Candidate scalars: zero-dimensional writes.
  std::map<std::string, std::vector<const ir::Access *>> WritesByScalar;
  for (const ir::Access &A : AP.Accesses)
    if (A.IsWrite && A.Subscripts.empty())
      WritesByScalar[A.Array].push_back(&A);

  for (const auto &[Name, Writes] : WritesByScalar) {
    ScalarRecurrence Rec;
    bool OK = true;
    for (const ir::Access *W : Writes) {
      const ir::AssignStmt *Stmt = findAssign(AP.Source.Body, W->StmtLabel);
      if (!Stmt || Stmt->Array != Name) {
        OK = false;
        break;
      }
      // Pattern: Name := Name + e, with the self-read occurring exactly
      // once, positively, in the top-level additive chain.
      std::vector<std::pair<int, const ir::Expr *>> Leaves;
      std::function<void(const ir::Expr &, int)> Flatten =
          [&](const ir::Expr &E, int Sign) {
            switch (E.getKind()) {
            case ir::Expr::Kind::Add:
              Flatten(E.args()[0], Sign);
              Flatten(E.args()[1], Sign);
              return;
            case ir::Expr::Kind::Sub:
              Flatten(E.args()[0], Sign);
              Flatten(E.args()[1], -Sign);
              return;
            case ir::Expr::Kind::Neg:
              Flatten(E.args()[0], -Sign);
              return;
            default:
              Leaves.push_back({Sign, &E});
            }
          };
      Flatten(Stmt->RHS, +1);

      unsigned SelfReads = 0;
      std::optional<AffineExpr> Addend = AffineExpr(0);
      for (const auto &[Sign, Leaf] : Leaves) {
        bool IsSelf = Leaf->getKind() == ir::Expr::Kind::Read &&
                      Leaf->getName() == Name && Leaf->args().empty();
        if (IsSelf) {
          if (Sign != +1 || ++SelfReads > 1) {
            Addend.reset();
            break;
          }
          continue;
        }
        if (referencesArray(*Leaf, Name)) {
          Addend.reset();
          break;
        }
        if (!Addend)
          break;
        std::optional<AffineExpr> E = lowerAddend(*Leaf, AP, *W);
        if (!E) {
          Addend.reset();
          break;
        }
        *Addend += E->scaled(Sign);
      }
      if (!Addend || SelfReads != 1) {
        OK = false;
        break;
      }
      Monotonicity Dir = addendDirection(*Addend, AP, *W, Ctx);
      if (Dir == Monotonicity::Unknown) {
        OK = false;
        break;
      }
      Rec.Direction = Rec.Updates.empty() ? Dir : meet(Rec.Direction, Dir);
      if (Rec.Direction == Monotonicity::Unknown) {
        OK = false;
        break;
      }
      Rec.Updates.push_back(W);
    }
    if (OK && !Rec.Updates.empty())
      Info.Scalars[Name] = Rec;
  }
  return Info;
}
