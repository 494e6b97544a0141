//===- deps/DepSpace.h - Variable layout for dependence problems ---------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A DepSpace lays out the Omega-test variables for a dependence question
/// over one or more access *instances*: one iteration variable per
/// enclosing loop of each instance, one shared variable per symbolic
/// constant, and variables for uninterpreted terms (shared when the term
/// is loop-invariant, per-instance when it is parameterized by loop
/// variables -- Section 5 of the paper). It provides the constraint
/// builders every analysis is phrased with: iteration spaces, subscript
/// equality, and the lexicographic execution order A(i) << B(j).
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_DEPS_DEPSPACE_H
#define OMEGA_DEPS_DEPSPACE_H

#include "ir/Sema.h"
#include "omega/OmegaContext.h"
#include "omega/Problem.h"

#include <map>
#include <vector>

namespace omega {
namespace deps {

class DepSpace {
public:
  /// Creates the layout for the given access instances. Two instances may
  /// reference the same Access (e.g. refinement compares two iterations of
  /// one write).
  DepSpace(const ir::AnalyzedProgram &AP,
           std::vector<const ir::Access *> Instances);

  const ir::AnalyzedProgram &program() const { return AP; }
  unsigned getNumInstances() const { return Insts.size(); }
  const ir::Access &access(unsigned Inst) const { return *Insts[Inst]; }

  /// An empty problem with this layout (iteration variables, symbolic
  /// constants and term variables all created).
  const Problem &base() const { return Base; }

  /// Iteration variable of instance \p Inst at loop depth \p Depth.
  VarId iterVar(unsigned Inst, unsigned Depth) const;
  /// The shared variable of a symbolic constant.
  VarId symConstVar(ir::SymId S) const;
  /// All shared symbolic-constant variables.
  std::vector<VarId> symConstVars() const;

  /// Adds Scale * Expr (an affine form of instance \p Inst) into \p Row.
  void accumulate(Constraint &Row, unsigned Inst, const ir::AffineExpr &E,
                  int64_t Scale) const;

  /// Appends the iteration-space constraints of instance \p Inst: loop
  /// bounds and stride constraints (strides add wildcards to \p P).
  void addIterationSpace(Problem &P, unsigned Inst) const;

  /// Appends subscript-equality constraints between two instances of
  /// references to the same array (A(i) =sub= B(j)).
  void addSubscriptsEqual(Problem &P, unsigned InstA, unsigned InstB) const;

  /// Number of loops common to two instances' accesses.
  unsigned numCommonLoops(unsigned InstA, unsigned InstB) const;

  /// Appends the constraints for "instance A executes before instance B,
  /// carried at exactly loop \p Level" (1-based). Level 0 means
  /// loop-independent: all common iteration variables equal; it is only
  /// meaningful when A is textually before B (the caller must check).
  void addPrecedesAtLevel(Problem &P, unsigned InstA, unsigned InstB,
                          unsigned Level) const;

  /// True when the loop-independent case of addPrecedesAtLevel applies.
  bool textuallyBefore(unsigned InstA, unsigned InstB) const {
    return ir::AnalyzedProgram::textuallyBefore(access(InstA),
                                                access(InstB));
  }

  /// All execution-order cases for A << B: one copy of \p P per carried
  /// level plus (when textually ordered) the loop-independent case.
  std::vector<Problem> precedesCases(const Problem &P, unsigned InstA,
                                     unsigned InstB) const;

  /// Creates distance variables Delta_k == iterB_k - iterA_k for the
  /// common loops of the two instances, appending defining equalities to
  /// \p P, and returns their VarIds (outermost first).
  std::vector<VarId> addDistanceVars(Problem &P, unsigned InstA,
                                     unsigned InstB) const;

  /// One uninterpreted-term variable of the space: \p Inst is the owning
  /// instance, or -1 for a shared (loop-invariant) term.
  struct TermVar {
    int Inst = -1;
    ir::SymId Sym = -1;
    VarId Var = -1;
  };
  /// Every term-symbol variable (instance-local and shared).
  std::vector<TermVar> termVars() const;

  /// One restraint vector (Section 2.1.2): a conjunction of sign
  /// constraints on the dependence distances that filters out the
  /// lexicographically negative solutions. MinAtLevel[k] is the forced
  /// minimum of Delta_k (INT64_MIN when unconstrained); typical vectors
  /// pin a prefix to 0 and one level to >= 0 or >= 1.
  struct RestraintVector {
    std::vector<int64_t> MinAtLevel;
    std::vector<int64_t> ExactAtLevel; // INT64_MIN when not pinned

    std::string toString() const;
  };

  /// Computes a small set of restraint vectors for the dependence between
  /// the two instances, as Section 2.1.2 prescribes: first try a single
  /// merged restraint (e.g. Delta_1 >= 0 suffices for coupled distances
  /// like Example 6); fall back to one restraint per carried level plus
  /// the loop-independent case. \p Pair must contain the dependence
  /// problem (iteration spaces and subscript equality, no ordering). The
  /// satisfiability tests are charged to \p Ctx.
  std::vector<RestraintVector> computeRestraintVectors(const Problem &Pair,
                                                       unsigned InstA,
                                                       unsigned InstB,
                                                       OmegaContext &Ctx) const;

  /// Appends the constraints of one restraint vector to \p P.
  void addRestraint(Problem &P, unsigned InstA, unsigned InstB,
                    const RestraintVector &R) const;

private:
  const ir::AnalyzedProgram &AP;
  std::vector<const ir::Access *> Insts;
  Problem Base;
  std::vector<std::vector<VarId>> IterVars;       // [Inst][Depth]
  std::map<ir::SymId, VarId> SharedVars;          // SymConst + invariant Term
  std::vector<std::map<ir::SymId, VarId>> InstTermVars; // per-instance Term

  VarId varForSymbol(unsigned Inst, ir::SymId S) const;
};

} // namespace deps
} // namespace omega

#endif // OMEGA_DEPS_DEPSPACE_H
