//===- omega/Constraint.h - Linear equality/inequality rows --------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Constraint is a single row of a Problem: an integer linear equality
/// (sum a_i x_i + c == 0) or inequality (sum a_i x_i + c >= 0) over the
/// owning Problem's variable space. Constraints carry a red/black tag used
/// by the combined projection+gist computation of Section 3.3.2 of the
/// paper ("red" rows are the new information p, "black" rows the context q).
///
/// Rows are the hot data structure of the whole core: coefficients live in
/// a SmallCoeffVector (inline storage up to 8 variables, heap beyond), so
/// constructing, copying and combining typical dependence rows never
/// allocates. Each row also lazily maintains a structural signature -- a
/// commutative hash of its orientation-canonical coefficient vector plus
/// the active-variable count -- which normalize() uses to bucket rows in
/// O(1) instead of O(vars) comparisons.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_OMEGA_CONSTRAINT_H
#define OMEGA_OMEGA_CONSTRAINT_H

#include "support/Hashing.h"
#include "support/MathUtils.h"
#include "support/SmallCoeffVector.h"

#include <cassert>
#include <cstdint>

namespace omega {

/// Index of a variable within its owning Problem.
using VarId = int;

/// Whether a constraint row is an equality or a (>= 0) inequality.
enum class ConstraintKind : uint8_t { EQ, GEQ };

/// Structural summary of a row's coefficient vector, independent of the
/// row's orientation (a row and its negation share a signature), constant
/// and kind. Equal coefficient vectors (up to overall sign) have equal
/// signatures; unequal vectors collide only with mix64 probability.
struct RowSignature {
  /// Commutative hash of (position, canonical coefficient) pairs.
  uint64_t Hash = 0;
  /// Number of variables with non-zero coefficients.
  unsigned ActiveVars = 0;
  /// Sign of the leading non-zero coefficient (+1/-1), 0 for constant
  /// rows. Multiplying the row by Orientation makes the leading
  /// coefficient positive -- the canonical orientation normalize() merges
  /// under.
  int Orientation = 0;
};

class Constraint {
public:
  Constraint(ConstraintKind Kind, unsigned NumVars)
      : Coeffs(NumVars), Kind(Kind) {}

  ConstraintKind getKind() const { return Kind; }
  void setKind(ConstraintKind K) { Kind = K; }
  bool isEquality() const { return Kind == ConstraintKind::EQ; }
  bool isInequality() const { return Kind == ConstraintKind::GEQ; }

  unsigned getNumVars() const { return Coeffs.size(); }

  /// Grow-only: appended columns are zero, which leaves the cached
  /// signature valid.
  void resizeVars(unsigned NumVars) {
    assert(NumVars >= Coeffs.size() && "rows only gain variables");
    Coeffs.resize(NumVars);
  }

  int64_t getCoeff(VarId V) const {
    assert(V >= 0 && static_cast<unsigned>(V) < Coeffs.size());
    return Coeffs[V];
  }
  void setCoeff(VarId V, int64_t C) {
    assert(V >= 0 && static_cast<unsigned>(V) < Coeffs.size());
    Coeffs[V] = C;
    SigValid = false;
  }
  void addToCoeff(VarId V, int64_t C) {
    assert(V >= 0 && static_cast<unsigned>(V) < Coeffs.size());
    int64_t &Slot = Coeffs[V];
    Slot = checkedAdd(Slot, C);
    SigValid = false;
  }

  int64_t getConstant() const { return Constant; }
  void setConstant(int64_t C) { Constant = C; }
  void addToConstant(int64_t C) { Constant = checkedAdd(Constant, C); }

  bool isRed() const { return Red; }
  void setRed(bool R) { Red = R; }

  /// Returns true if variable \p V appears with a non-zero coefficient.
  bool involves(VarId V) const { return getCoeff(V) != 0; }

  /// Returns true if every variable coefficient is zero.
  bool isConstantRow() const {
    for (int64_t C : Coeffs)
      if (C != 0)
        return false;
    return true;
  }

  /// Returns the number of variables with non-zero coefficients (cached in
  /// the structural signature).
  unsigned getNumActiveVars() const { return signature().ActiveVars; }

  /// The row's structural signature, recomputed lazily after mutation.
  const RowSignature &signature() const {
    if (!SigValid) {
      Sig = RowSignature();
      const int64_t *D = Coeffs.data();
      for (unsigned V = 0, E = Coeffs.size(); V != E; ++V) {
        if (D[V] == 0)
          continue;
        if (Sig.Orientation == 0)
          Sig.Orientation = signOf(D[V]);
        Sig.Hash += hashCoeffTerm(
            V, static_cast<int64_t>(Sig.Orientation) * D[V]);
        ++Sig.ActiveVars;
      }
      SigValid = true;
    }
    return Sig;
  }

  /// Adds \p Scale times \p Other into this row (affine form included).
  /// Both rows must live in the same variable space.
  void addScaled(const Constraint &Other, int64_t Scale) {
    assert(Other.Coeffs.size() == Coeffs.size() && "variable space mismatch");
    int64_t *D = Coeffs.data();
    const int64_t *S = Other.Coeffs.data();
    for (unsigned I = 0, E = Coeffs.size(); I != E; ++I)
      D[I] = checkedAdd(D[I], checkedMul(Scale, S[I]));
    Constant = checkedAdd(Constant, checkedMul(Scale, Other.Constant));
    SigValid = false;
  }

  /// Multiplies the whole row (coefficients and constant) by \p Scale.
  void scale(int64_t Scale) {
    for (int64_t &C : Coeffs)
      C = checkedMul(C, Scale);
    Constant = checkedMul(Constant, Scale);
    SigValid = false;
  }

  /// Negates the affine form. For a GEQ this yields the form of the negated
  /// half-space *before* the strictness adjustment; use negateGEQ() for the
  /// logical negation of an inequality.
  void negateForm() {
    for (int64_t &C : Coeffs)
      C = -C; // coefficients are capped below |INT64_MIN|, no overflow
    Constant = checkedMul(Constant, -1);
    if (SigValid)
      Sig.Orientation = -Sig.Orientation; // hash/count are sign-canonical
  }

  /// Replaces an inequality (f >= 0) with its logical negation
  /// (f <= -1, i.e. -f - 1 >= 0). Only valid on inequalities.
  void negateGEQ() {
    assert(isInequality() && "negateGEQ on equality");
    negateForm();
    Constant = checkedSub(Constant, 1);
  }

  /// GCD of all variable coefficients (0 for a constant row).
  int64_t coeffGCD() const {
    int64_t G = 0;
    for (int64_t C : Coeffs)
      G = gcd64(G, C);
    return G;
  }

  /// True if the affine forms (coefficients and constant) are identical.
  bool sameForm(const Constraint &Other) const {
    return Constant == Other.Constant && Coeffs == Other.Coeffs;
  }

  /// True if the variable coefficient vectors are identical. The signature
  /// prescreen makes mismatches O(1).
  bool sameCoeffs(const Constraint &Other) const {
    const RowSignature &A = signature(), &B = Other.signature();
    if (A.Hash != B.Hash || A.ActiveVars != B.ActiveVars ||
        A.Orientation != B.Orientation)
      return false;
    return Coeffs == Other.Coeffs;
  }

  const SmallCoeffVector &coeffs() const { return Coeffs; }

private:
  SmallCoeffVector Coeffs;
  int64_t Constant = 0;
  mutable RowSignature Sig;
  ConstraintKind Kind;
  bool Red = false;
  mutable bool SigValid = true; // a fresh all-zero row has the zero signature

private:
  friend class Problem;
};

} // namespace omega

#endif // OMEGA_OMEGA_CONSTRAINT_H
