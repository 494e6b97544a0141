//===- calc/Calc.cpp ------------------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "calc/Calc.h"

#include "omega/Gist.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"

#include <cctype>
#include <functional>
#include <optional>

using namespace omega;
using namespace omega::calc;

namespace {

//===----------------------------------------------------------------------===//
// Tokens
//===----------------------------------------------------------------------===//

enum class Tok : uint8_t {
  Eof,
  Error,
  Ident,
  Int,
  Assign,  // :=
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  LParen,
  RParen,
  Colon,
  Semi,
  Comma,
  Plus,
  Minus,
  Star,
  AndAnd,
  LE, // <=
  LT, // <
  GE, // >=
  GT, // >
  EQ, // =
};

struct Token {
  Tok Kind = Tok::Eof;
  std::string Text;
  int64_t Value = 0;
  unsigned Line = 1;
};

class Scanner {
public:
  explicit Scanner(std::string_view Src) : Src(Src) {}

  Token next() {
    skip();
    Token T;
    T.Line = Line;
    if (Pos >= Src.size())
      return T;
    char C = Src[Pos++];
    switch (C) {
    case '{':
      T.Kind = Tok::LBrace;
      return T;
    case '}':
      T.Kind = Tok::RBrace;
      return T;
    case '[':
      T.Kind = Tok::LBracket;
      return T;
    case ']':
      T.Kind = Tok::RBracket;
      return T;
    case '(':
      T.Kind = Tok::LParen;
      return T;
    case ')':
      T.Kind = Tok::RParen;
      return T;
    case ';':
      T.Kind = Tok::Semi;
      return T;
    case ',':
      T.Kind = Tok::Comma;
      return T;
    case '+':
      T.Kind = Tok::Plus;
      return T;
    case '-':
      T.Kind = Tok::Minus;
      return T;
    case '*':
      T.Kind = Tok::Star;
      return T;
    case '&':
      if (peek() == '&') {
        ++Pos;
        T.Kind = Tok::AndAnd;
        return T;
      }
      break;
    case ':':
      if (peek() == '=') {
        ++Pos;
        T.Kind = Tok::Assign;
        return T;
      }
      T.Kind = Tok::Colon;
      return T;
    case '<':
      if (peek() == '=') {
        ++Pos;
        T.Kind = Tok::LE;
        return T;
      }
      T.Kind = Tok::LT;
      return T;
    case '>':
      if (peek() == '=') {
        ++Pos;
        T.Kind = Tok::GE;
        return T;
      }
      T.Kind = Tok::GT;
      return T;
    case '=':
      T.Kind = Tok::EQ;
      return T;
    default:
      break;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      int64_t V = C - '0';
      while (Pos < Src.size() &&
             std::isdigit(static_cast<unsigned char>(Src[Pos])))
        V = V * 10 + (Src[Pos++] - '0');
      T.Kind = Tok::Int;
      T.Value = V;
      return T;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      std::string Name(1, C);
      while (Pos < Src.size() &&
             (std::isalnum(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '_'))
        Name += Src[Pos++];
      T.Kind = Tok::Ident;
      T.Text = std::move(Name);
      return T;
    }
    T.Kind = Tok::Error;
    T.Text = std::string(1, C);
    return T;
  }

private:
  char peek() const { return Pos < Src.size() ? Src[Pos] : '\0'; }
  void skip() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == '#') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  std::string_view Src;
  size_t Pos = 0;
  unsigned Line = 1;
};

//===----------------------------------------------------------------------===//
// Parser / evaluator
//===----------------------------------------------------------------------===//

/// An affine form during parsing: coefficients over variable names plus a
/// constant (names resolve to tuple vars, exists-bound vars, or symbolic
/// constants when the constraint is materialized).
struct LinForm {
  std::map<std::string, int64_t> Coeffs;
  int64_t Const = 0;

  LinForm &operator+=(const LinForm &O) {
    for (const auto &[N, C] : O.Coeffs) {
      Coeffs[N] += C;
      if (Coeffs[N] == 0)
        Coeffs.erase(N);
    }
    Const += O.Const;
    return *this;
  }
  LinForm scaled(int64_t K) const {
    LinForm R;
    if (K == 0)
      return R;
    for (const auto &[N, C] : Coeffs)
      R.Coeffs[N] = C * K;
    R.Const = Const * K;
    return R;
  }
};

class Interpreter {
public:
  Interpreter(std::map<std::string, NamedSet> &Sets, std::string_view Src,
              Calculator &Calc)
      : Sets(Sets), Scan(Src), Calc(Calc), Ctx(Calc.context()) {
    bump();
  }

  std::string run() {
    while (Cur.Kind != Tok::Eof && !Fatal)
      statement();
    return Out;
  }

  bool hadError() const { return Errored; }

private:
  void bump() { Cur = Scan.next(); }

  bool expect(Tok K, const char *What) {
    if (Cur.Kind == K) {
      bump();
      return true;
    }
    error(std::string("expected ") + What);
    return false;
  }

  void error(const std::string &Message) {
    Out += "error (line " + std::to_string(Cur.Line) + "): " + Message +
           "\n";
    Errored = true;
    // Recover to the next ';'.
    while (Cur.Kind != Tok::Eof && Cur.Kind != Tok::Semi)
      bump();
    if (Cur.Kind == Tok::Semi)
      bump();
  }

  const NamedSet *getSet(const std::string &Name) {
    auto It = Sets.find(Name);
    if (It == Sets.end()) {
      error("unknown set '" + Name + "'");
      return nullptr;
    }
    return &It->second;
  }

  //--- statements --------------------------------------------------------//

  void statement() {
    if (Cur.Kind != Tok::Ident) {
      error("expected a statement");
      return;
    }
    std::string Head = Cur.Text;
    bump();

    if (Cur.Kind == Tok::Assign) {
      bump();
      assignment(Head);
      return;
    }
    if (Head == "sat")
      return satCmd();
    if (Head == "solution")
      return solutionCmd();
    if (Head == "range")
      return rangeCmd();
    if (Head == "project" || Head == "approx")
      return projectCmd(Head == "approx");
    if (Head == "gist")
      return gistCmd();
    if (Head == "simplify")
      return simplifyCmd();
    if (Head == "print")
      return printCmd();
    if (Head == "trace")
      return traceCmd();
    error("unknown command '" + Head + "'");
  }

  /// `trace on;` starts span recording on the calculator's context;
  /// `trace off;` stops it and prints the profile of the traced window.
  void traceCmd() {
    if (Cur.Kind != Tok::Ident ||
        (Cur.Text != "on" && Cur.Text != "off")) {
      error("expected 'on' or 'off' after 'trace'");
      return;
    }
    bool On = Cur.Text == "on";
    bump();
    if (!expect(Tok::Semi, "';'"))
      return;
    if (On) {
      Calc.startTrace();
      Out += "tracing on\n";
    } else {
      Out += Calc.stopTrace();
    }
  }

  void assignment(const std::string &Name) {
    std::optional<NamedSet> S;
    if (Cur.Kind == Tok::LBrace) {
      S = parseSetLiteral();
    } else if (Cur.Kind == Tok::Ident) {
      std::string A = Cur.Text;
      bump();
      if (Cur.Kind == Tok::AndAnd) {
        bump();
        if (Cur.Kind != Tok::Ident) {
          error("expected a set name after '&&'");
          return;
        }
        std::string B = Cur.Text;
        bump();
        S = intersect(A, B);
      } else {
        const NamedSet *Src = getSet(A);
        if (Src)
          S = *Src;
      }
    } else {
      error("expected a set literal or set expression");
      return;
    }
    if (!S)
      return;
    if (!expect(Tok::Semi, "';'"))
      return;
    Sets[Name] = std::move(*S);
  }

  std::string takeSetName() {
    if (Cur.Kind != Tok::Ident) {
      error("expected a set name");
      return "";
    }
    std::string Name = Cur.Text;
    bump();
    return Name;
  }

  void satCmd() {
    std::string Name = takeSetName();
    const NamedSet *S = Name.empty() ? nullptr : getSet(Name);
    if (!S || !expect(Tok::Semi, "';'"))
      return;
    Out += Name + " is " +
           (isSatisfiable(S->P, Ctx) ? "satisfiable" : "unsatisfiable") + "\n";
  }

  void solutionCmd() {
    std::string Name = takeSetName();
    const NamedSet *S = Name.empty() ? nullptr : getSet(Name);
    if (!S || !expect(Tok::Semi, "';'"))
      return;
    std::optional<std::vector<int64_t>> Sol = findSolution(S->P, Ctx);
    if (!Sol) {
      Out += Name + " has no solution\n";
      return;
    }
    Out += Name + " solution:";
    for (VarId V = 0; V != static_cast<VarId>(S->P.getNumVars()); ++V) {
      if (S->P.isDead(V) || !S->P.isProtected(V))
        continue;
      Out += " " + S->P.getVarName(V) + "=" + std::to_string((*Sol)[V]);
    }
    Out += "\n";
  }

  void rangeCmd() {
    std::string Name = takeSetName();
    const NamedSet *S = Name.empty() ? nullptr : getSet(Name);
    if (!S)
      return;
    if (!expect(Tok::LBracket, "'['"))
      return;
    if (Cur.Kind != Tok::Ident) {
      error("expected a variable name");
      return;
    }
    std::string VarName = Cur.Text;
    bump();
    if (!expect(Tok::RBracket, "']'") || !expect(Tok::Semi, "';'"))
      return;
    VarId V = -1;
    for (VarId I = 0; I != static_cast<VarId>(S->P.getNumVars()); ++I)
      if (S->P.getVarName(I) == VarName)
        V = I;
    if (V < 0) {
      error("'" + VarName + "' is not a variable of " + Name);
      return;
    }
    Out += VarName + " in " + computeVarRange(S->P, V, Ctx).toString() + "\n";
  }

  void projectCmd(bool Approx) {
    std::string Name = takeSetName();
    const NamedSet *S = Name.empty() ? nullptr : getSet(Name);
    if (!S)
      return;
    if (Cur.Kind != Tok::Ident || Cur.Text != "onto") {
      error("expected 'onto'");
      return;
    }
    bump();
    if (!expect(Tok::LBracket, "'['"))
      return;
    std::vector<std::string> Keep;
    while (Cur.Kind == Tok::Ident) {
      Keep.push_back(Cur.Text);
      bump();
      if (Cur.Kind == Tok::Comma)
        bump();
    }
    if (!expect(Tok::RBracket, "']'") || !expect(Tok::Semi, "';'"))
      return;

    std::vector<bool> Mask(S->P.getNumVars(), false);
    for (const std::string &K : Keep) {
      bool Found = false;
      for (VarId V = 0; V != static_cast<VarId>(S->P.getNumVars()); ++V)
        if (S->P.getVarName(V) == K) {
          Mask[V] = true;
          Found = true;
        }
      if (!Found) {
        Out += "warning: '" + K + "' is not a variable of " + Name + "\n";
      }
    }
    // Keep symbolic constants too (project away only the unnamed tuple
    // vars): symbolic constants are all vars not in the tuple.
    for (VarId V = 0; V != static_cast<VarId>(S->P.getNumVars()); ++V) {
      const std::string &N = S->P.getVarName(V);
      bool IsTuple = false;
      for (const std::string &T : S->Tuple)
        IsTuple |= T == N;
      if (!IsTuple && S->P.isProtected(V))
        Mask[V] = true;
    }

    ProjectOptions Opts;
    Opts.WantApprox = Approx;
    ProjectionResult R = projectOntoMask(S->P, Mask, Ctx, Opts);
    if (Approx) {
      Out += "approx: " + R.Approx->Shadow.toString() +
             (R.Approx->Exact ? " (exact)" : " (over-approximate)") + "\n";
      return;
    }
    if (R.Pieces.empty()) {
      Out += "projection is empty\n";
      return;
    }
    if (R.Pieces.size() == 1) {
      Out += "projection: " + R.Pieces.front().toString() + "\n";
      return;
    }
    Out += "projection (union of " + std::to_string(R.Pieces.size()) +
           " pieces):\n";
    for (const Problem &Piece : R.Pieces)
      Out += "  " + Piece.toString() + "\n";
  }

  void gistCmd() {
    std::string PName = takeSetName();
    const NamedSet *PS = PName.empty() ? nullptr : getSet(PName);
    if (!PS)
      return;
    if (Cur.Kind != Tok::Ident || Cur.Text != "given") {
      error("expected 'given'");
      return;
    }
    bump();
    std::string QName = takeSetName();
    const NamedSet *QS = QName.empty() ? nullptr : getSet(QName);
    if (!QS || !expect(Tok::Semi, "';'"))
      return;

    // Align the two sets on one layout by variable name.
    Problem A, B;
    if (!align(*PS, *QS, A, B)) {
      error("sets '" + PName + "' and '" + QName +
            "' have incompatible tuples");
      return;
    }
    Out += "gist: " + gist(A, B, Ctx).toString() + "\n";
  }

  void simplifyCmd() {
    std::string Name = takeSetName();
    auto It = Sets.find(Name);
    if (It == Sets.end()) {
      error("unknown set '" + Name + "'");
      return;
    }
    if (!expect(Tok::Semi, "';'"))
      return;
    if (It->second.P.normalize() == Problem::NormalizeResult::False) {
      It->second.P.clearConstraints();
      It->second.P.addGEQ({}, -1);
    } else {
      removeRedundantConstraints(It->second.P, Ctx);
    }
    Out += Name + " = " + It->second.P.toString() + "\n";
  }

  void printCmd() {
    std::string Name = takeSetName();
    const NamedSet *S = Name.empty() ? nullptr : getSet(Name);
    if (!S || !expect(Tok::Semi, "';'"))
      return;
    Out += Name + " = {[";
    for (unsigned I = 0; I != S->Tuple.size(); ++I)
      Out += (I ? "," : "") + S->Tuple[I];
    Out += "] : ... } " + S->P.toString() + "\n";
  }

  //--- set construction ---------------------------------------------------//

  /// {[i,j] : constraints}
  std::optional<NamedSet> parseSetLiteral() {
    NamedSet S;
    bump(); // '{'
    if (!expect(Tok::LBracket, "'['"))
      return std::nullopt;
    while (Cur.Kind == Tok::Ident) {
      S.Tuple.push_back(Cur.Text);
      S.P.addVar(Cur.Text);
      bump();
      if (Cur.Kind == Tok::Comma)
        bump();
    }
    if (!expect(Tok::RBracket, "']'"))
      return std::nullopt;
    if (Cur.Kind == Tok::Colon) {
      bump();
      if (!parseConstraints(S))
        return std::nullopt;
    }
    if (!expect(Tok::RBrace, "'}'"))
      return std::nullopt;
    return S;
  }

  VarId varFor(NamedSet &S, const std::string &Name) {
    for (VarId V = 0; V != static_cast<VarId>(S.P.getNumVars()); ++V)
      if (S.P.getVarName(V) == Name)
        return V;
    return S.P.addVar(Name); // a free symbolic constant
  }

  /// conjunction of chains and exists-blocks
  bool parseConstraints(NamedSet &S) {
    while (true) {
      if (Cur.Kind == Tok::Ident && Cur.Text == "exists") {
        bump();
        std::vector<std::string> Bound;
        while (Cur.Kind == Tok::Ident) {
          Bound.push_back(Cur.Text);
          bump();
          if (Cur.Kind == Tok::Comma)
            bump();
          else
            break;
        }
        if (!expect(Tok::Colon, "':'") || !expect(Tok::LParen, "'('"))
          return false;
        // Bound names shadow (and are then existential): pre-create them
        // as wildcards under their own names.
        std::vector<std::pair<std::string, VarId>> Shadowed;
        for (const std::string &N : Bound) {
          VarId V = S.P.addVar(N + "'", /*Protected=*/false);
          Shadowed.push_back({N, V});
        }
        ExistsScope.insert(ExistsScope.end(), Shadowed.begin(),
                           Shadowed.end());
        if (!parseConstraints(S))
          return false;
        ExistsScope.resize(ExistsScope.size() - Shadowed.size());
        if (!expect(Tok::RParen, "')'"))
          return false;
      } else {
        if (!parseChain(S))
          return false;
      }
      if (Cur.Kind == Tok::AndAnd) {
        bump();
        continue;
      }
      return true;
    }
  }

  /// expr relop expr (relop expr)*
  bool parseChain(NamedSet &S) {
    std::optional<LinForm> L = parseExpr(S);
    if (!L)
      return false;
    bool Any = false;
    while (Cur.Kind == Tok::LE || Cur.Kind == Tok::LT ||
           Cur.Kind == Tok::GE || Cur.Kind == Tok::GT ||
           Cur.Kind == Tok::EQ) {
      Tok Rel = Cur.Kind;
      bump();
      std::optional<LinForm> R = parseExpr(S);
      if (!R)
        return false;
      emitRelation(S, *L, Rel, *R);
      L = R;
      Any = true;
    }
    if (!Any) {
      error("expected a relation");
      return false;
    }
    return true;
  }

  void emitRelation(NamedSet &S, const LinForm &L, Tok Rel,
                    const LinForm &R) {
    // Build R - L (for <=-family) or L - R, into a row.
    auto emit = [&](const LinForm &Pos, const LinForm &Neg, int64_t Adjust,
                    ConstraintKind Kind) {
      Constraint &Row = S.P.addRow(Kind);
      for (const auto &[N, C] : Pos.Coeffs)
        Row.addToCoeff(varFor(S, N), C);
      for (const auto &[N, C] : Neg.Coeffs)
        Row.addToCoeff(varFor(S, N), -C);
      Row.addToConstant(Pos.Const - Neg.Const + Adjust);
    };
    switch (Rel) {
    case Tok::LE: // R - L >= 0
      emit(R, L, 0, ConstraintKind::GEQ);
      break;
    case Tok::LT: // R - L - 1 >= 0
      emit(R, L, -1, ConstraintKind::GEQ);
      break;
    case Tok::GE:
      emit(L, R, 0, ConstraintKind::GEQ);
      break;
    case Tok::GT:
      emit(L, R, -1, ConstraintKind::GEQ);
      break;
    case Tok::EQ:
      emit(L, R, 0, ConstraintKind::EQ);
      break;
    default:
      break;
    }
  }

  std::optional<LinForm> parseExpr(NamedSet &S) {
    std::optional<LinForm> L = parseTerm(S);
    if (!L)
      return std::nullopt;
    while (Cur.Kind == Tok::Plus || Cur.Kind == Tok::Minus) {
      bool Add = Cur.Kind == Tok::Plus;
      bump();
      std::optional<LinForm> R = parseTerm(S);
      if (!R)
        return std::nullopt;
      *L += Add ? *R : R->scaled(-1);
    }
    return L;
  }

  std::optional<LinForm> parseTerm(NamedSet &S) {
    if (Cur.Kind == Tok::Minus) {
      bump();
      std::optional<LinForm> T = parseTerm(S);
      if (!T)
        return std::nullopt;
      return T->scaled(-1);
    }
    if (Cur.Kind == Tok::LParen) {
      bump();
      std::optional<LinForm> E = parseExpr(S);
      if (!E || !expect(Tok::RParen, "')'"))
        return std::nullopt;
      return E;
    }
    if (Cur.Kind == Tok::Int) {
      int64_t K = Cur.Value;
      bump();
      if (Cur.Kind == Tok::Star)
        bump();
      if (Cur.Kind == Tok::Ident) {
        LinForm F;
        F.Coeffs[resolveName(Cur.Text)] = K;
        bump();
        return F;
      }
      LinForm F;
      F.Const = K;
      return F;
    }
    if (Cur.Kind == Tok::Ident) {
      LinForm F;
      F.Coeffs[resolveName(Cur.Text)] = 1;
      bump();
      if (Cur.Kind == Tok::Star) {
        error("only constant coefficients are linear");
        return std::nullopt;
      }
      return F;
    }
    error("expected an expression");
    return std::nullopt;
  }

  /// Maps a source name through the innermost exists scope.
  std::string resolveName(const std::string &Name) {
    for (auto It = ExistsScope.rbegin(); It != ExistsScope.rend(); ++It)
      if (It->first == Name)
        return Name + "'"; // the wildcard's actual variable name
    return Name;
  }

  //--- set algebra --------------------------------------------------------//

  /// Rebuilds A and B over one shared layout (matching variables by
  /// name); returns false when the tuples are incompatible.
  bool align(const NamedSet &SA, const NamedSet &SB, Problem &A,
             Problem &B) {
    if (SA.Tuple != SB.Tuple)
      return false;
    Problem Layout;
    std::map<std::string, VarId> ByName;
    auto addAll = [&](const NamedSet &S) {
      for (VarId V = 0; V != static_cast<VarId>(S.P.getNumVars()); ++V) {
        const std::string &N = S.P.getVarName(V);
        if (!ByName.count(N))
          ByName[N] = Layout.addVar(N, S.P.isProtected(V));
      }
    };
    addAll(SA);
    addAll(SB);

    auto rebuild = [&](const NamedSet &S, Problem &Out) {
      Out = Layout.cloneLayout();
      for (const Constraint &Row : S.P.constraints()) {
        Constraint &New = Out.addRow(Row.getKind(), Row.isRed());
        New.setConstant(Row.getConstant());
        for (VarId V = 0; V != static_cast<VarId>(S.P.getNumVars()); ++V)
          if (Row.getCoeff(V) != 0)
            Out.constraints().back().setCoeff(
                ByName.at(S.P.getVarName(V)), Row.getCoeff(V));
      }
    };
    rebuild(SA, A);
    rebuild(SB, B);
    return true;
  }

  std::optional<NamedSet> intersect(const std::string &AName,
                                    const std::string &BName) {
    const NamedSet *SA = getSet(AName);
    if (!SA)
      return std::nullopt;
    const NamedSet *SB = getSet(BName);
    if (!SB)
      return std::nullopt;
    Problem A, B;
    if (!align(*SA, *SB, A, B)) {
      error("cannot intersect sets with different tuples");
      return std::nullopt;
    }
    for (const Constraint &Row : B.constraints())
      A.addConstraint(Row);
    NamedSet Out;
    Out.Tuple = SA->Tuple;
    Out.P = std::move(A);
    return Out;
  }

  std::map<std::string, NamedSet> &Sets;
  Scanner Scan;
  Calculator &Calc;
  OmegaContext &Ctx; ///< the calculator's: every Omega call is charged here
  Token Cur;
  std::string Out;
  bool Errored = false;
  bool Fatal = false;
  std::vector<std::pair<std::string, VarId>> ExistsScope;
};

} // namespace

std::string Calculator::run(std::string_view Script) {
  Interpreter I(Sets, Script, *this);
  std::string Out = I.run();
  HadError = I.hadError();
  return Out;
}
