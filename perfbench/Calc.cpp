//===- perfbench/Calc.cpp - calc_queries ----------------------------------===//
//
// Part of the omega-deps project.
//
// Seeded oracle::randomProblem systems rendered as omega-calc scripts
// (sat, project ... onto, gist ... given, simplify), each run through a
// fresh calc::Calculator the way one `omega-calc` invocation runs a
// script. Every printed answer is checked against the bounded model:
// the problems confine every variable to a box, so enumerating the box
// decides each query exactly.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "calc/Calc.h"
#include "obs/Trace.h"
#include "oracle/Generate.h"
#include "oracle/ModelOracle.h"

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <sstream>

using namespace omega;
using namespace omega::perfbench;

namespace {

/// Scripts per draw. One script costs about 0.2 ms, most of it in
/// projection; a draw this large keeps the seed-to-seed change of the mix,
/// and so of throughput, to a few percent. One pass is about half a second.
constexpr unsigned ScriptCount = 2000;
/// Query commands per script: sat, project, gist, simplify.
constexpr unsigned QueriesPerScript = 4;
constexpr unsigned SetupRepeats = 5;
/// Runs of the fixed warm-up script per set-up.
constexpr unsigned WarmUpRuns = 200;

struct Query {
  Problem P, Q;
  unsigned NumKeep = 1;
  int64_t Box = 6;
  std::string Script;
};

std::string renderRow(const Problem &P, const Constraint &Row) {
  std::string S;
  for (VarId V = 0; V != static_cast<VarId>(P.getNumVars()); ++V) {
    int64_t C = Row.getCoeff(V);
    if (C == 0)
      continue;
    if (S.empty())
      S += C < 0 ? "-" : "";
    else
      S += C < 0 ? " - " : " + ";
    S += std::to_string(C < 0 ? -C : C) + "*" + P.getVarName(V);
  }
  int64_t K = Row.getConstant();
  if (S.empty())
    S = std::to_string(K);
  else if (K != 0)
    S += (K < 0 ? " - " : " + ") + std::to_string(K < 0 ? -K : K);
  return S + (Row.isEquality() ? " = 0" : " >= 0");
}

std::string setLiteral(const Problem &P) {
  std::string S = "{[";
  for (VarId V = 0; V != static_cast<VarId>(P.getNumVars()); ++V)
    S += (V ? "," : "") + P.getVarName(V);
  S += "] : ";
  bool First = true;
  for (const Constraint &Row : P.constraints()) {
    S += First ? "" : " && ";
    First = false;
    S += renderRow(P, Row);
  }
  return S + "}";
}

std::vector<Query> makeQueries(unsigned Seed) {
  std::mt19937 Rng(Seed);
  oracle::RandomProblemConfig Cfg;
  std::vector<Query> Out;
  for (unsigned I = 0; I != ScriptCount; ++I) {
    Query Q;
    Q.P = oracle::randomProblem(Rng, Cfg);
    Q.Q = oracle::randomProblem(Rng, Cfg);
    Q.NumKeep = 1 + Rng() % 2;
    Q.Box = Cfg.Box;
    std::string Keep = "x0";
    if (Q.NumKeep == 2)
      Keep += ",x1";
    Q.Script = "P := " + setLiteral(Q.P) + ";\nQ := " + setLiteral(Q.Q) +
               ";\nsat P;\nproject P onto [" + Keep +
               "];\ngist P given Q;\nS := P;\nsimplify S;\n";
    Out.push_back(std::move(Q));
  }
  return Out;
}

/// The fixed warm-up script (the calculator's own documentation example).
const char *WarmUpScript =
    "P := {[i,j] : 1 <= i <= 10 && i < j <= 12 && exists w : (j = 2w)};\n"
    "sat P;\nproject P onto [i];\nQ := {[i,j] : 1 <= i <= 10};\n"
    "gist P given Q;\nsimplify P;\n";

//===----------------------------------------------------------------------===//
// The bounded model of a printed answer
//===----------------------------------------------------------------------===//

/// One printed constraint: sum of Coeff * Var, compared with Rhs.
struct Row {
  std::vector<std::pair<std::string, int64_t>> Terms;
  int64_t Rhs = 0;
  bool Eq = false;
};
using Conj = std::vector<Row>;

/// Parses Problem::toString() output: "{ 2*x0 - x1 >= -3; x2 = 0 }" or
/// "{ TRUE }". Returns false on anything else.
bool parseConj(const std::string &Text, Conj &Out) {
  Out.clear();
  std::string T = Text;
  auto Trim = [](std::string S) {
    size_t B = S.find_first_not_of(' '), E = S.find_last_not_of(' ');
    return B == std::string::npos ? std::string() : S.substr(B, E - B + 1);
  };
  T = Trim(T);
  if (T.size() < 2 || T.front() != '{' || T.back() != '}')
    return false;
  T = Trim(T.substr(1, T.size() - 2));
  if (T == "TRUE")
    return true;
  std::stringstream SS(T);
  std::string Item;
  while (std::getline(SS, Item, ';')) {
    Item = Trim(Item);
    if (Item.rfind("[red] ", 0) == 0)
      Item = Item.substr(6);
    Row R;
    size_t Op = Item.find(" >= ");
    size_t OpLen = 4;
    if (Op == std::string::npos) {
      Op = Item.find(" = ");
      OpLen = 3;
      R.Eq = true;
    }
    if (Op == std::string::npos)
      return false;
    std::string Lhs = Item.substr(0, Op);
    try {
      R.Rhs = std::stoll(Item.substr(Op + OpLen));
    } catch (...) {
      return false;
    }
    if (Lhs != "0") {
      // Tokens: [-]term ( (+|-) term )*, term = [k*]name.
      std::stringstream TS(Lhs);
      std::string Tok;
      int64_t Sign = 1;
      bool ExpectTerm = true;
      while (TS >> Tok) {
        if (!ExpectTerm && (Tok == "+" || Tok == "-")) {
          Sign = Tok == "-" ? -1 : 1;
          ExpectTerm = true;
          continue;
        }
        if (!ExpectTerm)
          return false;
        if (Tok[0] == '-') {
          Sign = -Sign;
          Tok = Tok.substr(1);
        }
        int64_t K = 1;
        size_t Star = Tok.find('*');
        if (Star != std::string::npos) {
          try {
            K = std::stoll(Tok.substr(0, Star));
          } catch (...) {
            return false;
          }
          Tok = Tok.substr(Star + 1);
        }
        if (Tok.empty())
          return false;
        R.Terms.push_back({Tok, Sign * K});
        Sign = 1;
        ExpectTerm = false;
      }
      if (ExpectTerm)
        return false;
    }
    Out.push_back(std::move(R));
  }
  return true;
}

/// Whether \p C holds at \p Assign for some integer values of the names
/// it leaves unassigned (eliminated variables and stride wildcards). A
/// name fixed by an equality is solved for; any other is searched over
/// [-Wide, Wide], far beyond the box the inputs confine.
bool holds(const Conj &C, std::map<std::string, int64_t> &Assign) {
  constexpr int64_t Wide = 40;
  std::string Free;
  for (const Row &R : C)
    for (const auto &[Name, K] : R.Terms)
      if (!Assign.count(Name)) {
        Free = Name;
        break;
      }
  if (Free.empty()) {
    for (const Row &R : C) {
      int64_t Sum = 0;
      for (const auto &[Name, K] : R.Terms)
        Sum += K * Assign.at(Name);
      if (R.Eq ? Sum != R.Rhs : Sum < R.Rhs)
        return false;
    }
    return true;
  }
  auto TryValue = [&](const std::string &Name, int64_t V) {
    Assign[Name] = V;
    bool Ok = holds(C, Assign);
    Assign.erase(Name);
    return Ok;
  };
  // An equality whose only unassigned name is one variable fixes it.
  for (const Row &R : C) {
    if (!R.Eq)
      continue;
    std::string Only;
    int64_t Coeff = 0, Sum = 0;
    bool Single = true;
    for (const auto &[Name, K] : R.Terms) {
      if (Assign.count(Name)) {
        Sum += K * Assign.at(Name);
      } else if (Only.empty() || Only == Name) {
        Only = Name;
        Coeff += K;
      } else {
        Single = false;
      }
    }
    if (!Single || Only.empty() || Coeff == 0)
      continue;
    if ((R.Rhs - Sum) % Coeff != 0)
      return false;
    return TryValue(Only, (R.Rhs - Sum) / Coeff);
  }
  for (int64_t V = -Wide; V <= Wide; ++V)
    if (TryValue(Free, V))
      return true;
  return false;
}

/// Calls \p Fn on every point of [-Box, Box]^Names.
void forBox(const std::vector<std::string> &Names, int64_t Box,
            const std::function<void(std::map<std::string, int64_t> &)> &Fn) {
  std::map<std::string, int64_t> A;
  std::function<void(size_t)> Rec = [&](size_t I) {
    if (I == Names.size()) {
      Fn(A);
      return;
    }
    for (int64_t V = -Box; V <= Box; ++V) {
      A[Names[I]] = V;
      Rec(I + 1);
    }
  };
  Rec(0);
}

/// Checks one script's printed output against the bounded model; returns
/// an empty string when every answer is right. Also runs the library's
/// own bounded-model cross-checks on the same problems.
std::string checkOutput(const Query &Q, const std::string &Output) {
  std::vector<std::string> Lines;
  {
    std::stringstream SS(Output);
    std::string L;
    while (std::getline(SS, L))
      Lines.push_back(L);
  }
  std::vector<std::string> Tuple;
  for (VarId V = 0; V != static_cast<VarId>(Q.P.getNumVars()); ++V)
    Tuple.push_back(Q.P.getVarName(V));
  auto Model = [&](const Problem &P, const std::map<std::string, int64_t> &A) {
    std::vector<int64_t> Pt;
    for (const std::string &N : Tuple)
      Pt.push_back(A.at(N));
    return oracle::evalProblem(P, Pt);
  };
  size_t L = 0;
  auto Next = [&]() -> std::string {
    return L < Lines.size() ? Lines[L++] : std::string();
  };

  // sat P;
  bool Sat = oracle::bruteForceSat(Q.P, Q.Box);
  if (Next() != std::string("P is ") + (Sat ? "satisfiable" : "unsatisfiable"))
    return "sat verdict disagrees with the bounded model";

  // project P onto the first NumKeep variables.
  std::vector<Conj> Pieces;
  std::string Head = Next();
  if (Head.rfind("projection (union of ", 0) == 0) {
    unsigned K = static_cast<unsigned>(std::stoul(Head.substr(21)));
    for (unsigned I = 0; I != K; ++I) {
      Conj C;
      if (!parseConj(Next(), C))
        return "unreadable projection piece";
      Pieces.push_back(std::move(C));
    }
  } else if (Head.rfind("projection: ", 0) == 0) {
    Conj C;
    if (!parseConj(Head.substr(12), C))
      return "unreadable projection";
    Pieces.push_back(std::move(C));
  } else if (Head != "projection is empty") {
    return "unexpected projection output: " + Head;
  }
  std::vector<std::string> Kept(Tuple.begin(), Tuple.begin() + Q.NumKeep);
  std::vector<std::string> Rest(Tuple.begin() + Q.NumKeep, Tuple.end());
  std::string Bad;
  forBox(Kept, Q.Box, [&](std::map<std::string, int64_t> &A) {
    if (!Bad.empty())
      return;
    bool InModel = false;
    std::map<std::string, int64_t> Full = A;
    forBox(Rest, Q.Box, [&](std::map<std::string, int64_t> &R) {
      for (const auto &[N, V] : R)
        Full[N] = V;
      InModel = InModel || Model(Q.P, Full);
    });
    bool Claimed = false;
    for (const Conj &C : Pieces) {
      std::map<std::string, int64_t> Pt = A;
      if ((Claimed = holds(C, Pt)))
        break;
    }
    if (Claimed != InModel)
      Bad = "projection disagrees with the bounded model";
  });
  if (!Bad.empty())
    return Bad;

  // gist P given Q: (gist && Q) must equal (P && Q) on the box.
  Conj Gist;
  std::string GLine = Next();
  if (GLine.rfind("gist: ", 0) != 0 || !parseConj(GLine.substr(6), Gist))
    return "unreadable gist output: " + GLine;
  // simplify S (a copy of P): the same points as P on the box.
  Conj Simple;
  std::string SLine = Next();
  if (SLine.rfind("S = ", 0) != 0 || !parseConj(SLine.substr(4), Simple))
    return "unreadable simplify output: " + SLine;
  forBox(Tuple, Q.Box, [&](std::map<std::string, int64_t> &A) {
    if (!Bad.empty())
      return;
    bool InP = Model(Q.P, A);
    std::map<std::string, int64_t> Pt = A;
    if (Model(Q.Q, A) && holds(Gist, Pt) != InP)
      Bad = "gist disagrees with the bounded model";
    Pt = A;
    if (holds(Simple, Pt) != InP)
      Bad = "simplify changed the set";
  });
  if (!Bad.empty())
    return Bad;

  // The library's own bounded-model checks of the same operations.
  OmegaContext Ctx;
  oracle::ModelReport Rep;
  oracle::checkSatisfiability(Q.P, Q.Box, Rep, Ctx);
  oracle::checkProjection(Q.P, Q.NumKeep, Q.Box, Rep, Ctx);
  oracle::checkGist(Q.P, Q.Q, Q.Box, Rep, Ctx);
  if (!Rep.ok())
    return "model oracle: " + Rep.Mismatches.front();
  return "";
}

/// One script the way one omega-calc invocation runs it.
std::string runScript(const std::string &Script, double &Ms) {
  auto Start = Clock::now();
  std::string Out;
  {
    calc::Calculator C;
    Out = C.run(Script);
  }
  Ms = msBetween(Start, Clock::now());
  return Out;
}

} // namespace

void perfbench::runCalcQueries(const Options &O, Report &R) {
  std::vector<double> SetupS;
  std::vector<Query> Inputs;
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    auto Start = Clock::now();
    Inputs = makeQueries(O.Seed);
    double Ms;
    for (int I = 0; I != WarmUpRuns; ++I)
      (void)runScript(WarmUpScript, Ms);
    SetupS.push_back(msBetween(Start, Clock::now()) / 1000);
  }
  R.EndToEnd["setup_s"] = median(SetupS);
  uint64_t Digest = fnv1a("");
  for (const Query &Q : Inputs)
    Digest = fnv1a(Q.Script, Digest);
  R.info("workload " + O.Workload + " seed " + std::to_string(O.Seed) +
         " inputs " + std::to_string(Inputs.size()) + " digest " +
         hex64(Digest));

  std::mt19937 Rng(O.Seed);
  std::vector<std::pair<size_t, uint64_t>> Answers;
  auto Start = Clock::now();
  auto Elapsed = [&] { return msBetween(Start, Clock::now()) / 1000; };
  if (O.Trace) {
    SpanLog Log;
    CounterBag Bag;
    double UntracedMs = 0, TracedMs = 0;
    unsigned Passes = 0;
    uint64_t Id = 0;
    while (Passes == 0 || Elapsed() < O.Seconds) {
      std::vector<size_t> Order = passOrder(Rng, Inputs.size());
      double Ms;
      for (size_t I : Order) {
        (void)runScript(Inputs[I].Script, Ms);
        UntracedMs += Ms;
      }
      for (size_t I : Order) {
        auto OpStart = Clock::now();
        std::string Out;
        {
          ScopedBenchSpan Root(&Log, "op", Id);
          calc::Calculator C;
          C.startTrace();
          {
            ScopedBenchSpan S(&Log, "calc.run", Id, Root.index());
            Out = C.run(Inputs[I].Script);
          }
          addProfile(Bag, *C.tracer());
        }
        TracedMs += msBetween(OpStart, Clock::now());
        Answers.push_back({I, fnv1a(Out)});
        ++Id;
      }
      ++Passes;
    }
    LayerValues &L = R.Layers;
    auto PerPass = [&](double V) { return V / Passes; };
    auto Profile = [&](const char *Key) -> std::optional<double> {
      std::optional<double> V = Bag.get(std::string("profile.") + Key);
      if (V)
        *V /= Passes;
      return V;
    };
    auto Phase = [&](const char *Name) {
      return PerPass(Bag.getOr(std::string("phase.") + Name + ".self_ms", 0));
    };
    L.set("calc.run_ms", PerPass(Log.totalMs("calc.run")));
    L.set("calc.queries", static_cast<double>(Inputs.size()) *
                              QueriesPerScript);
    L.setOrAbsent("omega.sat_calls", Profile("sat_calls"));
    L.setOrAbsent("omega.projection_calls", Profile("projection_calls"));
    L.setOrAbsent("omega.gist_calls", Profile("gist_calls"));
    L.setOrAbsent("omega.exact_eliminations", Profile("exact_eliminations"));
    L.setOrAbsent("omega.inexact_eliminations",
                  Profile("inexact_eliminations"));
    L.setOrAbsent("omega.splinters", Profile("splinters_explored"));
    L.setOrAbsent("omega.dark_shadow_decided", Profile("dark_shadow_decided"));
    L.setOrAbsent("omega.mod_hat_substitutions",
                  Profile("mod_hat_substitutions"));
    L.set("omega.queries_exact", PerPass(Bag.getOr("class.exact", 0)));
    L.set("omega.queries_general", PerPass(Bag.getOr("class.general", 0)));
    L.set("omega.queries_splintered",
          PerPass(Bag.getOr("class.splintered", 0)));
    L.set("omega.eq_solve_self_ms", Phase("eq-solve"));
    L.set("omega.sat_self_ms", Phase("sat"));
    L.set("omega.projection_self_ms", Phase("projection"));
    L.set("omega.fm_self_ms", Phase("fm-eliminate"));
    L.set("omega.splinter_self_ms", Phase("splinter"));
    L.set("omega.gist_self_ms", Phase("gist"));
    L.set("obs.trace_overhead_frac",
          UntracedMs > 0 ? TracedMs / UntracedMs - 1 : 0);
    R.info("traced passes " + std::to_string(Passes));

    std::map<size_t, std::pair<double, unsigned>> ByScript;
    for (const auto &[Ms, OpId] : Log.rootDurations()) {
      auto &Acc = ByScript[Answers[OpId].first];
      Acc.first += Ms;
      ++Acc.second;
    }
    std::vector<ColdTrace::Unit> Units;
    for (const auto &[I, Acc] : ByScript)
      Units.push_back({Acc.first / Acc.second,
                       "script " + std::to_string(I) + ": " +
                           setLiteral(Inputs[I].P)});
    for (const std::string &Line : costliest(Units, 10))
      R.info("costliest " + Line);
    std::string Path = O.WorkDir + "/spans-" + O.Workload + "-" +
                       std::to_string(O.Seed) + ".json";
    if (Log.write(Path))
      R.info("spans written to " + Path);
  } else {
    std::vector<double> Lat, PassOpsPerS;
    while (Elapsed() < O.Seconds ||
           (Lat.size() < MinSamples && Elapsed() < 3 * O.Seconds)) {
      double BusyMs = 0;
      for (size_t I : passOrder(Rng, Inputs.size())) {
        double Ms;
        std::string Out = runScript(Inputs[I].Script, Ms);
        Lat.push_back(Ms);
        BusyMs += Ms;
        Answers.push_back({I, fnv1a(Out)});
      }
      PassOpsPerS.push_back(Inputs.size() / (BusyMs / 1000));
    }
    R.EndToEnd["peak_rss_mb"] = selfPeakRssMb();
    latencyMetrics(R, Lat, PassOpsPerS);
  }
  R.Attempted = Answers.size();

  // Reference: one output per script, checked against the bounded model;
  // every timed run of that script must print the same bytes.
  std::vector<uint64_t> RefHash;
  std::vector<std::string> RefError;
  for (size_t I = 0; I != Inputs.size(); ++I) {
    double Ms;
    std::string Out = runScript(Inputs[I].Script, Ms);
    RefHash.push_back(fnv1a(Out));
    if (O.Canary && I == 0) {
      // One deliberately wrong answer: the opposite sat verdict.
      size_t Pos = Out.find(" is satisfiable");
      Out = Pos != std::string::npos
                ? Out.replace(Pos, 15, " is unsatisfiable")
                : Out.replace(Out.find(" is unsatisfiable"), 17,
                              " is satisfiable");
    }
    RefError.push_back(checkOutput(Inputs[I], Out));
  }
  std::vector<bool> Reported(Inputs.size(), false);
  for (const auto &[I, Hash] : Answers) {
    std::string Why = !RefError[I].empty() ? RefError[I]
                      : Hash != RefHash[I]
                          ? "output differs from the checked run"
                          : "";
    if (Why.empty())
      continue;
    ++R.Failed;
    if (!Reported[I]) {
      Reported[I] = true;
      R.fail("script " + std::to_string(I) + ": " + Why);
    }
  }
}
