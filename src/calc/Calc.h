//===- calc/Calc.h - A small Omega calculator ------------------------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A textual calculator over integer constraint sets, in the spirit of the
/// Omega Calculator Pugh's group distributed with the Omega library. Sets
/// are written
///
/// \code
///   P := {[i,j] : 1 <= i <= n && i < j && exists w : (j = 2w)};
///   sat P;
///   solution P;
///   project P onto [i];
///   gist P given Q;
///   R := P && Q;
///   simplify R;
///   print R;
/// \endcode
///
/// Tuple variables are the set's dimensions; every other identifier is a
/// free symbolic constant, shared across sets by name. `exists` introduces
/// wildcard variables. The calculator is both a REPL backend
/// (tools/omega-calc) and a scriptable test surface.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_CALC_CALC_H
#define OMEGA_CALC_CALC_H

#include "obs/Trace.h"
#include "omega/OmegaContext.h"
#include "omega/Problem.h"

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace omega {
namespace calc {

/// One named set: a Problem plus the names of its tuple variables.
struct NamedSet {
  Problem P;
  std::vector<std::string> Tuple;
};

class Calculator {
public:
  /// Executes a whole script; returns everything the commands printed
  /// (including error messages, which also set hadError()). Every Omega
  /// call is charged to the calculator's own OmegaContext, so stats
  /// accumulate per calculator.
  std::string run(std::string_view Script);

  bool hadError() const { return HadError; }

  /// The calculator's private context (its stats sink).
  OmegaContext &context() { return Ctx; }

  /// Looks up a set defined by a previous run() call (tests use this).
  const NamedSet *lookup(const std::string &Name) const {
    auto It = Sets.find(Name);
    return It == Sets.end() ? nullptr : &It->second;
  }

  /// `trace on;`: starts recording spans for every subsequent query into a
  /// fresh tracer (discarding any earlier recording).
  void startTrace() {
    Tracer = std::make_unique<obs::Tracer>();
    Ctx.Trace = &Tracer->registerBuffer("calc", &Ctx.Stats);
  }

  /// `trace off;`: stops recording and returns the profile report of the
  /// traced window (or a notice when tracing was never on).
  std::string stopTrace() {
    if (!Tracer)
      return "tracing was already off\n";
    Ctx.Trace = nullptr;
    std::string Report = Tracer->profileReport(/*Json=*/false);
    Tracer.reset();
    return Report;
  }

  bool tracing() const { return Tracer != nullptr; }

  /// The active tracer (null unless between `trace on` and `trace off`).
  obs::Tracer *tracer() { return Tracer.get(); }

private:
  std::map<std::string, NamedSet> Sets;
  OmegaContext Ctx;
  std::unique_ptr<obs::Tracer> Tracer;
  bool HadError = false;
};

} // namespace calc
} // namespace omega

#endif // OMEGA_CALC_CALC_H
