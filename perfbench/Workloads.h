//===- perfbench/Workloads.h - The benchmark's four workloads -------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload generates its inputs from the seed, times a closed loop
/// of operations for the requested seconds, checks every answer against
/// a reference that does not come from the analyzer, and fills a Report.
/// With Options::Trace it instead alternates untraced and traced passes
/// over the same inputs and fills the per-layer values.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_PERFBENCH_WORKLOADS_H
#define OMEGA_PERFBENCH_WORKLOADS_H

#include "Common.h"

#include <optional>
#include <random>
#include <string>
#include <vector>

namespace omega {
namespace perfbench {

/// One named input program.
struct Program {
  std::string Name;
  std::string Source;
};

/// The 30-program kernel corpus, in corpus order.
std::vector<Program> kernelPrograms();
/// The random-nest population: the first \p N programs (at most
/// RandomPoolSize) that oracle::ProgramGenerator emits with its default
/// config and seed RandomPoolSeed.
std::vector<Program> randomPool(unsigned N);
/// Digest of an ordered input list.
uint64_t digestPrograms(const std::vector<Program> &Ps);

/// The random-nest population is fixed: ProgramGenerator's first 400
/// programs for seed 1. One program in a few thousand from the generator
/// takes seconds or minutes (and gigabytes) to analyze, which no bounded,
/// steady benchmark run can absorb, and per-seed draws of a few hundred
/// programs move p50 and throughput by a third from seed to seed. Every
/// program of this population analyzes in under half a second on a 4-core
/// box. Workload seeds order it.
constexpr unsigned RandomPoolSeed = 1;
constexpr unsigned RandomPoolSize = 400;

/// Whole passes of a workload run until this much time has passed and at
/// least this many operations were timed, so p99 keeps 10 samples above it.
constexpr size_t MinSamples = 1200;

/// A seeded visiting order for one pass over \p N inputs.
std::vector<size_t> passOrder(std::mt19937 &Rng, size_t N);

/// Reference answers for a list of inputs. The first one-shot answer of
/// each input is checked against the interpreter trace oracle (when
/// enabled) after the clock stops, and becomes the input's reference;
/// every later answer must repeat its bytes.
class Checker {
public:
  Checker(const std::vector<Program> &Inputs, bool UseOracle, bool Canary);

  /// One timed one-shot run of input \p I, checked when it is the first.
  ColdRun run(size_t I);
  /// Records another answer for input \p I (it must have run once).
  void answer(size_t I, uint64_t ResultHash);
  /// Records a failed operation on input \p I.
  void fail(size_t I, const std::string &Why);
  /// The reference result digest of input \p I, running it if needed.
  uint64_t reference(size_t I);

  /// Adds the attempted and failed operations to \p R.
  void score(Report &R) const;

private:
  const std::vector<Program> &Inputs;
  bool UseOracle;
  bool CanaryLeft;
  std::vector<std::optional<uint64_t>> Ref;
  std::vector<std::string> Error;
  std::vector<std::string> Unchecked;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<bool> Reported;
  std::vector<std::string> Failures;
};

/// Alternates untraced and traced one-shot passes over \p Inputs for
/// \p Seconds, fills R's per-layer rows and obs.trace_overhead_frac,
/// lists the costliest units, writes the spans, and records every answer
/// in \p Check.
void tracedColdPasses(const Options &O, const std::vector<Program> &Inputs,
                      double Seconds, bool KeepUnits, Checker &Check,
                      Report &R);

void runKernelsCold(const Options &O, Report &R);
void runRandomNests(const Options &O, Report &R);
void runServeEditStream(const Options &O, Report &R);
void runCalcQueries(const Options &O, Report &R);

} // namespace perfbench
} // namespace omega

#endif // OMEGA_PERFBENCH_WORKLOADS_H
