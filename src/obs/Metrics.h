//===- obs/Metrics.h - Production metrics for the serving stack ----------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small metrics registry for long-running processes (omega-serve), in
/// the same spirit Figure 6 of the paper accounts for the analyzer's work:
/// counters that sum exactly, not sampled estimates. Three instrument
/// kinds:
///
///  * Counter   -- monotonic, add-only (requests, store hits);
///  * Gauge     -- a signed level that moves both ways (queue depth);
///  * Histogram -- fixed boundaries chosen at registration, exact integer
///    bucket counts (no decay, no approximation), plus an exact sum.
///
/// Registration happens once, at startup, and may allocate; after that
/// the recording path is allocation-free and lock-free. Every cell is one
/// shared atomic: a counter or gauge is one, a histogram one per bucket
/// plus one for the sum, and add() and observe() are relaxed fetch_adds.
/// An ok omega-serve analyze request makes about two dozen of them, a
/// microsecond at worst under contention, which is well under 1% of its
/// latency. Snapshots read the instruments in registration order, which
/// makes two snapshots of equal registries field-for-field comparable.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_OBS_METRICS_H
#define OMEGA_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace omega {
namespace obs {

/// Monotonic counter. add() is allocation-free and wait-free.
class Counter {
public:
  void add(uint64_t N = 1) noexcept {
    V.fetch_add(N, std::memory_order_relaxed);
  }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  /// Zeroes the counter. A racing increment lands before or after the
  /// reset, never torn. Meant for quiescent test rigs via
  /// {"op":"metrics","reset":true}.
  void reset() noexcept { V.store(0, std::memory_order_relaxed); }
  const std::string &name() const { return Name; }

private:
  friend class MetricsRegistry;
  Counter(std::string Name, std::string Help)
      : Name(std::move(Name)), Help(std::move(Help)) {}

  std::string Name, Help;
  std::atomic<uint64_t> V{0};
};

/// A signed level: set() from one owner thread or add()/sub() from many.
class Gauge {
public:
  void add(int64_t N) noexcept { V.fetch_add(N, std::memory_order_relaxed); }
  void sub(int64_t N) noexcept { add(-N); }
  void set(int64_t Level) noexcept {
    V.store(Level, std::memory_order_relaxed);
  }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  const std::string &name() const { return Name; }

private:
  friend class MetricsRegistry;
  Gauge(std::string Name, std::string Help)
      : Name(std::move(Name)), Help(std::move(Help)) {}

  std::string Name, Help;
  std::atomic<int64_t> V{0};
};

/// Fixed-boundary histogram with exact integer bucket counts. Boundaries
/// are inclusive upper bounds in the instrument's unit (the serving stack
/// records microseconds); one implicit overflow bucket catches the rest.
/// observe() is allocation-free: a linear scan over the (small, fixed)
/// boundary array plus two relaxed fetch_adds.
class Histogram {
public:
  void observe(uint64_t V) noexcept {
    unsigned B = 0;
    while (B != Bounds.size() && V > Bounds[B])
      ++B;
    Buckets[B].fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
  }
  const std::vector<uint64_t> &bounds() const { return Bounds; }
  /// Exact count of observations in bucket \p B (B == bounds().size() is
  /// the overflow bucket).
  uint64_t bucketCount(unsigned B) const {
    return Buckets[B].load(std::memory_order_relaxed);
  }
  uint64_t count() const {
    uint64_t N = 0;
    for (unsigned B = 0; B != Bounds.size() + 1; ++B)
      N += bucketCount(B);
    return N;
  }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  /// Zeroes every bucket and the sum; same caveats as Counter::reset().
  void reset() noexcept {
    for (unsigned B = 0; B != Bounds.size() + 1; ++B)
      Buckets[B].store(0, std::memory_order_relaxed);
    Sum.store(0, std::memory_order_relaxed);
  }
  const std::string &name() const { return Name; }

private:
  friend class MetricsRegistry;
  Histogram(std::string Name, std::string Help, std::vector<uint64_t> Bounds)
      : Name(std::move(Name)), Help(std::move(Help)),
        Bounds(std::move(Bounds)),
        Buckets(std::make_unique<std::atomic<uint64_t>[]>(
            this->Bounds.size() + 1)) {}

  std::string Name, Help;
  std::vector<uint64_t> Bounds;
  std::unique_ptr<std::atomic<uint64_t>[]> Buckets;
  std::atomic<uint64_t> Sum{0};
};

//===----------------------------------------------------------------------===//
// Snapshot
//===----------------------------------------------------------------------===//

/// A point-in-time copy of every instrument, in registration order.
/// Deterministic in shape: two snapshots of the same registry (or of two
/// registries registered identically) line up instrument for instrument.
struct MetricsSnapshot {
  struct CounterView {
    std::string Name, Help;
    uint64_t Value = 0;
  };
  struct GaugeView {
    std::string Name, Help;
    int64_t Value = 0;
  };
  struct HistogramView {
    std::string Name, Help;
    std::vector<uint64_t> Bounds;  ///< inclusive upper bounds
    std::vector<uint64_t> Buckets; ///< Bounds.size() + 1 exact counts
    uint64_t Count = 0;
    uint64_t Sum = 0;
  };

  std::vector<CounterView> Counters;
  std::vector<GaugeView> Gauges;
  std::vector<HistogramView> Histograms;

  const CounterView *counter(const std::string &Name) const;
  const GaugeView *gauge(const std::string &Name) const;
  const HistogramView *histogram(const std::string &Name) const;
};

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// Owns the instruments of one process. Registration (allocating) happens
/// up front; instruments are stable pointers for the registry's lifetime,
/// so hot paths hold Counter*/Gauge*/Histogram* and never look anything
/// up. snapshot() may run concurrently with recording -- it reads relaxed
/// atomics -- and yields values at least as fresh as every write that
/// happened-before the call.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Registers one instrument. Names must be unique across the registry
  /// and follow Prometheus spelling ([a-z_][a-z0-9_]*); counters should
  /// end in "_total". Returns a pointer stable for the registry lifetime.
  Counter *counter(std::string Name, std::string Help);
  Gauge *gauge(std::string Name, std::string Help);
  /// \p Bounds must be strictly increasing; an overflow bucket is implied.
  Histogram *histogram(std::string Name, std::string Help,
                       std::vector<uint64_t> Bounds);

  MetricsSnapshot snapshot() const;

  /// Zeroes every counter and histogram; gauges are levels (queue depth,
  /// active workers, store occupancy) and are left alone -- their owners
  /// keep moving them. Not a barrier: increments racing the reset land
  /// wholly before or after it. Backs {"op":"metrics","reset":true}, which
  /// is meant for per-window measurement on otherwise quiescent rigs; note
  /// that cross-source invariants against non-registry totals (the result
  /// store's own lifetime counters) only hold over a full process
  /// lifetime.
  void reset();

private:
  std::vector<std::unique_ptr<Counter>> CounterList;
  std::vector<std::unique_ptr<Gauge>> GaugeList;
  std::vector<std::unique_ptr<Histogram>> HistogramList;
};

//===----------------------------------------------------------------------===//
// Renderers
//===----------------------------------------------------------------------===//

/// Prometheus text exposition (format version 0.0.4): # HELP / # TYPE
/// comments, flat sample lines, histogram _bucket{le=...}/_sum/_count
/// series with le rendered in seconds from the microsecond bounds.
std::string prometheusText(const MetricsSnapshot &S);

/// One-line JSON rendering of the snapshot: {"counters": {...},
/// "gauges": {...}, "histograms": {name: {"boundsUs": [...], "buckets":
/// [...], "count": N, "sumUs": N}}}. String-built like api/Response.h so
/// the bytes are reproducible.
std::string metricsJson(const MetricsSnapshot &S);

} // namespace obs
} // namespace omega

#endif // OMEGA_OBS_METRICS_H
