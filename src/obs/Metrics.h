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
/// the recording path is allocation-free and lock-free. Every instrument
/// is sharded over cache-line-padded atomic cells indexed by a per-thread
/// shard id, so concurrent workers never contend on one line; add() and
/// observe() are a few relaxed fetch_adds. Snapshots sum the shards in
/// registration order, which makes two snapshots of equal registries
/// field-for-field comparable and merge() well defined.
///
/// The disabled path mirrors obs/Trace.h: instrumentation sites hold
/// nullable pointers and the inc()/observe()/set() helpers are one null
/// check -- nothing recorded, nothing allocated. MetricsTest pins this
/// down with samplesRecordedThisThread(), the same thread-local-counter
/// trick TraceBuffer uses for its zero-event property.
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

/// Concurrency shards per instrument. A small power of two: enough that
/// a handful of server workers land on distinct cells, cheap to sum.
constexpr unsigned MetricShards = 8;

namespace detail {

/// One cache-line-padded atomic cell (the unit of sharding).
struct alignas(64) MetricCell {
  std::atomic<uint64_t> V{0};
};

/// The calling thread's shard index, assigned round-robin on first use.
unsigned threadShard();

/// Samples recorded by this thread through any instrument since thread
/// start. Tests diff it around an operation to prove the disabled path
/// records nothing (the TraceBuffer::eventsRecordedThisThread() trick).
inline uint64_t &samplesRecordedThisThread() {
  thread_local uint64_t Count = 0;
  return Count;
}

} // namespace detail

/// Monotonic counter. add() is allocation-free and wait-free.
class Counter {
public:
  void add(uint64_t N = 1) noexcept {
    ++detail::samplesRecordedThisThread();
    Cells[detail::threadShard()].V.fetch_add(N, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t Sum = 0;
    for (const detail::MetricCell &C : Cells)
      Sum += C.V.load(std::memory_order_relaxed);
    return Sum;
  }
  /// Zeroes every cell. Not atomic with respect to concurrent add()s: a
  /// racing increment lands before or after the reset, never torn. Meant
  /// for quiescent test rigs via {"op":"metrics","reset":true}.
  void reset() noexcept {
    for (detail::MetricCell &C : Cells)
      C.V.store(0, std::memory_order_relaxed);
  }
  const std::string &name() const { return Name; }

private:
  friend class MetricsRegistry;
  Counter(std::string Name, std::string Help)
      : Name(std::move(Name)), Help(std::move(Help)) {}

  std::string Name, Help;
  detail::MetricCell Cells[MetricShards];
};

/// A signed level. Sharded like Counter: each thread adjusts its own cell
/// and value() sums them, so set() from one owner thread or add()/sub()
/// from many both work.
class Gauge {
public:
  void add(int64_t N) noexcept {
    ++detail::samplesRecordedThisThread();
    Cells[detail::threadShard()].V.fetch_add(static_cast<uint64_t>(N),
                                             std::memory_order_relaxed);
  }
  void sub(int64_t N) noexcept { add(-N); }
  /// Sets the summed value to \p V by adjusting the caller's cell. Callers
  /// that race set() see *a* consistent level, not a torn one.
  void set(int64_t V) noexcept { add(V - value()); }
  int64_t value() const {
    uint64_t Sum = 0;
    for (const detail::MetricCell &C : Cells)
      Sum += C.V.load(std::memory_order_relaxed);
    return static_cast<int64_t>(Sum);
  }
  const std::string &name() const { return Name; }

private:
  friend class MetricsRegistry;
  Gauge(std::string Name, std::string Help)
      : Name(std::move(Name)), Help(std::move(Help)) {}

  std::string Name, Help;
  detail::MetricCell Cells[MetricShards];
};

/// Fixed-boundary histogram with exact integer bucket counts. Boundaries
/// are inclusive upper bounds in the instrument's unit (the serving stack
/// records microseconds); one implicit overflow bucket catches the rest.
/// observe() is allocation-free: a linear scan over the (small, fixed)
/// boundary array plus two relaxed fetch_adds.
class Histogram {
public:
  void observe(uint64_t V) noexcept {
    ++detail::samplesRecordedThisThread();
    unsigned B = 0;
    while (B != Bounds.size() && V > Bounds[B])
      ++B;
    unsigned Shard = detail::threadShard();
    BucketCells[B * MetricShards + Shard].V.fetch_add(
        1, std::memory_order_relaxed);
    SumCells[Shard].V.fetch_add(V, std::memory_order_relaxed);
  }
  const std::vector<uint64_t> &bounds() const { return Bounds; }
  /// Exact count of observations in bucket \p B (B == bounds().size() is
  /// the overflow bucket).
  uint64_t bucketCount(unsigned B) const {
    uint64_t Sum = 0;
    for (unsigned S = 0; S != MetricShards; ++S)
      Sum += BucketCells[B * MetricShards + S].V.load(
          std::memory_order_relaxed);
    return Sum;
  }
  uint64_t count() const {
    uint64_t Sum = 0;
    for (unsigned B = 0; B != Bounds.size() + 1; ++B)
      Sum += bucketCount(B);
    return Sum;
  }
  uint64_t sum() const {
    uint64_t Sum = 0;
    for (const detail::MetricCell &C : SumCells)
      Sum += C.V.load(std::memory_order_relaxed);
    return Sum;
  }
  /// Zeroes every bucket and the sum; same caveats as Counter::reset().
  void reset() noexcept {
    for (unsigned B = 0; B != (unsigned)(Bounds.size() + 1) * MetricShards;
         ++B)
      BucketCells[B].V.store(0, std::memory_order_relaxed);
    for (detail::MetricCell &C : SumCells)
      C.V.store(0, std::memory_order_relaxed);
  }
  const std::string &name() const { return Name; }

private:
  friend class MetricsRegistry;
  Histogram(std::string Name, std::string Help, std::vector<uint64_t> Bounds)
      : Name(std::move(Name)), Help(std::move(Help)),
        Bounds(std::move(Bounds)),
        BucketCells(std::make_unique<detail::MetricCell[]>(
            (this->Bounds.size() + 1) * MetricShards)) {}

  std::string Name, Help;
  std::vector<uint64_t> Bounds;
  std::unique_ptr<detail::MetricCell[]> BucketCells;
  detail::MetricCell SumCells[MetricShards];
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

  /// Adds \p Other into this snapshot instrument-by-instrument. Both must
  /// come from identically registered registries (same names, same order,
  /// same boundaries); returns false (leaving this unchanged) otherwise.
  bool merge(const MetricsSnapshot &Other);

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
  /// live sessions) and are left alone -- their owners keep set()ing
  /// them. Not a barrier: increments racing the reset land wholly before
  /// or after it. Backs {"op":"metrics","reset":true}, which is meant
  /// for per-window measurement on otherwise quiescent rigs; note that
  /// cross-source invariants against non-registry totals (the result
  /// store's own lifetime counters) only hold over a full process lifetime.
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

//===----------------------------------------------------------------------===//
// Zero-overhead instrumentation helpers (the disabled path)
//===----------------------------------------------------------------------===//

inline void inc(Counter *C, uint64_t N = 1) noexcept {
  if (C)
    C->add(N);
}
inline void observe(Histogram *H, uint64_t V) noexcept {
  if (H)
    H->observe(V);
}
inline void set(Gauge *G, int64_t V) noexcept {
  if (G)
    G->set(V);
}
inline void add(Gauge *G, int64_t N) noexcept {
  if (G)
    G->add(N);
}

} // namespace obs
} // namespace omega

#endif // OMEGA_OBS_METRICS_H
