//===- obs/Metrics.cpp - Production metrics for the serving stack --------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <cassert>
#include <cinttypes>
#include <cstdio>

namespace omega {
namespace obs {

//===----------------------------------------------------------------------===//
// Snapshot
//===----------------------------------------------------------------------===//

const MetricsSnapshot::CounterView *
MetricsSnapshot::counter(const std::string &Name) const {
  for (const CounterView &C : Counters)
    if (C.Name == Name)
      return &C;
  return nullptr;
}

const MetricsSnapshot::GaugeView *
MetricsSnapshot::gauge(const std::string &Name) const {
  for (const GaugeView &G : Gauges)
    if (G.Name == Name)
      return &G;
  return nullptr;
}

const MetricsSnapshot::HistogramView *
MetricsSnapshot::histogram(const std::string &Name) const {
  for (const HistogramView &H : Histograms)
    if (H.Name == Name)
      return &H;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Counter *MetricsRegistry::counter(std::string Name, std::string Help) {
  CounterList.emplace_back(
      new Counter(std::move(Name), std::move(Help)));
  return CounterList.back().get();
}

Gauge *MetricsRegistry::gauge(std::string Name, std::string Help) {
  GaugeList.emplace_back(new Gauge(std::move(Name), std::move(Help)));
  return GaugeList.back().get();
}

Histogram *MetricsRegistry::histogram(std::string Name, std::string Help,
                                      std::vector<uint64_t> Bounds) {
  for (std::size_t I = 1; I < Bounds.size(); ++I)
    assert(Bounds[I - 1] < Bounds[I] &&
           "histogram boundaries must be strictly increasing");
  HistogramList.emplace_back(
      new Histogram(std::move(Name), std::move(Help), std::move(Bounds)));
  return HistogramList.back().get();
}

void MetricsRegistry::reset() {
  for (const std::unique_ptr<Counter> &C : CounterList)
    C->reset();
  for (const std::unique_ptr<Histogram> &H : HistogramList)
    H->reset();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot S;
  S.Counters.reserve(CounterList.size());
  for (const std::unique_ptr<Counter> &C : CounterList)
    S.Counters.push_back({C->Name, C->Help, C->value()});
  S.Gauges.reserve(GaugeList.size());
  for (const std::unique_ptr<Gauge> &G : GaugeList)
    S.Gauges.push_back({G->Name, G->Help, G->value()});
  S.Histograms.reserve(HistogramList.size());
  for (const std::unique_ptr<Histogram> &H : HistogramList) {
    MetricsSnapshot::HistogramView V;
    V.Name = H->Name;
    V.Help = H->Help;
    V.Bounds = H->Bounds;
    V.Buckets.reserve(H->Bounds.size() + 1);
    for (unsigned B = 0; B != H->Bounds.size() + 1; ++B)
      V.Buckets.push_back(H->bucketCount(B));
    for (uint64_t N : V.Buckets)
      V.Count += N;
    V.Sum = H->sum();
    S.Histograms.push_back(std::move(V));
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Renderers
//===----------------------------------------------------------------------===//

namespace {

/// Renders a microsecond bound as seconds with no trailing zeros
/// ("0.001", "0.25", "1"), the spelling Prometheus uses for le labels.
std::string secondsLabel(uint64_t Micros) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6f", static_cast<double>(Micros) / 1e6);
  std::string S(Buf);
  while (!S.empty() && S.back() == '0')
    S.pop_back();
  if (!S.empty() && S.back() == '.')
    S.pop_back();
  return S;
}

void appendU64(std::string &Out, uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, V);
  Out += Buf;
}

void appendI64(std::string &Out, int64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%" PRId64, V);
  Out += Buf;
}

} // namespace

std::string prometheusText(const MetricsSnapshot &S) {
  std::string Out;
  for (const MetricsSnapshot::CounterView &C : S.Counters) {
    Out += "# HELP " + C.Name + " " + C.Help + "\n";
    Out += "# TYPE " + C.Name + " counter\n";
    Out += C.Name + " ";
    appendU64(Out, C.Value);
    Out += "\n";
  }
  for (const MetricsSnapshot::GaugeView &G : S.Gauges) {
    Out += "# HELP " + G.Name + " " + G.Help + "\n";
    Out += "# TYPE " + G.Name + " gauge\n";
    Out += G.Name + " ";
    appendI64(Out, G.Value);
    Out += "\n";
  }
  for (const MetricsSnapshot::HistogramView &H : S.Histograms) {
    Out += "# HELP " + H.Name + " " + H.Help + "\n";
    Out += "# TYPE " + H.Name + " histogram\n";
    uint64_t Cum = 0;
    for (std::size_t B = 0; B != H.Bounds.size(); ++B) {
      Cum += H.Buckets[B];
      Out += H.Name + "_bucket{le=\"" + secondsLabel(H.Bounds[B]) + "\"} ";
      appendU64(Out, Cum);
      Out += "\n";
    }
    Out += H.Name + "_bucket{le=\"+Inf\"} ";
    appendU64(Out, H.Count);
    Out += "\n";
    Out += H.Name + "_sum " + secondsLabel(H.Sum) + "\n";
    Out += H.Name + "_count ";
    appendU64(Out, H.Count);
    Out += "\n";
  }
  return Out;
}

std::string metricsJson(const MetricsSnapshot &S) {
  std::string Out = "{\"counters\": {";
  bool First = true;
  for (const MetricsSnapshot::CounterView &C : S.Counters) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "\"" + C.Name + "\": ";
    appendU64(Out, C.Value);
  }
  Out += "}, \"gauges\": {";
  First = true;
  for (const MetricsSnapshot::GaugeView &G : S.Gauges) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "\"" + G.Name + "\": ";
    appendI64(Out, G.Value);
  }
  Out += "}, \"histograms\": {";
  First = true;
  for (const MetricsSnapshot::HistogramView &H : S.Histograms) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "\"" + H.Name + "\": {\"boundsUs\": [";
    for (std::size_t B = 0; B != H.Bounds.size(); ++B) {
      if (B)
        Out += ", ";
      appendU64(Out, H.Bounds[B]);
    }
    Out += "], \"buckets\": [";
    for (std::size_t B = 0; B != H.Buckets.size(); ++B) {
      if (B)
        Out += ", ";
      appendU64(Out, H.Buckets[B]);
    }
    Out += "], \"count\": ";
    appendU64(Out, H.Count);
    Out += ", \"sumUs\": ";
    appendU64(Out, H.Sum);
    Out += "}";
  }
  Out += "}}";
  return Out;
}

} // namespace obs
} // namespace omega
