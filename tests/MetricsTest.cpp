//===- tests/MetricsTest.cpp - Telemetry registry and server accounting ---===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// Two layers under test. The obs/Metrics.h registry itself: exact bucket
// counts, deterministic snapshots, and an allocation-free hot path
// (proven with a counting global operator new). And the serving stack's
// accounting invariants, in the spirit of the paper's Figure 6: per-op
// counters sum to requests_total, histogram counts match the request
// counters that feed them, engine analyses plus coalesced followers equal
// the analyses answered, and none of it varies with the worker count.
//
//===----------------------------------------------------------------------===//

#include "api/Json.h"
#include "api/Serve.h"
#include "kernels/Kernels.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <new>
#include <sstream>
#include <string>
#include <thread>

using namespace omega;

//===----------------------------------------------------------------------===//
// Counting allocator: every global new/delete in this binary is tallied,
// so a test can prove a code path allocates nothing.
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GAllocCount{0};
uint64_t allocationsNow() {
  return GAllocCount.load(std::memory_order_relaxed);
}
} // namespace

void *operator new(std::size_t N) {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(Metrics, CounterGaugeBasics) {
  obs::MetricsRegistry R;
  obs::Counter *C = R.counter("c_total", "a counter");
  obs::Gauge *G = R.gauge("g", "a gauge");
  C->add();
  C->add(41);
  EXPECT_EQ(C->value(), 42u);
  G->add(5);
  G->sub(2);
  EXPECT_EQ(G->value(), 3);
  G->set(-7);
  EXPECT_EQ(G->value(), -7);
}

TEST(Metrics, HistogramExactBucketCounts) {
  obs::MetricsRegistry R;
  obs::Histogram *H = R.histogram("h_us", "latency", {10, 100, 1000});
  // Boundaries are inclusive upper bounds; beyond the last is overflow.
  H->observe(0);
  H->observe(10);   // still bucket 0
  H->observe(11);   // bucket 1
  H->observe(100);  // bucket 1
  H->observe(999);  // bucket 2
  H->observe(5000); // overflow
  EXPECT_EQ(H->bucketCount(0), 2u);
  EXPECT_EQ(H->bucketCount(1), 2u);
  EXPECT_EQ(H->bucketCount(2), 1u);
  EXPECT_EQ(H->bucketCount(3), 1u);
  EXPECT_EQ(H->count(), 6u);
  EXPECT_EQ(H->sum(), 0u + 10 + 11 + 100 + 999 + 5000);
}

TEST(Metrics, SnapshotIsDeterministic) {
  auto Populate = [](obs::MetricsRegistry &R) {
    obs::Counter *C = R.counter("requests_total", "requests");
    obs::Gauge *G = R.gauge("depth", "queue depth");
    obs::Histogram *H = R.histogram("lat_us", "latency", {100, 1000});
    C->add(3);
    G->set(2);
    H->observe(50);
    H->observe(500);
  };
  obs::MetricsRegistry A, B;
  Populate(A);
  Populate(B);
  obs::MetricsSnapshot SA = A.snapshot(), SB = B.snapshot();

  // Identical registration + identical traffic -> field-for-field equal.
  ASSERT_EQ(SA.Counters.size(), SB.Counters.size());
  EXPECT_EQ(SA.Counters[0].Name, "requests_total");
  EXPECT_EQ(SA.Counters[0].Value, SB.Counters[0].Value);
  EXPECT_EQ(SA.Gauges[0].Value, SB.Gauges[0].Value);
  EXPECT_EQ(SA.Histograms[0].Buckets, SB.Histograms[0].Buckets);
}

TEST(Metrics, PrometheusTextFormat) {
  obs::MetricsRegistry R;
  R.counter("reqs_total", "requests")->add(7);
  R.gauge("depth", "queue depth")->set(-2);
  obs::Histogram *H = R.histogram("lat_us", "latency", {100, 250000});
  H->observe(100);
  H->observe(400000);
  std::string Text = obs::prometheusText(R.snapshot());
  EXPECT_NE(Text.find("# HELP reqs_total requests\n"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE reqs_total counter\n"), std::string::npos);
  EXPECT_NE(Text.find("\nreqs_total 7\n"), std::string::npos);
  EXPECT_NE(Text.find("\ndepth -2\n"), std::string::npos);
  // le labels are seconds, trailing zeros stripped; buckets cumulative.
  EXPECT_NE(Text.find("lat_us_bucket{le=\"0.0001\"} 1\n"), std::string::npos);
  EXPECT_NE(Text.find("lat_us_bucket{le=\"0.25\"} 1\n"), std::string::npos);
  EXPECT_NE(Text.find("lat_us_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(Text.find("lat_us_count 2\n"), std::string::npos);
  EXPECT_NE(Text.find("lat_us_sum 0.4001\n"), std::string::npos);
}

TEST(Metrics, JsonRenderingParses) {
  obs::MetricsRegistry R;
  R.counter("c_total", "c")->add(1);
  R.gauge("g", "g")->set(9);
  R.histogram("h_us", "h", {100})->observe(42);
  std::string S = obs::metricsJson(R.snapshot());
  api::json::Value V;
  std::string Err;
  ASSERT_TRUE(api::json::parse(S, V, Err)) << Err;
  EXPECT_EQ(V.get("counters")->get("c_total")->asInt(), 1);
  EXPECT_EQ(V.get("gauges")->get("g")->asInt(), 9);
  const api::json::Value *H = V.get("histograms")->get("h_us");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->get("count")->asInt(), 1);
  EXPECT_EQ(H->get("sumUs")->asInt(), 42);
  EXPECT_EQ(H->get("boundsUs")->asArray().size(), 1u);
  EXPECT_EQ(H->get("buckets")->asArray().size(), 2u);
}

TEST(Metrics, EnabledHotPathAllocatesNothing) {
  obs::MetricsRegistry R;
  obs::Counter *C = R.counter("c_total", "c");
  obs::Gauge *G = R.gauge("g", "g");
  obs::Histogram *H =
      R.histogram("h_us", "h", {100, 250, 500, 1000, 10000, 100000});
  uint64_t AllocsBefore = allocationsNow();
  for (uint64_t I = 0; I != 1000; ++I) {
    C->add(1);
    G->add(1);
    H->observe(I * 37 % 200000);
  }
  EXPECT_EQ(allocationsNow(), AllocsBefore);
  EXPECT_EQ(C->value(), 1000u);
}

//===----------------------------------------------------------------------===//
// Server accounting invariants
//===----------------------------------------------------------------------===//

/// Submits one request line and blocks until its response arrives.
std::string ask(api::Server &Server, const std::string &Line) {
  std::mutex Mu;
  std::condition_variable CV;
  std::string Response;
  bool Done = false;
  Server.submit(Line, [&](std::string R) {
    std::lock_guard<std::mutex> Lock(Mu);
    Response = std::move(R);
    Done = true;
    CV.notify_one();
  });
  std::unique_lock<std::mutex> Lock(Mu);
  CV.wait(Lock, [&] { return Done; });
  return Response;
}

std::string analyzeLine(uint64_t Id, const std::string &Source) {
  return "{\"id\": " + std::to_string(Id) + ", \"source\": \"" +
         api::json::escape(Source) + "\"}";
}

uint64_t counterOf(const obs::MetricsSnapshot &S, const std::string &Name) {
  const obs::MetricsSnapshot::CounterView *C = S.counter(Name);
  EXPECT_NE(C, nullptr) << Name;
  return C ? C->Value : 0;
}

const obs::MetricsSnapshot::HistogramView &
histOf(const obs::MetricsSnapshot &S, const std::string &Name) {
  const obs::MetricsSnapshot::HistogramView *H = S.histogram(Name);
  EXPECT_NE(H, nullptr) << Name;
  static obs::MetricsSnapshot::HistogramView Empty;
  return H ? *H : Empty;
}

/// The server's snapshot once every worker is idle again. The response
/// callback fires before the worker returns to its loop and decrements
/// active_workers, so give the last worker a moment to get there.
obs::MetricsSnapshot quiescedSnapshot(api::Server &Server) {
  obs::MetricsSnapshot S = Server.metricsSnapshot();
  for (int Spin = 0;
       Spin != 200 && S.gauge("omega_serve_active_workers")->Value != 0;
       ++Spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    S = Server.metricsSnapshot();
  }
  return S;
}

/// Runs a mixed workload -- analyses, a parse error, a bad request, ops --
/// on \p Server.
void runMixedWorkload(api::Server &Server, uint64_t &AnalyzeOkWant,
                      uint64_t &AnalysisErrWant) {
  uint64_t Id = 1;
  AnalyzeOkWant = 0;
  AnalysisErrWant = 0;
  for (const kernels::Kernel &K : kernels::corpus()) {
    ask(Server, analyzeLine(Id++, K.Source));
    ++AnalyzeOkWant;
  }
  // Re-analyze the first kernel: result-store hits for the attribution
  // invariant.
  ask(Server, analyzeLine(Id++, kernels::corpus().front().Source));
  ++AnalyzeOkWant;
  ask(Server, analyzeLine(Id++, "for i := broken"));
  ++AnalysisErrWant;
  ask(Server, "this is not json");
  ask(Server, "{\"id\": 99, \"op\": \"reticulate\"}");
  ask(Server, "{\"id\": 100, \"op\": \"health\"}");
  ask(Server, "{\"id\": 101, \"op\": \"metrics\"}");
}

TEST(ServeTelemetry, AccountingInvariantsHold) {
  api::AnalysisOptions Cfg;
  Cfg.ServeWorkers = 2;
  api::Server Server(Cfg);
  uint64_t OkWant = 0, ErrWant = 0;
  runMixedWorkload(Server, OkWant, ErrWant);
  obs::MetricsSnapshot S = quiescedSnapshot(Server);

  uint64_t Total = counterOf(S, "omega_serve_requests_total");
  // Every submit dispatched to exactly one op bucket.
  EXPECT_EQ(Total, counterOf(S, "omega_serve_requests_analyze_total") +
                       counterOf(S, "omega_serve_requests_health_total") +
                       counterOf(S, "omega_serve_requests_metrics_total") +
                       counterOf(S, "omega_serve_requests_shutdown_total") +
                       counterOf(S, "omega_serve_requests_invalid_total"));
  // Every submit produced exactly one coded response.
  EXPECT_EQ(Total,
            counterOf(S, "omega_serve_responses_ok_total") +
                counterOf(S, "omega_serve_responses_parse_error_total") +
                counterOf(S, "omega_serve_responses_bad_request_total") +
                counterOf(S, "omega_serve_responses_analysis_error_total") +
                counterOf(S, "omega_serve_responses_overloaded_total") +
                counterOf(S, "omega_serve_responses_deadline_exceeded_total") +
                counterOf(S, "omega_serve_responses_shutdown_total"));
  EXPECT_EQ(counterOf(S, "omega_serve_analyze_ok_total"), OkWant);
  EXPECT_EQ(counterOf(S, "omega_serve_responses_analysis_error_total"),
            ErrWant);

  // Histogram counts == the request counters that feed them.
  EXPECT_EQ(histOf(S, "omega_serve_solve_us").Count, OkWant);
  EXPECT_EQ(histOf(S, "omega_serve_serialize_us").Count, OkWant);
  EXPECT_EQ(histOf(S, "omega_serve_request_us").Count, OkWant + ErrWant);
  EXPECT_EQ(histOf(S, "omega_serve_parse_us").Count, OkWant + ErrWant);
  EXPECT_EQ(histOf(S, "omega_serve_queue_wait_us").Count, OkWant + ErrWant);

  // All five latency histograms use the built-in 100us..1s boundaries.
  for (const char *Name :
       {"omega_serve_queue_wait_us", "omega_serve_parse_us",
        "omega_serve_solve_us", "omega_serve_serialize_us",
        "omega_serve_request_us"}) {
    const std::vector<uint64_t> &Bounds = histOf(S, Name).Bounds;
    ASSERT_FALSE(Bounds.empty()) << Name;
    EXPECT_EQ(Bounds.front(), 100u) << Name;
    EXPECT_EQ(Bounds.back(), 1000000u) << Name;
  }

  // Exact bucket accounting: buckets sum to the count, for every
  // histogram in the snapshot.
  for (const obs::MetricsSnapshot::HistogramView &H : S.Histograms) {
    uint64_t Sum = 0;
    for (uint64_t B : H.Buckets)
      Sum += B;
    EXPECT_EQ(Sum, H.Count) << H.Name;
    EXPECT_EQ(H.Buckets.size(), H.Bounds.size() + 1) << H.Name;
  }

  // Every analysis ran on the server's own engines, each exactly once
  // (sequential requests never coalesce), and the warm re-analysis was
  // answered from the result store.
  EXPECT_EQ(counterOf(S, "omega_engine_analyses_total") +
                counterOf(S, "omega_serve_requests_coalesced_total"),
            OkWant);
  EXPECT_GT(counterOf(S, "omega_result_store_hits_total"), 0u);

  // Quiesced gauges.
  EXPECT_EQ(S.gauge("omega_serve_queue_depth")->Value, 0);
  EXPECT_EQ(S.gauge("omega_serve_active_workers")->Value, 0);
  EXPECT_EQ(S.gauge("omega_result_store_entries")->Value,
            static_cast<int64_t>(Server.resultStore().size()));
}

/// The response code of a response line: its error code, or "ok".
std::string responseCode(const std::string &Response) {
  api::json::Value Doc;
  std::string Err;
  if (!api::json::parse(Response, Doc, Err))
    return "<unparseable: " + Err + ">";
  const api::json::Value *E = Doc.get("error");
  return E ? E->get("code")->asString() : "ok";
}

// Every response code the server can send is counted exactly once per
// response, including the paths decided at admission (overloaded,
// shutdown) and at dequeue (deadline_exceeded), and exactly the requests
// that reached a worker get one access-log line each.
TEST(ServeTelemetry, EveryResponseCodeCountsOnce) {
  std::string Log = testing::TempDir() + "metrics_test_codes.jsonl";
  std::remove(Log.c_str());
  api::AnalysisOptions Cfg;
  Cfg.ServeWorkers = 1;
  Cfg.MaxQueue = 1;
  Cfg.Jobs = 1;
  Cfg.AccessLogFile = Log;
  api::Server Server(Cfg);

  std::mutex Mu;
  std::condition_variable CV;
  std::map<std::string, uint64_t> Seen;
  unsigned Answered = 0;
  bool Wedged = false, Release = false;
  auto Record = [&](std::string Resp) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Seen[responseCode(Resp)];
    ++Answered;
    CV.notify_all();
  };
  auto Ask = [&](const std::string &Line) { Record(ask(Server, Line)); };

  Ask("this is not json");                         // parse_error
  Ask("{\"id\": 1, \"source\": 17}");              // bad_request
  Ask("{\"id\": 2, \"op\": \"reticulate\"}");      // bad_request
  Ask(analyzeLine(3, "for i := broken"));          // analysis_error
  Ask("{\"id\": 4, \"op\": \"health\"}");          // ok, never logged
  const unsigned Sync = 5;

  // Wedge the one worker: request 10's response callback blocks until the
  // rest is submitted, so the worker dequeues nothing meanwhile.
  const std::string Source =
      "for i := 1 to 8 do\n  t(i) := t(i-1) + 1;\nendfor\n";
  Server.submit(analyzeLine(10, Source), [&](std::string Resp) {
    Record(std::move(Resp));
    std::unique_lock<std::mutex> Lock(Mu);
    Wedged = true;
    CV.notify_all();
    CV.wait(Lock, [&] { return Release; });
  });
  {
    std::unique_lock<std::mutex> Lock(Mu);
    CV.wait(Lock, [&] { return Wedged; });
  }
  // Request 11 takes the one queue slot and expires in it; the burst
  // behind it finds the queue full.
  std::string Deadlined = analyzeLine(11, Source);
  Deadlined.insert(Deadlined.size() - 1, ", \"deadlineMs\": 1");
  Server.submit(Deadlined, Record);
  constexpr unsigned Burst = 4;
  for (unsigned I = 0; I != Burst; ++I)
    Server.submit(analyzeLine(12 + I, Source), Record);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::unique_lock<std::mutex> Lock(Mu);
    Release = true;
    CV.notify_all();
    CV.wait(Lock, [&] { return Answered == Sync + 2 + Burst; });
  }
  Server.stop();
  Ask(analyzeLine(20, Source)); // shutdown

  EXPECT_EQ(Seen["parse_error"], 1u);
  EXPECT_EQ(Seen["bad_request"], 2u);
  EXPECT_EQ(Seen["analysis_error"], 1u);
  EXPECT_EQ(Seen["ok"], 2u);
  EXPECT_EQ(Seen["overloaded"], Burst);
  EXPECT_EQ(Seen["deadline_exceeded"], 1u);
  EXPECT_EQ(Seen["shutdown"], 1u);

  obs::MetricsSnapshot S = Server.metricsSnapshot();
  uint64_t PerCode = 0;
  for (const char *Code : {"ok", "parse_error", "bad_request",
                           "analysis_error", "overloaded",
                           "deadline_exceeded", "shutdown"}) {
    uint64_t N = counterOf(
        S, std::string("omega_serve_responses_") + Code + "_total");
    EXPECT_EQ(N, Seen[Code]) << Code;
    PerCode += N;
  }
  EXPECT_EQ(PerCode, counterOf(S, "omega_serve_requests_total"));

  // One access-log line, with its response's code, per request that
  // reached a worker: the analysis error, the wedging request and the
  // expired one.
  std::map<int64_t, std::string> Logged;
  std::ifstream In(Log);
  for (std::string Line; std::getline(In, Line);) {
    api::json::Value V;
    std::string Err;
    ASSERT_TRUE(api::json::parse(Line, V, Err)) << Line << " -> " << Err;
    EXPECT_TRUE(Logged.emplace(V.get("id")->asInt(),
                               V.get("code")->asString())
                    .second)
        << Line;
  }
  EXPECT_EQ(Logged, (std::map<int64_t, std::string>{
                        {3, "analysis_error"},
                        {10, "ok"},
                        {11, "deadline_exceeded"}}));
  std::remove(Log.c_str());
}

TEST(ServeTelemetry, DeterministicCountersMatchAcrossWorkerCounts) {
  auto Run = [](unsigned Workers) {
    api::AnalysisOptions Cfg;
    Cfg.ServeWorkers = Workers;
    api::Server Server(Cfg);
    uint64_t OkWant = 0, ErrWant = 0;
    runMixedWorkload(Server, OkWant, ErrWant);
    return quiescedSnapshot(Server);
  };
  obs::MetricsSnapshot S1 = Run(1);
  obs::MetricsSnapshot S4 = Run(4);

  // A sequential workload's deterministic counters cannot depend on the
  // worker count: same counters, same gauges, same histogram *counts*
  // (durations, the Sum fields, naturally differ).
  ASSERT_EQ(S1.Counters.size(), S4.Counters.size());
  for (std::size_t I = 0; I != S1.Counters.size(); ++I) {
    EXPECT_EQ(S1.Counters[I].Name, S4.Counters[I].Name);
    EXPECT_EQ(S1.Counters[I].Value, S4.Counters[I].Value)
        << S1.Counters[I].Name;
  }
  ASSERT_EQ(S1.Gauges.size(), S4.Gauges.size());
  for (std::size_t I = 0; I != S1.Gauges.size(); ++I)
    EXPECT_EQ(S1.Gauges[I].Value, S4.Gauges[I].Value) << S1.Gauges[I].Name;
  ASSERT_EQ(S1.Histograms.size(), S4.Histograms.size());
  for (std::size_t I = 0; I != S1.Histograms.size(); ++I)
    EXPECT_EQ(S1.Histograms[I].Count, S4.Histograms[I].Count)
        << S1.Histograms[I].Name;
}

//===----------------------------------------------------------------------===//
// Ops, access log, slow traces
//===----------------------------------------------------------------------===//

TEST(ServeTelemetry, HealthAndMetricsOpDocuments) {
  api::AnalysisOptions Cfg;
  Cfg.ServeWorkers = 1;
  api::Server Server(Cfg);
  ask(Server, analyzeLine(1, kernels::corpus().front().Source));

  api::json::Value H;
  std::string Err;
  ASSERT_TRUE(
      api::json::parse(ask(Server, "{\"id\": 2, \"op\": \"health\"}"), H, Err))
      << Err;
  EXPECT_TRUE(H.get("ok")->asBool());
  EXPECT_EQ(H.get("op")->asString(), "health");
  const api::json::Value *HB = H.get("health");
  ASSERT_NE(HB, nullptr);
  EXPECT_EQ(HB->get("status")->asString(), "ok");
  EXPECT_EQ(HB->get("workers")->asInt(), 1);
  EXPECT_EQ(HB->get("queueDepth")->asInt(), 0);
  EXPECT_GT(HB->get("requestsTotal")->asInt(), 0);
  EXPECT_GT(HB->get("resultStoreEntries")->asInt(), 0);
  EXPECT_EQ(HB->get("cacheEntries"), nullptr);

  api::json::Value M;
  ASSERT_TRUE(
      api::json::parse(ask(Server, "{\"id\": 3, \"op\": \"metrics\"}"), M,
                       Err))
      << Err;
  EXPECT_TRUE(M.get("ok")->asBool());
  EXPECT_EQ(M.get("op")->asString(), "metrics");
  const api::json::Value *MB = M.get("metrics");
  ASSERT_NE(MB, nullptr);
  // The snapshot the op returns counts the op itself: per-op counters sum
  // to requests_total *inside the document*.
  const api::json::Value *Counters = MB->get("counters");
  ASSERT_NE(Counters, nullptr);
  int64_t Total = Counters->get("omega_serve_requests_total")->asInt();
  int64_t PerOp =
      Counters->get("omega_serve_requests_analyze_total")->asInt() +
      Counters->get("omega_serve_requests_health_total")->asInt() +
      Counters->get("omega_serve_requests_metrics_total")->asInt() +
      Counters->get("omega_serve_requests_shutdown_total")->asInt() +
      Counters->get("omega_serve_requests_invalid_total")->asInt();
  EXPECT_EQ(Total, PerOp);
  EXPECT_EQ(MB->get("cache"), nullptr);
  ASSERT_NE(MB->get("resultStore"), nullptr);
  EXPECT_EQ(MB->get("resultStore")->get("entries")->asInt(),
            HB->get("resultStoreEntries")->asInt());
}

TEST(ServeTelemetry, ShutdownAckCarriesFinalSnapshot) {
  api::AnalysisOptions Cfg;
  Cfg.ServeWorkers = 1;
  api::Server Server(Cfg);
  ask(Server, analyzeLine(1, kernels::corpus().front().Source));
  api::json::Value A;
  std::string Err;
  ASSERT_TRUE(api::json::parse(
      ask(Server, "{\"id\": 2, \"op\": \"shutdown\"}"), A, Err))
      << Err;
  EXPECT_TRUE(A.get("ok")->asBool());
  EXPECT_EQ(A.get("op")->asString(), "shutdown");
  ASSERT_NE(A.get("metrics"), nullptr);
  EXPECT_EQ(A.get("metrics")
                ->get("counters")
                ->get("omega_serve_requests_shutdown_total")
                ->asInt(),
            1);
  EXPECT_TRUE(Server.stopRequested());
  // Post-shutdown admissions still answer with the typed refusal.
  api::json::Value R;
  ASSERT_TRUE(
      api::json::parse(ask(Server, analyzeLine(3, "x")), R, Err));
  EXPECT_EQ(R.get("error")->get("code")->asString(), "shutdown");
}

TEST(ServeTelemetry, AccessLogDecomposesLatency) {
  std::string Log = testing::TempDir() + "metrics_test_access.jsonl";
  std::remove(Log.c_str());
  {
    api::AnalysisOptions Cfg;
    Cfg.ServeWorkers = 2;
    Cfg.AccessLogFile = Log;
    api::Server Server(Cfg);
    ask(Server, analyzeLine(1, kernels::corpus().front().Source));
    ask(Server, analyzeLine(2, "for i := broken"));
    Server.stop();
  }
  std::ifstream In(Log);
  ASSERT_TRUE(In.is_open());
  std::string Line;
  unsigned Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    api::json::Value V;
    std::string Err;
    ASSERT_TRUE(api::json::parse(Line, V, Err)) << Line << " -> " << Err;
    double Parts = V.get("queueWaitMs")->asNumber() +
                   V.get("parseMs")->asNumber() +
                   V.get("solveMs")->asNumber() +
                   V.get("serializeMs")->asNumber();
    // The decomposition covers disjoint sub-intervals of the total, and
    // every field truncates microseconds, so the sum can never exceed it.
    EXPECT_LE(Parts, V.get("totalMs")->asNumber() + 1e-9) << Line;
    EXPECT_FALSE(V.get("slow")->asBool());
    ASSERT_NE(V.get("code"), nullptr);
  }
  EXPECT_EQ(Lines, 2u);
  std::remove(Log.c_str());
}

TEST(ServeTelemetry, SlowRequestsAreTracedAndFlagged) {
  std::string Dir = testing::TempDir() + "metrics_test_traces";
  std::string Log = testing::TempDir() + "metrics_test_slow.jsonl";
  std::remove(Log.c_str());
  std::string Cmd = "rm -rf '" + Dir + "' && mkdir -p '" + Dir + "'";
  ASSERT_EQ(std::system(Cmd.c_str()), 0);
  std::string TraceFile;
  {
    api::AnalysisOptions Cfg;
    Cfg.ServeWorkers = 1;
    Cfg.AccessLogFile = Log;
    Cfg.SlowMs = 1; // a cold CHOLSKY analysis takes well over 1ms
    Cfg.SlowTraceDir = Dir;
    api::Server Server(Cfg);
    ask(Server, analyzeLine(1, kernels::corpus().front().Source));
    Server.stop();
  }
  std::ifstream In(Log);
  ASSERT_TRUE(In.is_open());
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  api::json::Value V;
  std::string Err;
  ASSERT_TRUE(api::json::parse(Line, V, Err)) << Err;
  EXPECT_TRUE(V.get("slow")->asBool());
  ASSERT_NE(V.get("traceFile"), nullptr) << Line;
  TraceFile = V.get("traceFile")->asString();
  std::ifstream Trace(TraceFile);
  ASSERT_TRUE(Trace.is_open()) << TraceFile;
  std::stringstream Buf;
  Buf << Trace.rdbuf();
  EXPECT_NE(Buf.str().find("traceEvents"), std::string::npos);
  std::remove(Log.c_str());
  ASSERT_EQ(std::system(("rm -rf '" + Dir + "'").c_str()), 0);
}

TEST(ServeTelemetry, MetricsFileIsWrittenAtomically) {
  std::string File = testing::TempDir() + "metrics_test.prom";
  std::remove(File.c_str());
  {
    api::AnalysisOptions Cfg;
    Cfg.ServeWorkers = 1;
    Cfg.MetricsFile = File;
    api::Server Server(Cfg);
    ask(Server, analyzeLine(1, kernels::corpus().front().Source));
    ask(Server, "{\"id\": 2, \"op\": \"metrics\"}");
    // The metrics op rewrote the exposition synchronously.
    std::ifstream In(File);
    ASSERT_TRUE(In.is_open());
    std::stringstream Buf;
    Buf << In.rdbuf();
    EXPECT_NE(Buf.str().find("omega_serve_requests_total 2\n"),
              std::string::npos);
    EXPECT_EQ(Buf.str().find(".tmp"), std::string::npos);
    Server.stop();
  }
  // stop() leaves a final exposition reflecting the drained state.
  std::ifstream In(File);
  ASSERT_TRUE(In.is_open());
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_NE(Buf.str().find("omega_serve_active_workers 0\n"),
            std::string::npos);
  std::remove(File.c_str());
}

} // namespace
