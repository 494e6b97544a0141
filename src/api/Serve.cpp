//===- api/Serve.cpp ------------------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "api/Serve.h"

#include "api/Json.h"
#include "api/Response.h"
#include "engine/WorkerPool.h"
#include "ir/Sema.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace omega;
using namespace omega::api;

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

namespace {

/// Default latency histogram boundaries in microseconds: tight resolution
/// where the corpus kernels live (sub-millisecond), decades above for
/// queue pressure and pathological requests. Config::LatencyBoundsUs
/// (--latency-buckets-us) overrides them.
const std::vector<uint64_t> DefaultLatencyBoundsUs = {
    100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000,
    1000000};

std::string isoTimestamp() {
  std::time_t T = std::chrono::system_clock::to_time_t(
      std::chrono::system_clock::now());
  std::tm Tm{};
  gmtime_r(&T, &Tm);
  char Buf[40];
  std::strftime(Buf, sizeof(Buf), "%Y-%m-%dT%H:%M:%SZ", &Tm);
  return Buf;
}

std::string msField(uint64_t Micros) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", static_cast<double>(Micros) / 1000.0);
  return Buf;
}

} // namespace

/// The server's instruments plus the access-log/exposition sinks. The
/// registry is always on -- recording is a handful of relaxed atomics per
/// request -- and the accounting discipline mirrors the paper's Figure 6:
/// every submit() increments requests_total and exactly one per-op
/// counter, every response increments exactly one per-code counter, and
/// the engine-fed counters accumulate each request's own attribution.
struct Server::Telemetry {
  obs::MetricsRegistry Registry;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();

  // One per submit().
  obs::Counter *RequestsTotal;
  // Exactly one of these per submit(): the dispatched op, or "invalid"
  // for lines rejected before dispatch (parse error, bad id, bad op).
  obs::Counter *ReqAnalyze, *ReqHealth, *ReqMetrics, *ReqShutdown,
      *ReqInvalid;
  // Exactly one of these per response line.
  obs::Counter *RespOk, *RespParseError, *RespBadRequest, *RespAnalysisError,
      *RespOverloaded, *RespDeadline, *RespShutdown;
  // Analyze requests answered ok (== solve/serialize histogram counts).
  obs::Counter *AnalyzeOk;
  // Analyze requests answered from a concurrent leader's solve instead of
  // their own engine run (a subset of AnalyzeOk).
  obs::Counter *ReqCoalesced;
  // Actual engine runs performed. The coalescing witness:
  // analyses_total + coalesced_total == analyze_ok at quiescence.
  obs::Counter *EngAnalyses;
  // Engine-fed: per-request attribution summed into process totals.
  obs::Counter *EngSatCalls, *EngQuickDecided, *StoreHits, *StoreMisses,
      *StoreEvictions;

  obs::Gauge *QueueDepth, *ActiveWorkers, *ResultStoreEntries;

  obs::Histogram *QueueWaitUs, *ParseUs, *SolveUs, *SerializeUs, *RequestUs;

  std::mutex AccessMu;
  std::ofstream AccessLog;
  /// Bytes written to the current access-log file (rotation trigger);
  /// guarded by AccessMu.
  uint64_t AccessLogBytes = 0;
  std::mutex FileMu;
  std::atomic<uint64_t> SlowSeq{0};
  std::atomic<uint64_t> Completed{0};

  explicit Telemetry(const std::vector<uint64_t> &LatencyBoundsUs) {
    auto C = [&](const char *Name, const char *Help) {
      return Registry.counter(Name, Help);
    };
    RequestsTotal = C("omega_serve_requests_total",
                      "Request lines submitted (every op and every "
                      "malformed line)");
    ReqAnalyze = C("omega_serve_requests_analyze_total",
                   "Requests dispatched as the analyze op");
    ReqHealth = C("omega_serve_requests_health_total",
                  "Requests dispatched as the health op");
    ReqMetrics = C("omega_serve_requests_metrics_total",
                   "Requests dispatched as the metrics op");
    ReqShutdown = C("omega_serve_requests_shutdown_total",
                    "Requests dispatched as the shutdown op");
    ReqInvalid = C("omega_serve_requests_invalid_total",
                   "Lines rejected before dispatch (parse error, bad id, "
                   "unknown op)");
    RespOk = C("omega_serve_responses_ok_total", "Responses with ok=true");
    RespParseError = C("omega_serve_responses_parse_error_total",
                       "parse_error responses");
    RespBadRequest = C("omega_serve_responses_bad_request_total",
                       "bad_request responses");
    RespAnalysisError = C("omega_serve_responses_analysis_error_total",
                          "analysis_error responses");
    RespOverloaded = C("omega_serve_responses_overloaded_total",
                       "overloaded responses (queue full)");
    RespDeadline = C("omega_serve_responses_deadline_exceeded_total",
                     "deadline_exceeded responses");
    RespShutdown = C("omega_serve_responses_shutdown_total",
                     "shutdown responses (admission refused while "
                     "stopping)");
    AnalyzeOk = C("omega_serve_analyze_ok_total",
                  "Analyze requests answered with a result");
    ReqCoalesced = C("omega_serve_requests_coalesced_total",
                     "Analyze requests answered from a concurrent "
                     "identical request's solve");
    EngAnalyses = C("omega_engine_analyses_total",
                    "Engine analysis runs actually performed");
    EngSatCalls = C("omega_engine_sat_calls_total",
                    "Satisfiability calls made by worker engines");
    EngQuickDecided = C("omega_engine_quicktest_decided_total",
                        "Pair queries decided by the ZIV/GCD/bounds "
                        "pre-filter");
    StoreHits = C("omega_result_store_hits_total",
                  "Pair/kill-group solves materialized from the result "
                  "store");
    StoreMisses = C("omega_result_store_misses_total",
                    "Result-store consultations that had to solve");
    StoreEvictions = C("omega_result_store_evictions_total",
                       "Result-store entries LRU-evicted at capacity");

    auto G = [&](const char *Name, const char *Help) {
      return Registry.gauge(Name, Help);
    };
    QueueDepth = G("omega_serve_queue_depth",
                   "Requests admitted but not yet claimed by a worker");
    ActiveWorkers = G("omega_serve_active_workers",
                      "Workers currently running a request");
    ResultStoreEntries = G("omega_result_store_entries",
                           "Solved outcomes resident in the result "
                           "store");

    auto H = [&](const char *Name, const char *Help) {
      return Registry.histogram(Name, Help, LatencyBoundsUs);
    };
    QueueWaitUs = H("omega_serve_queue_wait_us",
                    "Admission-to-dequeue wait per run request");
    ParseUs = H("omega_serve_parse_us",
                "Source parse+sema time per run request");
    SolveUs = H("omega_serve_solve_us",
                "Engine analysis time per ok request");
    SerializeUs = H("omega_serve_serialize_us",
                    "Response rendering time per ok request");
    RequestUs = H("omega_serve_request_us",
                  "Admission-to-response total per run request");
  }

  obs::Counter *codeCounter(const std::string &Code) {
    if (Code == "ok")
      return RespOk;
    if (Code == "parse_error")
      return RespParseError;
    if (Code == "bad_request")
      return RespBadRequest;
    if (Code == "analysis_error")
      return RespAnalysisError;
    if (Code == "overloaded")
      return RespOverloaded;
    if (Code == "deadline_exceeded")
      return RespDeadline;
    return RespShutdown;
  }
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Server::Server(const Config &C) : Cfg(C), Store(C.ResultStoreCap) {
  Tele = std::make_unique<Telemetry>(Cfg.LatencyBoundsUs.empty()
                                         ? DefaultLatencyBoundsUs
                                         : Cfg.LatencyBoundsUs);
  auto Note = [&](const std::string &S) {
    if (!StartupNote.empty())
      StartupNote += "; ";
    StartupNote += S;
  };
  if (!Cfg.ResultCacheFile.empty()) {
    // A missing file is the normal first boot; anything else that fails
    // to load is corruption or version skew, warned and cold-started
    // (deserialize left the store empty -- never a wrong answer).
    std::ifstream Probe(Cfg.ResultCacheFile, std::ios::binary);
    std::string Err;
    if (!Probe.is_open())
      Note("result store cold start: no file at " + Cfg.ResultCacheFile);
    else if (Probe.close(), Store.loadFile(Cfg.ResultCacheFile, &Err))
      Note("result store warm start: loaded " + std::to_string(Store.size()) +
           " entries from " + Cfg.ResultCacheFile);
    else
      Note("result store cold start: " + Err);
  }

  if (!Cfg.AccessLog.empty()) {
    Tele->AccessLog.open(Cfg.AccessLog, std::ios::app);
    if (!Tele->AccessLog.is_open()) {
      Note("access log unavailable: cannot open " + Cfg.AccessLog);
    } else {
      // Appending to an existing file: rotation measures total file size,
      // so start the byte counter at the current end.
      std::ofstream::pos_type End = Tele->AccessLog.tellp();
      Tele->AccessLogBytes =
          End > 0 ? static_cast<uint64_t>(End) : 0;
    }
  }

  if (Cfg.Workers == 0)
    Cfg.Workers = 1;
  engine::AnalysisRequest Base = Cfg.Defaults.toEngineRequest();
  // The engines run side by side, so "every usable core" means an equal
  // share of them each.
  Base.Jobs = engine::resolveJobs(Base.Jobs, Cfg.Workers);
  Base.Store = &Store;
  for (unsigned I = 0; I != Cfg.Workers; ++I)
    Engines.push_back(std::make_unique<engine::DependenceEngine>(Base));
  for (unsigned I = 0; I != Cfg.Workers; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

Server::~Server() { stop(); }

/// One accepted connection. The fd closes when the last holder -- the
/// reader thread or an in-flight response callback -- drops its reference,
/// so a response can never write to a recycled descriptor.
struct Server::Conn {
  int Fd;
  std::mutex WriteMu;

  explicit Conn(int Fd) : Fd(Fd) {}
  ~Conn() { ::close(Fd); }

  void writeLine(std::string S) {
    S += '\n';
    std::lock_guard<std::mutex> Lock(WriteMu);
    std::size_t Off = 0;
    while (Off < S.size()) {
      ssize_t N = ::send(Fd, S.data() + Off, S.size() - Off, MSG_NOSIGNAL);
      if (N <= 0)
        return; // peer went away; the request was still fully processed
      Off += static_cast<std::size_t>(N);
    }
  }
};

void Server::requestStop() {
  StopFlag.store(true);
  // Unblock a socket accept loop (shutdown on a listening socket makes
  // accept() return) and any connection readers.
  int Fd = ListenFd.exchange(-1);
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
  std::lock_guard<std::mutex> Lock(ConnsMu);
  for (const std::weak_ptr<Conn> &W : Conns)
    if (std::shared_ptr<Conn> C = W.lock())
      ::shutdown(C->Fd, SHUT_RD);
}

void Server::stop() {
  requestStop();
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    if (Stopped)
      return;
    Stopped = true;
    Draining = true;
  }
  QueueCV.notify_all();
  for (std::thread &T : Workers)
    T.join();
  Workers.clear();
  if (!Cfg.ResultCacheFile.empty()) {
    // tmp+rename: a crash mid-save leaves the previous generation intact,
    // never a torn file.
    std::string Tmp = Cfg.ResultCacheFile + ".tmp";
    if (Store.saveFile(Tmp, nullptr))
      std::rename(Tmp.c_str(), Cfg.ResultCacheFile.c_str());
    else
      std::remove(Tmp.c_str());
  }
  writeMetricsFile(); // final exposition reflects the fully drained state
  if (Tele->AccessLog.is_open())
    Tele->AccessLog.flush();
}

//===----------------------------------------------------------------------===//
// Admission
//===----------------------------------------------------------------------===//

void Server::submit(std::string Line,
                    std::function<void(std::string)> Respond) {
  Tele->RequestsTotal->add();

  json::Value Doc;
  std::string Err;
  if (!json::parse(Line, Doc, Err) || !Doc.isObject()) {
    Tele->ReqInvalid->add();
    Tele->RespParseError->add();
    Respond(renderServerError(false, 0, "parse_error",
                              Err.empty() ? "request is not a JSON object"
                                          : Err));
    return;
  }

  bool HasId = false;
  uint64_t Id = 0;
  if (const json::Value *V = Doc.get("id")) {
    // Range-check before the cast: a double beyond 2^64 has no uint64_t.
    if (!V->isNumber() || !(V->asNumber() >= 0 && V->asNumber() < 0x1p64)) {
      Tele->ReqInvalid->add();
      Tele->RespBadRequest->add();
      Respond(renderServerError(false, 0, "bad_request",
                                "\"id\" must be a non-negative number "
                                "below 2^64"));
      return;
    }
    HasId = true;
    Id = static_cast<uint64_t>(V->asNumber());
  }
  auto Fail = [&](const char *Code, const std::string &Message) {
    Tele->codeCounter(Code)->add();
    Respond(renderServerError(HasId, Id, Code, Message));
  };

  std::string Op = "analyze";
  if (const json::Value *V = Doc.get("op")) {
    if (!V->isString()) {
      Tele->ReqInvalid->add();
      return Fail("bad_request", "\"op\" must be a string");
    }
    Op = V->asString();
  }
  // The telemetry ops answer synchronously, bypassing the queue: an
  // operator probing a saturated server still gets an answer. Each op
  // counts its own request and response before snapshotting, so the
  // numbers it reports already include it and the per-op/per-code sums
  // equal requests_total inside every snapshot.
  if (Op == "health") {
    Tele->ReqHealth->add();
    Tele->RespOk->add();
    Respond(renderServerOp(HasId, Id, "health", "health", healthBody()));
    return;
  }
  if (Op == "metrics") {
    Tele->ReqMetrics->add();
    bool Reset = false;
    if (const json::Value *V = Doc.get("reset")) {
      if (!V->isBool())
        return Fail("bad_request", "\"reset\" must be a boolean");
      Reset = V->asBool();
    }
    Tele->RespOk->add();
    // The response always carries the PRE-reset snapshot (including this
    // request's own counts), so a measurement window reads its totals and
    // zeroes the instruments in one round trip. Gauges are levels and
    // survive the reset; the exposition file is rewritten after it, so
    // scrapers see the fresh window.
    std::string Body = metricsBody();
    if (Reset)
      Tele->Registry.reset();
    Respond(renderServerOp(HasId, Id, "metrics", "metrics", Body));
    writeMetricsFile();
    return;
  }
  if (Op == "shutdown") {
    Tele->ReqShutdown->add();
    Tele->RespOk->add();
    // The acknowledgment carries the final metrics snapshot: a client
    // that stops the server gets the process totals with the last
    // response line.
    Respond(renderServerOp(HasId, Id, "shutdown", "metrics", metricsBody()));
    requestStop();
    return;
  }
  if (Op != "analyze") {
    Tele->ReqInvalid->add();
    return Fail("bad_request", "unknown op \"" + Op + "\"");
  }
  Tele->ReqAnalyze->add();

  Request R;
  R.HasId = HasId;
  R.Id = Id;
  const json::Value *Src = Doc.get("source");
  if (!Src || !Src->isString())
    return Fail("bad_request", "\"source\" must be a string");
  R.Source = Src->asString();

  // "session" is a client label: validated and access-logged only.
  if (const json::Value *V = Doc.get("session")) {
    if (!V->isString())
      return Fail("bad_request", "\"session\" must be a string");
    R.Session = V->asString();
    if (R.Session.empty())
      return Fail("bad_request", "\"session\" must be non-empty");
  }

  R.Opts = Cfg.Defaults;
  if (const json::Value *O = Doc.get("options")) {
    if (!O->isObject())
      return Fail("bad_request", "\"options\" must be an object");
    if (!optionsFromJson(*O, R.Opts, Err))
      return Fail("bad_request", Err);
  }

  uint64_t DeadlineMs = Cfg.DeadlineMs;
  if (const json::Value *V = Doc.get("deadlineMs")) {
    double Ms = V->isNumber() ? V->asNumber() : -1;
    if (!(Ms >= 0 && Ms <= static_cast<double>(MaxDeadlineMs)))
      return Fail("bad_request", "\"deadlineMs\" must be a number in [0, " +
                                     std::to_string(MaxDeadlineMs) + "]");
    DeadlineMs = static_cast<uint64_t>(Ms);
  }
  if (DeadlineMs != 0) {
    R.HasDeadline = true;
    R.Deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(DeadlineMs);
  }
  R.Respond = std::move(Respond);
  R.Admitted = std::chrono::steady_clock::now();

  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    if (Draining || StopFlag.load()) {
      Tele->RespShutdown->add();
      R.Respond(renderServerError(HasId, Id, "shutdown", "server stopping"));
      return;
    }
    if (Queue.size() >= Cfg.MaxQueue) {
      Tele->RespOverloaded->add();
      R.Respond(renderServerError(
          HasId, Id, "overloaded",
          "queue full (" + std::to_string(Cfg.MaxQueue) + " requests)"));
      return;
    }
    Queue.push_back(std::move(R));
    Tele->QueueDepth->add(1);
  }
  QueueCV.notify_one();
}

//===----------------------------------------------------------------------===//
// Workers
//===----------------------------------------------------------------------===//

void Server::workerLoop(unsigned Index) {
  while (true) {
    Request R;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCV.wait(Lock, [&] { return !Queue.empty() || Draining; });
      if (Queue.empty())
        return; // draining and nothing left
      R = std::move(Queue.front());
      Queue.pop_front();
      Tele->QueueDepth->add(-1);
    }
    Tele->ActiveWorkers->add(1);
    runOne(R, Index);
    Tele->ActiveWorkers->add(-1);
    uint64_t Done =
        Tele->Completed.fetch_add(1, std::memory_order_relaxed) + 1;
    if (!Cfg.MetricsFile.empty() && Done % 64 == 0)
      writeMetricsFile();
  }
}

namespace {

struct RequestTimings {
  uint64_t QueueWaitUs = 0;
  uint64_t ParseUs = 0;
  uint64_t SolveUs = 0;
  uint64_t SerializeUs = 0;
  uint64_t TotalUs = 0;
};

struct AccessRecord {
  const char *Code = "ok";
  unsigned Worker = 0;
  unsigned Jobs = 0;
  uint64_t SatCalls = 0;
  bool Coalesced = false;
  bool Slow = false;
  std::string TraceFile;
};

uint64_t elapsedUs(std::chrono::steady_clock::time_point From,
                   std::chrono::steady_clock::time_point To) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(To - From)
          .count());
}

/// The singleflight identity of an analyze request: every
/// option that flows into the engine run or the response document, plus
/// the source. Two requests with equal keys produce byte-identical
/// "result" sections (the engine's determinism guarantee), so they may
/// share one solve.
std::string coalesceKey(const AnalysisOptions &O, const std::string &Source) {
  std::string K;
  auto B = [&K](bool V) { K += V ? '1' : '0'; };
  B(O.Refine);
  B(O.Cover);
  B(O.Kill);
  B(O.QuickTests);
  B(O.Terminate);
  B(O.PairQuickTests);
  B(O.Pipeline);
  K += '|';
  K += std::to_string(O.Jobs);
  K += '\n';
  K += Source;
  return K;
}

} // namespace

void Server::runOne(Request &R, unsigned Index) {
  using Clock = std::chrono::steady_clock;
  RequestTimings T;
  AccessRecord Rec;
  Rec.Worker = Index;
  T.QueueWaitUs = elapsedUs(R.Admitted, Clock::now());

  // One access-log line per request that reached a worker (coalesced
  // followers included), written (like all accounting) before Respond so
  // a client that has seen the response can rely on the record existing.
  auto LogAccess = [&](const Request &Req, const AccessRecord &Rc,
                       const RequestTimings &Tm) {
    if (!Tele->AccessLog.is_open())
      return;
    std::string L = "{\"ts\": \"" + isoTimestamp() + "\", \"id\": " +
                    (Req.HasId ? std::to_string(Req.Id) : "null") +
                    ", \"session\": ";
    L += Req.Session.empty() ? "null"
                             : "\"" + json::escape(Req.Session) + "\"";
    L += std::string(", \"code\": \"") + Rc.Code + "\"";
    L += ", \"worker\": " + std::to_string(Rc.Worker);
    L += ", \"jobs\": " + std::to_string(Rc.Jobs);
    L += ", \"queueWaitMs\": " + msField(Tm.QueueWaitUs);
    L += ", \"parseMs\": " + msField(Tm.ParseUs);
    L += ", \"solveMs\": " + msField(Tm.SolveUs);
    L += ", \"serializeMs\": " + msField(Tm.SerializeUs);
    L += ", \"totalMs\": " + msField(Tm.TotalUs);
    L += ", \"satCalls\": " + std::to_string(Rc.SatCalls);
    L += std::string(", \"coalesced\": ") + (Rc.Coalesced ? "true" : "false");
    L += std::string(", \"slow\": ") + (Rc.Slow ? "true" : "false");
    if (!Rc.TraceFile.empty())
      L += ", \"traceFile\": \"" + json::escape(Rc.TraceFile) + "\"";
    L += "}";
    logAccessLine(L);
  };

  if (R.HasDeadline && Clock::now() >= R.Deadline) {
    T.TotalUs = elapsedUs(R.Admitted, Clock::now());
    Rec.Code = "deadline_exceeded";
    Tele->RespDeadline->add();
    LogAccess(R, Rec, T);
    R.Respond(renderServerError(R.HasId, R.Id, "deadline_exceeded",
                                "deadline passed while queued"));
    return;
  }

  // Singleflight: an analyze request that matches a solve already in
  // flight parks on it as a follower and frees this worker slot
  // immediately; the leader answers it (under the follower's own id) when
  // the shared solve completes.
  bool Leader = false;
  std::string CKey;
  if (Cfg.Coalesce) {
    CKey = coalesceKey(R.Opts, R.Source);
    std::lock_guard<std::mutex> Lock(CoalesceMu);
    auto It = Inflight.find(CKey);
    if (It != Inflight.end()) {
      It->second.Waiters.push_back(Waiter{std::move(R), T.QueueWaitUs});
      return;
    }
    Inflight.emplace(CKey, InflightEntry{});
    Leader = true;
  }
  // Collects (and detaches) the followers parked on this leader. Runs
  // after the leader's outcome is known: a request arriving later finds
  // no in-flight entry and becomes a fresh leader.
  auto TakeFollowers = [&] {
    std::vector<Waiter> Fs;
    if (Leader) {
      std::lock_guard<std::mutex> Lock(CoalesceMu);
      auto It = Inflight.find(CKey);
      if (It != Inflight.end()) {
        Fs = std::move(It->second.Waiters);
        Inflight.erase(It);
      }
    }
    return Fs;
  };

  auto ParseStart = Clock::now();
  ir::AnalyzedProgram AP = ir::analyzeSource(R.Source);
  T.ParseUs = elapsedUs(ParseStart, Clock::now());
  if (!AP.ok()) {
    std::string Msg;
    for (const ir::Diagnostic &D : AP.Diags) {
      if (!Msg.empty())
        Msg += "; ";
      Msg += D.toString();
    }
    T.TotalUs = elapsedUs(R.Admitted, Clock::now());
    Rec.Code = "analysis_error";
    Tele->QueueWaitUs->observe(T.QueueWaitUs);
    Tele->ParseUs->observe(T.ParseUs);
    Tele->RequestUs->observe(T.TotalUs);
    Tele->RespAnalysisError->add();
    LogAccess(R, Rec, T);
    R.Respond(renderServerError(R.HasId, R.Id, "analysis_error", Msg));
    // Followers share the leader's verdict: the source is identical, so
    // it fails identically. Each gets its own error line and accounting.
    for (Waiter &W : TakeFollowers()) {
      RequestTimings FT;
      FT.QueueWaitUs = W.QueueWaitUs;
      FT.TotalUs = elapsedUs(W.R.Admitted, Clock::now());
      AccessRecord FRec;
      FRec.Code = "analysis_error";
      FRec.Worker = Index;
      FRec.Coalesced = true;
      Tele->ReqCoalesced->add();
      Tele->QueueWaitUs->observe(FT.QueueWaitUs);
      Tele->ParseUs->observe(FT.ParseUs);
      Tele->RequestUs->observe(FT.TotalUs);
      Tele->RespAnalysisError->add();
      LogAccess(W.R, FRec, FT);
      W.R.Respond(renderServerError(W.R.HasId, W.R.Id, "analysis_error",
                                    Msg));
    }
    return;
  }

  engine::DependenceEngine &Engine = *Engines[Index];
  engine::AnalysisRequest EReq = R.Opts.toEngineRequest();
  // Every run consults and feeds the result store.
  EReq.Store = &Store;
  Engine.applyOptions(EReq);

  // Slow-request capture: attach a per-request tracer to the (otherwise
  // trace-disabled) engine, keep the trace only when the request turns
  // out slow. Tracing is result-invisible; it costs only when --slow-ms
  // is set.
  std::optional<obs::Tracer> Tracer;
  if (Cfg.SlowMs > 0) {
    Tracer.emplace();
    Engine.setTracer(&*Tracer);
  }

  auto Start = Clock::now();
  engine::AnalysisResult Result = Engine.analyze(AP);
  T.SolveUs = elapsedUs(Start, Clock::now());
  Tele->EngAnalyses->add();
  if (Tracer)
    Engine.setTracer(nullptr);
  double WallMs = static_cast<double>(T.SolveUs) / 1000.0;

  auto SerializeStart = Clock::now();
  std::string ResultJson =
      renderResult(Result, R.Opts.Pipeline ? &AP : nullptr);
  std::string Metrics = renderMetrics(Result, Engine.jobs(), WallMs,
                                      /*ProfileJson=*/"", /*ExplainLog=*/"");
  std::string Line = renderServerOk(R.Id, ResultJson, Metrics);
  T.SerializeUs = elapsedUs(SerializeStart, Clock::now());
  T.TotalUs = elapsedUs(R.Admitted, Clock::now());

  // Engine-fed attribution: this run's own counters, not global deltas
  // (concurrent requests would otherwise charge each other).
  Tele->EngSatCalls->add(Result.Stats.SatisfiabilityCalls);
  Tele->EngQuickDecided->add(Result.Stats.QuickTestDecided);
  Tele->StoreHits->add(Result.Stats.ResultStoreHits);
  Tele->StoreMisses->add(Result.Stats.ResultStoreMisses);
  Tele->StoreEvictions->add(Result.Stats.ResultStoreEvictions);

  Tele->QueueWaitUs->observe(T.QueueWaitUs);
  Tele->ParseUs->observe(T.ParseUs);
  Tele->SolveUs->observe(T.SolveUs);
  Tele->SerializeUs->observe(T.SerializeUs);
  Tele->RequestUs->observe(T.TotalUs);
  Tele->AnalyzeOk->add();
  Tele->RespOk->add();

  Rec.Jobs = Engine.jobs();
  Rec.SatCalls = Result.Stats.SatisfiabilityCalls;
  Rec.Slow = Cfg.SlowMs > 0 && T.TotalUs >= Cfg.SlowMs * 1000;
  if (Rec.Slow && Tracer && !Cfg.SlowTraceDir.empty()) {
    uint64_t Seq = Tele->SlowSeq.fetch_add(1, std::memory_order_relaxed);
    std::string Path = Cfg.SlowTraceDir + "/slow-" + std::to_string(Seq) +
                       "-" + std::to_string(R.HasId ? R.Id : 0) +
                       ".trace.json";
    std::ofstream Out(Path, std::ios::trunc);
    if (Out.is_open()) {
      Out << Tracer->chromeTraceJson();
      Rec.TraceFile = Path;
    }
  }
  LogAccess(R, Rec, T);
  R.Respond(std::move(Line));

  // Answer the coalesced followers from the shared solve. Each follower
  // gets the leader's byte-identical "result" section under its own id,
  // with a metrics block showing zero engine work (the leader already
  // attributed it; double-counting would break the analyses + coalesced
  // == analyze_ok witness).
  for (Waiter &W : TakeFollowers()) {
    auto FSerializeStart = Clock::now();
    engine::AnalysisResult Blank;
    std::string FMetrics =
        renderMetrics(Blank, Rec.Jobs, WallMs, /*ProfileJson=*/"",
                      /*ExplainLog=*/"");
    std::string FLine = renderServerOk(W.R.Id, ResultJson, FMetrics);
    RequestTimings FT;
    FT.QueueWaitUs = W.QueueWaitUs;
    FT.SolveUs = T.SolveUs; // the shared solve IS this request's solve
    FT.SerializeUs = elapsedUs(FSerializeStart, Clock::now());
    FT.TotalUs = elapsedUs(W.R.Admitted, Clock::now());
    AccessRecord FRec;
    FRec.Worker = Index;
    FRec.Jobs = Rec.Jobs;
    FRec.Coalesced = true;
    Tele->ReqCoalesced->add();
    Tele->QueueWaitUs->observe(FT.QueueWaitUs);
    Tele->ParseUs->observe(FT.ParseUs);
    Tele->SolveUs->observe(FT.SolveUs);
    Tele->SerializeUs->observe(FT.SerializeUs);
    Tele->RequestUs->observe(FT.TotalUs);
    Tele->AnalyzeOk->add();
    Tele->RespOk->add();
    LogAccess(W.R, FRec, FT);
    W.R.Respond(std::move(FLine));
  }
}

void Server::logAccessLine(const std::string &Line) {
  std::lock_guard<std::mutex> Lock(Tele->AccessMu);
  if (!Tele->AccessLog.is_open())
    return;
  // Buffered, not flushed per line: stop() flushes, so by the time the
  // process (or an in-process reader that called stop()) looks at the
  // file, every record is there. Crash loss is bounded by one buffer.
  Tele->AccessLog << Line << "\n";
  Tele->AccessLogBytes += Line.size() + 1;
  if (Cfg.AccessLogMaxMB == 0 ||
      Tele->AccessLogBytes < (Cfg.AccessLogMaxMB << 20))
    return;
  // Size-based rotation: flush everything buffered (records are written
  // whole under AccessMu, so the renamed file never ends mid-line),
  // move the file to PATH.1 (replacing the previous rotation), and open
  // a fresh PATH. On reopen failure the log goes quiet rather than
  // crashing the server.
  Tele->AccessLog.flush();
  Tele->AccessLog.close();
  std::string Rotated = Cfg.AccessLog + ".1";
  std::rename(Cfg.AccessLog.c_str(), Rotated.c_str());
  Tele->AccessLog.open(Cfg.AccessLog, std::ios::trunc);
  Tele->AccessLogBytes = 0;
}

//===----------------------------------------------------------------------===//
// Telemetry exposition
//===----------------------------------------------------------------------===//

obs::MetricsSnapshot Server::metricsSnapshot() const {
  // Sampled gauge: refreshed here rather than maintained inline, since
  // store occupancy only changes inside engine runs that don't know about
  // the server's registry.
  obs::set(Tele->ResultStoreEntries, static_cast<int64_t>(Store.size()));
  return Tele->Registry.snapshot();
}

std::string Server::metricsBody() const {
  obs::MetricsSnapshot S = metricsSnapshot();
  uint64_t UptimeMs = elapsedUs(Tele->Epoch, std::chrono::steady_clock::now()) /
                      1000;
  // metricsJson renders {"counters": ..., "gauges": ..., "histograms":
  // ...}; splice its members into the op body alongside uptime and the
  // result store's own counters.
  std::string Inner = obs::metricsJson(S);
  std::string Out = "{\"uptimeMs\": " + std::to_string(UptimeMs) + ", ";
  Out += Inner.substr(1, Inner.size() - 2);
  // The store's own lifetime counters (lookup-level, unlike the
  // engine-attributed registry totals, which count materializations).
  engine::ResultStoreStats RS = Store.stats();
  Out += ", \"resultStore\": {\"hits\": " + std::to_string(RS.Hits) +
         ", \"misses\": " + std::to_string(RS.Misses) +
         ", \"evictions\": " + std::to_string(RS.Evictions) +
         ", \"entries\": " + std::to_string(RS.Entries) + "}}";
  return Out;
}

std::string Server::healthBody() const {
  std::size_t Depth;
  bool Stopping;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Depth = Queue.size();
    Stopping = Draining || StopFlag.load();
  }
  uint64_t UptimeMs = elapsedUs(Tele->Epoch, std::chrono::steady_clock::now()) /
                      1000;
  std::string Out = std::string("{\"status\": \"") +
                    (Stopping ? "draining" : "ok") + "\"";
  Out += ", \"workers\": " + std::to_string(Cfg.Workers);
  Out += ", \"activeWorkers\": " +
         std::to_string(Tele->ActiveWorkers->value());
  Out += ", \"queueDepth\": " + std::to_string(Depth);
  Out += ", \"queueCapacity\": " + std::to_string(Cfg.MaxQueue);
  Out += ", \"uptimeMs\": " + std::to_string(UptimeMs);
  Out += ", \"requestsTotal\": " +
         std::to_string(Tele->RequestsTotal->value());
  Out += ", \"resultStoreEntries\": " + std::to_string(Store.size());
  Out += ", \"cacheNote\": \"" + json::escape(StartupNote) + "\"}";
  return Out;
}

void Server::writeMetricsFile() {
  if (Cfg.MetricsFile.empty())
    return;
  std::string Text = obs::prometheusText(metricsSnapshot());
  // Atomic rewrite, same pattern as the result-store save: a scraper never
  // sees a torn exposition.
  std::lock_guard<std::mutex> Lock(Tele->FileMu);
  std::string Tmp = Cfg.MetricsFile + ".tmp";
  std::ofstream Out(Tmp, std::ios::trunc);
  if (Out.is_open()) {
    Out << Text;
    Out.close();
    std::rename(Tmp.c_str(), Cfg.MetricsFile.c_str());
  } else {
    std::remove(Tmp.c_str());
  }
}

//===----------------------------------------------------------------------===//
// stdin JSONL mode
//===----------------------------------------------------------------------===//

int Server::runStdin(std::istream &In, std::ostream &Out) {
  std::mutex WriteMu;
  std::string Line;
  while (!stopRequested() && std::getline(In, Line)) {
    if (Line.empty())
      continue;
    submit(std::move(Line), [&WriteMu, &Out](std::string Resp) {
      std::lock_guard<std::mutex> Lock(WriteMu);
      Out << Resp << "\n";
      Out.flush();
    });
    Line.clear();
  }
  stop(); // drains: every submitted request is answered before we return
  return 0;
}

//===----------------------------------------------------------------------===//
// Unix socket mode
//===----------------------------------------------------------------------===//

int Server::runSocket(const std::string &Path, std::ostream &Log) {
  if (Path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    Log << "error: socket path too long: " << Path << "\n";
    stop();
    return 1;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Log << "error: socket(): " << std::strerror(errno) << "\n";
    stop();
    return 1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  Path.copy(Addr.sun_path, sizeof(Addr.sun_path) - 1);
  ::unlink(Path.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 64) < 0) {
    Log << "error: bind/listen on " << Path << ": " << std::strerror(errno)
        << "\n";
    ::close(Fd);
    stop();
    return 1;
  }
  ListenFd.store(Fd);
  Log << "omega-serve: listening on " << Path << "\n";
  Log.flush();

  std::vector<std::thread> Readers;
  while (true) {
    int CFd = ::accept(Fd, nullptr, nullptr);
    if (CFd < 0)
      break; // requestStop() shut the listening socket down
    auto C = std::make_shared<Conn>(CFd);
    {
      std::lock_guard<std::mutex> Lock(ConnsMu);
      Conns.erase(std::remove_if(Conns.begin(), Conns.end(),
                                 [](const std::weak_ptr<Conn> &W) {
                                   return W.expired();
                                 }),
                  Conns.end());
      Conns.push_back(C);
    }
    Readers.emplace_back([this, C] {
      std::string Buf;
      char Chunk[4096];
      while (true) {
        ssize_t N = ::recv(C->Fd, Chunk, sizeof(Chunk), 0);
        if (N <= 0)
          break;
        Buf.append(Chunk, static_cast<std::size_t>(N));
        std::size_t Pos;
        while ((Pos = Buf.find('\n')) != std::string::npos) {
          std::string Line = Buf.substr(0, Pos);
          Buf.erase(0, Pos + 1);
          if (Line.empty())
            continue;
          submit(std::move(Line),
                 [C](std::string Resp) { C->writeLine(std::move(Resp)); });
        }
      }
    });
  }
  int Listen = ListenFd.exchange(-1);
  if (Listen >= 0)
    ::close(Listen);
  else
    ::close(Fd);
  for (std::thread &T : Readers)
    T.join();
  stop(); // in-flight responses still reach their Conn via shared_ptr
  ::unlink(Path.c_str());
  return 0;
}
