//===- api/Serve.h - The analysis server ----------------------------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// omega-serve's core: a long-running analysis service that admits many
/// programs concurrently and reuses solved pair outcomes across requests.
/// The protocol is JSONL -- one request object per line, one
/// response object per line -- over stdin/stdout or a Unix domain socket:
///
///   {"id": 1, "source": "for i = 1 to n { a[i] = a[i-1]; }",
///    "options": {"quicktests": false}, "deadlineMs": 500}
///
/// Responses are schema-6 documents (api/Response.h) with the request id
/// spliced in; `{"id": 2, "op": "shutdown"}` stops the server. Because
/// the engine's structural result is deterministic for every Jobs value
/// and reuse state, a server response's "result" section is byte-identical
/// to a one-shot `omega-analyze --json` run of the same program -- warm
/// or cold, interleaved with any other clients.
///
/// Architecture: N worker threads, each owning a private DependenceEngine
/// (an engine run is not reentrant). Admission control is a bounded queue:
/// submissions beyond MaxQueue are shed immediately with an "overloaded"
/// error, and a request whose deadline passed while queued is answered
/// "deadline_exceeded" instead of being run.
///
/// Reuse: one engine::ResultStore (fingerprint-keyed solved outcomes,
/// shared by all workers, persisted via Config::ResultCacheFile) lets any
/// request -- a first request, an edit of an earlier program, or one
/// after a restart -- materialize the pair and kill groups a structurally
/// identical program solved before, so re-analyzing an edit solves only
/// what the edit touched. In-flight request coalescing (singleflight)
/// merges concurrent requests with identical source and options: one
/// leader solves, the followers' worker slots are freed immediately, and
/// the leader answers every follower with the shared result document
/// under each follower's own id. Both are result-invisible by the same
/// byte-identity gate.
///
/// A request may carry a "session" string: a client label, validated
/// (non-empty string) and written to the access log, with no effect on
/// how the request runs.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_API_SERVE_H
#define OMEGA_API_SERVE_H

#include "api/Options.h"
#include "engine/ResultStore.h"
#include "obs/Metrics.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace omega {

namespace api {

class Server {
public:
  struct Config {
    /// Per-request option defaults (a request's "options" object overlays
    /// these). Jobs is each worker engine's slot count; 0 gives each
    /// engine max(1, usable cores / Workers).
    AnalysisOptions Defaults;
    /// Concurrent worker engines (= requests in flight).
    unsigned Workers = 4;
    /// Admission bound: queued-but-unstarted requests beyond this are shed
    /// with an "overloaded" error.
    std::size_t MaxQueue = 64;
    /// Default per-request deadline in milliseconds, measured from
    /// admission; 0 means none. A request's "deadlineMs" overrides it.
    std::uint64_t DeadlineMs = 0;
    /// Result-store persistence file: loaded (if present and valid) at
    /// construction -- corruption warns and cold-starts -- and saved
    /// atomically at stop(). Empty disables persistence (the in-memory
    /// store still runs).
    std::string ResultCacheFile;
    /// Result-store entry bound (0 = unbounded), LRU-evicted beyond it.
    std::size_t ResultStoreCap = engine::ResultStore::DefaultCapacity;
    /// In-flight coalescing: concurrent analyze requests with identical
    /// source and options share one engine solve.
    bool Coalesce = true;

    // -- telemetry sinks (the registry itself is always on; recording is
    // -- a few relaxed atomics per request and never touches results) ----
    /// Prometheus text-format exposition file, rewritten atomically
    /// (tmp + rename) on every metrics op, every 64th completed request,
    /// and at stop(). Empty disables the file.
    std::string MetricsFile;
    /// JSONL access log: one record per analyzed request (latency
    /// decomposition, sat calls, response code). Empty disables it.
    std::string AccessLog;
    /// Slow-request threshold in milliseconds: requests at or above it
    /// are traced (a per-request obs::Tracer attached to the worker's
    /// engine) and flagged "slow" in the access log. 0 disables capture.
    std::uint64_t SlowMs = 0;
    /// Where slow-request Chrome traces land (slow-<seq>-<id>.trace.json);
    /// empty keeps the flag-only behavior.
    std::string SlowTraceDir;
    /// Rotate the access log when it exceeds this many megabytes: the
    /// current file is flushed and renamed to AccessLog + ".1" (replacing
    /// any previous rotation) and a fresh file is opened. Records are
    /// written whole under one lock, so rotation never tears a line.
    /// 0 disables rotation.
    std::uint64_t AccessLogMaxMB = 0;
    /// Latency-histogram bucket upper bounds in microseconds, strictly
    /// increasing (--latency-buckets-us). Empty uses the built-in
    /// boundaries (100us..1s, tight sub-millisecond resolution).
    std::vector<std::uint64_t> LatencyBoundsUs;
  };

  explicit Server(const Config &C);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Submits one request line. \p Respond is invoked exactly once with the
  /// response line (no trailing newline) -- synchronously for admission
  /// failures and malformed requests, from a worker thread otherwise. The
  /// callback must be thread-safe against other responses.
  void submit(std::string Line, std::function<void(std::string)> Respond);

  /// Stops admission, drains queued requests, joins the workers, and (once)
  /// saves the result-store file. Idempotent; the destructor calls it.
  void stop();

  /// Asks the IO loops (runStdin/runSocket) to wind down; the "shutdown"
  /// op calls this. Does not drain -- stop() does.
  void requestStop();
  bool stopRequested() const { return StopFlag.load(); }

  /// What happened to Config::ResultCacheFile (and the access log) at
  /// construction ("result store warm start: ...", "result store cold
  /// start: ..."), empty when persistence is off.
  const std::string &startupNote() const { return StartupNote; }

  /// The result store (always present; every worker engine consults and
  /// feeds it). Public for in-process tests/bench.
  engine::ResultStore &resultStore() { return Store; }

  /// A deterministic snapshot of the server's metrics registry with the
  /// sampled gauge (store occupancy) refreshed first.
  /// What the metrics op, the health op, the exposition file, and the
  /// shutdown acknowledgment all render; public for in-process tests.
  obs::MetricsSnapshot metricsSnapshot() const;

  /// Serves JSONL request lines from \p In until EOF or a shutdown op,
  /// writing one response line each to \p Out (interleaved across workers;
  /// match by id). Calls stop() before returning. Returns an exit code.
  int runStdin(std::istream &In, std::ostream &Out);

  /// Binds a Unix domain socket at \p Path and serves each connection as
  /// an independent JSONL stream until a shutdown op arrives. Progress
  /// and errors go to \p Log. Calls stop() before returning.
  int runSocket(const std::string &Path, std::ostream &Log);

private:
  struct Request {
    bool HasId = false;
    std::uint64_t Id = 0;
    std::string Source;
    std::string Session; ///< client label for the access log, may be empty
    AnalysisOptions Opts;
    std::chrono::steady_clock::time_point Deadline;
    bool HasDeadline = false;
    /// When submit() accepted the request; queue wait and total latency
    /// are measured from here.
    std::chrono::steady_clock::time_point Admitted;
    std::function<void(std::string)> Respond;
  };
  struct Conn;
  struct Telemetry;

  /// A coalesced follower parked on an in-flight leader: the original
  /// request plus its already-measured queue wait (observed when its
  /// worker dequeued it, before the worker slot was freed).
  struct Waiter {
    Request R;
    std::uint64_t QueueWaitUs = 0;
  };
  /// One in-flight solve, keyed by source + engine-relevant
  /// options. Present in the map exactly while a leader is running.
  struct InflightEntry {
    std::vector<Waiter> Waiters;
  };

  void workerLoop(unsigned Index);
  void runOne(Request &R, unsigned Index);

  /// Appends one access-log line (under the log lock) and rotates the
  /// file when Config::AccessLogMaxMB is exceeded. No-op when the log is
  /// not open.
  void logAccessLine(const std::string &Line);

  /// Renders and atomically rewrites Config::MetricsFile (no-op when the
  /// path is empty). Serialized internally; safe from any thread.
  void writeMetricsFile();
  /// The metrics-op response body (uptime + snapshot + the result store's
  /// own counters).
  std::string metricsBody() const;
  /// The health-op response body.
  std::string healthBody() const;

  Config Cfg;
  std::string StartupNote;
  std::unique_ptr<Telemetry> Tele;

  mutable std::mutex QueueMu; ///< const healthBody() samples queue depth
  std::condition_variable QueueCV;
  std::deque<Request> Queue;
  bool Draining = false; ///< stop() begun: no admissions, workers drain

  /// The result store, shared by every worker engine.
  engine::ResultStore Store;

  std::mutex CoalesceMu;
  std::unordered_map<std::string, InflightEntry> Inflight;

  std::vector<std::unique_ptr<engine::DependenceEngine>> Engines;
  std::vector<std::thread> Workers;
  std::atomic<bool> StopFlag{false};
  std::atomic<int> ListenFd{-1};
  std::mutex ConnsMu;
  std::vector<std::weak_ptr<Conn>> Conns;
  bool Stopped = false;
};

} // namespace api
} // namespace omega

#endif // OMEGA_API_SERVE_H
