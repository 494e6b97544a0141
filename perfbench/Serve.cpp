//===- perfbench/Serve.cpp - serve_edit_stream ----------------------------===//
//
// Part of the omega-deps project.
//
// The omega-serve binary with its default configuration (4 workers),
// driven over its Unix socket by 4 closed-loop clients. Each client is an
// editing session that replays base.tiny and the 7 edits of
// tests/corpus/edits in a seeded order, interleaved with sessionless
// requests: the kernel corpus and a slice of the random-nest population,
// each sent first by one client, plus a fixed share of repeats of
// programs that client sent earlier (result-store hits), and CHOLSKY,
// which every client sends at the same moment when the epoch opens
// (coalescing).
//
// The stream runs in epochs: each epoch starts a fresh server, replays
// the same request scripts and shuts the server down, so the share of
// first-seen solves and store hits is the same in every epoch and every
// run. Server start-up is set-up, not timed load.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "api/Json.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <csignal>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <map>
#include <poll.h>
#include <random>
#include <spawn.h>
#include <sstream>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace omega;
using namespace omega::perfbench;
namespace fs = std::filesystem;

namespace {

constexpr unsigned Clients = 4;
/// Random nests per epoch (the first ones of the fixed population), dealt
/// across the clients with the kernels.
constexpr unsigned RandomPerEpoch = 120;
/// Share of sessionless requests that repeat an earlier program. Kept
/// well away from one half: a store hit costs a small fraction of a
/// solve, so a median near the hit/miss boundary would flip between runs.
constexpr double RepeatShare = 0.25;
/// Seconds a single request may take before it counts as failed.
constexpr int RequestTimeoutMs = 60000;

const char *EditOrder[] = {"rename",     "bound",     "stmt-new",
                           "stmt-edit",  "loop-del",  "interchange",
                           "rename-reorder"};

/// One request of a client's script: which pool program, and whether it
/// belongs to the client's editing session.
struct Step {
  size_t Prog;
  bool Session;
};

std::string escape(const std::string &S) { return api::json::escape(S); }

std::string requestLine(uint64_t Id, const std::string &Source,
                        const std::string &Session) {
  std::string L = "{\"id\": " + std::to_string(Id) + ", \"source\": \"" +
                  escape(Source) + "\"";
  if (!Session.empty())
    L += ", \"session\": \"" + escape(Session) + "\"";
  return L + ", \"options\": {\"pipeline\": true}}\n";
}

//===----------------------------------------------------------------------===//
// Socket and process plumbing
//===----------------------------------------------------------------------===//

class Socket {
public:
  Socket() = default;
  ~Socket() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;

  bool connect(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    Path.copy(Addr.sun_path, sizeof(Addr.sun_path) - 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0)
      return true;
    ::close(Fd);
    Fd = -1;
    return false;
  }

  bool send(const std::string &Line) {
    size_t Off = 0;
    while (Off < Line.size()) {
      ssize_t N = ::send(Fd, Line.data() + Off, Line.size() - Off,
                         MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// One response line (without the newline); false on timeout or EOF.
  bool readLine(std::string &Out, int TimeoutMs) {
    while (true) {
      size_t Pos = Buf.find('\n');
      if (Pos != std::string::npos) {
        Out = Buf.substr(0, Pos);
        Buf.erase(0, Pos + 1);
        return true;
      }
      pollfd P{Fd, POLLIN, 0};
      if (::poll(&P, 1, TimeoutMs) <= 0)
        return false;
      char Chunk[65536];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  bool request(const std::string &Line, std::string &Resp) {
    return send(Line) && readLine(Resp, RequestTimeoutMs);
  }

private:
  int Fd = -1;
  std::string Buf;
};

/// An omega-serve child process listening on a socket. The destructor
/// kills and reaps it if it is still running.
class ServerProcess {
public:
  ServerProcess(const std::string &Bin, const std::string &SocketPath,
                const std::string &LogPath)
      : Path(SocketPath) {
    ::unlink(Path.c_str());
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_addopen(&FA, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&FA, 1, LogPath.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&FA, 1, 2);
    std::vector<std::string> Args = {Bin, "--socket", Path};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    if (posix_spawn(&Pid, Bin.c_str(), &FA, nullptr, Argv.data(), environ) !=
        0)
      Pid = -1;
    posix_spawn_file_actions_destroy(&FA);
  }
  ~ServerProcess() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
    ::unlink(Path.c_str());
  }
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  bool running() const { return Pid > 0; }

  /// Waits for the process to exit after a shutdown op; returns its peak
  /// RSS in MB, or a negative value when it had to be killed.
  double reap(int TimeoutMs) {
    rusage U{};
    for (int Waited = 0; Pid > 0 && Waited < TimeoutMs; Waited += 5) {
      int Status = 0;
      pid_t R = ::wait4(Pid, &Status, WNOHANG, &U);
      if (R == Pid) {
        Pid = -1;
        return static_cast<double>(U.ru_maxrss) / 1024.0;
      }
      if (R < 0)
        break;
      ::usleep(5000);
    }
    return -1;
  }

private:
  std::string Path;
  pid_t Pid = -1;
};

/// The "result" section of an ok response, verbatim.
bool resultBytes(const std::string &Resp, std::string &Out) {
  if (Resp.find("\"ok\": true") == std::string::npos)
    return false;
  size_t B = Resp.find("\"result\": ");
  size_t E = Resp.rfind(", \"metrics\": ");
  if (B == std::string::npos || E == std::string::npos || E < B)
    return false;
  B += 10;
  Out = Resp.substr(B, E - B);
  return true;
}

std::string errorCode(const std::string &Resp) {
  std::optional<api::json::Value> V = parseJson(Resp);
  if (!V)
    return "unparseable response";
  if (const api::json::Value *E = V->get("error"))
    if (const api::json::Value *C = E->get("code"); C && C->isString())
      return C->asString();
  return "malformed ok response";
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

struct Inputs {
  std::vector<Program> Pool; ///< edits, then kernels, then random nests
  std::vector<std::vector<Step>> Scripts; ///< one per client
  uint64_t Digest = 0;
};

bool makeInputs(const Options &O, Inputs &In, std::string &Err) {
  fs::path Edits = fs::path(O.Root) / "tests" / "corpus" / "edits";
  auto ReadFile = [&](const std::string &Name, std::string &Out) {
    std::ifstream F(Edits / (Name + ".tiny"));
    if (!F)
      return false;
    std::ostringstream SS;
    SS << F.rdbuf();
    Out = SS.str();
    return true;
  };
  In.Pool.clear();
  std::string Src;
  if (!ReadFile("base", Src)) {
    Err = "cannot read " + (Edits / "base.tiny").string();
    return false;
  }
  In.Pool.push_back({"edit:base", Src});
  for (const char *E : EditOrder) {
    if (!ReadFile(E, Src)) {
      Err = "cannot read edit " + std::string(E);
      return false;
    }
    In.Pool.push_back({std::string("edit:") + E, Src});
  }
  const size_t NumEdits = In.Pool.size();
  for (Program &P : kernelPrograms())
    In.Pool.push_back(std::move(P));
  // A fixed slice of the random-nest population: the seed deals and
  // orders the stream, but the set of programs (and so the share of heavy
  // ones) is the same in every run.
  for (Program &P : randomPool(RandomPerEpoch))
    In.Pool.push_back(std::move(P));

  std::mt19937 Rng(O.Seed);
  auto Pick = [&](size_t N) { return static_cast<size_t>(Rng() % N); };
  // The coalescing burst: CHOLSKY, the costliest kernel, which every
  // client sends first.
  const size_t Burst = NumEdits;

  // Each client's set of programs is fixed (dealt round-robin in pool
  // order), so each client's share of heavy programs, and so the epoch's
  // length, does not depend on the seed; the seed orders each client's
  // stream and chooses its repeats and its edit order.
  In.Scripts.assign(Clients, {});
  for (unsigned C = 0; C != Clients; ++C) {
    std::vector<Step> Sessionless;
    for (size_t I = NumEdits + 1 + C; I < In.Pool.size(); I += Clients)
      Sessionless.push_back({I, false});
    std::shuffle(Sessionless.begin(), Sessionless.end(), Rng);
    // Repeats of programs this client already sent, so each is answered
    // before it is asked again.
    size_t Repeats = static_cast<size_t>(
        Sessionless.size() * RepeatShare / (1 - RepeatShare) + 0.5);
    for (size_t K = 0; K != Repeats; ++K) {
      size_t From = Pick(Sessionless.size());
      size_t At = From + 1 + Pick(Sessionless.size() - From);
      Sessionless.insert(Sessionless.begin() + At,
                         {Sessionless[From].Prog, false});
    }
    // The session: base first, then the edits in a seeded order, spread
    // evenly through the sessionless stream.
    std::vector<size_t> Session = {0};
    std::vector<size_t> EditsShuffled;
    for (size_t I = 1; I != NumEdits; ++I)
      EditsShuffled.push_back(I);
    std::shuffle(EditsShuffled.begin(), EditsShuffled.end(), Rng);
    Session.insert(Session.end(), EditsShuffled.begin(), EditsShuffled.end());

    std::vector<Step> &S = In.Scripts[C];
    S.push_back({Burst, false});
    size_t Gap = Sessionless.size() / Session.size();
    size_t Next = 0;
    for (size_t K = 0; K != Session.size(); ++K) {
      S.push_back({Session[K], true});
      for (size_t G = 0; G != Gap && Next != Sessionless.size(); ++G)
        S.push_back(Sessionless[Next++]);
    }
    while (Next != Sessionless.size())
      S.push_back(Sessionless[Next++]);
  }

  In.Digest = digestPrograms(In.Pool);
  for (const std::vector<Step> &S : In.Scripts)
    for (const Step &St : S)
      In.Digest = fnv1a(std::to_string(St.Prog) + (St.Session ? "s" : "n"),
                        In.Digest);
  return true;
}

//===----------------------------------------------------------------------===//
// One epoch
//===----------------------------------------------------------------------===//

struct Sample {
  size_t Prog;
  uint64_t Id;
  Clock::time_point Begin, End;
  std::string Resp; ///< empty on timeout

  double ms() const { return msBetween(Begin, End); }
};

struct Epoch {
  bool Ok = false;
  std::string Error;
  double SetupMs = 0;  ///< spawn to first health answer
  double TimedMs = 0;  ///< first request sent to last answer received
  double PeakRssMb = -1;
  std::vector<Sample> Samples;
  std::string Metrics; ///< the metrics op body (traced runs)
};

Epoch runEpoch(const Options &O, const Inputs &In, unsigned Index,
               bool WantMetrics) {
  Epoch E;
  std::string Sock = O.WorkDir + "/serve-" + std::to_string(::getpid()) +
                     ".sock";
  auto SetupStart = Clock::now();
  ServerProcess Srv(O.ServeBin, Sock, O.WorkDir + "/serve.log");
  if (!Srv.running()) {
    E.Error = "cannot start " + O.ServeBin;
    return E;
  }
  Socket Control;
  for (int Tries = 0; !Control.connect(Sock); ++Tries) {
    if (Tries > 10000) {
      E.Error = "server did not open its socket";
      return E;
    }
    ::usleep(1000);
  }
  std::string Resp;
  if (!Control.request("{\"id\": 0, \"op\": \"health\"}\n", Resp) ||
      Resp.find("\"ok\": true") == std::string::npos) {
    E.Error = "health probe failed";
    return E;
  }
  E.SetupMs = msBetween(SetupStart, Clock::now());

  std::vector<Socket> Conns(Clients);
  for (unsigned C = 0; C != Clients; ++C)
    if (!Conns[C].connect(Sock)) {
      E.Error = "client cannot connect";
      return E;
    }

  std::vector<std::vector<Sample>> PerClient(Clients);
  std::vector<Clock::time_point> Ends(Clients);
  std::barrier Start(Clients + 1);
  std::atomic<bool> Failed{false};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      const std::vector<Step> &Script = In.Scripts[C];
      std::string Session = "client" + std::to_string(C);
      Start.arrive_and_wait();
      for (size_t K = 0; K != Script.size() && !Failed; ++K) {
        const Step &St = Script[K];
        uint64_t Id = (Index * Clients + C) * 100000ull + K + 1;
        std::string Line = requestLine(Id, In.Pool[St.Prog].Source,
                                       St.Session ? Session : "");
        Sample S{St.Prog, Id, Clock::now(), {}, ""};
        if (!Conns[C].request(Line, S.Resp)) {
          S.Resp.clear();
          Failed = true;
        }
        S.End = Clock::now();
        PerClient[C].push_back(std::move(S));
      }
      Ends[C] = Clock::now();
    });
  auto T0 = Clock::now();
  Start.arrive_and_wait();
  for (std::thread &T : Threads)
    T.join();
  E.TimedMs = msBetween(T0, *std::max_element(Ends.begin(), Ends.end()));
  for (std::vector<Sample> &P : PerClient)
    for (Sample &S : P)
      E.Samples.push_back(std::move(S));

  if (WantMetrics &&
      Control.request("{\"id\": 1, \"op\": \"metrics\"}\n", Resp))
    E.Metrics = Resp;
  Control.request("{\"id\": 2, \"op\": \"shutdown\"}\n", Resp);
  E.PeakRssMb = Srv.reap(30000);
  E.Ok = !Failed;
  if (Failed)
    E.Error = "a request timed out or the connection closed";
  return E;
}

/// Server-side rows from the metrics op bodies of the traced epochs.
void fillServerLayers(LayerValues &L, const std::vector<std::string> &Bodies) {
  CounterBag Counters;
  std::map<std::string, std::vector<double>> Buckets;
  std::map<std::string, std::vector<double>> Bounds;
  for (const std::string &B : Bodies) {
    std::optional<api::json::Value> V = parseJson(B);
    const api::json::Value *M = V ? V->get("metrics") : nullptr;
    if (!M)
      continue;
    Counters.addObject(M->get("counters"));
    const api::json::Value *H = M->get("histograms");
    if (!H || !H->isObject())
      continue;
    for (const auto &[Name, Hist] : H->asObject()) {
      if (const api::json::Value *C = Hist.get("count"))
        Counters.add(Name + ".count", C->asNumber());
      if (const api::json::Value *S = Hist.get("sumUs"))
        Counters.add(Name + ".sum", S->asNumber());
      const api::json::Value *Bk = Hist.get("buckets");
      const api::json::Value *Bd = Hist.get("boundsUs");
      if (!Bk || !Bd || !Bk->isArray() || !Bd->isArray())
        continue;
      std::vector<double> &Acc = Buckets[Name];
      Acc.resize(Bk->asArray().size(), 0);
      for (size_t I = 0; I != Bk->asArray().size(); ++I)
        Acc[I] += Bk->asArray()[I].asNumber();
      Bounds[Name].clear();
      for (const api::json::Value &X : Bd->asArray())
        Bounds[Name].push_back(X.asNumber());
    }
  }
  double Epochs = static_cast<double>(Bodies.size());
  auto PerEpoch = [&](const char *Name) -> std::optional<double> {
    std::optional<double> V = Counters.get(Name);
    if (V && Epochs > 0)
      *V /= Epochs;
    return V;
  };
  auto Mean = [&](const std::string &H) -> std::optional<double> {
    std::optional<double> N = Counters.get(H + ".count");
    std::optional<double> S = Counters.get(H + ".sum");
    if (!N || !S)
      return std::nullopt;
    return *N > 0 ? *S / *N : 0;
  };
  std::optional<double> Hits = PerEpoch("omega_result_store_hits_total");
  std::optional<double> Misses = PerEpoch("omega_result_store_misses_total");
  L.setOrAbsent("engine.store_hits", Hits);
  L.setOrAbsent("engine.store_misses", Misses);
  if (Hits && Misses)
    L.set("engine.store_hit_frac",
          *Hits + *Misses > 0 ? *Hits / (*Hits + *Misses) : 0);
  else
    L.Absent.insert("engine.store_hit_frac");
  L.setOrAbsent("engine.coalesced",
                PerEpoch("omega_serve_requests_coalesced_total"));
  L.setOrAbsent("engine.session_pairs_reused",
                PerEpoch("omega_engine_delta_pairs_reused_total"));
  L.setOrAbsent("api.queue_wait_us_mean", Mean("omega_serve_queue_wait_us"));
  L.setOrAbsent("api.parse_us_mean", Mean("omega_serve_parse_us"));
  L.setOrAbsent("api.solve_us_mean", Mean("omega_serve_solve_us"));
  L.setOrAbsent("api.serialize_us_mean", Mean("omega_serve_serialize_us"));
  // p99 from the merged histogram: the upper bound of the bucket that
  // holds the 99th percentile (the last finite bound for the overflow).
  auto It = Buckets.find("omega_serve_queue_wait_us");
  if (It != Buckets.end() && !Bounds["omega_serve_queue_wait_us"].empty()) {
    const std::vector<double> &Bk = It->second;
    const std::vector<double> &Bd = Bounds["omega_serve_queue_wait_us"];
    double Total = 0, Cum = 0, P99 = Bd.back();
    for (double N : Bk)
      Total += N;
    for (size_t I = 0; I != Bk.size(); ++I) {
      Cum += Bk[I];
      if (Cum >= 0.99 * Total) {
        P99 = I < Bd.size() ? Bd[I] : Bd.back();
        break;
      }
    }
    L.set("api.queue_wait_us_p99", P99);
  } else {
    L.Absent.insert("api.queue_wait_us_p99");
  }
  double Errors = 0;
  for (const char *Code :
       {"parse_error", "bad_request", "analysis_error", "overloaded",
        "deadline_exceeded", "shutdown"})
    Errors += Counters.getOr(
        std::string("omega_serve_responses_") + Code + "_total", 0);
  L.set("api.errors", Epochs > 0 ? Errors / Epochs : 0);
}

} // namespace

void perfbench::runServeEditStream(const Options &O, Report &R) {
  if (O.ServeBin.empty()) {
    R.fail("no --serve-bin given");
    return;
  }
  std::error_code EC;
  fs::create_directories(O.WorkDir, EC);

  auto GenStart = Clock::now();
  Inputs In;
  std::string Err;
  if (!makeInputs(O, In, Err)) {
    R.fail(Err);
    return;
  }
  double GenMs = msBetween(GenStart, Clock::now());
  size_t PerEpoch = 0;
  for (const std::vector<Step> &S : In.Scripts)
    PerEpoch += S.size();
  R.info("workload " + O.Workload + " seed " + std::to_string(O.Seed) +
         " inputs " + std::to_string(In.Pool.size()) + " programs, " +
         std::to_string(PerEpoch) + " requests per epoch, digest " +
         hex64(In.Digest));

  // Traced runs spend half their time on server epochs (for the server's
  // own histograms and counters) and half on traced one-shot passes over
  // the same programs (for the in-process layer rows).
  double EpochSeconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  std::vector<double> SetupMs, Rss, Lat, EpochOpsPerS;
  std::vector<std::string> MetricBodies;
  std::vector<Sample> All;
  double TimedMs = 0;
  unsigned Epochs = 0;
  auto Start = Clock::now();
  while (Epochs == 0 || TimedMs < EpochSeconds * 1000 ||
         (!O.Trace && Lat.size() < MinSamples &&
          msBetween(Start, Clock::now()) < 3000 * O.Seconds)) {
    Epoch E = runEpoch(O, In, Epochs, O.Trace);
    ++Epochs;
    if (!E.Error.empty() && E.Samples.empty()) {
      R.fail("epoch " + std::to_string(Epochs) + ": " + E.Error);
      return;
    }
    if (!E.Ok)
      R.fail("epoch " + std::to_string(Epochs) + ": " + E.Error);
    SetupMs.push_back(E.SetupMs);
    if (E.PeakRssMb > 0)
      Rss.push_back(E.PeakRssMb);
    TimedMs += E.TimedMs;
    EpochOpsPerS.push_back(E.Samples.size() / (E.TimedMs / 1000));
    if (!E.Metrics.empty())
      MetricBodies.push_back(E.Metrics);
    for (Sample &S : E.Samples) {
      Lat.push_back(S.ms());
      All.push_back(std::move(S));
    }
    if (!E.Ok)
      break;
  }
  R.EndToEnd["setup_s"] = (GenMs + median(SetupMs)) / 1000;
  R.EndToEnd["peak_rss_mb"] = median(Rss);
  R.info("epochs " + std::to_string(Epochs) + ", server start median " +
         std::to_string(median(SetupMs)) + " ms");
  // Throughput over the time the clients were loading the server.
  if (!O.Trace)
    latencyMetrics(R, Lat, EpochOpsPerS);

  // Reference: an in-process one-shot render of every pool program. The
  // served programs are byte-compared with it, not re-checked by the
  // interpreter (kernels_cold and random_nests do that).
  Checker Check(In.Pool, /*UseOracle=*/false, /*Canary=*/false);
  if (O.Trace) {
    fillServerLayers(R.Layers, MetricBodies);
    LayerValues Server = R.Layers;
    tracedColdPasses(O, In.Pool, O.Seconds / 2, false, Check, R);
    // The server's rows win over the one-shot path's for the tiers only
    // the server has.
    for (const auto &[Name, V] : Server.Values)
      R.Layers.Values[Name] = V;
    for (const std::string &Name : Server.Absent) {
      R.Layers.Values.erase(Name);
      R.Layers.Absent.insert(Name);
    }

    // The clients' spans, one per request, recorded from the measured
    // send and receive times so the closed loop itself carries no
    // tracing; then the ten costliest programs as the clients saw them.
    SpanLog Log;
    std::map<size_t, std::pair<double, unsigned>> ByProgram;
    for (const Sample &S : All) {
      Log.record("serve.request", S.Id, S.Begin, S.End);
      auto &Acc = ByProgram[S.Prog];
      Acc.first += S.ms();
      ++Acc.second;
    }
    std::string Path = O.WorkDir + "/spans-" + O.Workload + "-" +
                       std::to_string(O.Seed) + "-requests.json";
    if (Log.write(Path))
      R.info("request spans written to " + Path);
    std::vector<ColdTrace::Unit> Units;
    for (const auto &[I, Acc] : ByProgram)
      Units.push_back({Acc.first / Acc.second,
                       "served program " + In.Pool[I].Name});
    for (const std::string &L : costliest(Units, 10))
      R.info("costliest " + L);
  }

  bool CanaryLeft = O.Canary;
  for (Sample &S : All) {
    std::string Result;
    if (S.Resp.empty()) {
      Check.fail(S.Prog, "timeout");
      continue;
    }
    if (!resultBytes(S.Resp, Result)) {
      Check.fail(S.Prog, "error response: " + errorCode(S.Resp));
      continue;
    }
    if (CanaryLeft && !Result.empty()) {
      Result[Result.size() / 2] ^= 1; // one deliberately wrong answer
      CanaryLeft = false;
    }
    Check.answer(S.Prog, fnv1a(Result));
  }
  Check.score(R);
}
