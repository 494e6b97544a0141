//===- api/Options.cpp ----------------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "api/Options.h"

#include "api/Json.h"

#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>

using namespace omega;
using namespace omega::api;

engine::AnalysisRequest AnalysisOptions::toEngineRequest() const {
  engine::AnalysisRequest R;
  R.Refine = Refine;
  R.Cover = Cover;
  R.Kill = Kill;
  R.QuickTests = QuickTests;
  R.Terminate = Terminate;
  R.Jobs = Jobs;
  return R;
}

const std::vector<OptionSpec> &omega::api::optionSpecs() {
  static const unsigned AS = ToolAnalyze | ToolServe;
  // The one table: flag spelling, JSON request key (null = CLI-only),
  // applicable tools, value arity, metavar, help line. AnalysisOptions'
  // member initializers are the matching defaults.
  static const std::vector<OptionSpec> Specs = {
      {"--jobs", "jobs", AS, true, "N",
       "use up to N cores, the caller plus shared helper threads "
       "(N <= 1024; default 0 = every usable core, split evenly across "
       "omega-serve's workers); results are identical for every N"},
      {"--json", nullptr, ToolAnalyze, false, nullptr,
       "machine-readable schema-8 output instead of tables"},
      {"--trace", nullptr, ToolAnalyze, true, "FILE",
       "record a Chrome trace_event JSON of the run"},
      {"--profile", "profile", AS, false, nullptr,
       "aggregated profile report; --profile=json for JSON "
       "(always JSON in server responses)"},
      {"--explain", "explain", AS, false, nullptr,
       "per array pair, which mechanism decided the outcome"},
      {"--stats", nullptr, ToolAnalyze, false, nullptr,
       "per-pair cost classes and timings (Figure 6 style)"},
      {"--all", nullptr, ToolAnalyze, false, nullptr,
       "also print anti and output dependences"},
      {"--compress", nullptr, ToolAnalyze, false, nullptr,
       "compress split rows into the paper's display vectors"},
      {"--no-refine", "refine", AS, false, nullptr,
       "disable Section 4.4 distance refinement"},
      {"--no-cover", "cover", AS, false, nullptr,
       "disable Section 4.2 coverage"},
      {"--no-kill", "kill", AS, false, nullptr,
       "disable Section 4.1/4.2 kill analysis"},
      {"--no-quick", "quick", AS, false, nullptr,
       "disable the Section 4.5 pipeline screens"},
      {"--terminate", "terminate", AS, false, nullptr,
       "enable the terminating-write extension"},
      {"--result-cache-file", nullptr, AS, true, "PATH",
       "warm-start the global pair-result store from PATH if it exists "
       "and save it back on exit (corrupt or version-skewed files are "
       "ignored with a warning: cold start, never a wrong answer)"},
      {"--result-store-cap", nullptr, AS, true, "N",
       "bound the global pair-result store to N solved outcomes, "
       "evicting least-recently-used beyond that (0 = unbounded)"},
      {"--transforms", nullptr, ToolAnalyze, false, nullptr,
       "report transformation opportunities"},
      {"--restraints", nullptr, ToolAnalyze, false, nullptr,
       "print Section 2.1.2 restraint vectors"},
      {"--schedule", nullptr, ToolAnalyze, false, nullptr,
       "print a parallel schedule"},
      {"--run", nullptr, ToolAnalyze, false, nullptr,
       "interpret the program (needs every symbol bound via --sym)"},
      {"--pipeline", "pipeline", AS, false, nullptr,
       "plan a PS-DSWP pipeline partition per loop over the live "
       "dependence PDG (stages, parallel stage, enabling kills)"},
      {"--socket", nullptr, ToolServe, true, "PATH",
       "listen on a Unix domain socket instead of stdin JSONL"},
      {"--workers", nullptr, ToolServe, true, "N",
       "concurrent requests in flight (each owns one engine)"},
      {"--max-queue", nullptr, ToolServe, true, "N",
       "admission bound: queued requests beyond N are shed with an "
       "'overloaded' error response"},
      {"--deadline-ms", nullptr, ToolServe, true, "MS",
       "default per-request deadline; overdue queued requests are shed "
       "with 'deadline_exceeded' (0 = none)"},
      {"--metrics-file", nullptr, ToolServe, true, "PATH",
       "rewrite PATH atomically with a Prometheus text-format metrics "
       "exposition (on every metrics op, periodically, and at shutdown)"},
      {"--access-log", nullptr, ToolServe, true, "PATH",
       "append one JSONL record per analyzed request to PATH (latency "
       "decomposition, sat calls, response code)"},
      {"--slow-ms", nullptr, ToolServe, true, "MS",
       "trace requests taking >= MS ms and flag them in the access log "
       "(0 = off); with --slow-trace-dir the Chrome trace is saved"},
      {"--slow-trace-dir", nullptr, ToolServe, true, "DIR",
       "directory for per-request Chrome traces of slow requests "
       "(requires --slow-ms)"},
      {"--access-log-max-mb", nullptr, ToolServe, true, "MB",
       "rotate the access log once it exceeds MB megabytes: the file is "
       "flushed and atomically renamed to PATH.1, and logging continues "
       "in a fresh PATH (one rotation kept; 0 = never rotate)"},
  };
  return Specs;
}

namespace {

constexpr uint64_t MaxUnsigned = std::numeric_limits<unsigned>::max();

/// Parses a decimal in [0, Max]; anything else (including a value that
/// would silently truncate in a narrower field) is rejected.
bool parseUnsigned(const std::string &V, uint64_t &Out,
                   uint64_t Max = std::numeric_limits<uint64_t>::max()) {
  if (V.empty())
    return false;
  try {
    std::size_t End = 0;
    unsigned long long U = std::stoull(V, &End);
    if (End != V.size() || U > Max)
      return false;
    Out = U;
    return true;
  } catch (...) {
    return false;
  }
}

/// Applies one shared option (by its CLI spelling) to \p O. \p Val is the
/// flag's value for value-taking options, or "json" for --profile=json.
bool applyFlag(AnalysisOptions &O, const std::string &Flag,
               const std::string &Val, std::string &Err) {
  auto BadNum = [&] {
    Err = "bad value for " + Flag + ": '" + Val + "'";
    return false;
  };
  uint64_t U = 0;
  if (Flag == "--jobs") {
    if (!parseUnsigned(Val, U, MaxJobs))
      return BadNum();
    O.Jobs = static_cast<unsigned>(U);
  } else if (Flag == "--json")
    O.Json = true;
  else if (Flag == "--trace")
    O.TraceFile = Val;
  else if (Flag == "--profile")
    O.Profile = Val == "json" ? AnalysisOptions::ProfileJson
                              : AnalysisOptions::ProfileText;
  else if (Flag == "--explain")
    O.Explain = true;
  else if (Flag == "--stats")
    O.Stats = true;
  else if (Flag == "--all")
    O.All = true;
  else if (Flag == "--compress")
    O.Compress = true;
  else if (Flag == "--no-refine")
    O.Refine = false;
  else if (Flag == "--no-cover")
    O.Cover = false;
  else if (Flag == "--no-kill")
    O.Kill = false;
  else if (Flag == "--no-quick")
    O.QuickTests = false;
  else if (Flag == "--terminate")
    O.Terminate = true;
  else if (Flag == "--result-cache-file")
    O.ResultCacheFile = Val;
  else if (Flag == "--result-store-cap") {
    if (!parseUnsigned(Val, U))
      return BadNum();
    O.ResultStoreCap = U;
  } else if (Flag == "--transforms")
    O.Transforms = true;
  else if (Flag == "--restraints")
    O.Restraints = true;
  else if (Flag == "--schedule")
    O.Schedule = true;
  else if (Flag == "--run")
    O.Run = true;
  else if (Flag == "--pipeline")
    O.Pipeline = true;
  else if (Flag == "--socket")
    O.SocketPath = Val;
  else if (Flag == "--workers") {
    if (!parseUnsigned(Val, U, MaxUnsigned) || U == 0)
      return BadNum();
    O.ServeWorkers = static_cast<unsigned>(U);
  } else if (Flag == "--max-queue") {
    if (!parseUnsigned(Val, U, MaxUnsigned) || U == 0)
      return BadNum();
    O.MaxQueue = static_cast<unsigned>(U);
  } else if (Flag == "--deadline-ms") {
    if (!parseUnsigned(Val, U, MaxDeadlineMs))
      return BadNum();
    O.DeadlineMs = U;
  } else if (Flag == "--metrics-file")
    O.MetricsFile = Val;
  else if (Flag == "--access-log")
    O.AccessLogFile = Val;
  else if (Flag == "--slow-ms") {
    if (!parseUnsigned(Val, U))
      return BadNum();
    O.SlowMs = U;
  } else if (Flag == "--slow-trace-dir")
    O.SlowTraceDir = Val;
  else if (Flag == "--access-log-max-mb") {
    if (!parseUnsigned(Val, U))
      return BadNum();
    O.AccessLogMaxMB = U;
  } else {
    Err = "unhandled shared option " + Flag;
    return false;
  }
  return true;
}

/// Applies one JSON request-option key. Booleans follow the positive
/// sense of the key ("refine": false turns refinement off), numbers must
/// be non-negative integers.
bool applyJsonKey(AnalysisOptions &O, const std::string &Key,
                  const json::Value &V, std::string &Err) {
  auto Bool = [&](bool &Slot) {
    if (!V.isBool()) {
      Err = "option '" + Key + "' expects a boolean";
      return false;
    }
    Slot = V.asBool();
    return true;
  };
  if (Key == "jobs") {
    std::optional<int64_t> N = V.asIntIn(0, MaxJobs);
    if (!N) {
      Err = "option 'jobs' expects an integer in [0, " +
            std::to_string(MaxJobs) + "]";
      return false;
    }
    O.Jobs = static_cast<unsigned>(*N);
    return true;
  }
  if (Key == "profile") {
    if (!V.isBool()) {
      Err = "option 'profile' expects a boolean";
      return false;
    }
    O.Profile =
        V.asBool() ? AnalysisOptions::ProfileJson : AnalysisOptions::ProfileOff;
    return true;
  }
  if (Key == "explain") {
    if (!V.isBool()) {
      Err = "option 'explain' expects a boolean";
      return false;
    }
    O.Explain = V.asBool();
    return true;
  }
  if (Key == "refine")
    return Bool(O.Refine);
  if (Key == "cover")
    return Bool(O.Cover);
  if (Key == "kill")
    return Bool(O.Kill);
  if (Key == "quick")
    return Bool(O.QuickTests);
  if (Key == "terminate")
    return Bool(O.Terminate);
  if (Key == "pipeline")
    return Bool(O.Pipeline);
  Err = "unknown option '" + Key + "'";
  return false;
}

} // namespace

bool omega::api::parseArgs(const std::vector<std::string> &Args, unsigned Tool,
                           ParsedArgs &Out, std::string &Err) {
  const std::vector<OptionSpec> &Specs = optionSpecs();
  for (std::size_t I = 0; I != Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if (Arg == "--help" || Arg == "-h") {
      Out.Help = true;
      continue;
    }
    if (Arg.size() < 3 || Arg.compare(0, 2, "--") != 0) {
      Out.Rest.push_back(Arg);
      continue;
    }
    std::string Flag = Arg;
    std::string Val;
    bool HasInlineVal = false;
    if (std::size_t Eq = Arg.find('='); Eq != std::string::npos) {
      Flag = Arg.substr(0, Eq);
      Val = Arg.substr(Eq + 1);
      HasInlineVal = true;
    }
    const OptionSpec *Spec = nullptr;
    for (const OptionSpec &S : Specs)
      if ((S.Tools & Tool) && Flag == S.Flag) {
        Spec = &S;
        break;
      }
    if (!Spec) {
      Out.Rest.push_back(Arg);
      continue;
    }
    if (Spec->TakesValue) {
      if (!HasInlineVal) {
        if (I + 1 == Args.size()) {
          Err = Flag + " requires a value";
          return false;
        }
        Val = Args[++I];
      }
    } else if (HasInlineVal) {
      // Only --profile takes an optional =json selector.
      if (Flag != "--profile" || Val != "json") {
        Err = Flag + " does not take a value";
        return false;
      }
    }
    if (!applyFlag(Out.Options, Flag, Val, Err))
      return false;
  }
  return true;
}

bool omega::api::optionsFromJson(const json::Value &Obj, AnalysisOptions &Opts,
                                 std::string &Err) {
  if (!Obj.isObject()) {
    Err = "\"options\" must be an object";
    return false;
  }
  for (const auto &[Key, V] : Obj.asObject())
    if (!applyJsonKey(Opts, Key, V, Err))
      return false;
  return true;
}

std::string omega::api::optionsHelp(unsigned Tool) {
  std::string Out;
  for (const OptionSpec &S : optionSpecs()) {
    if (!(S.Tools & Tool))
      continue;
    std::string Left = "  ";
    Left += S.Flag;
    if (S.TakesValue && S.Meta)
      Left += std::string(" ") + S.Meta;
    if (std::string(S.Flag) == "--profile")
      Left += "[=json]";
    if (Left.size() < 26)
      Left.resize(26, ' ');
    else
      Left += ' ';
    // Wrap the help text at 78 columns, continuation lines indented to
    // the help column.
    std::string Help = S.Help;
    std::size_t Width = 78 - 26;
    while (true) {
      if (Help.size() <= Width) {
        Out += Left + Help + "\n";
        break;
      }
      std::size_t Break = Help.rfind(' ', Width);
      if (Break == std::string::npos || Break == 0)
        Break = Width;
      Out += Left + Help.substr(0, Break) + "\n";
      Help = Help.substr(Break + 1);
      Left.assign(26, ' ');
    }
  }
  return Out;
}
