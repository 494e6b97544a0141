//===- tools/omega_serve.cpp - Dependence-analysis daemon -----------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// A long-running dependence-analysis service. Requests are JSONL -- one
// JSON object per line -- over stdin/stdout (the default) or a Unix
// domain socket (--socket PATH):
//
//   $ omega-serve --workers 4 --result-cache-file /tmp/omega.rs
//   {"id": 1, "source": "for i = 1 to n { a[i] = a[i-1]; }"}
//   {"schema": 8, "id": 1, "ok": true, "result": {...}, "metrics": {...}}
//
// Every response's "result" section is byte-identical to a one-shot
// `omega-analyze --json` run of the same program: the engine's structural
// output is deterministic for every jobs value and reuse state, so only
// "metrics" (timings, result-store traffic) varies between a cold and a
// warm serve. See api/Serve.h for the protocol and architecture.
//
//===----------------------------------------------------------------------===//

#include "api/Options.h"
#include "api/Serve.h"

#include <cstdio>
#include <iostream>

using namespace omega;

namespace {

int usage(FILE *To) {
  std::fprintf(To,
               "usage: omega-serve [options]\n"
               "\nJSONL protocol, one request per line:\n"
               "  {\"id\": N, \"source\": \"...\", \"options\": {...}, "
               "\"deadlineMs\": M}\n"
               "  {\"id\": N, \"op\": \"health\"}     liveness/readiness "
               "probe\n"
               "  {\"id\": N, \"op\": \"metrics\"}    telemetry snapshot "
               "(and exposition rewrite)\n"
               "  {\"id\": N, \"op\": \"metrics\", \"reset\": true}\n"
               "                               ...then zero counters/"
               "histograms (gauges stay)\n"
               "  {\"id\": N, \"op\": \"shutdown\"}   stop; the ack carries "
               "the final metrics\n"
               "\nShared analysis options (request \"options\" keys use the "
               "same table):\n%s",
               api::optionsHelp(api::ToolServe).c_str());
  return To == stderr ? 2 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  api::ParsedArgs Parsed;
  std::string Err;
  if (!api::parseArgs(Args, api::ToolServe, Parsed, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return usage(stderr);
  }
  if (Parsed.Help)
    return usage(stdout);
  for (const std::string &Arg : Parsed.Rest) {
    std::fprintf(stderr, "error: unexpected argument %s\n", Arg.c_str());
    return usage(stderr);
  }

  api::Server Server(Parsed.Options);
  if (!Server.startupNote().empty())
    std::fprintf(stderr, "omega-serve: %s\n", Server.startupNote().c_str());

  if (!Parsed.Options.SocketPath.empty())
    return Server.runSocket(Parsed.Options.SocketPath, std::cerr);
  return Server.runStdin(std::cin, std::cout);
}
