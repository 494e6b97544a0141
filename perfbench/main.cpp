//===- perfbench/main.cpp - End-to-end benchmark entry point --------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--canary] [--root DIR] [--serve-bin PATH] [--work-dir DIR]
//
// Runs one workload (kernels_cold, random_nests, serve_edit_stream,
// calc_queries) and prints, as its last line, one JSON object with the
// keys correct, attempted, failed and metrics. See README.md.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

using namespace omega;
using namespace omega::perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--canary] [--root DIR] [--serve-bin PATH] "
               "[--work-dir DIR]\n"
               "workloads: kernels_cold random_nests serve_edit_stream "
               "calc_queries\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--canary") {
      O.Canary = true;
    } else if (A == "--workload" && (V = Next())) {
      O.Workload = V;
    } else if (A == "--seed" && (V = Next())) {
      O.Seed = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (A == "--seconds" && (V = Next())) {
      O.Seconds = std::strtod(V, nullptr);
    } else if (A == "--trace" && (V = Next())) {
      O.Trace = std::string(V) == "1";
    } else if (A == "--root" && (V = Next())) {
      O.Root = V;
    } else if (A == "--serve-bin" && (V = Next())) {
      O.ServeBin = V;
    } else if (A == "--work-dir" && (V = Next())) {
      O.WorkDir = V;
    } else {
      return usage();
    }
  }

  static const std::map<std::string, void (*)(const Options &, Report &)>
      Workloads = {{"kernels_cold", runKernelsCold},
                   {"random_nests", runRandomNests},
                   {"serve_edit_stream", runServeEditStream},
                   {"calc_queries", runCalcQueries}};
  auto It = Workloads.find(O.Workload);
  if (It == Workloads.end() || O.Seconds <= 0)
    return usage();

  Report R;
  It->second(O, R);
  if (R.Attempted == 0) {
    for (const std::string &L : R.Info)
      std::fprintf(stderr, "%s\n", L.c_str());
    std::fprintf(stderr, "error: no operation completed\n");
    return 1;
  }
  printReport(R, O.Trace);
  return 0;
}
