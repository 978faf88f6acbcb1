//===- perfbench/src/main.cpp - granbench: the GranLog benchmark ----------===//
//
// Usage:
//   granbench --workload <corpus-cold|edit-serve|granularity-sim>
//             --seed <n> --seconds <s> --trace <0|1> [--small]
//             [--out-dir <dir>]
//
// Prints one line per metric ("metric <name> <value> <unit> n=<samples>"),
// JSON notes (environment, soak curve, self times, failures), and as the
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones.  perfbench/README.md documents every metric.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include <unistd.h>

#ifndef GRANBENCH_BUILD_TYPE
#define GRANBENCH_BUILD_TYPE "unknown"
#endif
#ifndef GRANBENCH_COMPILER
#define GRANBENCH_COMPILER __VERSION__
#endif

using namespace granbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: granbench --workload <corpus-cold|edit-serve|"
               "granularity-sim> --seed <n> --seconds <s> --trace <0|1> "
               "[--small] [--out-dir <dir>]\n");
  return 2;
}

/// A number as JSON: full precision, never NaN or infinite.
std::string num(double V) {
  if (!(V == V) || V > 1e300 || V < -1e300)
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
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
    if (A == "--small") {
      O.Small = true;
      continue;
    }
    if (!(V = Next()))
      return usage();
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      if (!(O.Seconds > 0 && O.Seconds <= 600))
        return usage();
    } else if (A == "--trace") {
      O.Trace = std::string(V) == "1";
    } else if (A == "--out-dir") {
      O.OutDir = V;
    } else {
      return usage();
    }
    if (End && *End)
      return usage();
  }

  Result R;
  if (O.Workload != "corpus-cold" && O.Workload != "edit-serve" &&
      O.Workload != "granularity-sim")
    return usage();
  if (O.Trace)
    R = runTraced(O);
  else if (O.Workload == "corpus-cold")
    R = runCorpusCold(O);
  else if (O.Workload == "edit-serve")
    R = runEditServe(O);
  else
    R = runGranularitySim(O);

  // edit-serve: one client thread, a server IO thread and 2 workers, 4
  // connections; the other workloads run single-threaded passes (one
  // process at a time), and edit-serve verification one thread per client.
  bool Serve = O.Workload == "edit-serve" || O.Trace;
  std::printf("{\"kind\": \"env\", \"workload\": \"%s\", \"trace\": %d, "
              "\"seed\": %llu, \"seconds\": %s, \"small\": %s, "
              "\"nproc\": %ld, \"hardware_concurrency\": %u, "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"threads\": %d, \"connections\": %d}\n",
              O.Workload.c_str(), O.Trace ? 1 : 0,
              static_cast<unsigned long long>(O.Seed), num(O.Seconds).c_str(),
              O.Small ? "true" : "false", ::sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(), GRANBENCH_BUILD_TYPE,
              GRANBENCH_COMPILER, Serve ? 4 : 1, Serve ? 4 : 0);
  for (const std::string &Note : R.Notes)
    std::printf("%s\n", Note.c_str());
  for (const auto &[Name, M] : R.Metrics)
    std::printf("metric %s %s %s n=%llu\n", Name.c_str(), num(M.Value).c_str(),
                M.Unit.c_str(), static_cast<unsigned long long>(M.Samples));
  std::printf("ops attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));

  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 && R.Attempted > 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(R.Attempted, 1));
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : R.Metrics) {
    Json += (First ? "\"" : ", \"") + Name + "\": {\"value\": " + num(M.Value) +
            ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
