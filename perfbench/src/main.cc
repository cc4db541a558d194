// aplus_perfbench: runs one benchmark workload against the engine's
// public API and prints its result as one JSON object on the last line
// of stdout. run.py builds this binary and calls it; see README.md.
//
//   aplus_perfbench --workload serve|analytics|ingest --seed N --seconds S
//                   --trace 0|1 --run-dir DIR [--aplusd PATH] [--size F]
//                   [--perturb K]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"

using namespace perfbench;  // NOLINT: binary brevity

int main(int argc, char** argv) {
  Options options;
  options.start_ns = NowNs();
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::atoi(value) != 0;
    } else if (std::strcmp(flag, "--run-dir") == 0) {
      options.run_dir = value;
    } else if (std::strcmp(flag, "--aplusd") == 0) {
      options.aplusd = value;
    } else if (std::strcmp(flag, "--size") == 0) {
      options.size = std::atof(value);
    } else if (std::strcmp(flag, "--perturb") == 0) {
      options.perturb = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      return 2;
    }
  }
  if (options.run_dir.empty() || options.seconds <= 0.0 || options.size <= 0.0) {
    std::fprintf(stderr, "usage: aplus_perfbench --workload W --seed N --seconds S "
                         "--trace 0|1 --run-dir DIR [--aplusd PATH] [--size F] [--perturb K]\n");
    return 2;
  }
  options.cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  Tracer tracer(options.trace);
  options.tracer = &tracer;

  Report report;
  if (options.workload == "serve") {
    if (options.aplusd.empty()) {
      std::fprintf(stderr, "serve needs --aplusd\n");
      return 2;
    }
    RunServe(options, &report);
  } else if (options.workload == "analytics") {
    RunAnalytics(options, &report);
  } else if (options.workload == "ingest") {
    RunIngest(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  if (tracer.enabled()) {
    std::string path = options.run_dir + "/trace.csv";
    uint64_t spans = tracer.Write(path);
    std::fprintf(stderr, "trace: %llu spans written to %s\n",
                 static_cast<unsigned long long>(spans), path.c_str());
  }
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
