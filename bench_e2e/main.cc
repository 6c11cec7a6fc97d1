// bench_e2e: end-to-end benchmark of exsample, one workload per process.
//
//   bench_e2e --workload tcp_short|tcp_mixed|scan_flat|dist_local
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// --seed makes every input (arrivals, query mix, query seeds, dataset and
// server seeds); --seconds is the length of the measured phase. With
// --trace 0 the run reports the end-to-end metrics with tracing off; with
// --trace 1 it records spans around each layer's calls and reports the
// per-layer metrics instead, writing the spans under --out-dir (default:
// the binary's directory). Every run checks its outputs; on any failed
// check it exits non-zero without a result. Otherwise the last two stdout
// lines are a detail object and the result:
//   {"correct":true,"attempted":N,"failed":0,"metrics":{name:{value,unit}}}

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "util/flags.h"
#include "workloads.h"

namespace {

std::string BinaryDir() {
  char path[4096];
  const ssize_t n = readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (n <= 0) return ".";
  const std::string exe(path, static_cast<size_t>(n));
  return exe.substr(0, exe.rfind('/'));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace exsample;
  // Pipe and socket peers may go away; writes must fail, not kill us.
  signal(SIGPIPE, SIG_IGN);
  Flags flags = Flags::Parse(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const int64_t seed = flags.GetInt("seed", 1);
  e2e::RunOptions options;
  options.seconds = flags.GetDouble("seconds", 10.0);
  options.trace = flags.GetInt("trace", 0) != 0;
  options.out_dir = flags.GetString("out-dir", BinaryDir());
  flags.FailOnUnknown();
  if (seed < 0 || !(options.seconds >= 1.0 && options.seconds <= 600.0)) {
    std::fprintf(stderr,
                 "error: need --seed >= 0 and --seconds in [1, 600]\n");
    return 2;
  }
  options.seed = static_cast<uint64_t>(seed);
  options.serve_binary = BinaryDir() + "/exsample_serve";

  e2e::Outcome outcome;
  if (workload == "tcp_short") {
    outcome = e2e::RunTcpShort(options);
  } else if (workload == "tcp_mixed") {
    outcome = e2e::RunTcpMixed(options);
  } else if (workload == "scan_flat") {
    outcome = e2e::RunScanFlat(options);
  } else if (workload == "dist_local") {
    outcome = e2e::RunDistLocal(options);
  } else {
    std::fprintf(stderr,
                 "error: --workload must be tcp_short, tcp_mixed, scan_flat "
                 "or dist_local\n");
    return 2;
  }
  outcome.detail.Set("workload", workload)
      .Set("seed", seed)
      .Set("seconds", options.seconds)
      .Set("trace", options.trace);
  return e2e::Finish(outcome, options.trace);
}
