// prismbench — the LLMPrism repository benchmark.
//
//   prismbench --workload <fleet-2880|bigjob-faults|stream-churn>
//              --seed N --seconds S --trace <0|1> [--workdir DIR]
//
// Generates the workload from the seed, measures for about S seconds and
// prints a metric table, then, as the last line of stdout, one JSON object
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}: the end-to-end
// metrics with --trace 0, the per-layer metrics of the traced replay with
// --trace 1. Exits nonzero on bad arguments or when the run throws.
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "llmprism/common/log.hpp"
#include "runs.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "prismbench: %s\nusage: prismbench --workload "
               "fleet-2880|bigjob-faults|stream-churn --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prismbench;
  RunArgs args;
  args.workdir = ".bench_build/work";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad flag value");
  }
  const bool batch =
      args.workload == "fleet-2880" || args.workload == "bigjob-faults";
  if (!batch && args.workload != "stream-churn") {
    return usage("unknown workload");
  }
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  llmprism::log::set_level(llmprism::log::Level::kWarn);
  const EnvStamp env = env_stamp();
  std::printf("prismbench: workload %s seed %llu seconds %.1f trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("env: nproc %u, compiler %s, build %s%s%s; threads: %s\n",
              env.nproc, env.compiler.c_str(), env.build_type.c_str(),
              env.optimized ? "" : " (NOT OPTIMIZED)",
              env.asserts_enabled ? " (asserts on)" : "",
              batch ? "analyze at 4 and 1, fan-out replay 1"
                    : "2 shards x prism 1, one sender connection");

  Outcome out;
  try {
    std::filesystem::create_directories(args.workdir);
    if (batch) {
      run_batch(args, out);
    } else {
      run_churn(args, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prismbench: %s\n", e.what());
    return 1;
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "prismbench: nothing was attempted\n");
    return 1;
  }
  out.metrics.info("failed_ratio",
                   static_cast<double>(out.failed) /
                       static_cast<double>(out.attempted),
                   "ratio");
  out.metrics.info("nproc", env.nproc, "count");
  out.metrics.print_table(args.workload);

  const bool correct = out.correct && out.failed == 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.metrics
                  .json(args.trace ? Metrics::Set::kPerLayer
                                   : Metrics::Set::kEndToEnd)
                  .c_str());
  return 0;
}
