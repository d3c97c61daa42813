// The repository benchmark's measuring program. run.py builds it and
// calls it as
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
// It prints a details line (sample counts, environment stamp) and, last,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Exit
// code 0 when correct, 1 when a query failed or an EXACT answer was
// wrong, 2 when the run could not be made.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner.h"
#include "stats.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  bool have_seed = false, have_seconds = false;
  if (argc % 2 != 1) return Usage("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = true;
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  options.spec = perfbench::FindWorkload(workload);
  if (options.spec == nullptr) return Usage("unknown --workload");
  if (!have_seed || !have_seconds || options.seconds <= 0.0) {
    return Usage("--seed and a positive --seconds are required");
  }

  fra::Result<perfbench::RunResult> run = perfbench::RunWorkload(options);
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench: run failed: %s\n",
                 run.status().ToString().c_str());
    return 2;
  }
  std::string metrics = "{";
  for (size_t i = 0; i < run->metrics.size(); ++i) {
    const perfbench::Metric& m = run->metrics[i];
    metrics += (i ? ", " : "") + perfbench::JsonEscape(m.name) + ": " +
               perfbench::JsonObject()
                   .Number("value", m.value)
                   .String("unit", m.unit)
                   .str();
  }
  metrics += "}";
  std::printf("%s\n", run->details_json.c_str());
  std::printf("%s\n", perfbench::JsonObject()
                          .Bool("correct", run->correct)
                          .Integer("attempted",
                                   static_cast<int64_t>(run->attempted))
                          .Integer("failed", static_cast<int64_t>(run->failed))
                          .Raw("metrics", metrics)
                          .str()
                          .c_str());
  std::fflush(stdout);
  return run->correct ? 0 : 1;
}
