#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"

namespace perfbench {

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  Scale scale;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the end-to-end metrics of an uninstrumented deployment.
  /// true: the per-layer metrics of an instrumented one.
  bool trace = false;
};

struct RunResult {
  /// No failed query and every EXACT answer bit-identical to the truth.
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Sample counts, quantile support and the environment stamp.
  std::string details_json;
};

fra::Result<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
