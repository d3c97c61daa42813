#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "capture.h"
#include "harness.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Library counters read before and after the traced window.
struct CounterSnapshot {
  uint64_t audited = 0;
  double ledger_cpu_us = 0.0;
  uint64_t ledger_queries = 0;
  fra::AnswerCache::Counters exact;
  fra::TileCache::Counters tiles;
};
CounterSnapshot ReadCounters(fra::ServiceProvider& provider);

/// What the traced part of a run observed.
struct TraceWindow {
  SpanRecorder::Collected spans;
  /// Answers returned inside the traced window.
  uint64_t completed = 0;
  /// Updates applied inside the traced window.
  uint64_t updates = 0;
  CounterSnapshot before;
  CounterSnapshot after;
  double qps_untraced = 0.0;
  double qps_traced = 0.0;
};

/// The per-layer metrics of the query path, in a fixed order (a metric
/// whose work did not occur in this workload reads 0). Replays the
/// captured exchanges single-threaded through the message codecs and the
/// silos' local query API, so call it once the clients have stopped and
/// before the silos' data changes.
std::vector<Metric> QueryLayerMetrics(const TraceWindow& window,
                                      const Corpus& corpus,
                                      Deployment& deployment);

/// The per-layer metrics of the update path, over every update of a run.
std::vector<Metric> UpdateLayerMetrics(const std::vector<UpdateSample>& updates);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
