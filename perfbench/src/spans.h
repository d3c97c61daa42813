#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The span math of the traced run. Spans are recorded from outside the
/// library around three boundaries: ServiceProvider::Execute (one per
/// query, on the client thread), the transport's CallImpl (one per silo
/// exchange, on whichever thread issued it) and the silo endpoint's
/// HandleMessageView (one per served request, on the serving thread).
/// Everything here is pure so the self-test can drive it with
/// hand-built spans.

struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Length covered by the union of `intervals` (overlaps counted once).
int64_t UnionLength(std::vector<Interval> intervals);

struct ExecSpan {
  uint32_t thread = 0;
  int64_t start = 0;
  int64_t end = 0;
  /// Hash of the query's serialised range.
  uint64_t range_key = 0;
  int algorithm = 0;
  /// EXACT/OPTA: legs may run on fan-out pool threads.
  bool fanout = false;
};

struct CallSpan {
  uint32_t thread = 0;
  int silo = -1;
  int64_t start = 0;
  int64_t end = 0;
  /// Hash of the range decoded from the request (0 when undecodable).
  uint64_t range_key = 0;
  /// Hash of the full request bytes.
  uint64_t request_key = 0;
};

struct HandleSpan {
  int silo = -1;
  int64_t start = 0;
  int64_t end = 0;
  uint64_t request_key = 0;
};

/// For every call, the index of the query it served, or -1.
///   * A call on a thread that was inside an Execute span at the time
///     belongs to that query (single-silo exchanges, and the fan-out leg
///     the caller runs itself).
///   * Otherwise a call whose decoded range equals the range of an
///     in-flight fan-out query that encloses it in time is one of that
///     query's pool-thread legs.
///   * Anything else is background work no query waits for: the
///     auditor's EXACT replays.
std::vector<int64_t> LinkCallsToQueries(const std::vector<ExecSpan>& execs,
                                        const std::vector<CallSpan>& calls);

/// For every handle, the index of the call it served, or -1: the call to
/// the same silo with identical request bytes whose interval encloses the
/// handle (each call takes at most one handle).
std::vector<int64_t> LinkHandlesToCalls(const std::vector<CallSpan>& calls,
                                        const std::vector<HandleSpan>& handles);

/// One query's latency split along its critical path.
struct QueryLayers {
  int64_t exec_ns = 0;
  /// Execute minus the union of its silo-call intervals.
  int64_t provider_self_ns = 0;
  /// The last-finishing call minus the silo handle it enclosed.
  int64_t net_self_ns = 0;
  /// The silo handle inside the last-finishing call.
  int64_t silo_ns = 0;
  /// exec - (provider_self + net_self + silo): time under some call but
  /// not under the last-finishing one, i.e. the launch stagger of
  /// parallel fan-out legs. 0 for a query with one call.
  int64_t residual_ns = 0;
  size_t calls = 0;
  /// Slowest minus fastest leg of a fan-out query; -1 otherwise.
  int64_t fanout_spread_ns = -1;
};

std::vector<QueryLayers> AttributeLayers(
    const std::vector<ExecSpan>& execs, const std::vector<CallSpan>& calls,
    const std::vector<int64_t>& call_query,
    const std::vector<HandleSpan>& handles,
    const std::vector<int64_t>& handle_call);

/// 100 * sum(residual) / sum(exec): the share of end-to-end time that no
/// layer's self time accounts for.
double ResidualPct(const std::vector<QueryLayers>& layers);

/// FNV-1a over `size` bytes.
uint64_t HashBytes(const uint8_t* data, size_t size);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
