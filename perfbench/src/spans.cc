#include "spans.h"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

int64_t UnionLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t total = 0;
  bool open = false;
  Interval current;
  for (const Interval& interval : intervals) {
    if (interval.end <= interval.start) continue;
    if (open && interval.start <= current.end) {
      current.end = std::max(current.end, interval.end);
      continue;
    }
    if (open) total += current.end - current.start;
    current = interval;
    open = true;
  }
  if (open) total += current.end - current.start;
  return total;
}

namespace {

bool Encloses(int64_t outer_start, int64_t outer_end, int64_t start,
              int64_t end) {
  return outer_start <= start && end <= outer_end;
}

}  // namespace

std::vector<int64_t> LinkCallsToQueries(const std::vector<ExecSpan>& execs,
                                        const std::vector<CallSpan>& calls) {
  // Per client thread, its queries in start order (a closed-loop client
  // runs one query at a time, so they do not overlap).
  std::unordered_map<uint32_t, std::vector<int64_t>> by_thread;
  std::unordered_map<uint64_t, std::vector<int64_t>> fanout_by_range;
  for (size_t i = 0; i < execs.size(); ++i) {
    by_thread[execs[i].thread].push_back(static_cast<int64_t>(i));
    if (execs[i].fanout) {
      fanout_by_range[execs[i].range_key].push_back(static_cast<int64_t>(i));
    }
  }
  for (auto& [thread, indices] : by_thread) {
    std::sort(indices.begin(), indices.end(), [&](int64_t a, int64_t b) {
      return execs[a].start < execs[b].start;
    });
  }

  std::vector<int64_t> link(calls.size(), -1);
  for (size_t c = 0; c < calls.size(); ++c) {
    const CallSpan& call = calls[c];
    const auto thread_it = by_thread.find(call.thread);
    if (thread_it != by_thread.end()) {
      const std::vector<int64_t>& indices = thread_it->second;
      // The last query that started at or before the call.
      auto it = std::upper_bound(
          indices.begin(), indices.end(), call.start,
          [&](int64_t start, int64_t e) { return start < execs[e].start; });
      if (it != indices.begin()) {
        const ExecSpan& exec = execs[*(it - 1)];
        if (Encloses(exec.start, exec.end, call.start, call.end)) {
          link[c] = *(it - 1);
          continue;
        }
      }
    }
    if (call.range_key == 0) continue;
    const auto range_it = fanout_by_range.find(call.range_key);
    if (range_it == fanout_by_range.end()) continue;
    for (int64_t e : range_it->second) {
      if (Encloses(execs[e].start, execs[e].end, call.start, call.end)) {
        link[c] = e;
        break;
      }
    }
  }
  return link;
}

std::vector<int64_t> LinkHandlesToCalls(
    const std::vector<CallSpan>& calls,
    const std::vector<HandleSpan>& handles) {
  std::unordered_map<uint64_t, std::vector<int64_t>> by_key;
  for (size_t c = 0; c < calls.size(); ++c) {
    const uint64_t key =
        calls[c].request_key ^ (static_cast<uint64_t>(calls[c].silo) << 56);
    by_key[key].push_back(static_cast<int64_t>(c));
  }
  std::vector<int64_t> order(handles.size());
  for (size_t h = 0; h < handles.size(); ++h) order[h] = static_cast<int64_t>(h);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return handles[a].start < handles[b].start;
  });

  std::vector<bool> taken(calls.size(), false);
  std::vector<int64_t> link(handles.size(), -1);
  for (int64_t h : order) {
    const HandleSpan& handle = handles[h];
    const uint64_t key =
        handle.request_key ^ (static_cast<uint64_t>(handle.silo) << 56);
    const auto it = by_key.find(key);
    if (it == by_key.end()) continue;
    for (int64_t c : it->second) {
      if (taken[c] || calls[c].silo != handle.silo) continue;
      if (Encloses(calls[c].start, calls[c].end, handle.start, handle.end)) {
        taken[c] = true;
        link[h] = c;
        break;
      }
    }
  }
  return link;
}

std::vector<QueryLayers> AttributeLayers(
    const std::vector<ExecSpan>& execs, const std::vector<CallSpan>& calls,
    const std::vector<int64_t>& call_query,
    const std::vector<HandleSpan>& handles,
    const std::vector<int64_t>& handle_call) {
  std::vector<std::vector<int64_t>> query_calls(execs.size());
  for (size_t c = 0; c < calls.size(); ++c) {
    if (call_query[c] >= 0) {
      query_calls[call_query[c]].push_back(static_cast<int64_t>(c));
    }
  }
  std::vector<int64_t> call_handle(calls.size(), -1);
  for (size_t h = 0; h < handles.size(); ++h) {
    if (handle_call[h] >= 0) call_handle[handle_call[h]] = static_cast<int64_t>(h);
  }

  std::vector<QueryLayers> out(execs.size());
  for (size_t q = 0; q < execs.size(); ++q) {
    QueryLayers& layers = out[q];
    const ExecSpan& exec = execs[q];
    layers.exec_ns = exec.end - exec.start;
    layers.calls = query_calls[q].size();
    if (query_calls[q].empty()) {
      layers.provider_self_ns = layers.exec_ns;
      continue;
    }
    std::vector<Interval> intervals;
    int64_t last = query_calls[q].front();
    int64_t fastest = INT64_MAX;
    int64_t slowest = 0;
    for (int64_t c : query_calls[q]) {
      intervals.push_back({calls[c].start, calls[c].end});
      if (calls[c].end > calls[last].end) last = c;
      const int64_t duration = calls[c].end - calls[c].start;
      fastest = std::min(fastest, duration);
      slowest = std::max(slowest, duration);
    }
    const int64_t covered = UnionLength(std::move(intervals));
    const int64_t last_call = calls[last].end - calls[last].start;
    const int64_t h = call_handle[last];
    layers.silo_ns = h >= 0 ? handles[h].end - handles[h].start : 0;
    layers.provider_self_ns = layers.exec_ns - covered;
    layers.net_self_ns = last_call - layers.silo_ns;
    layers.residual_ns = layers.exec_ns - layers.provider_self_ns -
                         layers.net_self_ns - layers.silo_ns;
    if (exec.fanout && query_calls[q].size() >= 2) {
      layers.fanout_spread_ns = slowest - fastest;
    }
  }
  return out;
}

double ResidualPct(const std::vector<QueryLayers>& layers) {
  int64_t exec = 0;
  int64_t residual = 0;
  for (const QueryLayers& q : layers) {
    exec += q.exec_ns;
    residual += q.residual_ns;
  }
  return exec > 0 ? 100.0 * static_cast<double>(residual) /
                        static_cast<double>(exec)
                  : 0.0;
}

uint64_t HashBytes(const uint8_t* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace perfbench
