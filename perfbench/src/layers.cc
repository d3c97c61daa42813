#include "layers.h"

#include <algorithm>
#include <map>
#include <set>

#include "spans.h"

namespace perfbench {

namespace {

using fra::FraAlgorithm;

constexpr FraAlgorithm kAlgorithms[] = {
    FraAlgorithm::kExact,     FraAlgorithm::kOpta,
    FraAlgorithm::kIidEst,    FraAlgorithm::kIidEstLsr,
    FraAlgorithm::kNonIidEst, FraAlgorithm::kNonIidEstLsr};

double Micros(int64_t nanos) { return static_cast<double>(nanos) / 1e3; }

double Ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

uint64_t RangeKey(const fra::QueryRange& range) {
  fra::BinaryWriter writer;
  fra::SerializeRange(range, &writer);
  const std::vector<uint8_t> bytes = writer.Release();
  return HashBytes(bytes.data(), bytes.size());
}

/// The range a silo request carries, when it is a data-plane request.
bool DecodeRange(const std::vector<uint8_t>& request, fra::QueryRange* range) {
  auto type = fra::PeekMessageType(request);
  if (!type.ok()) return false;
  fra::BinaryReader reader(request);
  if (*type == fra::MessageType::kAggregateRequest) {
    auto decoded = fra::AggregateRequest::Decode(&reader);
    if (!decoded.ok()) return false;
    *range = decoded->range;
    return true;
  }
  if (*type == fra::MessageType::kCellVectorRequest) {
    auto decoded = fra::CellVectorRequest::Decode(&reader);
    if (!decoded.ok()) return false;
    *range = decoded->range;
    return true;
  }
  return false;
}

/// Running mean.
struct Avg {
  double total = 0.0;
  uint64_t n = 0;
  void Add(double v) {
    total += v;
    ++n;
  }
  double value() const { return n > 0 ? total / static_cast<double>(n) : 0.0; }
};

/// Single-threaded replay of captured exchanges: the codec and silo-local
/// costs with no other query competing.
struct Replay {
  Avg encode_us, decode_us, handle_alone_us, dispatch_us, queue_wait_us;
  Avg rtree_us, histogram_us, boundary_cells_us, boundary_cells_per_call;
  Avg lsr_us, lsr_level;
};

template <class F>
double TimeMicros(F&& f) {
  const int64_t start = NowNanos();
  f();
  return Micros(NowNanos() - start);
}

/// The faster of two timed runs: replayed calls take microseconds, so a
/// single descheduling would otherwise dominate one sample.
template <class F>
double BestOfTwoMicros(F&& f) {
  const double first = TimeMicros(f);
  return std::min(first, TimeMicros(f));
}

Replay ReplayCalls(const SpanRecorder::Collected& spans,
                   const std::vector<double>& handle_under_load_us,
                   Deployment& deployment) {
  Replay replay;
  for (size_t c = 0; c < spans.calls.size(); ++c) {
    const SpanRecorder::CallRecord& call = spans.calls[c];
    if (call.response.empty() || call.silo < 0 ||
        static_cast<size_t>(call.silo) >= deployment.num_silos()) {
      continue;
    }
    auto type = fra::PeekMessageType(call.request);
    if (!type.ok()) continue;
    fra::Silo& silo = deployment.silo(static_cast<size_t>(call.silo));
    // One untimed pass first, so the bare index call and the full handle
    // below both run with this range's data already in the CPU caches.
    (void)silo.HandleMessageView(fra::ConstByteSpan(call.request));
    double decode = 0.0, encode = 0.0, local = 0.0;
    if (*type == fra::MessageType::kAggregateRequest) {
      fra::Result<fra::AggregateRequest> request = fra::AggregateRequest();
      decode += BestOfTwoMicros([&] {
        fra::BinaryReader reader(call.request);
        request = fra::AggregateRequest::Decode(&reader);
      });
      if (!request.ok()) continue;
      fra::Result<fra::AggregateSummary> summary = fra::AggregateSummary();
      decode += BestOfTwoMicros(
          [&] { summary = fra::DecodeSummaryResponse(call.response); });
      if (!summary.ok()) continue;
      encode += BestOfTwoMicros([&] { (void)request->Encode(); });
      encode += BestOfTwoMicros([&] { (void)fra::EncodeSummaryResponse(*summary); });
      switch (request->mode) {
        case fra::LocalQueryMode::kExact:
          local = BestOfTwoMicros([&] { (void)silo.ExactRangeAggregate(request->range); });
          replay.rtree_us.Add(local);
          break;
        case fra::LocalQueryMode::kLsr: {
          int level = 0;
          local = BestOfTwoMicros([&] {
            (void)silo.LsrRangeAggregate(request->range, request->epsilon,
                                         request->delta, request->sum0,
                                         &level);
          });
          replay.lsr_us.Add(local);
          replay.lsr_level.Add(level);
          break;
        }
        case fra::LocalQueryMode::kHistogram:
          local = BestOfTwoMicros([&] { (void)silo.HistogramEstimate(request->range); });
          replay.histogram_us.Add(local);
          break;
      }
    } else if (*type == fra::MessageType::kCellVectorRequest) {
      fra::Result<fra::CellVectorRequest> request = fra::CellVectorRequest();
      decode += BestOfTwoMicros([&] {
        fra::BinaryReader reader(call.request);
        request = fra::CellVectorRequest::Decode(&reader);
      });
      if (!request.ok()) continue;
      fra::Result<std::vector<fra::CellContribution>> cells =
          std::vector<fra::CellContribution>();
      decode += BestOfTwoMicros(
          [&] { cells = fra::DecodeCellVectorResponse(call.response); });
      if (!cells.ok()) continue;
      encode += BestOfTwoMicros([&] { (void)request->Encode(); });
      encode += BestOfTwoMicros([&] { (void)fra::EncodeCellVectorResponse(*cells); });
      const bool use_lsr = request->mode == fra::LocalQueryMode::kLsr;
      size_t produced = 0;
      local = BestOfTwoMicros([&] {
        produced = silo.BoundaryCellContributions(
                           request->range, use_lsr, request->epsilon,
                           request->delta, request->sum0)
                       .size();
      });
      replay.boundary_cells_us.Add(local);
      replay.boundary_cells_per_call.Add(static_cast<double>(produced));
    } else {
      continue;  // control plane (grid fetch, delta sync)
    }
    const double alone = BestOfTwoMicros(
        [&] { (void)silo.HandleMessageView(fra::ConstByteSpan(call.request)); });
    replay.decode_us.Add(decode);
    replay.encode_us.Add(encode);
    replay.handle_alone_us.Add(alone);
    replay.dispatch_us.Add(alone - local);
    if (handle_under_load_us[c] >= 0.0) {
      replay.queue_wait_us.Add(handle_under_load_us[c] - alone);
    }
  }
  return replay;
}

}  // namespace

CounterSnapshot ReadCounters(fra::ServiceProvider& provider) {
  CounterSnapshot snapshot;
  if (provider.auditor() != nullptr) {
    snapshot.audited = provider.auditor()->snapshot().audited;
  }
  if (provider.cost_ledger() != nullptr) {
    for (const auto& rollup : provider.cost_ledger()->Snapshot()) {
      snapshot.ledger_cpu_us += rollup.cpu_micros;
      snapshot.ledger_queries += rollup.queries;
    }
  }
  if (provider.cache() != nullptr) {
    snapshot.exact = provider.cache()->exact().counters();
    snapshot.tiles = provider.cache()->tiles().counters();
  }
  return snapshot;
}

std::vector<Metric> QueryLayerMetrics(const TraceWindow& window,
                                      const Corpus& corpus,
                                      Deployment& deployment) {
  const SpanRecorder::Collected& spans = window.spans;

  // Span vectors for the linkage math.
  std::vector<ExecSpan> execs;
  execs.reserve(spans.execs.size());
  for (const auto& e : spans.execs) {
    execs.push_back({e.thread, e.start, e.end,
                     RangeKey(corpus.queries[e.query].range), e.algorithm,
                     IsFanOut(static_cast<FraAlgorithm>(e.algorithm))});
  }
  std::vector<CallSpan> calls;
  calls.reserve(spans.calls.size());
  for (const auto& c : spans.calls) {
    fra::QueryRange range;
    calls.push_back({c.thread, c.silo, c.start, c.end,
                     DecodeRange(c.request, &range) ? RangeKey(range) : 0,
                     HashBytes(c.request.data(), c.request.size())});
  }
  std::vector<HandleSpan> handles;
  handles.reserve(spans.handles.size());
  for (const auto& h : spans.handles) {
    handles.push_back({h.silo, h.start, h.end, h.request_key});
  }
  const std::vector<int64_t> call_query = LinkCallsToQueries(execs, calls);
  const std::vector<int64_t> handle_call = LinkHandlesToCalls(calls, handles);
  const std::vector<QueryLayers> layers =
      AttributeLayers(execs, calls, call_query, handles, handle_call);

  std::vector<double> call_handle_us(calls.size(), -1.0);
  for (size_t h = 0; h < handles.size(); ++h) {
    if (handle_call[h] >= 0) {
      call_handle_us[handle_call[h]] = Micros(handles[h].end - handles[h].start);
    }
  }

  std::map<int, Avg> execute_us, self_us, handle_us;
  for (size_t q = 0; q < execs.size(); ++q) {
    execute_us[execs[q].algorithm].Add(Micros(layers[q].exec_ns));
    self_us[execs[q].algorithm].Add(Micros(layers[q].provider_self_ns));
  }
  Avg call_us, net_self_us, request_bytes, response_bytes, spread_us;
  double audit_call_us = 0.0;
  uint64_t linked_calls = 0;
  for (size_t c = 0; c < calls.size(); ++c) {
    const double duration = Micros(calls[c].end - calls[c].start);
    if (call_query[c] < 0) {
      audit_call_us += duration;
      continue;
    }
    ++linked_calls;
    call_us.Add(duration);
    request_bytes.Add(static_cast<double>(spans.calls[c].request.size()));
    response_bytes.Add(static_cast<double>(spans.calls[c].response_bytes));
    if (call_handle_us[c] >= 0.0) {
      net_self_us.Add(duration - call_handle_us[c]);
      handle_us[execs[call_query[c]].algorithm].Add(call_handle_us[c]);
    }
  }
  for (const QueryLayers& q : layers) {
    if (q.fanout_spread_ns >= 0) spread_us.Add(Micros(q.fanout_spread_ns));
  }

  // index.grid_us: the provider-side grid work of an estimator query,
  // replayed once per distinct range on the merged grid g_0.
  std::set<uint32_t> estimator_ranges;
  for (const auto& e : spans.execs) {
    if (!IsFanOut(static_cast<FraAlgorithm>(e.algorithm))) {
      estimator_ranges.insert(e.query);
    }
  }
  Avg grid_us;
  const fra::GridIndex& grid = deployment.provider().merged_grid();
  for (uint32_t q : estimator_ranges) {
    const fra::QueryRange& range = corpus.queries[q].range;
    grid_us.Add(TimeMicros([&] {
      (void)grid.ClassifyRangeCells(range);
      (void)grid.IntersectingCellsAggregate(range);
    }));
  }

  const Replay replay = ReplayCalls(spans, call_handle_us, deployment);

  const CounterSnapshot& b = window.before;
  const CounterSnapshot& a = window.after;
  const double queries = static_cast<double>(window.completed);
  const double exact_lookups = static_cast<double>(
      (a.exact.hits - b.exact.hits) + (a.exact.misses - b.exact.misses));
  const double tile_lookups = static_cast<double>(
      (a.tiles.hits - b.tiles.hits) + (a.tiles.misses - b.tiles.misses));

  std::vector<Metric> out;
  for (FraAlgorithm algorithm : kAlgorithms) {
    const int key = static_cast<int>(algorithm);
    const std::string suffix = AlgorithmSuffix(algorithm);
    out.push_back({"provider.execute_us." + suffix, execute_us[key].value(), "us"});
    out.push_back({"provider.self_us." + suffix, self_us[key].value(), "us"});
    out.push_back({"silo.handle_us." + suffix, handle_us[key].value(), "us"});
  }
  out.push_back({"index.grid_us", grid_us.value(), "us"});
  out.push_back({"net.call_us", call_us.value(), "us"});
  out.push_back({"net.self_us", net_self_us.value(), "us"});
  out.push_back({"net.calls_per_query",
                 Ratio(static_cast<double>(linked_calls),
                       static_cast<double>(execs.size())),
                 "count"});
  out.push_back({"net.request_bytes", request_bytes.value(), "bytes"});
  out.push_back({"net.response_bytes", response_bytes.value(), "bytes"});
  out.push_back({"net.encode_us", replay.encode_us.value(), "us"});
  out.push_back({"net.decode_us", replay.decode_us.value(), "us"});
  out.push_back({"net.fanout_spread_us", spread_us.value(), "us"});
  out.push_back({"silo.handle_alone_us", replay.handle_alone_us.value(), "us"});
  out.push_back({"silo.queue_wait_us", replay.queue_wait_us.value(), "us"});
  out.push_back({"silo.dispatch_us", replay.dispatch_us.value(), "us"});
  out.push_back({"index.rtree_us", replay.rtree_us.value(), "us"});
  out.push_back({"index.histogram_us", replay.histogram_us.value(), "us"});
  out.push_back({"index.boundary_cells_us", replay.boundary_cells_us.value(), "us"});
  out.push_back({"index.boundary_cells_per_call",
                 replay.boundary_cells_per_call.value(), "count"});
  out.push_back({"core.lsr_us", replay.lsr_us.value(), "us"});
  out.push_back({"core.lsr_level_mean", replay.lsr_level.value(), "level"});
  out.push_back({"cache.exact_hit_ratio",
                 Ratio(static_cast<double>(a.exact.hits - b.exact.hits),
                       exact_lookups),
                 "ratio"});
  out.push_back({"cache.tile_hit_ratio",
                 Ratio(static_cast<double>(a.tiles.hits - b.tiles.hits),
                       tile_lookups),
                 "ratio"});
  out.push_back({"cache.exact_evictions_per_query",
                 Ratio(static_cast<double>(a.exact.evictions - b.exact.evictions),
                       queries),
                 "count"});
  out.push_back({"cache.tile_invalidations_per_update",
                 Ratio(static_cast<double>(a.tiles.invalidations -
                                           b.tiles.invalidations),
                       static_cast<double>(window.updates)),
                 "count"});
  out.push_back({"obs.audits_per_query",
                 Ratio(static_cast<double>(a.audited - b.audited), queries),
                 "count"});
  out.push_back({"obs.audit_us", Ratio(audit_call_us, queries), "us"});
  out.push_back({"obs.ledger_cpu_us_per_query",
                 Ratio(a.ledger_cpu_us - b.ledger_cpu_us,
                       static_cast<double>(a.ledger_queries - b.ledger_queries)),
                 "us"});
  out.push_back({"trace.residual_pct", ResidualPct(layers), "%"});
  out.push_back({"trace.overhead_pct",
                 100.0 * Ratio(window.qps_untraced - window.qps_traced,
                               window.qps_untraced),
                 "%"});
  return out;
}

std::vector<Metric> UpdateLayerMetrics(
    const std::vector<UpdateSample>& updates) {
  Avg ingest_us, pending, sync_us, sync_bytes;
  for (const UpdateSample& u : updates) {
    ingest_us.Add(u.ingest_us);
    pending.Add(static_cast<double>(u.pending_ingest));
    sync_us.Add(u.sync_us);
    sync_bytes.Add(static_cast<double>(u.sync_bytes));
  }
  return {{"silo.ingest_us", ingest_us.value(), "us"},
          {"silo.pending_ingest_mean", pending.value(), "count"},
          {"provider.sync_us", sync_us.value(), "us"},
          {"provider.sync_bytes", sync_bytes.value(), "bytes"}};
}

}  // namespace perfbench
