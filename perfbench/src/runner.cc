#include "runner.h"

#include <sched.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <string>

#include "stats.h"

namespace perfbench {

namespace {

// Closed-loop warm-up before any window: thread pools spun up, lazy
// instruments resolved, caches filled.
constexpr double kWarmupSeconds = 1.0;
constexpr double kMiB = 1024.0 * 1024.0;

/// Static workloads read in slices of this length; the ingesting one
/// makes each read phase a slice. Throughput and the latency quantiles
/// are taken over the least disturbed slices (see LeastDisturbed): those
/// in which the hypervisor stole the least CPU time and other processes
/// used the least, signals measured from /proc/stat and independent of
/// the program's figures. On a shared host a burst of steal slows a
/// closed loop several-fold, and such bursts come and go within seconds:
/// short slices find the quiet moments of even a busy minute. Every
/// slice is listed on the details line.
constexpr double kSliceSeconds = 0.2;
constexpr size_t kKeepOneSliceIn = 8;
/// Updates are grouped into blocks of at least this much wall time for
/// their disturbance reading (/proc/stat counts in 10 ms ticks);
/// update_p50_ms is taken over the plain updates of the least disturbed
/// blocks.
constexpr double kUpdateBlockSeconds = 0.1;

struct Slice {
  double wall_s = 0.0;
  uint64_t answered = 0;
  std::vector<double> latency_us;
  CpuTicks cpu_start;
  CpuTicks cpu_end;
};

/// The disturbance window of one update: the update itself or, when it
/// follows a read phase, that phase and the update.
struct UpdateWindow {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  CpuTicks cpu_start;
  CpuTicks cpu_end;
};

/// Indices of the entries of `disturbance` (InterferencePct) to keep, in
/// time order: the `keep` least disturbed (ties keep time order) and
/// every other one at or below kQuietPct (two 10 ms ticks of a 0.2 s
/// slice on 4 CPUs; the machine's tick-sampled busy time and the
/// process's own CPU time disagree by a tick or two), so that a quiet run
/// is measured over all of its time.
constexpr double kQuietPct = 2.5;
std::vector<size_t> LeastDisturbed(const std::vector<double>& disturbance,
                                   size_t keep) {
  std::vector<size_t> order(disturbance.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return disturbance[a] < disturbance[b];
  });
  keep = std::min(keep, order.size());
  while (keep < order.size() && disturbance[order[keep]] <= kQuietPct) {
    ++keep;
  }
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

/// One measured read window (one or more read phases).
struct Window {
  double wall_s = 0.0;
  uint64_t answered = 0;  // successful answers
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t updates = 0;
  size_t phases = 0;
  std::vector<Slice> slices;
};

double PerQuery(double total, uint64_t queries) {
  return queries > 0 ? total / static_cast<double>(queries) : 0.0;
}

/// The CPUs the process may run on, in ascending order.
std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Moves every thread of the process, and so every thread it starts
/// later, onto `cpu`.
fra::Status PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const pid_t tid = std::stoi(task.path().filename().string());
    // A thread may exit between listing and pinning.
    if (sched_setaffinity(tid, sizeof(set), &set) != 0 && errno != ESRCH) {
      return fra::Status::Internal("sched_setaffinity failed");
    }
  }
  return fra::Status::OK();
}

}  // namespace

fra::Result<RunResult> RunWorkload(const RunOptions& options) {
  const WorkloadSpec& spec = *options.spec;
  const Scale& scale = options.scale;
  EnvStamp stamp = StampStart();
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.empty()) return fra::Status::Internal("no CPU allowed");
  // Wall time of each stage of the run, for the details line.
  JsonObject stages;
  int64_t stage_start = NowNanos();
  const auto stage = [&](const char* name) {
    const int64_t now = NowNanos();
    stages.Number(name, static_cast<double>(now - stage_start) / 1e9);
    stage_start = now;
  };

  FRA_ASSIGN_OR_RETURN(Corpus corpus, MakeCorpus(spec, scale, options.seed));
  const bool phased = spec.read_phase_s > 0.0;
  // A static corpus is scored against the centralized baseline. An
  // ingesting one starts from the silos' exact answers and folds in every
  // batch it ingests, so each read phase is scored against the truth of
  // its own epoch; the end of the run checks that truth against the
  // silos again.
  std::vector<fra::AggregateSummary> truth;
  if (!phased) truth = CentralizedTruth(corpus);
  stage("inputs");

  // Set-up: partitions in memory -> first query admissible. Repeated so
  // the reported figure is a median; the last deployment serves.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  const size_t reps = options.trace ? 1 : scale.setup_reps;
  for (size_t r = 0; r < reps; ++r) {
    deployment.reset();
    std::vector<fra::ObjectSet> partitions = corpus.partitions;
    const int64_t start = NowNanos();
    FRA_ASSIGN_OR_RETURN(
        deployment,
        Deployment::Create(spec, scale, std::move(partitions), corpus.domain,
                           options.seed, options.trace));
    setup_s.push_back(static_cast<double>(NowNanos() - start) / 1e9);
  }
  stage("setup");
  // From here on the process runs on one CPU at a time, moving to the
  // next one every read slice, so a run samples every CPU's share of the
  // host. A query hands off between threads (clients, fan-out pool, and
  // over TCP the client and server event loops and handlers); spread over
  // the CPUs, every hand-off woke a halted virtual CPU, and on a busy host
  // each wake-up waited for the hypervisor: at 60 % steal runs slowed
  // 3-5x. On one CPU the threads take turns on a virtual CPU that stays
  // busy, and the figures are the CPU cost of the work.
  size_t next_cpu = 0;
  FRA_RETURN_NOT_OK(PinToCpu(cpus[next_cpu++ % cpus.size()]));
  const size_t index_bytes = deployment->IndexBytes();
  if (phased) truth = SiloTruth(*deployment, corpus.queries);
  fra::ServiceProvider& provider = deployment->provider();
  ClientPool clients(&provider, &corpus.queries, spec, options.seed);
  clients.RunPhase(kWarmupSeconds, /*record=*/false);
  provider.WaitForAudits();
  (void)clients.TakeAnswers();
  stage("warmup");

  Score score;
  std::vector<UpdateSample> updates;
  std::vector<UpdateWindow> update_windows;
  // Start of the read phase an update follows; unset for the probe.
  UpdateWindow phase_window;
  size_t next_batch = 0;
  const auto update = [&]() -> fra::Status {
    const size_t b = next_batch++;
    const fra::ObjectSet& batch =
        corpus.fresh_batches[b % corpus.fresh_batches.size()];
    UpdateWindow window = phase_window;
    if (!phased) {
      window.start_ns = NowNanos();
      window.cpu_start = ReadCpuTicks();
    }
    FRA_ASSIGN_OR_RETURN(
        UpdateSample sample,
        ApplyUpdate(*deployment, batch, b % deployment->num_silos()));
    window.end_ns = NowNanos();
    window.cpu_end = ReadCpuTicks();
    updates.push_back(sample);
    update_windows.push_back(window);
    if (phased) AddBatchToTruth(batch, corpus.queries, &truth);
    return fra::Status::OK();
  };

  SpanRecorder& recorder = SpanRecorder::Get();
  const auto read = [&](Window* window, double seconds,
                        bool capture) -> fra::Status {
    FRA_RETURN_NOT_OK(PinToCpu(cpus[next_cpu++ % cpus.size()]));
    const fra::CommStats::Snapshot before = provider.comm();
    const CpuTicks cpu_start = ReadCpuTicks();
    phase_window.start_ns = NowNanos();
    phase_window.cpu_start = cpu_start;
    recorder.set_capturing(capture);
    const double wall = clients.RunPhase(seconds, /*record=*/true);
    const CpuTicks cpu_end = ReadCpuTicks();
    provider.WaitForAudits();
    recorder.set_capturing(false);
    const fra::CommStats::Snapshot comm = provider.comm() - before;
    window->wall_s += wall;
    window->messages += comm.messages;
    window->bytes += comm.TotalBytes();
    ++window->phases;
    window->slices.emplace_back();
    Slice& slice = window->slices.back();
    slice.cpu_start = cpu_start;
    slice.wall_s = wall;
    slice.cpu_end = cpu_end;
    const std::vector<double> latency = clients.TakeLatenciesMicros();
    slice.latency_us.insert(slice.latency_us.end(), latency.begin(),
                            latency.end());
    const std::vector<Answer> answers = clients.TakeAnswers();
    for (const Answer& a : answers) {
      window->answered += a.ok ? 1 : 0;
      slice.answered += a.ok ? 1 : 0;
    }
    score.Add(answers, truth);
    if (phased) {
      FRA_RETURN_NOT_OK(update());
      ++window->updates;
    }
    return fra::Status::OK();
  };
  // Every read phase is a slice; the ingesting workload updates after
  // each.
  const auto read_for = [&](Window* window, double seconds,
                            bool capture) -> fra::Status {
    const double phase_s = phased ? spec.read_phase_s : kSliceSeconds;
    while (window->wall_s < seconds) {
      FRA_RETURN_NOT_OK(read(window, phase_s, capture));
    }
    return fra::Status::OK();
  };

  // Traced runs split the time: an untraced half on the same
  // instrumented deployment (capture off) gives the tracing overhead, the
  // traced half gives the spans.
  Window plain, traced;
  TraceWindow trace_window;
  std::vector<Metric> layer_metrics;
  if (options.trace) {
    FRA_RETURN_NOT_OK(read_for(&plain, options.seconds / 2, false));
    (void)recorder.Collect();
    trace_window.before = ReadCounters(provider);
    FRA_RETURN_NOT_OK(read_for(&traced, options.seconds / 2, true));
    trace_window.after = ReadCounters(provider);
    trace_window.spans = recorder.Collect();
    trace_window.completed = traced.answered;
    trace_window.updates = traced.updates;
    trace_window.qps_untraced =
        static_cast<double>(plain.answered) / plain.wall_s;
    trace_window.qps_traced =
        static_cast<double>(traced.answered) / traced.wall_s;
    stage("read");
    layer_metrics = QueryLayerMetrics(trace_window, corpus, *deployment);
    stage("analysis");
  } else {
    FRA_RETURN_NOT_OK(read_for(&plain, options.seconds, false));
    stage("read");
  }
  // Workloads without ingest time the update path after their reads.
  if (!phased) {
    for (size_t u = 0; u < scale.probe_updates; ++u) {
      FRA_RETURN_NOT_OK(update());
    }
  }

  if (phased) {
    const std::vector<fra::AggregateSummary> silos =
        SiloTruth(*deployment, corpus.queries);
    for (size_t q = 0; q < silos.size(); ++q) {
      if (silos[q].count != truth[q].count ||
          std::bit_cast<uint64_t>(silos[q].sum) !=
              std::bit_cast<uint64_t>(truth[q].sum)) {
        ++score.truth_mismatched;
        ++score.failed;
      }
    }
  }

  stage("final");
  RunResult result;
  result.attempted = score.attempted;
  result.failed = score.failed;
  result.correct = score.attempted > 0 && score.failed == 0;

  // update_p90_ms covers the first p90_updates updates of every
  // workload: a fixed count keeps the share of updates that trigger a silo
  // compaction the same in every run, and p90 catches compaction.
  std::vector<double> update_ms;
  for (size_t u = 0; u < updates.size() && u < scale.p90_updates; ++u) {
    update_ms.push_back(updates[u].total_ms);
  }
  // update_p50_ms is the median of the plain updates (compactions are a
  // third of all updates and would put the median of all at the edge of
  // the plain mode) in the least disturbed half of the update blocks.
  std::vector<size_t> block_first;
  std::vector<double> block_disturbance;
  for (size_t u = 0; u < updates.size();) {
    size_t v = u;
    while (v + 1 < updates.size() &&
           update_windows[v].end_ns - update_windows[u].start_ns <
               static_cast<int64_t>(kUpdateBlockSeconds * 1e9)) {
      ++v;
    }
    block_first.push_back(u);
    block_disturbance.push_back(InterferencePct(update_windows[u].cpu_start,
                                          update_windows[v].cpu_end));
    u = v + 1;
  }
  block_first.push_back(updates.size());
  std::vector<double> plain_update_ms;
  for (size_t k : LeastDisturbed(block_disturbance,
                                 (block_disturbance.size() + 1) / 2)) {
    for (size_t u = block_first[k]; u < block_first[k + 1]; ++u) {
      if (!updates[u].compacted) plain_update_ms.push_back(updates[u].total_ms);
    }
  }
  const SampleSummary update_summary = Summarize(update_ms);
  const SampleSummary plain_update_summary = Summarize(plain_update_ms);

  std::vector<double> slice_qps, slice_steal, slice_interference, pooled;
  for (const Slice& slice : plain.slices) {
    slice_qps.push_back(static_cast<double>(slice.answered) / slice.wall_s);
    slice_steal.push_back(StealPct(slice.cpu_start, slice.cpu_end));
    slice_interference.push_back(
        InterferencePct(slice.cpu_start, slice.cpu_end));
    pooled.insert(pooled.end(), slice.latency_us.begin(),
                  slice.latency_us.end());
  }
  const SampleSummary latency = Summarize(std::move(pooled));
  const std::vector<size_t> kept = LeastDisturbed(
      slice_interference,
      (plain.slices.size() + kKeepOneSliceIn - 1) / kKeepOneSliceIn);
  std::vector<double> kept_qps, kept_latency, kept_index;
  for (size_t i : kept) {
    kept_qps.push_back(slice_qps[i]);
    kept_index.push_back(static_cast<double>(i));
    const std::vector<double>& l = plain.slices[i].latency_us;
    kept_latency.insert(kept_latency.end(), l.begin(), l.end());
  }
  const SampleSummary kept_summary = Summarize(std::move(kept_latency));

  if (options.trace) {
    result.metrics = std::move(layer_metrics);
    for (Metric& m : UpdateLayerMetrics(updates)) {
      result.metrics.push_back(std::move(m));
    }
  } else {
    result.metrics = {
        {"qps", Median(kept_qps), "1/s"},
        {"latency_p50_us", kept_summary.p50, "us"},
        {"latency_p90_us", kept_summary.p90, "us"},
        {"mre", score.mre.Mre(), "ratio"},
        {"bytes_per_query", PerQuery(plain.bytes, plain.answered), "bytes"},
        {"rpcs_per_query", PerQuery(plain.messages, plain.answered), "count"},
        {"setup_s", Median(setup_s), "s"},
        {"index_mb", static_cast<double>(index_bytes) / kMiB, "MiB"},
        {"peak_rss_mb", static_cast<double>(PeakRssBytes()) / kMiB, "MiB"},
        {"update_p50_ms", plain_update_summary.p50, "ms"},
        {"update_p90_ms", update_summary.p90, "ms"},
    };
  }

  StampEnd(&stamp);
  result.details_json =
      JsonObject()
          .String("workload", spec.name)
          .Integer("seed", static_cast<int64_t>(options.seed))
          .Bool("trace", options.trace)
          .Integer("clients", static_cast<int64_t>(spec.clients))
          .Raw("env", EnvStampJson(stamp))
          .Raw("latency_us", SummaryJson(latency))
          .Integer("slices", static_cast<int64_t>(plain.slices.size()))
          .Raw("slices_kept", JsonArray(kept_index))
          .Raw("kept_latency_us", SummaryJson(kept_summary))
          .Raw("slice_qps", JsonArray(slice_qps))
          .Raw("slice_steal_pct", JsonArray(slice_steal))
          .Raw("slice_interference_pct", JsonArray(slice_interference))
          .Raw("update_ms", SummaryJson(update_summary))
          .Raw("plain_update_ms", SummaryJson(plain_update_summary))
          .Raw("update_block_interference_pct", JsonArray(block_disturbance))
          .Raw("update_samples_ms", JsonArray(update_ms))
          .Raw("setup_s", JsonArray(setup_s))
          .Raw("stage_s", stages.str())
          .Integer("read_phases",
                   static_cast<int64_t>(plain.phases + traced.phases))
          .Integer("exact_checked", static_cast<int64_t>(score.exact_checked))
          .Integer("exact_mismatched",
                   static_cast<int64_t>(score.exact_mismatched))
          .Integer("truth_mismatched",
                   static_cast<int64_t>(score.truth_mismatched))
          .Integer("approximate_scored",
                   static_cast<int64_t>(score.mre.count()))
          .str();
  return result;
}

}  // namespace perfbench
