#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Exact quantile of `sorted` (ascending) by linear interpolation between
/// closest ranks (Hyndman-Fan type 7, numpy's default). Never a bucket
/// interpolation: every quantile the benchmark reports comes from the raw
/// samples. 0 for an empty vector.
double QuantileSorted(const std::vector<double>& sorted, double q);

/// Median of unsorted values (copies).
double Median(std::vector<double> values);

/// Mean; 0 for an empty vector.
double Mean(const std::vector<double>& values);

/// The distribution of one timing, summarised from raw samples.
struct SampleSummary {
  size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  /// Samples strictly above p99: how much data the tail quantile rests on.
  size_t beyond_p99 = 0;
};
SampleSummary Summarize(std::vector<double> samples);

/// Where and on what a run was measured.
struct EnvStamp {
  std::string git_sha;
  unsigned nproc = 0;
  std::string cpu_model;
  std::array<double, 3> load_start{};
  std::array<double, 3> load_end{};
};
EnvStamp StampStart();
void StampEnd(EnvStamp* stamp);

/// CPU time from /proc/stat (machine-wide) and /proc/self/stat (this
/// process), in clock ticks: `busy` is user, nice, system, irq and
/// softirq of the whole machine; `idle` is idle and iowait; `steal` is
/// time the hypervisor gave a runnable virtual CPU to someone else; `own`
/// is this process's user and system time, every thread included.
struct CpuTicks {
  uint64_t busy = 0;
  uint64_t idle = 0;
  uint64_t steal = 0;
  uint64_t own = 0;
};
CpuTicks ReadCpuTicks();
/// Steal as a percentage of the CPU time the machine wanted between two
/// readings (busy + steal); 0 when nothing ran.
double StealPct(const CpuTicks& before, const CpuTicks& after);
/// The share of the machine's CPU capacity between two readings that
/// this process could not have had: steal plus the busy time of other
/// processes (other tenants of a shared machine), in percent of busy +
/// idle + steal; 0 when no time passed.
double InterferencePct(const CpuTicks& before, const CpuTicks& after);

/// The process's peak resident set (VmHWM) in bytes; 0 if unreadable.
uint64_t PeakRssBytes();

/// Minimal JSON object writer: keys in insertion order, numbers printed
/// with every significant digit.
class JsonObject {
 public:
  JsonObject& Number(const std::string& key, double value);
  JsonObject& Integer(const std::string& key, int64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& String(const std::string& key, const std::string& value);
  /// `json` must already be a serialised JSON value.
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonEscape(const std::string& text);
std::string JsonNumber(double value);
std::string JsonArray(const std::vector<double>& values);

/// JSON for an EnvStamp.
std::string EnvStampJson(const EnvStamp& stamp);
/// JSON for a SampleSummary.
std::string SummaryJson(const SampleSummary& summary);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
