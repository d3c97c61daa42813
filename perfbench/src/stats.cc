#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/build_info.h"

namespace perfbench {

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double position = q * static_cast<double>(sorted.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, sorted.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return sorted[lower] + (sorted[upper] - sorted[lower]) * fraction;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

SampleSummary Summarize(std::vector<double> samples) {
  SampleSummary summary;
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.n = samples.size();
  summary.mean = Mean(samples);
  summary.p50 = QuantileSorted(samples, 0.50);
  summary.p90 = QuantileSorted(samples, 0.90);
  summary.p95 = QuantileSorted(samples, 0.95);
  summary.p99 = QuantileSorted(samples, 0.99);
  summary.max = samples.back();
  summary.beyond_p99 = static_cast<size_t>(
      samples.end() -
      std::upper_bound(samples.begin(), samples.end(), summary.p99));
  return summary;
}

namespace {

std::array<double, 3> ReadLoadAverage() {
  std::array<double, 3> load{};
  std::ifstream in("/proc/loadavg");
  in >> load[0] >> load[1] >> load[2];
  return load;
}

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

EnvStamp StampStart() {
  EnvStamp stamp;
  stamp.git_sha = fra::BuildGitSha();
  stamp.nproc = std::thread::hardware_concurrency();
  stamp.cpu_model = ReadCpuModel();
  stamp.load_start = ReadLoadAverage();
  return stamp;
}

void StampEnd(EnvStamp* stamp) { stamp->load_end = ReadLoadAverage(); }

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  {
    std::ifstream in("/proc/stat");
    std::string label;
    uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
             softirq = 0;
    in >> label >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> ticks.steal;
    ticks.busy = user + nice + system + irq + softirq;
    ticks.idle = idle + iowait;
  }
  // Fields 14 and 15 of /proc/self/stat; the command name (field 2) is
  // parenthesised and may hold spaces, so count from its closing paren.
  std::ifstream in("/proc/self/stat");
  std::string line;
  std::getline(in, line);
  const size_t paren = line.rfind(')');
  if (paren != std::string::npos) {
    std::istringstream fields(line.substr(paren + 1));
    std::string skip;
    for (int field = 3; field <= 13; ++field) fields >> skip;
    uint64_t utime = 0, stime = 0;
    fields >> utime >> stime;
    ticks.own = utime + stime;
  }
  return ticks;
}

double StealPct(const CpuTicks& before, const CpuTicks& after) {
  const double busy = static_cast<double>(after.busy - before.busy);
  const double steal = static_cast<double>(after.steal - before.steal);
  return busy + steal > 0.0 ? 100.0 * steal / (busy + steal) : 0.0;
}

double InterferencePct(const CpuTicks& before, const CpuTicks& after) {
  const double busy = static_cast<double>(after.busy - before.busy);
  const double idle = static_cast<double>(after.idle - before.idle);
  const double steal = static_cast<double>(after.steal - before.steal);
  const double own = static_cast<double>(after.own - before.own);
  const double total = busy + idle + steal;
  return total > 0.0 ? 100.0 * (steal + std::max(0.0, busy - own)) / total
                     : 0.0;
}

uint64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      uint64_t kib = 0;
      fields >> kib;
      return kib * 1024;
    }
  }
  return 0;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonEscape(key) + ": ";
}

JsonObject& JsonObject::Number(const std::string& key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

JsonObject& JsonObject::Integer(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::String(const std::string& key,
                               const std::string& value) {
  Key(key);
  body_ += JsonEscape(value);
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

std::string EnvStampJson(const EnvStamp& stamp) {
  const auto load = [](const std::array<double, 3>& l) {
    return JsonArray({l[0], l[1], l[2]});
  };
  return JsonObject()
      .String("git_sha", stamp.git_sha)
      .Integer("nproc", stamp.nproc)
      .String("cpu_model", stamp.cpu_model)
      .Raw("loadavg_start", load(stamp.load_start))
      .Raw("loadavg_end", load(stamp.load_end))
      .str();
}

std::string SummaryJson(const SampleSummary& summary) {
  return JsonObject()
      .Integer("n", static_cast<int64_t>(summary.n))
      .Number("mean", summary.mean)
      .Number("p50", summary.p50)
      .Number("p90", summary.p90)
      .Number("p95", summary.p95)
      .Number("p99", summary.p99)
      .Number("max", summary.max)
      .Integer("beyond_p99", static_cast<int64_t>(summary.beyond_p99))
      .str();
}

}  // namespace perfbench
