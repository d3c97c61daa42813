// Self-test of the benchmark's own machinery: exact quantiles, the span
// math (interval union, linkage, residual), seed determinism, and a short
// run of every workload at a small scale. Prints one JSON line naming the
// metrics each workload reports (run.py --selftest checks it against
// BENCHMARK.json). Exit code 0 when every check passes.

#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "runner.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestQuantiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Check(Near(QuantileSorted(v, 0.5), 50.5), "p50 of 1..100");
  Check(Near(QuantileSorted(v, 0.99), 99.01), "p99 of 1..100");
  Check(Near(QuantileSorted(v, 0.0), 1.0), "p0 of 1..100");
  const SampleSummary s = Summarize({5, 1, 4, 2, 3});
  Check(s.n == 5 && Near(s.p50, 3.0) && Near(s.max, 5.0), "summary");
  Check(s.beyond_p99 == 1, "one sample beyond p99 of five");
  Check(Near(Median({3, 1, 2, 10}), 2.5), "median of even count");
}

void TestUnion() {
  Check(UnionLength({}) == 0, "empty union");
  // Parallel children [0,10) [2,6) [8,14) and a disjoint [20,25).
  Check(UnionLength({{0, 10}, {2, 6}, {8, 14}, {20, 25}}) == 19,
        "union of overlapping and disjoint intervals");
  Check(UnionLength({{5, 5}, {7, 3}}) == 0, "empty intervals ignored");
}

void TestLinkageAndLayers() {
  // Query 0: EXACT on client thread 1 over [0, 100), range key 7. Its legs:
  // one on the caller thread, two on pool threads 5 and 6.
  // Query 1: IID on client thread 2 over [10, 60), range key 9.
  std::vector<ExecSpan> execs = {
      {1, 0, 100, 7, 0, /*fanout=*/true},
      {2, 10, 60, 9, 2, /*fanout=*/false},
  };
  std::vector<CallSpan> calls = {
      {1, 0, 10, 50, 7, 101},   // caller's own leg
      {5, 1, 20, 90, 7, 101},   // pool leg, slowest, ends last
      {6, 2, 12, 40, 7, 101},   // pool leg
      {2, 3, 20, 50, 9, 202},   // single-silo call on client thread 2
      {5, 0, 95, 130, 7, 101},  // same range, outside query 0: audit
      {7, 4, 30, 40, 11, 303},  // no query has range 11: audit
  };
  const std::vector<int64_t> link = LinkCallsToQueries(execs, calls);
  Check(link == std::vector<int64_t>({0, 0, 0, 1, -1, -1}),
        "calls linked by thread, by range, or not at all");

  std::vector<HandleSpan> handles = {
      {0, 15, 45, 101},  // inside call 0
      {1, 30, 80, 101},  // inside call 1
      {2, 14, 38, 101},  // inside call 2
      {3, 25, 45, 202},  // inside call 3
      {0, 96, 120, 101}, // inside audit call 4
  };
  const std::vector<int64_t> handle_link = LinkHandlesToCalls(calls, handles);
  Check(handle_link == std::vector<int64_t>({0, 1, 2, 3, 4}),
        "handles linked to the enclosing call with the same request");

  const std::vector<QueryLayers> layers =
      AttributeLayers(execs, calls, link, handles, handle_link);
  // Query 0: calls cover [10, 90) = 80, so provider self = 20. The last
  // leg (call 1, 70 long) holds a 50 handle: net self 20, silo 50. The
  // residual is the stagger 80 - 70 = 10.
  Check(layers[0].provider_self_ns == 20, "provider self under parallel legs");
  Check(layers[0].net_self_ns == 20 && layers[0].silo_ns == 50,
        "last leg split into net and silo");
  Check(layers[0].residual_ns == 10, "fan-out stagger is the residual");
  Check(layers[0].fanout_spread_ns == 70 - 28, "slowest minus fastest leg");
  Check(layers[0].calls == 3, "three legs");
  // Query 1: 50 long, call 30 with a 20 handle.
  Check(layers[1].provider_self_ns == 20 && layers[1].net_self_ns == 10 &&
            layers[1].silo_ns == 20 && layers[1].residual_ns == 0,
        "single-silo query splits exactly");
  Check(layers[1].fanout_spread_ns == -1, "no spread for one call");
  Check(Near(ResidualPct(layers), 100.0 * 10 / 150), "residual percentage");
}

Scale SmallScale() {
  Scale scale;
  scale.objects = 30'000;
  scale.queries = 256;
  scale.batch_objects = 200;
  scale.fresh_batches = 16;
  scale.probe_updates = 6;
  scale.p90_updates = 6;
  scale.setup_reps = 1;
  return scale;
}

std::vector<double> ExactAnswers(const WorkloadSpec& spec, const Scale& scale,
                                 const Corpus& corpus, uint64_t seed) {
  auto deployment = Deployment::Create(spec, scale, corpus.partitions,
                                       corpus.domain, seed, false);
  std::vector<double> answers;
  if (!deployment.ok()) return answers;
  for (const fra::FraQuery& query : corpus.queries) {
    auto answer =
        (*deployment)->provider().Execute(query, fra::FraAlgorithm::kExact);
    answers.push_back(answer.ok() ? *answer : std::nan(""));
  }
  return answers;
}

void TestSeeds() {
  const WorkloadSpec& spec = *FindWorkload("inproc-paper-mix");
  const Scale scale = SmallScale();
  auto a = MakeCorpus(spec, scale, 5);
  auto b = MakeCorpus(spec, scale, 5);
  auto c = MakeCorpus(spec, scale, 6);
  Check(a.ok() && b.ok() && c.ok(), "corpus generation");
  if (!a.ok() || !b.ok() || !c.ok()) return;

  const auto same_queries = [](const Corpus& x, const Corpus& y) {
    if (x.queries.size() != y.queries.size()) return false;
    for (size_t i = 0; i < x.queries.size(); ++i) {
      if (!(x.queries[i].range.BoundingBox() ==
            y.queries[i].range.BoundingBox())) {
        return false;
      }
    }
    return true;
  };
  Check(same_queries(*a, *b), "same seed, same queries");
  Check(a->partitions == b->partitions, "same seed, same partitions");
  Check(a->fresh_batches == b->fresh_batches, "same seed, same ingest stream");
  Check(!same_queries(*a, *c), "different seed, different queries");

  const auto stream = [&](uint64_t seed) {
    std::vector<uint64_t> out;
    for (size_t client = 0; client < 2; ++client) {
      ItemStream items(*FindWorkload("cache-zipf-ingest"), 256, seed, client);
      for (int i = 0; i < 64; ++i) {
        const Item item = items.Next();
        out.push_back(item.query * 64 + static_cast<uint64_t>(item.algorithm) *
                                            2 +
                      static_cast<uint64_t>(item.kind));
      }
    }
    return out;
  };
  Check(stream(5) == stream(5), "same seed, same item stream");
  Check(stream(5) != stream(6), "different seed, different item stream");

  const std::vector<double> exact_a = ExactAnswers(spec, scale, *a, 5);
  const std::vector<double> exact_b = ExactAnswers(spec, scale, *b, 5);
  Check(exact_a.size() == a->queries.size(), "EXACT answered every query");
  bool identical = exact_a.size() == exact_b.size();
  for (size_t i = 0; identical && i < exact_a.size(); ++i) {
    identical = std::bit_cast<uint64_t>(exact_a[i]) ==
                std::bit_cast<uint64_t>(exact_b[i]);
  }
  Check(identical, "same seed, bit-identical EXACT answers");
  const std::vector<fra::AggregateSummary> truth = CentralizedTruth(*a);
  bool matches = exact_a.size() == truth.size();
  for (size_t i = 0; matches && i < truth.size(); ++i) {
    matches = exact_a[i] == static_cast<double>(truth[i].count);
  }
  Check(matches, "EXACT COUNT equals the centralized baseline");
}

/// Short runs of every workload, both modes; returns the JSON naming the
/// metrics each reported.
std::string TestRuns() {
  std::string names = "{";
  for (const WorkloadSpec& spec : Workloads()) {
    for (bool trace : {false, true}) {
      RunOptions options;
      options.spec = &spec;
      options.scale = SmallScale();
      options.seed = 3;
      options.seconds = 1.0;
      options.trace = trace;
      auto run = RunWorkload(options);
      const std::string label = spec.name + (trace ? " traced" : "");
      Check(run.ok(), label + " ran");
      if (!run.ok()) continue;
      Check(run->correct && run->attempted > 0, label + " correct");
      std::string list = "[";
      for (const Metric& m : run->metrics) {
        Check(std::isfinite(m.value), label + " " + m.name + " finite");
        list += (list.size() > 1 ? ", " : "") + JsonEscape(m.name);
      }
      names += (names.size() > 1 ? ", " : "") +
               JsonEscape(spec.name + (trace ? "/1" : "/0")) + ": " + list +
               "]";
    }
  }
  return names + "}";
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestQuantiles();
  perfbench::TestUnion();
  perfbench::TestLinkageAndLayers();
  perfbench::TestSeeds();
  const std::string names = perfbench::TestRuns();
  std::printf("%s\n", names.c_str());
  std::fprintf(stderr, "selftest: %d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
