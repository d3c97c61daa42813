#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "capture.h"
#include "fra.h"

namespace perfbench {

/// One closed-loop workload: `clients` threads, each waiting for its
/// answer before sending the next query (the paper's Alg. 4 shape).
struct WorkloadSpec {
  std::string name;
  size_t clients = 1;
  /// Algorithms in round-robin order; shares follow multiplicity.
  std::vector<fra::FraAlgorithm> mix;
  bool tcp = false;
  bool cache = false;
  /// 4 km squares instead of r = 2 km circles.
  bool rect_ranges = false;
  /// Zipf(s = 1) popularity over the query list instead of a cycle.
  bool zipf = false;
  /// Read time between update batches; 0 means one read window followed
  /// by the update probe.
  double read_phase_s = 0.0;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Input sizes. The defaults are the repository's default scale; the
/// self-test shrinks them.
struct Scale {
  size_t objects = 1'000'000;
  size_t silos = 6;
  size_t queries = 4096;
  double radius_km = 2.0;
  double grid_length_km = 1.5;
  size_t batch_objects = 2000;
  size_t fresh_batches = 128;
  /// Updates timed after the read window of a workload without ingest.
  size_t probe_updates = 60;
  /// The number of first updates update_p90_ms is taken over. Over 6
  /// silos of 125k/250k objects, 30 updates are 20 plain ones, 8
  /// compactions of a 125k silo and 2 of a 250k one, so the p90 of all 30
  /// falls among the 125k compactions, away from the boundaries between
  /// those modes.
  size_t p90_updates = 30;
  size_t setup_reps = 3;
};

/// Everything a run feeds the library: the fixed dataset, cut and
/// sampled by the run's seed.
struct Corpus {
  std::vector<fra::ObjectSet> partitions;  // one per silo
  fra::Rect domain;
  std::vector<fra::ObjectSet> fresh_batches;  // the ingest stream
  std::vector<fra::FraQuery> queries;
};

/// The Non-IID 1:1:2 companies (a fixed dataset), split into silos by
/// `seed`, plus a held-out stream of fresh objects from the same
/// distribution in a `seed`-shuffled order, and the `seed`-drawn queries.
fra::Result<Corpus> MakeCorpus(const WorkloadSpec& spec, const Scale& scale,
                               uint64_t seed);

/// One query a client sends.
struct Item {
  uint32_t query = 0;
  fra::FraAlgorithm algorithm = fra::FraAlgorithm::kExact;
  fra::AggregateKind kind = fra::AggregateKind::kCount;
};

/// A client's deterministic query stream: item j of client c depends on
/// (seed, c, j) only. Algorithms rotate through the mix (offset by the
/// client so concurrent clients run different algorithms), COUNT and SUM
/// alternate once per pass over the mix.
class ItemStream {
 public:
  ItemStream(const WorkloadSpec& spec, size_t num_queries, uint64_t seed,
             size_t client);
  Item Next();

 private:
  const WorkloadSpec* spec_;
  size_t num_queries_;
  size_t client_;
  uint64_t next_ = 0;
  fra::Rng rng_;
  std::vector<double> zipf_cdf_;
};

/// Silos, transport and provider of one run. In process the silos come
/// from Federation::Create and, untraced, its own provider serves. Over
/// TCP, or when traced, a provider is created over the benchmark's
/// transport (TCP servers sharing one reactor, or a timed in-process
/// network) in front of the same silos.
class Deployment {
 public:
  /// Takes the partitions by value: set-up time starts with them in
  /// memory and ends when the provider admits queries.
  static fra::Result<std::unique_ptr<Deployment>> Create(
      const WorkloadSpec& spec, const Scale& scale,
      std::vector<fra::ObjectSet> partitions, const fra::Rect& domain,
      uint64_t seed, bool traced);
  ~Deployment();

  fra::ServiceProvider& provider() {
    return provider_ ? *provider_ : federation_->provider();
  }
  fra::Silo& silo(size_t i) { return federation_->silo(i); }
  size_t num_silos() const { return federation_->num_silos(); }
  /// Federation::MemoryUsage total, with the grids of the provider that
  /// actually serves.
  size_t IndexBytes() const;

 private:
  Deployment() = default;

  std::unique_ptr<fra::Federation> federation_;
  std::vector<std::unique_ptr<TimedEndpoint>> endpoints_;
  std::unique_ptr<fra::Reactor> server_reactor_;
  std::vector<std::unique_ptr<fra::TcpSiloServer>> servers_;
  std::unique_ptr<fra::Network> network_;
  std::unique_ptr<fra::ServiceProvider> provider_;
};

/// One answered query.
struct Answer {
  uint32_t query = 0;
  fra::FraAlgorithm algorithm = fra::FraAlgorithm::kExact;
  fra::AggregateKind kind = fra::AggregateKind::kCount;
  bool ok = false;
  double value = 0.0;
};

/// The closed-loop clients. Each phase starts fresh threads that run
/// until the phase's time is up; streams continue across phases.
class ClientPool {
 public:
  ClientPool(fra::ServiceProvider* provider,
             const std::vector<fra::FraQuery>* queries,
             const WorkloadSpec& spec, uint64_t seed);

  /// Runs every client for `seconds`; with `record`, latencies and
  /// answers are kept. Returns the phase's wall time (start to the last
  /// client's last answer).
  double RunPhase(double seconds, bool record);

  /// Latencies recorded since the last call, all clients.
  std::vector<double> TakeLatenciesMicros();
  /// Answers recorded since the last call.
  std::vector<Answer> TakeAnswers();

 private:
  struct Client {
    ItemStream stream;
    std::vector<double> latency_us;
    std::vector<Answer> answers;
  };
  fra::ServiceProvider* provider_;
  const std::vector<fra::FraQuery>* queries_;
  std::vector<Client> clients_;
};

/// Scores answers against ground truth: failures, EXACT bit-identity,
/// and the MRE of approximate answers. Add() takes one read phase (one
/// data epoch); within it each distinct (range, algorithm, aggregate)
/// enters the MRE once, so a range a Zipf draw repeats — answered again
/// from the cache — does not outweigh the rest, as in the paper's MRE
/// over a query set.
struct Score {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t exact_checked = 0;
  uint64_t exact_mismatched = 0;
  /// Ranges whose incrementally kept truth disagreed with the silos.
  uint64_t truth_mismatched = 0;
  fra::MreAccumulator mre;

  void Add(const std::vector<Answer>& answers,
           const std::vector<fra::AggregateSummary>& truth);
};

/// Ground truth from the centralized aggregate R-tree over the pooled
/// partitions (the baseline module).
std::vector<fra::AggregateSummary> CentralizedTruth(const Corpus& corpus);

/// Ground truth of every query from the silos' exact local answers,
/// summed in silo order.
std::vector<fra::AggregateSummary> SiloTruth(
    Deployment& deployment, const std::vector<fra::FraQuery>& queries);

/// Folds an ingested batch into `truth`: the batch's own exact aggregate
/// per query (a centralized R-tree over the batch). COUNT and SUM of
/// integer measures are exact in double, so the result equals a fresh
/// SiloTruth bit for bit.
void AddBatchToTruth(const fra::ObjectSet& batch,
                     const std::vector<fra::FraQuery>& queries,
                     std::vector<fra::AggregateSummary>* truth);

/// One update: Silo::Ingest of a batch, then ServiceProvider::SyncGrids.
struct UpdateSample {
  double total_ms = 0.0;  // Ingest start to SyncGrids return
  double ingest_us = 0.0;
  double sync_us = 0.0;
  uint64_t sync_bytes = 0;
  size_t pending_ingest = 0;  // the silo's uncompacted delta afterwards
  /// The batch pushed the silo's delta over its threshold, so Ingest
  /// rebuilt the silo's LSR-Forest and histogram.
  bool compacted = false;
};
fra::Result<UpdateSample> ApplyUpdate(Deployment& deployment,
                                      const fra::ObjectSet& batch,
                                      size_t silo);

const char* AlgorithmSuffix(fra::FraAlgorithm algorithm);
bool IsFanOut(fra::FraAlgorithm algorithm);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
