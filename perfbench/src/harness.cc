#include "harness.h"

#include <algorithm>
#include <bit>
#include <thread>
#include <unordered_set>

namespace perfbench {

using fra::FraAlgorithm;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> list;
    WorkloadSpec inproc;
    inproc.name = "inproc-paper-mix";
    // Two clients: the CPU always has a query to run, and the silos'
    // execution locks see a second caller.
    inproc.clients = 2;
    inproc.mix = {FraAlgorithm::kExact,     FraAlgorithm::kOpta,
                  FraAlgorithm::kIidEst,    FraAlgorithm::kIidEstLsr,
                  FraAlgorithm::kNonIidEst, FraAlgorithm::kNonIidEstLsr};
    list.push_back(inproc);

    WorkloadSpec tcp;
    tcp.name = "tcp-fanout-mix";
    // Two clients: on one CPU more would only queue behind each other.
    tcp.clients = 2;
    // 50% IID-est+LSR, 25% NonIID-est+LSR, 25% EXACT.
    tcp.mix = {FraAlgorithm::kIidEstLsr, FraAlgorithm::kNonIidEstLsr,
               FraAlgorithm::kIidEstLsr, FraAlgorithm::kExact};
    tcp.tcp = true;
    list.push_back(tcp);

    WorkloadSpec cache;
    cache.name = "cache-zipf-ingest";
    cache.clients = 2;
    cache.mix = {FraAlgorithm::kNonIidEst, FraAlgorithm::kNonIidEstLsr};
    cache.cache = true;
    cache.rect_ranges = true;
    cache.zipf = true;
    cache.read_phase_s = 0.25;
    list.push_back(cache);
    return list;
  }();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const char* AlgorithmSuffix(FraAlgorithm algorithm) {
  switch (algorithm) {
    case FraAlgorithm::kExact: return "exact";
    case FraAlgorithm::kOpta: return "opta";
    case FraAlgorithm::kIidEst: return "iid";
    case FraAlgorithm::kIidEstLsr: return "iid_lsr";
    case FraAlgorithm::kNonIidEst: return "noniid";
    case FraAlgorithm::kNonIidEstLsr: return "noniid_lsr";
  }
  return "unknown";
}

bool IsFanOut(FraAlgorithm algorithm) {
  return algorithm == FraAlgorithm::kExact || algorithm == FraAlgorithm::kOpta;
}

fra::Result<Corpus> MakeCorpus(const WorkloadSpec& spec, const Scale& scale,
                               uint64_t seed) {
  // The dataset itself is fixed, as the paper's is one corpus: the
  // generator's own default seed draws the hotspot layout. The run's
  // seed drives everything drawn from it — the silo split, the ingest
  // order, the queries and the provider's sampling — so seeds vary the
  // workload without moving the per-query cost with a new city map.
  const size_t fresh = scale.batch_objects * scale.fresh_batches;
  fra::MobilityDataOptions data;
  data.num_objects = scale.objects + fresh;
  data.non_iid = true;
  FRA_ASSIGN_OR_RETURN(fra::FederationDataset dataset,
                       fra::GenerateMobilityData(data));

  // Hold out the tail of every company (its share of `fresh`) as the
  // ingest stream, so fresh objects follow the corpus's distribution.
  std::vector<fra::ObjectSet>& companies = dataset.company_partitions;
  const size_t total = dataset.TotalObjects();
  fra::ObjectSet held_out;
  size_t kept = 0;
  for (size_t c = 0; c < companies.size(); ++c) {
    const size_t keep =
        c + 1 == companies.size()
            ? scale.objects - kept
            : companies[c].size() * scale.objects / total;
    kept += keep;
    held_out.insert(held_out.end(), companies[c].begin() + keep,
                    companies[c].end());
    companies[c].resize(keep);
  }
  fra::Rng shuffle(seed + 4);
  for (size_t i = held_out.size(); i > 1; --i) {
    std::swap(held_out[i - 1], held_out[shuffle.NextUint64(i)]);
  }

  Corpus corpus;
  corpus.domain = dataset.domain;
  FRA_ASSIGN_OR_RETURN(corpus.partitions,
                       fra::SplitIntoSilos(companies, scale.silos, seed + 1));
  for (size_t b = 0; b < scale.fresh_batches; ++b) {
    corpus.fresh_batches.emplace_back(
        held_out.begin() + b * scale.batch_objects,
        held_out.begin() + (b + 1) * scale.batch_objects);
  }

  fra::WorkloadOptions workload;
  workload.num_queries = scale.queries;
  workload.radius_km = scale.radius_km;
  workload.rect_ranges = spec.rect_ranges;
  workload.seed = seed + 2;
  FRA_ASSIGN_OR_RETURN(corpus.queries,
                       fra::GenerateQueries(corpus.partitions, workload));
  return corpus;
}

ItemStream::ItemStream(const WorkloadSpec& spec, size_t num_queries,
                       uint64_t seed, size_t client)
    : spec_(&spec),
      num_queries_(num_queries),
      client_(client),
      rng_(seed * 0x9E3779B97F4A7C15ULL + client + 1) {
  if (spec.zipf) {
    zipf_cdf_.resize(num_queries);
    double total = 0.0;
    for (size_t k = 0; k < num_queries; ++k) {
      total += 1.0 / static_cast<double>(k + 1);
      zipf_cdf_[k] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
  }
}

Item ItemStream::Next() {
  const uint64_t j = next_++;
  Item item;
  if (spec_->zipf) {
    const double u = rng_.NextDouble();
    const size_t rank = static_cast<size_t>(
        std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    item.query = static_cast<uint32_t>(std::min(rank, num_queries_ - 1));
  } else {
    item.query = static_cast<uint32_t>(
        (j * spec_->clients + client_) % num_queries_);
  }
  const size_t m = spec_->mix.size();
  item.algorithm = spec_->mix[(j + client_) % m];
  item.kind = (j / m) % 2 == 0 ? fra::AggregateKind::kCount
                                : fra::AggregateKind::kSum;
  return item;
}

namespace {

size_t HalfCores() {
  return std::max<size_t>(1, std::thread::hardware_concurrency() / 2);
}

}  // namespace

fra::Result<std::unique_ptr<Deployment>> Deployment::Create(
    const WorkloadSpec& spec, const Scale& scale,
    std::vector<fra::ObjectSet> partitions, const fra::Rect& domain,
    uint64_t seed, bool traced) {
  fra::FederationOptions options;
  options.silo.grid_spec.domain = domain;
  options.silo.grid_spec.cell_length = scale.grid_length_km;
  options.provider.seed = seed + 3;
  options.provider.cache.enabled = spec.cache;

  std::unique_ptr<Deployment> d(new Deployment());
  FRA_ASSIGN_OR_RETURN(d->federation_, fra::Federation::Create(
                                           std::move(partitions), options));
  if (!spec.tcp && !traced) return d;

  std::vector<fra::SiloEndpoint*> endpoints;
  for (size_t i = 0; i < d->num_silos(); ++i) {
    if (traced) {
      d->endpoints_.push_back(std::make_unique<TimedEndpoint>(&d->silo(i)));
      endpoints.push_back(d->endpoints_.back().get());
    } else {
      endpoints.push_back(&d->silo(i));
    }
  }

  if (spec.tcp) {
    // Thread counts: half the cores for the server-side event loops
    // (shared by all silos), half for the client transport's loops, and
    // two handler workers per silo (a silo executes serially, so a second
    // worker only overlaps decoding with the running query).
    d->server_reactor_ = std::make_unique<fra::Reactor>(HalfCores());
    fra::TcpSiloServer::Options server_options;
    server_options.reactor = d->server_reactor_.get();
    server_options.worker_threads = 2;
    fra::TcpNetwork::Options net_options;
    net_options.reactor_threads = HalfCores();
    std::unique_ptr<fra::TcpNetwork> network =
        traced ? std::make_unique<TimedNetwork<fra::TcpNetwork>>(net_options)
               : std::make_unique<fra::TcpNetwork>(net_options);
    for (size_t i = 0; i < endpoints.size(); ++i) {
      FRA_ASSIGN_OR_RETURN(
          std::unique_ptr<fra::TcpSiloServer> server,
          fra::TcpSiloServer::Start(endpoints[i], 0, server_options));
      FRA_RETURN_NOT_OK(
          network->AddSilo(d->silo(i).id(), server->port()));
      d->servers_.push_back(std::move(server));
    }
    d->network_ = std::move(network);
  } else {
    auto network = std::make_unique<TimedNetwork<fra::InProcessNetwork>>();
    for (size_t i = 0; i < endpoints.size(); ++i) {
      FRA_RETURN_NOT_OK(network->RegisterSilo(d->silo(i).id(), endpoints[i]));
    }
    d->network_ = std::move(network);
  }
  FRA_ASSIGN_OR_RETURN(d->provider_, fra::ServiceProvider::Create(
                                         d->network_.get(), options.provider));
  return d;
}

Deployment::~Deployment() = default;

size_t Deployment::IndexBytes() const {
  fra::Federation::MemoryReport report = federation_->MemoryUsage();
  if (provider_) report.provider_grid_bytes = provider_->GridMemoryUsage();
  return report.TotalBytes();
}

ClientPool::ClientPool(fra::ServiceProvider* provider,
                       const std::vector<fra::FraQuery>* queries,
                       const WorkloadSpec& spec, uint64_t seed)
    : provider_(provider), queries_(queries) {
  for (size_t c = 0; c < spec.clients; ++c) {
    clients_.push_back(Client{ItemStream(spec, queries->size(), seed, c), {}, {}});
  }
}

double ClientPool::RunPhase(double seconds, bool record) {
  std::atomic<bool> stop{false};
  std::vector<int64_t> last_answer(clients_.size(), 0);
  SpanRecorder& recorder = SpanRecorder::Get();
  const int64_t start = NowNanos();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients_.size(); ++c) {
    threads.emplace_back([&, c] {
      Client& client = clients_[c];
      int64_t done = NowNanos();
      while (!stop.load(std::memory_order_relaxed)) {
        const Item item = client.stream.Next();
        const fra::FraQuery query{(*queries_)[item.query].range, item.kind};
        const int64_t begin = NowNanos();
        fra::Result<double> result = provider_->Execute(query, item.algorithm);
        done = NowNanos();
        if (recorder.capturing()) {
          recorder.RecordExec(begin, done, item.query,
                              static_cast<int>(item.algorithm));
        }
        if (record) {
          client.latency_us.push_back(static_cast<double>(done - begin) / 1e3);
          client.answers.push_back(Answer{item.query, item.algorithm,
                                          item.kind, result.ok(),
                                          result.ok() ? *result : 0.0});
        }
      }
      last_answer[c] = done;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const int64_t end = *std::max_element(last_answer.begin(), last_answer.end());
  return static_cast<double>(end - start) / 1e9;
}

std::vector<double> ClientPool::TakeLatenciesMicros() {
  std::vector<double> out;
  for (Client& client : clients_) {
    out.insert(out.end(), client.latency_us.begin(), client.latency_us.end());
    client.latency_us.clear();
  }
  return out;
}

std::vector<Answer> ClientPool::TakeAnswers() {
  std::vector<Answer> out;
  for (Client& client : clients_) {
    out.insert(out.end(), client.answers.begin(), client.answers.end());
    client.answers.clear();
  }
  return out;
}

void Score::Add(const std::vector<Answer>& answers,
                const std::vector<fra::AggregateSummary>& truth) {
  // Distinct (range, algorithm, aggregate) keys already scored for MRE.
  std::unordered_set<uint64_t> scored;
  for (const Answer& answer : answers) {
    ++attempted;
    if (!answer.ok) {
      ++failed;
      continue;
    }
    const fra::AggregateSummary& t = truth[answer.query];
    const double exact = answer.kind == fra::AggregateKind::kCount
                             ? static_cast<double>(t.count)
                             : t.sum;
    if (answer.algorithm == FraAlgorithm::kExact) {
      // COUNT and SUM of integer measures are exact in double, so EXACT
      // must match the ground truth bit for bit.
      ++exact_checked;
      if (std::bit_cast<uint64_t>(answer.value) !=
          std::bit_cast<uint64_t>(exact)) {
        ++exact_mismatched;
        ++failed;
      }
    } else if (scored
                   .insert(static_cast<uint64_t>(answer.query) << 8 |
                           static_cast<uint64_t>(answer.algorithm) << 1 |
                           static_cast<uint64_t>(answer.kind))
                   .second) {
      mre.Add(exact, answer.value);
    }
  }
}

std::vector<fra::AggregateSummary> CentralizedTruth(const Corpus& corpus) {
  const fra::CentralizedRTree tree(corpus.partitions);
  std::vector<fra::AggregateSummary> truth;
  truth.reserve(corpus.queries.size());
  for (const fra::FraQuery& query : corpus.queries) {
    truth.push_back(tree.Summarize(query.range));
  }
  return truth;
}

std::vector<fra::AggregateSummary> SiloTruth(
    Deployment& deployment, const std::vector<fra::FraQuery>& queries) {
  std::vector<fra::AggregateSummary> truth(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t i = 0; i < deployment.num_silos(); ++i) {
      truth[q].Merge(deployment.silo(i).ExactRangeAggregate(queries[q].range));
    }
  }
  return truth;
}

void AddBatchToTruth(const fra::ObjectSet& batch,
                     const std::vector<fra::FraQuery>& queries,
                     std::vector<fra::AggregateSummary>* truth) {
  const fra::CentralizedRTree tree({batch});
  for (size_t q = 0; q < queries.size(); ++q) {
    (*truth)[q].Merge(tree.Summarize(queries[q].range));
  }
}

fra::Result<UpdateSample> ApplyUpdate(Deployment& deployment,
                                      const fra::ObjectSet& batch,
                                      size_t silo) {
  fra::ServiceProvider& provider = deployment.provider();
  // SyncGrids must not overlap query execution, background audits
  // included.
  provider.WaitForAudits();
  UpdateSample sample;
  const size_t pending_before = deployment.silo(silo).pending_ingest();
  const fra::CommStats::Snapshot before = provider.comm();
  const int64_t start = NowNanos();
  deployment.silo(silo).Ingest(batch);
  const int64_t ingested = NowNanos();
  FRA_RETURN_NOT_OK(provider.SyncGrids());
  const int64_t synced = NowNanos();
  sample.total_ms = static_cast<double>(synced - start) / 1e6;
  sample.ingest_us = static_cast<double>(ingested - start) / 1e3;
  sample.sync_us = static_cast<double>(synced - ingested) / 1e3;
  sample.sync_bytes = (provider.comm() - before).TotalBytes();
  sample.pending_ingest = deployment.silo(silo).pending_ingest();
  sample.compacted = sample.pending_ingest < pending_before + batch.size();
  return sample;
}

}  // namespace perfbench
