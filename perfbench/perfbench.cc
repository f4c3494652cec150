// perfbench — the repository benchmark: tuning time, optimizer load and
// recommendation quality of DTA sessions on four workloads, with per-layer
// numbers for the costing stack. See README.md for the workloads, metrics
// and the reasons behind them.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs units of tuning work (one TuningSession::Tune, or one full replay of
// a stream capture) until --seconds have passed, scales their times to the
// host's nominal speed (see ReferenceSeconds), checks the outputs against
// computations made apart from the tuning run, and prints one JSON object as
// the last line of stdout. --trace 0 prints the end-to-end metrics; --trace 1
// attaches a MetricsRegistry and a real-clock Tracer to every unit, times
// each layer's public functions on the workload's inputs, and prints the
// per-layer metrics. The current directory must be private to the run: the
// socket and delta-log files live there. Exits non-zero, after printing the
// result with "correct": false, when any check fails.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/physical_design.h"
#include "checks.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/trace.h"
#include "dta/checkpoint.h"
#include "dta/cost_service.h"
#include "dta/derived_cost.h"
#include "dta/rpc/frame.h"
#include "dta/rpc/wire.h"
#include "dta/rpc/worker.h"
#include "dta/stream/continuous.h"
#include "dta/tuning_session.h"
#include "dta/xml_schema.h"
#include "server/server.h"
#include "sql/parser.h"
#include "sql/signature.h"
#include "workload/compression.h"
#include "workload/workload.h"
#include "workloads/customer.h"
#include "workloads/tpch.h"
#include "xmlio/xml.h"

namespace perfbench {
namespace {

using dta::Result;
using dta::Status;
using dta::StrFormat;
namespace catalog = dta::catalog;
namespace server = dta::server;
namespace tuner = dta::tuner;
namespace workload = dta::workload;

using SteadyClock = std::chrono::steady_clock;

// Taken before main runs anything else: setup_s counts from here.
const SteadyClock::time_point kProcessStart = SteadyClock::now();

double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Units of work ----------------------------------------------------------

// Metrics and spans of one traced unit.
struct Trace {
  dta::MetricsRegistry metrics;
  dta::Tracer tracer;  // real monotonic clock
};

// Outcome of one unit of tuning work.
struct Unit {
  double seconds = 0;
  size_t whatif_calls = 0;  // reported by the tuner
  // Counted by every server the unit used: the tuning server and, over the
  // socket transport, the cost workers. More than whatif_calls, because the
  // servers also count Server::WhatIfPlan calls (see README.md).
  size_t server_calls = 0;
  size_t worker_calls = 0;  // counted by the socket transport's workers
  double current_cost = 0;
  double recommended_cost = 0;
  catalog::Configuration recommendation;
  size_t events_tuned = 0;
  double parallel_speedup = 1;
  // Stream replays only.
  double checkpoint_bytes_per_round = 0;
  size_t memo_entries = 0;
};

double ImprovementPct(const Unit& u) {
  return 100.0 * (u.current_cost - u.recommended_cost) / u.current_cost;
}

class BenchWorkload {
 public:
  // `prefix` keeps the files of concurrent replicas apart.
  explicit BenchWorkload(std::string prefix) : prefix_(std::move(prefix)) {}
  virtual ~BenchWorkload() = default;
  // Builds servers, inputs and workers: everything timed as setup_s.
  virtual Status Setup(uint64_t seed) = 0;
  // One unit of tuning work; `trace` (nullable) receives its metrics/spans.
  virtual Result<Unit> RunUnit(Trace* trace) = 0;
  // Checks the last unit's output against independent computations.
  virtual Status Check(const Unit& unit) = 0;
  // Inputs of the layer probes: the workload's statements, a server holding
  // the statistics they need, the current design, and a statistics-free
  // server of the same schema.
  virtual const workload::Workload& Statements() const = 0;
  virtual server::Server* PricingServer() = 0;
  virtual catalog::Configuration RawConfiguration() const = 0;
  virtual Result<std::unique_ptr<server::Server>> ColdServer() const = 0;

 protected:
  const std::string prefix_;
};

Result<tuner::TuningResult> TimedTune(tuner::TuningSession* session,
                                      const workload::Workload& wl,
                                      Trace* trace, double* seconds) {
  if (trace != nullptr) {
    session->SetObservability({&trace->metrics, &trace->tracer, nullptr});
  }
  const SteadyClock::time_point t0 = SteadyClock::now();
  auto r = session->Tune(wl);
  *seconds = SecondsSince(t0);
  return r;
}

Unit UnitFromResult(const tuner::TuningResult& r, double seconds,
                    size_t server_calls) {
  Unit u;
  u.seconds = seconds;
  u.whatif_calls = r.whatif_calls;
  u.server_calls = server_calls;
  u.current_cost = r.current_cost;
  u.recommended_cost = r.recommended_cost;
  u.recommendation = r.recommendation;
  u.events_tuned = r.events_tuned;
  u.parallel_speedup = r.ParallelSpeedup();
  return u;
}

// A fresh session's pricing of `rec` with derived costing off.
Result<tuner::EvaluationResult> FreshEvaluation(
    server::Server* server, tuner::TuningOptions options,
    const workload::Workload& wl, const catalog::Configuration& rec) {
  options.derived_costing = false;
  options.num_threads = 1;
  options.shards = 1;
  options.transport = tuner::TuningOptions::Transport::kInproc;
  options.socket_endpoints.clear();
  tuner::TuningSession fresh(server, options);
  return fresh.EvaluateConfiguration(wl, rec);
}

// ---- TPC-H, statistics-warm ---------------------------------------------

constexpr double kTpchScaleFactor = 0.25;

// TPC-H server without statistics.
Result<std::unique_ptr<server::Server>> ColdTpchServer(std::string name) {
  auto server = std::make_unique<server::Server>(
      std::move(name), dta::optimizer::HardwareParams());
  DTA_RETURN_IF_ERROR(dta::workloads::AttachTpch(server.get(),
                                                 kTpchScaleFactor,
                                                 /*with_data=*/false, 7));
  return server;
}

// TPC-H server whose statistics a warm-up tune of `wl` has created, so
// later sessions find every statistic they ask for.
Result<std::unique_ptr<server::Server>> WarmTpchServer(
    const workload::Workload& wl) {
  auto server = ColdTpchServer("prod");
  if (!server.ok()) return server.status();
  // One thread, so that a run's replicas keep at most four threads busy.
  tuner::TuningOptions serial;
  serial.num_threads = 1;
  tuner::TuningSession warmup(server->get(), serial);
  auto w = warmup.Tune(wl);
  if (!w.ok()) return w.status();
  return server;
}

class TpchWarm : public BenchWorkload {
 public:
  using BenchWorkload::BenchWorkload;

  Status Setup(uint64_t seed) override {
    wl_ = dta::workloads::TpchQueries(seed);
    auto server = WarmTpchServer(wl_);
    if (!server.ok()) return server.status();
    server_ = std::move(server).value();
    options_.num_threads = 1;
    return Status::Ok();
  }

  Result<Unit> RunUnit(Trace* trace) override {
    const size_t before = server_->whatif_call_count();
    tuner::TuningSession session(server_.get(), options_);
    double seconds = 0;
    auto r = TimedTune(&session, wl_, trace, &seconds);
    if (!r.ok()) return r.status();
    return UnitFromResult(*r, seconds,
                          server_->whatif_call_count() - before);
  }

  Status Check(const Unit& unit) override {
    DTA_RETURN_IF_ERROR(CheckNotWorse(unit.current_cost,
                                      unit.recommended_cost));
    auto fresh =
        FreshEvaluation(server_.get(), options_, wl_, unit.recommendation);
    if (!fresh.ok()) return fresh.status();
    return CheckCostsMatch(unit.current_cost, unit.recommended_cost,
                           fresh->current_cost, fresh->evaluated_cost, 0);
  }

  const workload::Workload& Statements() const override { return wl_; }
  server::Server* PricingServer() override { return server_.get(); }
  catalog::Configuration RawConfiguration() const override {
    return dta::workloads::TpchRawConfiguration();
  }
  Result<std::unique_ptr<server::Server>> ColdServer() const override {
    return ColdTpchServer("cold");
  }

 protected:
  workload::Workload wl_;
  std::unique_ptr<server::Server> server_;
  tuner::TuningOptions options_;
};

// ---- TPC-H over the socket transport ------------------------------------

class TpchSocket : public TpchWarm {
 public:
  using TpchWarm::TpchWarm;
  static constexpr int kWorkers = 2;

  ~TpchSocket() override {
    // Workers stop (joining their threads) before their servers go.
    workers_.clear();
    for (const std::string& path : endpoints_) std::remove(path.c_str());
  }

  Status Setup(uint64_t seed) override {
    DTA_RETURN_IF_ERROR(TpchWarm::Setup(seed));
    for (int i = 0; i < kWorkers; ++i) {
      auto clone = server_->Clone("worker" + std::to_string(i));
      if (!clone.ok()) return clone.status();
      clones_.push_back(std::move(clone).value());
      dta::rpc::CostWorkerOptions wopts;
      wopts.threads = 1;
      workers_.push_back(
          std::make_unique<dta::rpc::CostWorker>(clones_.back().get(), wopts));
      // Relative path: the run directory is private, and a short name
      // stays inside the sockaddr_un length limit wherever it lives.
      endpoints_.push_back(prefix_ + StrFormat("worker%d.sock", i));
      std::remove(endpoints_.back().c_str());
      DTA_RETURN_IF_ERROR(workers_.back()->Listen(endpoints_.back()));
    }
    options_.num_threads = 2;
    options_.shards = kWorkers;
    options_.transport = tuner::TuningOptions::Transport::kSocket;
    options_.socket_endpoints = endpoints_;
    return Status::Ok();
  }

  Result<Unit> RunUnit(Trace* trace) override {
    const size_t workers_before = WorkerCalls();
    const size_t server_before = server_->whatif_call_count();
    tuner::TuningSession session(server_.get(), options_);
    double seconds = 0;
    auto r = TimedTune(&session, wl_, trace, &seconds);
    if (!r.ok()) return r.status();
    const size_t worker_calls = WorkerCalls() - workers_before;
    Unit u = UnitFromResult(
        *r, seconds,
        server_->whatif_call_count() - server_before + worker_calls);
    u.worker_calls = worker_calls;
    return u;
  }

  Status Check(const Unit& unit) override {
    DTA_RETURN_IF_ERROR(TpchWarm::Check(unit));
    // Every what-if call goes over the wire and plans stay on the tuning
    // server, so the workers' count must equal the session's exactly.
    DTA_RETURN_IF_ERROR(
        CheckCallsConserved(unit.worker_calls, unit.whatif_calls));
    // The transport only moves bytes: the in-process serial session must
    // recommend exactly the same design.
    tuner::TuningOptions serial;
    serial.num_threads = 1;
    tuner::TuningSession session(server_.get(), serial);
    auto r = session.Tune(wl_);
    if (!r.ok()) return r.status();
    return CheckSameRecommendation(r->recommendation, unit.recommendation,
                                   "tpch_socket vs in-process tpch_warm");
  }

 private:
  size_t WorkerCalls() const {
    size_t calls = 0;
    for (const auto& clone : clones_) calls += clone->whatif_call_count();
    return calls;
  }

  std::vector<std::unique_ptr<server::Server>> clones_;
  std::vector<std::unique_ptr<dta::rpc::CostWorker>> workers_;
  std::vector<std::string> endpoints_;
};

// ---- CUST2, statistics-cold ---------------------------------------------

class Cust2Cold : public BenchWorkload {
 public:
  using BenchWorkload::BenchWorkload;

  // A tenth of the profile's 252,000 events, as in the Table 2 bench.
  static constexpr size_t kEvents = 25200;
  // Bound on the recommendation's total index storage. The raw design's
  // primary keys take 16.4 GB and an unbounded session adds 35-39 GB, so
  // the bound cuts the additions about in half.
  static constexpr uint64_t kStorageBytes = 32ull << 30;
  // Tune prices the compressed workload (§5.1); the fresh session prices
  // all kEvents statements, so the two costs agree only this closely. Over
  // 52 inputs the recommended cost differed by at most 2.9%.
  static constexpr double kCostTolerance = 0.05;

  Status Setup(uint64_t seed) override {
    profile_ = dta::workloads::Cust2();
    auto server = ColdServer();
    if (!server.ok()) return server.status();
    server_ = std::move(server).value();
    // The profile's own generator fixes the templates and constants, whose
    // mix decides how much tuning there is to do; the benchmark seed orders
    // the events (a captured trace's interleaving), which compression's
    // choice of representatives sees.
    workload::Workload generated =
        dta::workloads::CustomerWorkload(profile_, *server_, kEvents);
    if (generated.size() != kEvents) {
      return Status::Internal(StrFormat("CUST2 workload has %zu statements",
                                        generated.size()));
    }
    std::vector<size_t> order(kEvents);
    for (size_t i = 0; i < kEvents; ++i) order[i] = i;
    dta::Random rng(seed);
    for (size_t i = kEvents - 1; i > 0; --i) {
      std::swap(order[i], order[static_cast<size_t>(
                              rng.Uniform(0, static_cast<int64_t>(i)))]);
    }
    for (size_t i : order) {
      const workload::WorkloadStatement& ws = generated.statements()[i];
      wl_.Add(ws.stmt.Clone(), ws.weight);
    }
    options_ = tuner::TuningOptions::IndexesOnly();
    options_.tune_partitioning = true;
    options_.storage_bytes = kStorageBytes;
    options_.num_threads = 1;
    return Status::Ok();
  }

  Result<Unit> RunUnit(Trace* trace) override {
    if (server_ == nullptr) {
      auto server = ColdServer();
      if (!server.ok()) return server.status();
      server_ = std::move(server).value();
    }
    tuner::TuningSession session(server_.get(), options_);
    double seconds = 0;
    auto r = TimedTune(&session, wl_, trace, &seconds);
    if (!r.ok()) return r.status();
    Unit u = UnitFromResult(*r, seconds, server_->whatif_call_count());
    // The next unit starts on a fresh server again; keep this one for the
    // checks and probes.
    tuned_ = std::move(server_);
    return u;
  }

  Status Check(const Unit& unit) override {
    DTA_RETURN_IF_ERROR(CheckNotWorse(unit.current_cost,
                                      unit.recommended_cost));
    DTA_RETURN_IF_ERROR(CheckStorageBound(
        unit.recommendation.EstimateBytes(tuned_->catalog()), kStorageBytes));
    auto fresh =
        FreshEvaluation(tuned_.get(), options_, wl_, unit.recommendation);
    if (!fresh.ok()) return fresh.status();
    std::fprintf(stderr,
                 "perfbench: %scompressed vs full pricing: current %+.3f%%, "
                 "recommended %+.3f%%\n",
                 prefix_.c_str(),
                 100 * (unit.current_cost / fresh->current_cost - 1),
                 100 * (unit.recommended_cost / fresh->evaluated_cost - 1));
    return CheckCostsMatch(unit.current_cost, unit.recommended_cost,
                           fresh->current_cost, fresh->evaluated_cost,
                           kCostTolerance);
  }

  const workload::Workload& Statements() const override { return wl_; }
  server::Server* PricingServer() override { return tuned_.get(); }
  catalog::Configuration RawConfiguration() const override {
    return dta::workloads::CustomerRawConfiguration(profile_, *tuned_);
  }
  Result<std::unique_ptr<server::Server>> ColdServer() const override {
    auto server = std::make_unique<server::Server>(
        "prod", dta::optimizer::HardwareParams::ProductionClass());
    DTA_RETURN_IF_ERROR(dta::workloads::AttachCustomer(server.get(),
                                                       profile_));
    return server;
  }

 private:
  dta::workloads::CustomerProfile profile_;
  workload::Workload wl_;
  std::unique_ptr<server::Server> server_;  // next unit's fresh server
  std::unique_ptr<server::Server> tuned_;   // last unit's server
  tuner::TuningOptions options_;
};

// ---- Continuous tuning over a drifting TPC-H capture ---------------------

class StreamDrift : public BenchWorkload {
 public:
  static constexpr int kRounds = 8;
  static constexpr int kWindow = 10;    // queries active per round
  static constexpr int kShift = 2;      // window shift per round
  static constexpr int kRepeats = 2;    // passes over the window per round
  static constexpr double kDecay = 0.5;
  static constexpr size_t kMaxTemplates = 12;

  explicit StreamDrift(std::string prefix)
      : BenchWorkload(std::move(prefix)), log_path_(prefix_ + "stream.dlog") {}
  ~StreamDrift() override { std::remove(log_path_.c_str()); }

  Status Setup(uint64_t seed) override {
    wl_ = dta::workloads::TpchQueries(seed);
    auto server = WarmTpchServer(wl_);
    if (!server.ok()) return server.status();
    warm_ = std::move(server).value();
    const int n = static_cast<int>(wl_.size());
    for (int round = 0; round < kRounds; ++round) {
      for (int rep = 0; rep < kRepeats; ++rep) {
        for (int j = 0; j < kWindow; ++j) {
          std::string line = wl_.statements()[(kShift * round + j) % n].text;
          std::replace(line.begin(), line.end(), '\n', ' ');
          std::replace(line.begin(), line.end(), '\r', ' ');
          capture_ += line + "\n";
        }
      }
    }
    return Status::Ok();
  }

  Result<Unit> RunUnit(Trace* trace) override {
    auto clone = warm_->Clone("stream");
    if (!clone.ok()) return clone.status();
    replay_server_ = std::move(clone).value();
    std::remove(log_path_.c_str());
    tuner_ = std::make_unique<tuner::stream::ContinuousTuner>(
        TunerConfig(replay_server_.get(), trace));
    const SteadyClock::time_point t0 = SteadyClock::now();
    Status s = tuner_->Init();
    if (s.ok()) s = tuner_->Feed(capture_);
    if (s.ok()) s = tuner_->Finish();
    const double seconds = SecondsSince(t0);
    if (!s.ok()) return s;
    if (tuner_->rounds() != kRounds) {
      return Status::Internal(StrFormat("stream ran %llu rounds, not %d",
                                        static_cast<unsigned long long>(
                                            tuner_->rounds()),
                                        kRounds));
    }
    Unit u;
    u.seconds = seconds;
    u.server_calls = replay_server_->whatif_call_count();
    DTA_RETURN_IF_ERROR(ParseDeltaText(tuner_->delta_text(), &u));
    u.recommendation = tuner_->recommendation();
    u.events_tuned = tuner_->stream_workload().entries().size();
    u.memo_entries = tuner_->memo_entries();
    double bytes = 0;
    for (size_t b : tuner_->delta_bytes_history()) bytes += b;
    if (!tuner_->delta_bytes_history().empty()) {
      u.checkpoint_bytes_per_round =
          bytes / static_cast<double>(tuner_->delta_bytes_history().size());
    }
    return u;
  }

  Status Check(const Unit& unit) override {
    DTA_RETURN_IF_ERROR(CheckNotWorse(unit.current_cost,
                                      unit.recommended_cost));
    // The final window, priced by a fresh session. The snapshot is taken
    // one decay epoch after the final round, so every weight — and hence
    // each cost — is exactly kDecay times the round's (a power of two, so
    // the division below is exact).
    tuner::TuningOptions opts;
    opts.workload_compression = false;
    const workload::Workload window = tuner_->stream_workload().Snapshot();
    auto fresh = FreshEvaluation(replay_server_.get(), opts, window,
                                 unit.recommendation);
    if (!fresh.ok()) return fresh.status();
    DTA_RETURN_IF_ERROR(CheckCostsMatch(
        unit.current_cost, unit.recommended_cost,
        fresh->current_cost / kDecay, fresh->evaluated_cost / kDecay, 0));
    // Kill-and-resume: a fresh tuner on a fresh server, resumed from the
    // delta log, holds the same final recommendation.
    auto clone = warm_->Clone("resumed");
    if (!clone.ok()) return clone.status();
    tuner::stream::ContinuousTuner resumed(TunerConfig(clone->get(), nullptr));
    DTA_RETURN_IF_ERROR(resumed.Init());
    if (!resumed.resumed() || resumed.rounds() != kRounds) {
      return Status::FailedPrecondition(
          "the delta log did not resume to the final round");
    }
    return CheckSameRecommendation(unit.recommendation,
                                   resumed.recommendation(),
                                   "stream_drift final vs resumed");
  }

  const workload::Workload& Statements() const override { return wl_; }
  server::Server* PricingServer() override { return replay_server_.get(); }
  catalog::Configuration RawConfiguration() const override {
    return dta::workloads::TpchRawConfiguration();
  }
  Result<std::unique_ptr<server::Server>> ColdServer() const override {
    return ColdTpchServer("cold");
  }

 private:
  tuner::stream::ContinuousTuner::Config TunerConfig(server::Server* server,
                                                     Trace* trace) const {
    tuner::stream::ContinuousTuner::Config config;
    config.server = server;
    config.options.num_threads = 1;
    config.retune_interval_events = kWindow * kRepeats;
    config.max_templates = kMaxTemplates;
    config.decay = kDecay;
    config.checkpoint_path = log_path_;
    if (trace != nullptr) {
      config.metrics = &trace->metrics;
      config.tracer = &trace->tracer;
    }
    return config;
  }

  // Sums the rounds' whatif_calls and takes the final round's costs from
  // the service's own per-round delta text.
  static Status ParseDeltaText(const std::string& text, Unit* u) {
    size_t pos = 0;
    bool costs = false;
    while (pos < text.size()) {
      size_t end = text.find('\n', pos);
      if (end == std::string::npos) end = text.size();
      const std::string line = text.substr(pos, end - pos);
      pos = end + 1;
      if (line.rfind("whatif_calls=", 0) == 0) {
        u->whatif_calls += std::strtoull(line.c_str() + 13, nullptr, 10);
      } else if (line.rfind("current_cost=", 0) == 0) {
        const size_t rec = line.find(" recommended_cost=");
        if (rec == std::string::npos) break;
        u->current_cost = std::strtod(line.c_str() + 13, nullptr);
        u->recommended_cost = std::strtod(line.c_str() + rec + 18, nullptr);
        costs = true;
      }
    }
    if (!costs) return Status::Internal("no round costs in the delta text");
    return Status::Ok();
  }

  const std::string log_path_;
  workload::Workload wl_;
  std::unique_ptr<server::Server> warm_;
  std::string capture_;
  std::unique_ptr<server::Server> replay_server_;
  std::unique_ptr<tuner::stream::ContinuousTuner> tuner_;
};

std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name,
                                            const std::string& prefix) {
  if (name == "tpch_warm") return std::make_unique<TpchWarm>(prefix);
  if (name == "tpch_socket") return std::make_unique<TpchSocket>(prefix);
  if (name == "cust2_cold") return std::make_unique<Cust2Cold>(prefix);
  if (name == "stream_drift") return std::make_unique<StreamDrift>(prefix);
  return nullptr;
}

// Replicas of a workload run side by side, each on its own servers and its
// own thread, and replica r of a run with seed s draws its inputs from seed
// kMaxReplicas * s + r. So one run averages its deterministic figures over
// several inputs: on cust2_cold one input's whatif_calls spread 0.036 over
// ten seeds (quartile distance over median), four inputs' mean 0.012. Each
// replica's time counts once (see Run). tpch_socket keeps four threads busy
// on its own (two tuner threads, two one-thread workers), so it runs alone.
constexpr uint64_t kMaxReplicas = 4;
int Replicas(const std::string& name) {
  return name == "tpch_socket" ? 1 : 4;
}

// Runs fn(0..n-1), each on its own thread when n > 1, and joins them all.
void ForEachReplica(int n, const std::function<void(int)>& fn) {
  if (n == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> threads;
  for (int r = 0; r < n; ++r) threads.emplace_back(fn, r);
  for (std::thread& t : threads) t.join();
}

// ---- Host speed -------------------------------------------------------------

// The host's processor speed drifts by up to half over minutes: the same
// four-replica tpch_warm run, same seed and same build, read 1.82 s and,
// half an hour later, 1.32 s. A run of seconds cannot average that out. So
// each unit is bracketed by a fixed reference computation of the
// benchmark's own (no program code), and the unit's time is scaled by how
// much slower or faster than nominal the reference ran just before and just
// after it. The reference builds a std::map of about 130,000 string keys,
// some 13 MB of nodes: allocation, string compares and pointer chasing over
// a working set larger than a core's cache, as the tuner's own structures
// are. Of the references tried, it tracked cust2_cold best (see README.md).
constexpr double kReferenceNominalS = 0.100;  // about its time on a calm host

double ReferenceSeconds() {
  const SteadyClock::time_point t0 = SteadyClock::now();
  std::map<std::string, double> by_key;
  uint64_t x = 88172645463325252ull;  // xorshift64
  for (int i = 0; i < 160000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    by_key["tbl_" + std::to_string(x % 400000) + "_col"] +=
        static_cast<double>(x % 1000);
  }
  double sink = 0;
  for (const auto& [key, v] : by_key) sink += v;
  const double seconds = SecondsSince(t0);
  if (sink < 0) std::fprintf(stderr, "(reference underflow)\n");
  return seconds;
}

// Median of the units' times, each scaled to a host running the reference
// in kReferenceNominalS. reference_s has one more entry than units:
// reference_s[i] and reference_s[i + 1] were taken just before and just
// after units[i].
double HostNormalizedSeconds(const std::vector<Unit>& units,
                             const std::vector<double>& reference_s) {
  std::vector<double> scaled;
  for (size_t i = 0; i < units.size(); ++i) {
    const double reference = 0.5 * (reference_s[i] + reference_s[i + 1]);
    scaled.push_back(units[i].seconds * kReferenceNominalS / reference);
  }
  return Median(std::move(scaled));
}

// ---- Layer probes -----------------------------------------------------------

// Median per-operation time (µs) of `pass`, which performs `ops` operations.
// Passes repeat until `budget_s` has gone and at least five have run.
double TimePerOpUs(size_t ops, const std::function<void()>& pass,
                   double budget_s = 0.05) {
  std::vector<double> per_op;
  const SteadyClock::time_point start = SteadyClock::now();
  while (per_op.size() < 5 || SecondsSince(start) < budget_s) {
    const SteadyClock::time_point t0 = SteadyClock::now();
    pass();
    per_op.push_back(1e6 * SecondsSince(t0) / static_cast<double>(ops));
  }
  return Median(std::move(per_op));
}

// Lower-cased tables of a statement: the relevance key CostService uses.
std::set<std::string> TablesOf(const dta::sql::Statement& stmt) {
  std::set<std::string> out;
  switch (stmt.kind()) {
    case dta::sql::StatementKind::kSelect:
      for (const auto& tr : stmt.select().from) {
        out.insert(dta::ToLower(tr.table));
      }
      break;
    case dta::sql::StatementKind::kInsert:
      out.insert(dta::ToLower(stmt.insert().table));
      break;
    case dta::sql::StatementKind::kUpdate:
      out.insert(dta::ToLower(stmt.update().table));
      break;
    case dta::sql::StatementKind::kDelete:
      out.insert(dta::ToLower(stmt.del().table));
      break;
  }
  return out;
}

using Metrics = std::map<std::string, std::pair<double, std::string>>;

// Times each layer's public functions on the workload's own statements and
// the unit's recommendation. Probes price at most kProbeStatements
// statements so that CUST2's 25,200 stay affordable.
Status RunProbes(BenchWorkload* w, const Unit& unit, Metrics* out) {
  constexpr size_t kProbeStatements = 256;
  constexpr size_t kProbeStats = 32;
  const workload::Workload& all = w->Statements();
  workload::Workload wl;
  for (size_t i = 0; i < all.size() && i < kProbeStatements; ++i) {
    wl.Add(all.statements()[i].stmt.Clone(), all.statements()[i].weight);
  }
  const size_t n = wl.size();
  const catalog::Configuration& rec = unit.recommendation;
  const catalog::Configuration raw = w->RawConfiguration();
  server::Server* server = w->PricingServer();
  auto set = [out](const std::string& name, double value, const char* unit) {
    (*out)[name] = {value, unit};
  };

  // cost.probe_us: StatementCost on pairs already priced (cache hits).
  {
    tuner::CostService::Config config;
    config.derived.enabled = true;
    tuner::CostService costs(server, nullptr, &wl, config);
    for (size_t i = 0; i < n; ++i) {
      auto c = costs.StatementCost(i, rec);
      if (!c.ok()) return c.status();
    }
    set("cost.probe_us", TimePerOpUs(n, [&] {
          for (size_t i = 0; i < n; ++i) (void)costs.StatementCost(i, rec);
        }),
        "us");
  }

  // derived.decompose_us: relevance, decomposition and fingerprint.
  {
    std::vector<std::set<std::string>> tables;
    for (const auto& ws : wl.statements()) tables.push_back(TablesOf(ws.stmt));
    size_t sink = 0;
    set("derived.decompose_us", TimePerOpUs(n, [&] {
          for (size_t i = 0; i < n; ++i) {
            tuner::RelevantSet relevant =
                tuner::CollectRelevant(tables[i], rec);
            tuner::Decomposition d = tuner::DecomposeConfiguration(
                wl.statements()[i].stmt.kind(), relevant,
                tuner::DerivedCostOptions{}.max_atoms);
            sink += d.atoms.size() + tuner::FingerprintOf(relevant).size();
          }
        }),
        "us");
    if (sink == 0) std::fprintf(stderr, "(empty decompositions)\n");
  }

  // catalog.*: structure identity, configuration fingerprint, insertion.
  {
    const size_t structures = rec.StructureCount();
    size_t sink = 0;
    set("catalog.canonical_name_us", TimePerOpUs(structures, [&] {
          for (const auto& ix : rec.indexes()) sink += ix.CanonicalName().size();
          for (const auto& v : rec.views()) sink += v.CanonicalName().size();
        }),
        "us");
    set("catalog.fingerprint_us",
        TimePerOpUs(1, [&] { sink += rec.Fingerprint().size(); }), "us");
    set("catalog.add_structure_us", TimePerOpUs(structures, [&] {
          catalog::Configuration c;
          for (const auto& ix : rec.indexes()) (void)c.AddIndex(ix);
          for (const auto& v : rec.views()) (void)c.AddView(v);
          sink += c.StructureCount();
        }),
        "us");
    if (sink == 0) std::fprintf(stderr, "(empty recommendation)\n");
  }

  // optimizer.whatif_us: Server::WhatIfCost over statements x {raw, rec}.
  {
    Status failed;
    set("optimizer.whatif_us", TimePerOpUs(2 * n, [&] {
          for (const auto& ws : wl.statements()) {
            for (const catalog::Configuration* c : {&raw, &rec}) {
              auto r = server->WhatIfCost(ws.stmt, *c);
              if (!r.ok()) failed = r.status();
            }
          }
        }),
        "us");
    DTA_RETURN_IF_ERROR(failed);
  }

  // sql.*: parsing and template signatures of the statements' text.
  {
    size_t sink = 0;
    set("sql.parse_us", TimePerOpUs(n, [&] {
          for (const auto& ws : wl.statements()) {
            sink += dta::sql::ParseStatement(ws.text).ok();
          }
        }),
        "us");
    set("sql.signature_us", TimePerOpUs(n, [&] {
          for (const auto& ws : wl.statements()) {
            sink += dta::sql::SignatureHash(ws.stmt);
          }
        }),
        "us");
    if (sink == 0) std::fprintf(stderr, "(no statements)\n");
  }

  // workload.compress_ms: §5.1 compression of the whole workload.
  set("workload.compress_ms", 1e-3 * TimePerOpUs(1, [&] {
        (void)workload::CompressWorkload(all);
      }, 0.2),
      "ms");

  // stats.create_ms: building, on a statistics-free server, the statistics
  // the tuned server holds for this workload.
  {
    std::vector<dta::stats::StatsKey> keys;
    for (const auto* s : server->ExportStatistics()) {
      if (keys.size() == kProbeStats) break;
      keys.push_back(s->key);
    }
    std::vector<double> ms;
    auto cold = w->ColdServer();
    if (!cold.ok()) return cold.status();
    for (const auto& key : keys) {
      const SteadyClock::time_point t0 = SteadyClock::now();
      auto r = (*cold)->CreateStatistics(key);
      ms.push_back(1e3 * SecondsSince(t0));
      if (!r.ok()) return r.status();
    }
    set("stats.create_ms", Median(std::move(ms)), "ms");
  }

  // checkpoint.append_us: one delta-log segment carrying the
  // recommendation, appended after a base record.
  {
    const std::string path = "probe.dlog";  // probes run alone
    const std::string payload = tuner::ConfigurationToXml(rec)->ToString();
    DTA_RETURN_IF_ERROR(tuner::WriteDeltaBase(path, payload));
    Status failed;
    set("checkpoint.append_us", TimePerOpUs(16, [&] {
          for (int i = 0; i < 16; ++i) {
            Status s = tuner::AppendDeltaSegment(path, payload);
            if (!s.ok()) failed = s;
          }
          // Keep the file small: compaction rewrites the base.
          Status s = tuner::WriteDeltaBase(path, payload);
          if (!s.ok()) failed = s;
        }),
        "us");
    std::remove(path.c_str());
    DTA_RETURN_IF_ERROR(failed);
  }

  // rpc.encode_us / rpc.decode_us: the what-if request and response codecs
  // plus framing, one round trip's worth per statement.
  {
    const std::string config_xml = tuner::ConfigurationToXml(rec)->ToString();
    std::vector<std::string> request_frames;
    std::vector<std::string> response_frames;
    auto encode = [&] {
      request_frames.clear();
      response_frames.clear();
      uint64_t id = 0;
      for (const auto& ws : wl.statements()) {
        dta::rpc::WhatIfRequestMsg req;
        req.call_key = ++id;
        req.sql = ws.text;
        req.config_xml = config_xml;
        request_frames.push_back(dta::rpc::EncodeFrame(
            {dta::rpc::FrameType::kWhatIfRequest, id,
             dta::rpc::EncodeWhatIfRequest(req)}));
        dta::rpc::WhatIfResponseMsg resp;
        resp.cost = static_cast<double>(id);
        response_frames.push_back(dta::rpc::EncodeFrame(
            {dta::rpc::FrameType::kWhatIfResponse, id,
             dta::rpc::EncodeWhatIfResponse(resp)}));
      }
    };
    set("rpc.encode_us", TimePerOpUs(n, encode), "us");
    Status failed;
    set("rpc.decode_us", TimePerOpUs(n, [&] {
          dta::rpc::FrameDecoder decoder;
          for (size_t i = 0; i < n; ++i) {
            (void)decoder.Feed(request_frames[i].data(),
                               request_frames[i].size());
            (void)decoder.Feed(response_frames[i].data(),
                               response_frames[i].size());
          }
          dta::rpc::Frame frame;
          while (decoder.Next(&frame)) {
            if (frame.type == dta::rpc::FrameType::kWhatIfRequest) {
              auto m = dta::rpc::DecodeWhatIfRequest(frame.payload);
              if (!m.ok()) failed = m.status();
            } else {
              auto m = dta::rpc::DecodeWhatIfResponse(frame.payload);
              if (!m.ok()) failed = m.status();
            }
          }
          if (decoder.poisoned()) failed = decoder.error();
        }),
        "us");
    DTA_RETURN_IF_ERROR(failed);
  }

  // xml.recommendation_us: recommendation to DTAXML and back.
  {
    Status failed;
    set("xml.recommendation_us", TimePerOpUs(1, [&] {
          const std::string text = tuner::ConfigurationToXml(rec)->ToString();
          auto root = dta::xml::Parse(text);
          if (!root.ok()) {
            failed = root.status();
            return;
          }
          auto back = tuner::ConfigurationFromXml(**root);
          if (!back.ok()) failed = back.status();
        }),
        "us");
    DTA_RETURN_IF_ERROR(failed);
  }
  return Status::Ok();
}

// ---- Reporting --------------------------------------------------------------

const char* const kPhases[] = {
    "compression",         "current_cost", "column_groups",
    "candidate_generation", "reduced_stats", "candidate_selection",
    "merging",             "enumeration",  "report"};

// Per-layer metrics of the traced units: span times are medians over the
// units, counters come from the first unit (they repeat exactly).
Status CollectTraced(const std::vector<std::unique_ptr<Trace>>& traces,
                     const std::vector<Unit>& units, Metrics* out) {
  auto set = [out](const std::string& name, double value, const char* unit) {
    (*out)[name] = {value, unit};
  };
  for (const char* phase : kPhases) {
    std::vector<double> ms;
    for (const auto& t : traces) ms.push_back(t->tracer.TotalDurationMs(phase));
    set(StrFormat("phase.%s_ms", phase), Median(std::move(ms)), "ms");
  }
  {
    std::vector<double> ms;
    for (const auto& t : traces) {
      ms.push_back(t->tracer.TotalDurationMs("stream_round") /
                   StreamDrift::kRounds);
    }
    set("stream.round_ms", Median(std::move(ms)), "ms");
  }

  const dta::MetricsRegistry& m = traces.front()->metrics;
  const auto counters = m.CounterValues();
  const auto histograms = m.HistogramValues();
  auto counter = [&](const std::string& name) -> double {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto mean_ms = [&](const std::string& name) -> double {
    auto it = histograms.find(name);
    if (it == histograms.end() || it->second.count == 0) return 0;
    return 1e-3 * static_cast<double>(it->second.sum_micros) /
           static_cast<double>(it->second.count);
  };
  const double lookups = counter("whatif.lookups");
  const double hits = counter("whatif.cache_hits");
  const double saved = counter("whatif.calls_saved");
  for (const auto& t : traces) {
    auto c = t->metrics.CounterValues();
    DTA_RETURN_IF_ERROR(CheckLookupIdentity(
        c["whatif.lookups"], c["whatif.cache_hits"], c["whatif.calls"],
        c["whatif.calls_saved"]));
  }
  set("whatif.lookups", lookups, "count");
  set("whatif.cache_hits", hits, "count");
  set("whatif.derived_answers", counter("whatif.derived_answers"), "count");
  set("whatif.derivation_fallbacks", counter("whatif.derivation_fallbacks"),
      "count");
  set("whatif.calls_saved", saved, "count");
  set("whatif.cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  set("whatif.latency_ms.mean", mean_ms("whatif.latency_ms"), "ms");
  set("enumeration.evaluations", counter("enumeration.evaluations"), "count");
  set("candidates.generated", counter("candidates.generated"), "count");
  set("optimizer.statements_costed", counter("optimizer.statements_costed"),
      "count");
  set("optimizer.access_paths", counter("optimizer.access_paths"), "count");
  set("workload.events_tuned", static_cast<double>(units.front().events_tuned),
      "count");
  set("server.unreported_calls",
      static_cast<double>(units.front().server_calls -
                          units.front().whatif_calls),
      "count");
  set("stats.created", counter("server.stats_created"), "count");
  set("checkpoint.bytes_per_round", units.front().checkpoint_bytes_per_round,
      "bytes");
  set("stream.events", counter("stream.events"), "count");
  set("stream.memo_entries", static_cast<double>(units.front().memo_entries),
      "count");
  set("rpc.calls", counter("rpc.calls"), "count");
  set("rpc.requeues", counter("rpc.requeues"), "count");
  set("rpc.wire_latency_ms.mean", mean_ms("rpc.wire_latency_ms"), "ms");
  {
    std::vector<double> speedup;
    for (const Unit& u : units) speedup.push_back(u.parallel_speedup);
    set("pool.speedup", Median(std::move(speedup)), "x");
  }
  return Status::Ok();
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const Metrics& metrics) {
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, value] : metrics) {
    json += StrFormat("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                      first ? "" : ", ", name.c_str(), value.first,
                      value.second.c_str());
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Fail(const std::string& what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  return 1;
}

int Run(int argc, char** argv) {
  std::string name;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (MakeWorkload(name, "") == nullptr || argc % 2 != 1 || !(seconds > 0) ||
      (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<tpch_warm|cust2_cold|stream_drift|tpch_socket> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }

  const int replicas = Replicas(name);
  std::vector<std::unique_ptr<BenchWorkload>> ws;
  for (int r = 0; r < replicas; ++r) {
    ws.push_back(MakeWorkload(name, StrFormat("r%d_", r)));
  }
  std::vector<Status> status(replicas);
  ForEachReplica(replicas, [&](int r) {
    status[r] = ws[r]->Setup(seed * kMaxReplicas + static_cast<uint64_t>(r));
  });
  for (const Status& st : status) {
    if (!st.ok()) return Fail("setup", st);
  }
  // Scaled like a unit (see ReferenceSeconds), by a reference computation
  // right after the set-up: one before it would run on a cold heap.
  const double setup_wall_s = SecondsSince(kProcessStart);
  const double setup_s = setup_wall_s * kReferenceNominalS / ReferenceSeconds();

  // Each replica runs whole units, one after another, until the time is
  // up; at least three, for a median. A reference computation on the same
  // thread precedes each unit and follows the last (see ReferenceSeconds).
  struct Replica {
    std::vector<Unit> units;
    std::vector<double> reference_s;
    std::vector<std::unique_ptr<Trace>> traces;
  };
  std::vector<Replica> runs(replicas);
  const SteadyClock::time_point start = SteadyClock::now();
  ForEachReplica(replicas, [&](int r) {
    Replica& run = runs[r];
    while (run.units.size() < 3 || SecondsSince(start) < seconds) {
      Trace* t = nullptr;
      if (trace == 1) {
        run.traces.push_back(std::make_unique<Trace>());
        t = run.traces.back().get();
      }
      run.reference_s.push_back(ReferenceSeconds());
      auto unit = ws[r]->RunUnit(t);
      if (!unit.ok()) {
        status[r] = unit.status();
        return;
      }
      run.units.push_back(std::move(unit).value());
    }
    run.reference_s.push_back(ReferenceSeconds());
  });
  for (const Status& st : status) {
    if (!st.ok()) return Fail("tuning", st);
  }

  // Every unit's reported calls reached a server. Within a replica every
  // unit repeats the first exactly, down to the servers' own call count, so
  // the calls the servers count beyond the reported ones (the plan calls)
  // repeat too. The last unit passes the workload's checks.
  ForEachReplica(replicas, [&](int r) {
    const Unit& first = runs[r].units.front();
    for (const Unit& u : runs[r].units) {
      status[r] = CheckCallsCounted(u.server_calls, u.whatif_calls);
      if (status[r].ok()) {
        status[r] = CheckSameRecommendation(
            first.recommendation, u.recommendation, "repeated units");
      }
      if (status[r].ok() && (u.whatif_calls != first.whatif_calls ||
                             u.server_calls != first.server_calls ||
                             u.current_cost != first.current_cost ||
                             u.recommended_cost != first.recommended_cost)) {
        status[r] = Status::FailedPrecondition(
            "a repeated unit reported other calls or costs");
      }
      if (!status[r].ok()) return;
    }
    status[r] = ws[r]->Check(runs[r].units.back());
  });
  bool correct = true;
  for (const Status& st : status) {
    if (!st.ok()) {
      Fail("check", st);
      correct = false;
    }
  }

  // Each replica counts once: a replica whose input tunes faster runs more
  // units, and pooling them would weigh its input more.
  std::vector<double> tune_s;
  std::vector<double> wall_s;
  std::vector<double> reference_ms;
  size_t attempted = 0;
  double calls = 0;
  double improvement = 0;
  for (int r = 0; r < replicas; ++r) {
    const Replica& run = runs[r];
    attempted += run.units.size();
    tune_s.push_back(HostNormalizedSeconds(run.units, run.reference_s));
    std::vector<double> unit_s;
    for (const Unit& u : run.units) unit_s.push_back(u.seconds);
    wall_s.push_back(Median(std::move(unit_s)));
    reference_ms.push_back(1e3 * Median(run.reference_s));
    calls += static_cast<double>(run.units.front().whatif_calls) / replicas;
    improvement += ImprovementPct(run.units.front()) / replicas;
    std::fprintf(stderr,
                 "perfbench: replica %d: units=%zu tune=%.4fs (wall median "
                 "%.4fs, reference median %.2fms) calls=%zu (servers %zu)\n",
                 r, run.units.size(), tune_s.back(), wall_s.back(),
                 reference_ms.back(), run.units.front().whatif_calls,
                 run.units.front().server_calls);
  }
  std::fprintf(stderr,
               "perfbench: %s seed=%llu replicas=%d units=%zu setup=%.3fs "
               "(wall %.3fs) tune=%.4fs calls=%.2f improvement=%.3f%%\n",
               name.c_str(), static_cast<unsigned long long>(seed), replicas,
               attempted, setup_s, setup_wall_s, Median(tune_s), calls,
               improvement);

  Metrics metrics;
  if (trace == 0) {
    metrics["tune_s"] = {Median(std::move(tune_s)), "s"};
    metrics["setup_s"] = {setup_s, "s"};
    metrics["whatif_calls"] = {calls, "calls"};
    metrics["improvement_pct"] = {improvement, "%"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  } else {
    // Every replica runs traced, so the traced run loads the host like the
    // untraced one; the layer figures are replica 0's.
    metrics["traced.tune_s"] = {Median(std::move(tune_s)), "s"};
    metrics["traced.wall_tune_s"] = {Median(std::move(wall_s)), "s"};
    metrics["host.reference_ms"] = {Median(std::move(reference_ms)), "ms"};
    Status s = CollectTraced(runs.front().traces, runs.front().units, &metrics);
    if (s.ok()) {
      s = RunProbes(ws.front().get(), runs.front().units.back(), &metrics);
    }
    if (!s.ok()) {
      Fail("traced run", s);
      correct = false;
    }
  }
  PrintResult(correct, attempted, 0, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
