// The three benchmark workloads. Each drives the libraries through their
// public entry points only (`runtime::serve`, `runtime::serve_fleet`,
// `CoDesignFramework::train_tpu_bagging` + `infer_tpu`), checks the outputs,
// and — for the traced run — reports the simulated per-layer counters the
// program exposes. The host split of the call comes from the stack sampler.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "data/stream.hpp"
#include "data/synthetic.hpp"
#include "obs/energy.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "runtime/framework.hpp"
#include "runtime/router.hpp"
#include "runtime/serve.hpp"

namespace perfbench {

std::string Digest::hex() const {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

namespace {

using namespace hdc;

/// Independent sub-seeds of the workload seed (SplitMix64 finalizer), so the
/// stream, tenant-arrival, split and bagging generators never share a state.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (purpose + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

enum SeedPurpose : std::uint64_t { kStreamSeed = 1, kLearnerSeed, kTenantSeed, kDataSeed,
                                   kSplitSeed, kBaggingSeed };

/// Served/test accuracy below this fails the call's output check.
constexpr double kAccuracyFloor = 0.9;

Metric sim_metric(const std::string& name, double value, const std::string& unit,
                  std::uint64_t samples) {
  return Metric{name, value, unit, samples, Clock::kSim};
}

Check check(const std::string& name, bool ok, const std::string& detail = "") {
  return Check{name, ok, detail};
}

/// Nearest-rank percentile of `values` (sorted in place); `beyond` receives
/// how many observations lie strictly past the chosen rank.
double percentile(std::vector<double>& values, double q, std::uint64_t* beyond) {
  if (values.empty()) {
    *beyond = 0;
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  *beyond = n - rank;
  return values[rank - 1];
}

std::vector<double> served_latencies_us(const std::vector<obs::RequestTrace>& requests) {
  std::vector<double> out;
  for (const obs::RequestTrace& rt : requests) {
    if (rt.outcome == obs::RequestOutcome::kServed) {
      out.push_back(rt.latency().to_micros());
    }
  }
  return out;
}

/// Stage and component ledgers each partition the total; outcome ledgers too.
Check energy_ledgers(const std::string& where, const obs::EnergySnapshot& e) {
  std::int64_t stages = 0;
  for (const std::int64_t pj : e.stage_pj) {
    stages += pj;
  }
  std::int64_t components = 0;
  for (const std::int64_t pj : e.component_pj) {
    components += pj;
  }
  const bool ok = stages == e.total_pj && components == e.total_pj &&
                  e.served_pj + e.shed_pj + e.expired_pj == e.total_pj && e.total_pj > 0;
  return check(where + ".energy_ledgers_sum_to_total", ok,
               "total_pj=" + std::to_string(e.total_pj) + " stages=" +
                   std::to_string(stages) + " components=" + std::to_string(components));
}

Check conservation(const std::string& where, const char* unit, std::uint64_t offered,
                   std::uint64_t served, std::uint64_t shed, std::uint64_t expired) {
  return check(where + ".offered_eq_served_shed_expired." + unit,
               offered == served + shed + expired,
               std::to_string(offered) + " vs " + std::to_string(served) + "+" +
                   std::to_string(shed) + "+" + std::to_string(expired));
}

/// Finishes a call: every metric finite, the failed fraction, the digest.
void finish_call(CallResult& r, const std::vector<std::uint32_t>& predictions,
                 std::uint64_t offered_samples, std::uint64_t dropped_samples) {
  bool finite = true;
  for (const Metric& m : r.sim) {
    finite = finite && std::isfinite(m.value);
  }
  r.checks.push_back(check("metrics_finite", finite));
  const std::uint64_t failed_check_samples =
      r.ok() ? 0 : offered_samples - std::min(offered_samples, dropped_samples);
  r.sim.push_back(sim_metric(
      "failed_fraction",
      offered_samples == 0 ? 0.0
                           : static_cast<double>(dropped_samples + failed_check_samples) /
                                 static_cast<double>(offered_samples),
      "fraction", offered_samples));
  Digest digest;
  for (const std::uint32_t p : predictions) {
    digest.add(static_cast<std::uint64_t>(p));
  }
  for (const Metric& m : r.sim) {
    digest.add(m.name);
    digest.add(m.value);
  }
  r.digest = digest.hex();
}

/// Runs `body`, turning a library error into a failed check.
template <typename F>
bool guarded(CallResult& r, const char* what, F&& body) {
  try {
    body();
    return true;
  } catch (const std::exception& e) {
    r.checks.push_back(check(std::string(what) + ".raised", false, e.what()));
    return false;
  }
}

// ---- tpu.* and attr.* from the simulated side ------------------------------

void add_profile_metrics(std::vector<Metric>& m, const obs::ProfileReport& p) {
  m.push_back(sim_metric("tpu.invocations", static_cast<double>(p.executor_invocations),
                         "count", 1));
  m.push_back(sim_metric("tpu.link_transfers", static_cast<double>(p.link_transfers),
                         "count", 1));
  m.push_back(sim_metric("tpu.link_bytes", static_cast<double>(p.link_bytes), "B", 1));
  m.push_back(sim_metric("tpu.link_utilization", p.link_utilization, "fraction", 1));
  m.push_back(sim_metric("tpu.mxu_occupancy", p.mxu_occupancy, "fraction", 1));
  m.push_back(sim_metric("tpu.sram_hit_rate", p.cache_hit_rate, "fraction",
                         p.cache_lookups));
}

void add_attribution_metrics(std::vector<Metric>& m, const obs::RequestAttribution& a,
                             std::uint64_t requests) {
  const std::pair<const char*, obs::Stage> stages[] = {
      {"attr.queue_wait_frac", obs::Stage::kQueueWait},
      {"attr.batch_wait_frac", obs::Stage::kBatchWait},
      {"attr.swap_frac", obs::Stage::kSwap},
      {"attr.transfer_frac", obs::Stage::kTransfer},
      {"attr.device_frac", obs::Stage::kDevice},
      {"attr.host_frac", obs::Stage::kHost},
      {"attr.update_frac", obs::Stage::kUpdate},
  };
  for (const auto& [name, stage] : stages) {
    m.push_back(sim_metric(name, a.fraction(stage), "fraction", requests));
  }
}

// ---- serve-online -----------------------------------------------------------

class ServeOnline final : public Workload {
 public:
  ServeOnline(std::uint64_t seed, Scale scale, const std::string& scratch) {
    const bool tiny = scale == Scale::kTiny;
    config_.stream.spec = data::paper_dataset("PAMAP2");
    config_.stream.spec.seed = derive_seed(seed, kStreamSeed);
    config_.stream.chunk_size = tiny ? 4 : 16;
    config_.learner.dim = tiny ? 256 : 2048;
    config_.learner.seed = derive_seed(seed, kLearnerSeed);
    config_.warmup_chunks = 4;
    config_.serve_chunks = 1000;
    config_.online_updates = true;
    config_.model_refresh_chunks = 4;
    // Prototype drift from ~40% of the stream, over a tenth of it.
    config_.stream.drift_start_chunk = config_.warmup_chunks + config_.serve_chunks * 2 / 5;
    config_.stream.drift_duration_chunks = config_.serve_chunks / 10;
    // Closed loop (offered_load 0): one caller waits for each reply.
    config_.admission.offered_load = 0.0;
    // Window and SLO auto-size from the first served chunk, as `hdc serve`.
    config_.monitor.window.span = SimDuration();
    config_.monitor.slo_latency = SimDuration();
    config_.snapshot_every_chunks = config_.serve_chunks / 4;
    const std::filesystem::path dir = std::filesystem::path(scratch) / "serve";
    std::filesystem::create_directories(dir);
    config_.snapshot_dir = (dir / "snapshots").string();
    config_.prometheus_path = (dir / "serve.prom").string();
    config_.checkpoint_path = (dir / "serve.hdsv").string();
    config_.checkpoint_every_chunks = config_.serve_chunks / 2;
  }

  std::size_t threads() const override { return 1; }

  double setup() override {
    runtime::ServeConfig one = config_;
    one.serve_chunks = 1;
    const double t0 = wall_now();
    runtime::serve(framework_, one);
    return wall_now() - t0;
  }

  CallResult run(Trace* trace) override {
    CallResult r;
    obs::TraceContext context;
    obs::MetricsRegistry registry;
    context.set_metrics(&registry);
    framework_.set_trace(trace != nullptr ? &context : nullptr);
    CallTimer timer(trace);
    const bool ran = guarded(r, "serve", [&] { result_ = runtime::serve(framework_, config_); });
    timer.stop(r);
    framework_.set_trace(nullptr);
    const std::uint64_t offered_samples =
        static_cast<std::uint64_t>(config_.serve_chunks) * config_.stream.chunk_size;
    if (!ran) {
      finish_call(r, {}, offered_samples, 0);
      return r;
    }
    const runtime::ServeResult& s = result_;
    r.host_samples = s.samples_served;

    std::vector<double> lat = served_latencies_us(s.requests);
    const auto served_requests = static_cast<std::uint64_t>(lat.size());
    std::uint64_t beyond50 = 0;
    std::uint64_t beyond99 = 0;
    const double p50 = percentile(lat, 0.50, &beyond50);
    const double p99 = percentile(lat, 0.99, &beyond99);
    const double t_end = s.t_end.to_seconds();
    r.sim.push_back(sim_metric("sim_samples_per_s",
                               t_end > 0.0 ? static_cast<double>(s.samples_served) / t_end : 0.0,
                               "1/s", s.samples_served));
    r.sim.push_back(sim_metric("sim_p50_us", p50, "us", served_requests));
    r.sim.push_back(sim_metric("sim_p99_us", p99, "us", served_requests));
    r.sim.push_back(sim_metric(
        "sim_joules_per_inference",
        s.samples_served == 0 ? 0.0
                              : s.final_energy.total_joules() /
                                    static_cast<double>(s.samples_served),
        "J", s.samples_served));
    r.sim.push_back(sim_metric("accuracy", s.lifetime_accuracy, "fraction", s.samples_served));

    r.checks.push_back(conservation("serve", "requests", config_.serve_chunks,
                                    s.chunks.size(), s.shed_chunks, s.expired_chunks));
    r.checks.push_back(conservation("serve", "samples", offered_samples, s.samples_served,
                                    s.shed_samples, s.expired_samples));
    r.checks.push_back(check("serve.predictions_eq_served",
                             s.predictions.size() == s.samples_served));
    r.checks.push_back(energy_ledgers("serve", s.final_energy));
    r.checks.push_back(check("serve.accuracy_above_floor",
                             s.lifetime_accuracy >= kAccuracyFloor,
                             std::to_string(s.lifetime_accuracy)));
    r.checks.push_back(check("serve.p99_has_10_beyond", beyond99 >= 10,
                             std::to_string(beyond99) + " requests beyond p99"));
    r.checks.push_back(check("serve.checkpoint_written", s.checkpoints_written > 0));

    if (trace != nullptr) {
      add_profile_metrics(trace->layer_metrics, obs::compute_profile(context, registry));
      add_attribution_metrics(trace->layer_metrics, s.attribution_total, s.requests_traced);
      trace->layer_metrics.push_back(
          sim_metric("obs.snapshot.bytes", static_cast<double>(snapshot_bytes()), "B", 1));
    }
    finish_call(r, s.predictions, offered_samples, s.shed_samples + s.expired_samples);
    return r;
  }

 private:
  /// Bytes of the monitor snapshots and the Prometheus file the call wrote.
  std::uint64_t snapshot_bytes() const {
    std::uint64_t bytes = 0;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(config_.snapshot_dir, ec)) {
      bytes += entry.is_regular_file() ? entry.file_size() : 0;
    }
    const auto prom = std::filesystem::file_size(config_.prometheus_path, ec);
    return bytes + (ec ? 0 : prom);
  }

  runtime::CoDesignFramework framework_;
  runtime::ServeConfig config_;
  runtime::ServeResult result_;
};

// ---- fleet-skewed -----------------------------------------------------------

class FleetSkewed final : public Workload {
 public:
  FleetSkewed(std::uint64_t seed, Scale scale) {
    const bool tiny = scale == Scale::kTiny;
    base_.stream.spec = data::paper_dataset("PAMAP2");
    base_.stream.spec.seed = derive_seed(seed, kStreamSeed);
    base_.stream.chunk_size = 16;
    base_.learner.dim = 2048;
    base_.learner.seed = derive_seed(seed, kLearnerSeed);
    base_.warmup_chunks = 8;
    base_.fleet.num_devices = 4;
    base_.fleet.num_tenants = 8;
    base_.fleet.tenant_skew = 1.0;
    base_.fleet.batch_max_chunks = 8;
    base_.fleet.placement = runtime::PlacementPolicy::kCacheAware;
    base_.fleet.seed = derive_seed(seed, kTenantSeed);
    base_.admission.queue_capacity = 8;
    base_.admission.deadline = SimDuration::micros(4000.0);
    // Open loop, in single-device full-tier service-rate units: no shedding,
    // the knee, and overload.
    rungs_ = {{16.0, tiny ? 100u : 500u}, {48.0, tiny ? 200u : 1100u},
              {96.0, tiny ? 150u : 500u}};
    tail_floor_ = tiny ? 0 : 10;
  }

  std::size_t threads() const override { return 2; }

  double setup() override {
    runtime::ServeConfig one = rung_config(rungs_.front());
    one.serve_chunks = 1;
    const double t0 = wall_now();
    runtime::serve_fleet(framework_, one);
    return wall_now() - t0;
  }

  CallResult run(Trace* trace) override {
    // serve_fleet publishes nothing to a trace context; its simulated
    // counters come from FleetResult, so traced and untraced calls are alike.
    CallResult r;
    r.setup_calls = static_cast<std::uint32_t>(rungs_.size());
    results_.assign(rungs_.size(), runtime::FleetResult{});
    CallTimer timer(trace);
    bool ran = true;
    for (std::size_t i = 0; i < rungs_.size() && ran; ++i) {
      ran = guarded(r, "serve_fleet", [&] {
        results_[i] = runtime::serve_fleet(framework_, rung_config(rungs_[i]));
      });
    }
    timer.stop(r);
    std::uint64_t offered_samples = 0;
    for (const Rung& rung : rungs_) {
      offered_samples += static_cast<std::uint64_t>(rung.requests) * base_.stream.chunk_size;
    }
    if (!ran) {
      finish_call(r, {}, offered_samples, 0);
      return r;
    }

    std::vector<std::uint32_t> predictions;
    std::uint64_t served_samples = 0;
    std::uint64_t dropped_samples = 0;
    double correct = 0.0;
    std::int64_t energy_pj = 0;
    double slo_load = 0.0;
    double max_batch = 0.0;
    for (std::size_t i = 0; i < rungs_.size(); ++i) {
      const runtime::FleetResult& f = results_[i];
      const std::string where = "rung" + std::to_string(i);
      predictions.insert(predictions.end(), f.predictions.begin(), f.predictions.end());
      served_samples += f.samples_served;
      dropped_samples += f.shed_samples + f.expired_samples;
      correct += f.lifetime_accuracy * static_cast<double>(f.samples_served);
      energy_pj += f.fleet_energy.total_pj;
      max_batch = std::max(max_batch, f.mean_batch_chunks);

      std::vector<double> lat = served_latencies_us(f.requests);
      const auto served_requests = static_cast<std::uint64_t>(lat.size());
      std::uint64_t beyond50 = 0;
      std::uint64_t beyond99 = 0;
      const double p50 = percentile(lat, 0.50, &beyond50);
      const double p99 = percentile(lat, 0.99, &beyond99);
      const bool clean = f.shed_requests == 0 && f.expired_requests == 0;
      if (clean && p99 <= base_.admission.deadline.to_micros()) {
        slo_load = std::max(slo_load, rungs_[i].load);
      }
      const double t_end = f.t_end.to_seconds();
      const double sps = t_end > 0.0 ? static_cast<double>(f.samples_served) / t_end : 0.0;
      r.sim.push_back(sim_metric(where + ".offered_load", rungs_[i].load, "x", 1));
      r.sim.push_back(sim_metric(where + ".sim_samples_per_s", sps, "1/s", f.samples_served));
      r.sim.push_back(sim_metric(where + ".sim_p50_us", p50, "us", served_requests));
      r.sim.push_back(sim_metric(where + ".sim_p99_us", p99, "us", served_requests));
      r.sim.push_back(sim_metric(
          where + ".shed_fraction",
          static_cast<double>(f.shed_requests + f.expired_requests) /
              static_cast<double>(std::max<std::uint64_t>(1, f.offered_requests)),
          "fraction", f.offered_requests));
      r.sim.push_back(sim_metric(where + ".mean_batch_chunks", f.mean_batch_chunks, "chunks",
                                 f.batches));
      if (i + 1 == rungs_.size()) {
        r.sim.push_back(sim_metric("sim_samples_per_s", sps, "1/s", f.samples_served));
      }
      if (i == 1) {
        r.sim.push_back(sim_metric("sim_p50_us", p50, "us", served_requests));
        r.sim.push_back(sim_metric("sim_p99_us", p99, "us", served_requests));
        if (tail_floor_ > 0) {
          r.checks.push_back(check(where + ".p99_has_10_beyond", beyond99 >= tail_floor_,
                                   std::to_string(beyond99) + " requests beyond p99"));
        }
      }

      r.checks.push_back(conservation(where, "requests", f.offered_requests, f.served_requests,
                                      f.shed_requests, f.expired_requests));
      r.checks.push_back(conservation(where, "samples", f.offered_samples, f.samples_served,
                                      f.shed_samples, f.expired_samples));
      r.checks.push_back(check(where + ".offered_eq_ladder",
                               f.offered_requests == rungs_[i].requests));
      std::uint64_t hits = 0;
      std::uint64_t swaps = 0;
      std::uint64_t lookups = 0;
      std::int64_t shard_pj = 0;
      bool shards_ok = true;
      for (const runtime::FleetShardResult& shard : f.shards) {
        hits += shard.cache_hits;
        swaps += shard.swaps;
        lookups += shard.cache_lookups;
        shard_pj += shard.energy_pj;
        shards_ok = shards_ok && shard.cache_hits + shard.swaps == shard.cache_lookups;
      }
      r.checks.push_back(check(where + ".hits_plus_swaps_eq_lookups",
                               shards_ok && hits + swaps == lookups &&
                                   f.cache_hits + f.swaps == f.cache_lookups &&
                                   lookups == f.cache_lookups,
                               std::to_string(hits) + "+" + std::to_string(swaps) + " vs " +
                                   std::to_string(lookups)));
      r.checks.push_back(energy_ledgers(where, f.fleet_energy));
      std::int64_t tenant_pj = 0;
      for (const std::int64_t pj : f.tenant_energy_pj) {
        tenant_pj += pj;
      }
      r.checks.push_back(check(where + ".shard_and_tenant_energy_sum_to_total",
                               shard_pj == f.fleet_energy.total_pj &&
                                   tenant_pj == f.fleet_energy.total_pj));
      r.checks.push_back(check(where + ".predictions_eq_served",
                               f.predictions.size() == f.samples_served));
    }
    const runtime::FleetResult& low = results_.front();
    const runtime::FleetResult& high = results_.back();
    r.checks.push_back(check("ladder.lowest_sheds_nothing",
                             low.shed_requests + low.expired_requests == 0));
    r.checks.push_back(check("ladder.highest_sheds", high.shed_requests > 0));
    r.checks.push_back(check("ladder.batches_above_one_chunk", max_batch > 1.0,
                             std::to_string(max_batch)));
    const double accuracy =
        served_samples == 0 ? 0.0 : correct / static_cast<double>(served_samples);
    r.checks.push_back(check("fleet.accuracy_above_floor", accuracy >= kAccuracyFloor,
                             std::to_string(accuracy)));
    r.host_samples = served_samples;
    r.sim.push_back(sim_metric("sim_slo_load", slo_load, "x",
                               static_cast<std::uint64_t>(rungs_.size())));
    r.sim.push_back(sim_metric(
        "sim_joules_per_inference",
        served_samples == 0 ? 0.0
                            : static_cast<double>(energy_pj) * 1e-12 /
                                  static_cast<double>(served_samples),
        "J", served_samples));
    r.sim.push_back(sim_metric("accuracy", accuracy, "fraction", served_samples));

    if (trace != nullptr) {
      add_fleet_layer_metrics(trace->layer_metrics);
    }
    finish_call(r, predictions, offered_samples, dropped_samples);
    return r;
  }

 private:
  struct Rung {
    double load = 0.0;
    std::uint32_t requests = 0;
  };

  runtime::ServeConfig rung_config(const Rung& rung) const {
    runtime::ServeConfig c = base_;
    c.admission.offered_load = rung.load;
    c.serve_chunks = rung.requests;
    return c;
  }

  /// Device-side counters summed over the ladder: serve_fleet exposes its
  /// batches, cache lookups and shard busy time, not link transfers.
  void add_fleet_layer_metrics(std::vector<Metric>& m) const {
    std::uint64_t batches = 0;
    std::uint64_t requests = 0;
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    std::uint64_t swaps = 0;
    double busy = 0.0;
    double capacity = 0.0;
    double imbalance = 0.0;
    obs::RequestAttribution attribution;
    std::uint64_t traced = 0;
    for (const runtime::FleetResult& f : results_) {
      double shard_max = 0.0;
      double shard_sum = 0.0;
      for (const runtime::FleetShardResult& shard : f.shards) {
        batches += shard.batches;
        requests += shard.requests_served;
        shard_max = std::max(shard_max, shard.busy.to_seconds());
        shard_sum += shard.busy.to_seconds();
      }
      hits += f.cache_hits;
      lookups += f.cache_lookups;
      swaps += f.swaps;
      busy += shard_sum;
      capacity += f.t_end.to_seconds() * static_cast<double>(f.shards.size());
      const double mean =
          shard_sum / static_cast<double>(std::max<std::size_t>(1, f.shards.size()));
      imbalance = std::max(imbalance, mean > 0.0 ? shard_max / mean - 1.0 : 0.0);
      attribution += f.attribution_total;
      traced += f.requests_traced;
    }
    m.push_back(sim_metric("tpu.invocations", static_cast<double>(batches), "count", 1));
    m.push_back(sim_metric("tpu.mxu_occupancy", capacity > 0.0 ? busy / capacity : 0.0,
                           "fraction", 1));
    m.push_back(sim_metric("tpu.sram_hit_rate",
                           lookups == 0 ? 0.0
                                        : static_cast<double>(hits) / static_cast<double>(lookups),
                           "fraction", lookups));
    m.push_back(sim_metric("router.batches", static_cast<double>(batches), "count", 1));
    m.push_back(sim_metric("router.mean_batch_chunks",
                           batches == 0 ? 0.0
                                        : static_cast<double>(requests) /
                                              static_cast<double>(batches),
                           "chunks", batches));
    m.push_back(sim_metric("router.cache_hit_rate",
                           lookups == 0 ? 0.0
                                        : static_cast<double>(hits) / static_cast<double>(lookups),
                           "fraction", lookups));
    m.push_back(sim_metric("router.swaps", static_cast<double>(swaps), "count", 1));
    m.push_back(sim_metric("router.shard_busy_imbalance", imbalance, "fraction", 1));
    add_attribution_metrics(m, attribution, traced);
  }

  runtime::CoDesignFramework framework_;
  runtime::ServeConfig base_;
  std::vector<Rung> rungs_;
  std::vector<runtime::FleetResult> results_;
  std::uint64_t tail_floor_ = 0;
};

// ---- train-bagged -----------------------------------------------------------

class TrainBagged final : public Workload {
 public:
  TrainBagged(std::uint64_t seed, Scale scale) : seed_(seed) {
    const bool tiny = scale == Scale::kTiny;
    spec_ = data::paper_dataset("ISOLET");
    spec_.seed = derive_seed(seed, kDataSeed);
    max_samples_ = tiny ? 300 : 1500;
    // The paper's operating point: d = 10000, M = 4, d' = 2500, I' = 6,
    // alpha = 0.6, beta = 1.0 (feature sampling off).
    bagging_.num_models = 4;
    bagging_.base.dim = tiny ? 1000 : 10000;
    bagging_.sub_dim = bagging_.base.dim / 4;
    bagging_.epochs = 6;
    bagging_.bootstrap.dataset_ratio = 0.6;
    bagging_.bootstrap.feature_ratio = 1.0;
    bagging_.base.seed = derive_seed(seed, kBaggingSeed);
    // The tiny smoke scale (300 rows, d=1000) cannot reach the full floor.
    accuracy_floor_ = tiny ? 0.5 : kAccuracyFloor;
  }

  std::size_t threads() const override { return 2; }

  double setup() override {
    const double t0 = wall_now();
    data::Dataset all = data::generate_synthetic(spec_, max_samples_);
    split_ = data::split_dataset(all, 0.2, derive_seed(seed_, kSplitSeed));
    data::MinMaxNormalizer normalizer;
    normalizer.fit(split_.train);
    normalizer.apply(split_.train);
    normalizer.apply(split_.test);
    return wall_now() - t0;
  }

  CallResult run(Trace* trace) override {
    CallResult r;
    // Generation, split and normalisation happen in setup(), not in the call.
    r.setup_calls = 0;
    obs::TraceContext context;
    obs::MetricsRegistry registry;
    context.set_metrics(&registry);
    framework_.set_trace(trace != nullptr ? &context : nullptr);
    CallTimer timer(trace);
    std::optional<runtime::CoDesignFramework::TrainOutcome> trained;
    std::optional<runtime::CoDesignFramework::InferOutcome> infer;
    const bool ran = guarded(r, "train_tpu_bagging", [&] {
      trained = framework_.train_tpu_bagging(split_.train, bagging_);
      infer = framework_.infer_tpu(trained->classifier, split_.test, split_.train);
    });
    timer.stop(r);
    framework_.set_trace(nullptr);
    const std::uint64_t rows = split_.train.num_samples() + split_.test.num_samples();
    if (!ran) {
      finish_call(r, {}, rows, 0);
      return r;
    }
    const runtime::TrainTimings& t = trained->timings;
    const double train_s = t.total().to_seconds();
    const double infer_s = infer->timings.total.to_seconds();
    const std::uint64_t tests = split_.test.num_samples();
    r.host_samples = rows;
    r.sim.push_back(sim_metric("sim_samples_per_s",
                               static_cast<double>(rows) / (train_s + infer_s), "1/s", rows));
    r.sim.push_back(sim_metric("sim_train_s", train_s, "s", split_.train.num_samples()));
    r.sim.push_back(sim_metric("sim_infer_samples_per_s",
                               static_cast<double>(tests) / infer_s, "1/s", tests));
    r.sim.push_back(sim_metric("accuracy", infer->accuracy, "fraction", tests));

    r.checks.push_back(check("train.predictions_eq_test_rows",
                             infer->predictions.size() == tests));
    r.checks.push_back(check("train.sim_train_parts_positive",
                             t.encode.to_seconds() > 0.0 && t.update.to_seconds() > 0.0 &&
                                 t.model_gen.to_seconds() > 0.0));
    r.checks.push_back(check("train.accuracy_above_floor", infer->accuracy >= accuracy_floor_,
                             std::to_string(infer->accuracy)));

    if (trace != nullptr) {
      add_profile_metrics(trace->layer_metrics, obs::compute_profile(context, registry));
      auto& m = trace->layer_metrics;
      m.push_back(sim_metric("sim.train.encode_s", t.encode.to_seconds(), "s", 1));
      m.push_back(sim_metric("sim.train.update_s", t.update.to_seconds(), "s", 1));
      m.push_back(sim_metric("sim.train.model_gen_s", t.model_gen.to_seconds(), "s", 1));
    }
    finish_call(r, infer->predictions, rows, 0);
    return r;
  }

 private:
  std::uint64_t seed_;
  runtime::CoDesignFramework framework_;
  data::SyntheticSpec spec_;
  std::uint32_t max_samples_ = 0;
  core::BaggingConfig bagging_;
  data::TrainTestSplit split_;
  double accuracy_floor_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Scale scale, const std::string& scratch_dir) {
  if (name == "serve-online") {
    return std::make_unique<ServeOnline>(seed, scale, scratch_dir);
  }
  if (name == "fleet-skewed") {
    return std::make_unique<FleetSkewed>(seed, scale);
  }
  if (name == "train-bagged") {
    return std::make_unique<TrainBagged>(seed, scale);
  }
  return nullptr;
}

}  // namespace perfbench
