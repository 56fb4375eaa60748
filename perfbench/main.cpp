// hdc_perfbench: the repository benchmark program.
//
//   hdc_perfbench --workload serve-online|fleet-skewed|train-bagged --seed N
//                 --seconds S --trace 0|1 [--scale full|tiny] [--revision REV]
//
// --trace 0 repeats rounds of set-up calls and one timed call for about S
// seconds with no trace attached and prints every end-to-end metric;
// --trace 1 runs the timed call untraced, traced (TraceContext attached and
// the call's stacks sampled) and untraced again, and prints the per-layer
// metrics. Every metric line carries its unit, sample count and clock; the
// last line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. See perfbench/README.md.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/parallel.hpp"

#ifndef HDC_PERFBENCH_COMPILER
#define HDC_PERFBENCH_COMPILER "unknown"
#endif
#ifndef HDC_PERFBENCH_BUILD_TYPE
#define HDC_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace parallel = hdc::parallel;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  Scale scale = Scale::kFull;
  std::string revision = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: hdc_perfbench --workload serve-online|fleet-skewed|train-bagged "
               "--seed N --seconds S --trace 0|1 [--scale full|tiny] [--revision REV]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + key).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        usage("--seed must be a non-negative integer");
      }
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0)) {
        usage("--seconds must be a positive number");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace must be 0 or 1");
      }
      a.trace = value == "1" ? 1 : 0;
    } else if (key == "--scale") {
      if (value != "full" && value != "tiny") {
        usage("--scale must be full or tiny");
      }
      a.scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (key == "--revision") {
      a.revision = value;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Metric host_metric(const std::string& name, double value, const std::string& unit,
                   std::uint64_t samples) {
  return Metric{name, value, unit, samples, Clock::kHost};
}

/// The host bound BENCHMARK.json gives setup_s and host_samples_per_s.
constexpr double kHostBound = 0.25;

/// Which library functions make up each layer of the traced call. The first
/// rule that matches a function's name classifies it; a sample goes to the
/// innermost classified frame of its stack unless an opaque rule claims a
/// frame further out (see LayerRule).
const std::vector<LayerRule> kLayerRules = {
    {"runtime.lower", "hdc::runtime::CoDesignFramework::lower_classifier", nullptr, true},
    {"runtime.lower", "hdc::runtime::ServingEndpoint::deploy", nullptr, true},
    {"runtime.lower", "hdc::tpu::EdgeTpuCompiler::", nullptr, true},
    {"runtime.lower", "hdc::lite::quantize_model", nullptr, true},
    {"runtime.lower", "hdc::lite::build_float_model", nullptr, true},
    {"runtime.lower", "hdc::nn::", nullptr, true},
    {"obs.snapshot", "hdc::obs::", "::snapshot(", true},
    {"obs.snapshot", "hdc::obs::", "::to_json", true},
    {"obs.snapshot", "hdc::obs::", "::to_prometheus", true},
    {"data.stream", "hdc::data::DriftStream::", nullptr, false},
    {"core.encode", "hdc::core::Encoder::", nullptr, false},
    {"core.encode", "hdc::core::OnlineLearner::encode", nullptr, false},
    {"core.shadow", "hdc::core::OnlineLearner::decide", nullptr, false},
    {"core.update", "hdc::core::OnlineLearner::learn", nullptr, false},
    {"core.train", "hdc::core::Trainer::", nullptr, false},
    {"runtime.endpoint", "hdc::runtime::ServingEndpoint::", nullptr, false},
    {"lite.interpret", "hdc::lite::LiteInterpreter::", nullptr, false},
    {"tpu.sim", "hdc::tpu::", nullptr, false},
    {"obs.monitor", "hdc::obs::ServingMonitor::", nullptr, false},
    {"obs.model_stats", "hdc::obs::ModelQualityStats::", nullptr, false},
    {"obs.energy", "hdc::obs::EnergyAccountant::", nullptr, false},
    {"obs.energy", "hdc::obs::attribute_energy", nullptr, false},
};

/// Per-layer metrics of the traced run, in a fixed order; every workload
/// prints all of them (0 where the workload does not reach the layer).
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
constexpr LayerMetricSpec kLayerMetrics[] = {
    {"data.stream.busy_s", "s"},          {"core.encode.busy_s", "s"},
    {"core.shadow.busy_s", "s"},          {"core.update.busy_s", "s"},
    {"core.train.busy_s", "s"},           {"runtime.lower.busy_s", "s"},
    {"runtime.endpoint.busy_s", "s"},     {"lite.interpret.busy_s", "s"},
    {"tpu.sim.busy_s", "s"},              {"obs.monitor.busy_s", "s"},
    {"obs.model_stats.busy_s", "s"},      {"obs.energy.busy_s", "s"},
    {"obs.snapshot.busy_s", "s"},         {"obs.snapshot.bytes", "B"},
    {"other_s", "s"},                     {"call.busy_s", "s"},
    {"call.cpu_s", "s"},                  {"profile.samples", "count"},
    {"host.pool.busy_s", "s"},            {"host.pool.speedup", "x"},
    {"tpu.invocations", "count"},         {"tpu.link_transfers", "count"},
    {"tpu.link_bytes", "B"},              {"tpu.link_utilization", "fraction"},
    {"tpu.mxu_occupancy", "fraction"},    {"tpu.sram_hit_rate", "fraction"},
    {"tpu.host_us_per_invocation", "us"},
    {"attr.queue_wait_frac", "fraction"}, {"attr.batch_wait_frac", "fraction"},
    {"attr.swap_frac", "fraction"},       {"attr.transfer_frac", "fraction"},
    {"attr.device_frac", "fraction"},     {"attr.host_frac", "fraction"},
    {"attr.update_frac", "fraction"},
    {"router.batches", "count"},          {"router.mean_batch_chunks", "chunks"},
    {"router.cache_hit_rate", "fraction"}, {"router.swaps", "count"},
    {"router.shard_busy_imbalance", "fraction"},
    {"sim.train.encode_s", "s"},          {"sim.train.update_s", "s"},
    {"sim.train.model_gen_s", "s"},
    {"trace_overhead_frac", "fraction"},
};

/// Names of the end-to-end metrics the final line carries (BENCHMARK.json).
const char* const kEndToEnd[] = {"setup_s", "host_samples_per_s", "peak_rss_mb",
                                 "sim_samples_per_s", "accuracy"};

void print_metric(const Metric& m) {
  std::printf("metric %-32s = %.10g %s (n=%llu, clock=%s)\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<unsigned long long>(m.samples),
              clock_name(m.clock));
}

struct Output {
  std::vector<Metric> metrics;           ///< everything printed
  std::vector<std::string> final_names;  ///< metrics the last line carries
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;
  std::vector<double> references;  ///< reference kernel median during each call
  std::vector<double> call_rates;  ///< speed-corrected host samples/s of each call
};

void emit(const Output& out) {
  for (const Metric& m : out.metrics) {
    print_metric(m);
  }
  bool correct = out.failed == 0;
  for (const Check& c : out.checks) {
    correct = correct && c.ok;
    std::printf("check %-48s %s%s%s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.empty() ? "" : "  ", c.detail.c_str());
  }
  std::printf("sim_digest %s (info)\n", out.digest.c_str());

  std::string last = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : out.final_names) {
    const auto it = std::find_if(out.metrics.begin(), out.metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    const Metric m = it != out.metrics.end() ? *it : Metric{name, 0.0, "?", 0, Clock::kNone};
    last += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  last += "}}";
  std::printf("%s\n", last.c_str());
  std::fflush(stdout);
}

/// Set-up calls before each timed call; set-up is short and noisy, so it is
/// sampled more often than the timed call.
constexpr int kSetupsPerCall = 3;

/// The reference kernel's median time (ReferenceProbe) on an unloaded vCPU of
/// the benchmark host; host timings are scaled to this machine speed.
constexpr double kNominalReferenceS = 2.0e-5;

/// How much faster the machine ran than nominal, as it affects the program.
/// On the benchmark host (4 vCPUs of a shared Xeon) the reference kernel
/// runs up to about 2.5x slower in slow phases, and every workload's host
/// rate falls as the square root of the kernel's slowdown (log-log slope
/// 0.46-0.51 over such phases; perfbench/README.md), so the factor is the
/// square root of the kernel's speed-up over nominal.
double speed_factor(double reference_s) {
  return std::sqrt(kNominalReferenceS / reference_s);
}

/// --trace 0: rounds of set-up calls and one timed call, for about `seconds`.
/// Each timed call's host rate is divided by the call's speed factor. The
/// set-up walls are not: across two sets of runs the correction moved their
/// medians more than it steadied them (perfbench/README.md).
Output run_untraced(const Args& args, Workload& w) {
  Output out;
  std::vector<double> setups;
  std::vector<CallResult> calls;
  const double start = wall_now();
  while (true) {
    const double round_start = wall_now();
    for (int k = 0; k < kSetupsPerCall; ++k) {
      setups.push_back(w.setup());
    }
    calls.push_back(w.run(nullptr));
    out.references.push_back(calls.back().reference.median_s);
    const double round = wall_now() - round_start;
    if (wall_now() - start + round > args.seconds) {
      break;
    }
  }
  const double setup_s = median(setups);
  std::vector<double> raw_rates;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const CallResult& c = calls[i];
    const double net = c.wall_s - static_cast<double>(c.setup_calls) * setup_s;
    raw_rates.push_back(net > 0.0 ? static_cast<double>(c.host_samples) / net : 0.0);
    out.call_rates.push_back(raw_rates.back() / speed_factor(out.references[i]));
  }
  std::printf("# timed calls (wall_s, host samples/s, reference_s, corrected samples/s, "
              "probe share of wall):");
  for (std::size_t i = 0; i < calls.size(); ++i) {
    std::printf(" (%.4f, %.1f, %.4g, %.1f, %.4f)", calls[i].wall_s, raw_rates[i],
                out.references[i], out.call_rates[i],
                calls[i].reference.total_s / calls[i].wall_s);
  }
  std::printf("\n# set-up calls (wall_s):");
  for (const double s : setups) {
    std::printf(" %.4f", s);
  }
  std::printf("\n");
  const auto reps = static_cast<std::uint64_t>(calls.size());
  out.metrics.push_back(
      host_metric("setup_s", setup_s, "s", static_cast<std::uint64_t>(setups.size())));
  out.metrics.push_back(host_metric("host_samples_per_s", median(out.call_rates), "1/s", reps));
  out.metrics.push_back(host_metric("host_samples_per_s_raw", median(raw_rates), "1/s", reps));
  out.metrics.push_back(host_metric("reference_s", median(out.references), "s", reps));
  out.metrics.push_back(host_metric("peak_rss_mb", peak_rss_mb(), "MB", 1));
  const CallResult& last = calls.back();
  out.metrics.insert(out.metrics.end(), last.sim.begin(), last.sim.end());

  bool repeatable = true;
  for (const CallResult& c : calls) {
    ++out.attempted;
    out.failed += c.ok() ? 0 : 1;
    repeatable = repeatable && c.digest == last.digest;
    for (const Check& ch : c.checks) {
      if (!ch.ok || &c == &last) {
        out.checks.push_back(ch);
      }
    }
  }
  out.checks.push_back(Check{"sim_outputs_repeat_across_calls", repeatable,
                             std::to_string(calls.size()) + " calls"});
  out.digest = last.digest;
  out.final_names.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  return out;
}

/// --trace 1: an untraced call, the traced call and a second untraced call.
/// The two untraced calls bracket the traced one, so machine drift cancels
/// out of `trace_overhead_frac`. The traced call's host CPU time is split
/// over the layers by the shares of its sampled stacks; `other_s` is the
/// share no layer claims (the program's own loops, allocator, libc).
Output run_traced(const Args& args, Workload& w) {
  Output out;
  w.setup();
  const CallResult untraced = w.run(nullptr);

  StackSampler sampler;
  Trace trace;
  trace.sampler = &sampler;
  parallel::reset_pool_stats();
  const CallResult traced = w.run(&trace);
  const parallel::PoolStats pool = parallel::pool_stats();
  const CallResult untraced_after = w.run(nullptr);
  const double untraced_wall = 0.5 * (untraced.wall_s + untraced_after.wall_s);
  const SampleProfile profile = sampler.attribute(kLayerRules);

  std::vector<Metric> values;
  const double per_sample =
      profile.samples == 0 ? 0.0 : traced.cpu_s / static_cast<double>(profile.samples);
  std::uint64_t attributed = 0;
  double layers_s = 0.0;
  for (std::size_t i = 0; i < profile.layers.size(); ++i) {
    const std::uint64_t n = profile.samples_in[i];
    values.push_back(host_metric(profile.layers[i] + ".busy_s",
                                 per_sample * static_cast<double>(n), "s", n));
    attributed += n;
    layers_s += values.back().value;
  }
  const std::uint64_t unattributed = profile.samples - attributed;
  const double other = per_sample * static_cast<double>(unattributed);
  values.push_back(host_metric("other_s", other, "s", unattributed));
  values.push_back(host_metric("call.busy_s", traced.wall_s, "s", 1));
  values.push_back(host_metric("call.cpu_s", traced.cpu_s, "s", 1));
  values.push_back(host_metric("profile.samples", static_cast<double>(profile.samples),
                               "count", profile.samples));
  values.push_back(host_metric("host.pool.busy_s", pool.busy_seconds, "s", pool.regions));
  values.push_back(host_metric("host.pool.speedup", pool.speedup(), "x", pool.regions));
  values.insert(values.end(), trace.layer_metrics.begin(), trace.layer_metrics.end());
  double invocations = 0.0;
  for (const Metric& m : trace.layer_metrics) {
    if (m.name == "tpu.invocations") {
      invocations = m.value;
    }
  }
  values.push_back(host_metric("tpu.host_us_per_invocation",
                               invocations > 0.0 ? traced.wall_s * 1e6 / invocations : 0.0,
                               "us", static_cast<std::uint64_t>(invocations)));
  values.push_back(host_metric("trace_overhead_frac",
                               untraced_wall > 0.0 ? traced.wall_s / untraced_wall - 1.0 : 0.0,
                               "fraction", 2));
  std::printf("# reconciliation: layers %.6f s + other_s %.6f s = call.cpu_s %.6f s "
              "(call.busy_s %.6f s wall); %llu CPU samples, %llu in the library, "
              "%llu dropped\n",
              layers_s, other, traced.cpu_s, traced.wall_s,
              static_cast<unsigned long long>(profile.samples),
              static_cast<unsigned long long>(profile.resolved),
              static_cast<unsigned long long>(profile.dropped));

  for (const LayerMetricSpec& spec : kLayerMetrics) {
    const auto it = std::find_if(values.begin(), values.end(),
                                 [&](const Metric& m) { return m.name == spec.name; });
    Metric m = it != values.end() ? *it : Metric{spec.name, 0.0, spec.unit, 0, Clock::kNone};
    m.unit = spec.unit;
    out.metrics.push_back(m);
    out.final_names.push_back(spec.name);
  }
  out.attempted = 3;
  out.failed = (untraced.ok() ? 0 : 1) + (traced.ok() ? 0 : 1) + (untraced_after.ok() ? 0 : 1);
  for (const CallResult* c : {&untraced, &traced, &untraced_after}) {
    for (const Check& ch : c->checks) {
      if (!ch.ok || c == &traced) {
        out.checks.push_back(ch);
      }
    }
  }
  out.checks.push_back(Check{"trace.sim_outputs_identical_to_untraced",
                             untraced.digest == traced.digest &&
                                 untraced_after.digest == traced.digest,
                             untraced.digest + " vs " + traced.digest});
  // Enough samples to split the call, and stacks that unwind into the
  // library: a sampler that saw nothing, or only unresolvable frames, fails.
  const std::uint64_t floor = args.scale == Scale::kTiny ? 5 : 200;
  out.checks.push_back(Check{"profile.enough_samples", profile.samples >= floor,
                             std::to_string(profile.samples) + " >= " + std::to_string(floor)});
  out.checks.push_back(Check{
      "profile.stacks_reach_library",
      profile.samples > 0 && static_cast<double>(profile.resolved) >=
                                 0.9 * static_cast<double>(profile.samples),
      std::to_string(profile.resolved) + " of " + std::to_string(profile.samples)});
  out.checks.push_back(Check{"profile.no_samples_dropped", profile.dropped == 0,
                             std::to_string(profile.dropped)});
  out.digest = traced.digest;
  return out;
}

/// Prints whether the host metrics stand. The timed calls of one run repeat
/// the same work, so when their speed-corrected rates still differ by more
/// than the host bound, the machine slowed the calls in a way the reference
/// kernel did not follow, and the run's host metrics are flagged as
/// unresolved.
void report_host_stability(const Output& out) {
  if (out.call_rates.size() < 2) {
    return;
  }
  const auto [slow, fast] = std::minmax_element(out.call_rates.begin(), out.call_rates.end());
  const double spread = *slow > 0.0 ? *fast / *slow - 1.0 : 0.0;
  std::printf("# host_metrics %s: the timed calls' corrected host rates differ by %.0f%% "
              "(bound %.0f%%)%s\n",
              spread > kHostBound ? "UNRESOLVED" : "resolved", 100.0 * spread,
              100.0 * kHostBound,
              spread > kHostBound ? "; do not compare this run's host metrics" : "");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  // Per-run scratch (snapshots, checkpoints) inside the build tree; removed
  // at exit.
  const std::string scratch = ".bench_build/run-" + std::to_string(::getpid());
  std::unique_ptr<Workload> workload;
  try {
    std::filesystem::create_directories(scratch);
    workload = make_workload(args.workload, args.seed, args.scale, scratch);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (workload == nullptr) {
    usage(("unknown workload " + args.workload).c_str());
  }
  // The workload's thread count, never more than the machine has.
  const std::size_t threads =
      std::min(workload->threads(), hdc::parallel::hardware_threads());
  hdc::parallel::set_num_threads(threads);
  std::printf("# perfbench workload=%s seed=%llu trace=%d threads=%zu nproc=%zu "
              "compiler=\"%s\" build=%s revision=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.trace,
              threads, hdc::parallel::hardware_threads(), HDC_PERFBENCH_COMPILER,
              HDC_PERFBENCH_BUILD_TYPE, args.revision.c_str());
  int code = 0;
  try {
    const Output out =
        args.trace == 1 ? run_traced(args, *workload) : run_untraced(args, *workload);
    report_host_stability(out);
    emit(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    code = 1;
  }
  workload.reset();
  std::error_code ignored;
  std::filesystem::remove_all(scratch, ignored);
  return code;
}
