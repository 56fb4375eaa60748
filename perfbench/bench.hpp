// Shared types of hdc_perfbench: metrics, output checks, the timing of the
// program call, and the simulated-output digest.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sampler.hpp"

namespace perfbench {

/// Which clock a metric is measured on.
enum class Clock { kHost, kSim, kNone };

inline const char* clock_name(Clock clock) {
  switch (clock) {
    case Clock::kHost:
      return "host";
    case Clock::kSim:
      return "sim";
    case Clock::kNone:
      break;
  }
  return "-";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value
  Clock clock = Clock::kNone;
};

/// One output check. A failed check fails the call it belongs to.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

inline double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), in seconds.
inline double process_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// FNV-1a over bytes: the simulated-output digest. Host timings never enter
/// it, so two builds that simulate identically print the same digest.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) { add_bytes(s.data(), s.size()); }
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// What one execution of a workload's timed call produced.
struct CallResult {
  double wall_s = 0.0;             ///< host wall of the call (all ladder rungs)
  double cpu_s = 0.0;              ///< host CPU time of the call, all threads
  std::uint32_t setup_calls = 1;   ///< set-up calls the wall contains (fleet: rungs)
  std::uint64_t host_samples = 0;  ///< samples counted for host_samples_per_s
  ReferenceTiming reference;       ///< the reference probe over an untraced call
  std::vector<Metric> sim;         ///< simulated and quality metrics
  std::vector<Check> checks;
  std::string digest;  ///< sim_digest: predictions + every sim_* value
  bool ok() const {
    for (const Check& c : checks) {
      if (!c.ok) {
        return false;
      }
    }
    return true;
  }
};

/// What the traced run collects inside a workload's timed call.
struct Trace {
  StackSampler* sampler = nullptr;  ///< samples the program call's stacks
  std::vector<Metric> layer_metrics;  ///< simulated per-layer counters
};

/// Brackets the program call inside a workload's run(): its wall and CPU
/// time, and the stack sampler when the call is traced or the reference
/// probe when it is not. Nothing of the benchmark's own work (checks,
/// metrics) falls inside the bracket.
class CallTimer {
 public:
  explicit CallTimer(Trace* trace) : trace_(trace) {
    if (trace_ != nullptr) {
      trace_->sampler->start();
    } else {
      probe_.start();
    }
    wall0_ = wall_now();
    cpu0_ = process_cpu_now();
  }
  void stop(CallResult& r) {
    r.wall_s = wall_now() - wall0_;
    r.cpu_s = process_cpu_now() - cpu0_;
    if (trace_ != nullptr) {
      trace_->sampler->stop();
    } else {
      r.reference = probe_.stop();
    }
  }

 private:
  Trace* trace_;
  ReferenceProbe probe_;
  double wall0_ = 0.0;
  double cpu0_ = 0.0;
};

enum class Scale { kFull, kTiny };

/// One benchmark workload. `setup()` runs the set-up-only call and returns its
/// wall. `run()` executes the timed call; given a `trace`, it attaches a
/// `TraceContext`, samples the call's stacks and appends the simulated
/// per-layer counters (tpu.*, attr.*, router.*, sim.train.*).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t threads() const = 0;
  virtual double setup() = 0;
  virtual CallResult run(Trace* trace) = 0;
};

/// Null for an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Scale scale, const std::string& scratch_dir);

}  // namespace perfbench
