// Signal-driven probes of a timed call on ITIMER_PROF (host CPU time):
// stack sampling of the traced call, which tells where the program's own
// host CPU time goes layer by layer without re-implementing any of its
// loops, and the reference probe of the untraced call, which tells how fast
// the machine ran while the call ran.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A function whose demangled name starts with `prefix` (and contains
/// `infix`, when one is given) belongs to `layer`. A sample goes to the
/// innermost frame that matches a rule, except that an `opaque` rule claims
/// everything below it (lowering runs the interpreter to calibrate; that is
/// lowering work, not serving work).
struct LayerRule {
  const char* layer;
  const char* prefix;
  const char* infix;
  bool opaque;
};

/// The samples of one traced call, attributed to layers.
struct SampleProfile {
  std::vector<std::string> layers;        ///< distinct layer names, rule order
  std::vector<std::uint64_t> samples_in;  ///< samples attributed to layers[i]
  std::uint64_t samples = 0;              ///< samples recorded
  std::uint64_t resolved = 0;             ///< samples with a frame inside the library
  std::uint64_t dropped = 0;              ///< samples lost to a full buffer
};

/// Samples the call stacks of every thread of the process on ITIMER_PROF
/// (host CPU time) between start() and stop(). One sampler or probe may run
/// at a time.
/// Frames are symbolised after the fact from the executable's own symbol
/// table, so local functions and lambdas run on pool threads resolve too.
class StackSampler {
 public:
  StackSampler();
  ~StackSampler();
  StackSampler(const StackSampler&) = delete;
  StackSampler& operator=(const StackSampler&) = delete;

  void start();
  void stop();
  SampleProfile attribute(const std::vector<LayerRule>& rules) const;

 private:
  bool running_ = false;
};

/// What the reference probe measured over one call.
struct ReferenceTiming {
  double median_s = 0.0;    ///< median time of one reference kernel run
  double total_s = 0.0;     ///< time all the kernel runs took together
  std::uint64_t count = 0;  ///< kernel runs timed
};

/// Between start() and stop(), every ITIMER_PROF tick (about every 10 ms of
/// process CPU time) runs and times a fixed reference kernel, a 48x48 float
/// matrix product independent of the library, inside the signal handler on
/// whichever thread of the process is using the CPU. So the kernel runs on
/// the call's own threads, cores and moments: a machine phase that slows the
/// call slows the kernel alike, and the call's host rate times the kernel's
/// median time cancels it. One sampler or probe may run at a time.
class ReferenceProbe {
 public:
  ReferenceProbe() = default;
  ~ReferenceProbe();
  ReferenceProbe(const ReferenceProbe&) = delete;
  ReferenceProbe& operator=(const ReferenceProbe&) = delete;

  void start();
  ReferenceTiming stop();

 private:
  bool running_ = false;
};

}  // namespace perfbench
