#include "sampler.hpp"

#include <cxxabi.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

constexpr int kDepth = 48;                 ///< frames kept per sample
constexpr std::size_t kCapacity = 1 << 15;  ///< samples kept per traced call
/// Requested sampling period. The kernel delivers CPU-timer signals at most
/// once per scheduler tick, so the real period can be longer; the profile
/// is therefore used as shares of the call's measured CPU time.
constexpr long kPeriodUs = 1000;

/// Reference probe period; ITIMER_PROF ticks no faster than the scheduler.
constexpr long kProbePeriodUs = 10000;
constexpr std::size_t kProbeCapacity = 1 << 16;  ///< kernel timings kept per call
constexpr int kRefN = 48;                         ///< reference kernel size

// Each buffer is allocated by the first start() that needs it, so a run's
// memory holds only what its mode uses.
void** g_frames = nullptr;
std::uint8_t* g_depths = nullptr;
double* g_ref_times = nullptr;
std::atomic<std::size_t> g_next{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<bool> g_installed{false};
std::atomic<bool> g_probing{false};  ///< the handler times the kernel, not stacks

// The reference kernel's inputs, written once before the first probe and
// only read afterwards, so handlers on several threads may share them.
float g_ref_a[kRefN * kRefN];
float g_ref_b[kRefN * kRefN];
volatile float g_ref_sink = 0.0F;

double monotonic_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One run of the reference kernel; returns its wall time. Async-signal-safe:
/// no allocation, no locks, no shared writes but the sink.
double time_reference_kernel() {
  const double t0 = monotonic_now();
  float total = 0.0F;
  for (int i = 0; i < kRefN; ++i) {
    for (int j = 0; j < kRefN; ++j) {
      float acc = 0.0F;
      for (int l = 0; l < kRefN; ++l) {
        acc += g_ref_a[i * kRefN + l] * g_ref_b[l * kRefN + j];
      }
      total += acc;
    }
  }
  g_ref_sink = total;
  return monotonic_now() - t0;
}

void on_sigprof(int, siginfo_t*, void*) {
  const int saved_errno = errno;
  const bool probing = g_probing.load(std::memory_order_relaxed);
  const std::size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot >= (probing ? kProbeCapacity : kCapacity)) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  } else if (probing) {
    g_ref_times[slot] = time_reference_kernel();
  } else {
    g_depths[slot] = static_cast<std::uint8_t>(backtrace(&g_frames[slot * kDepth], kDepth));
  }
  errno = saved_errno;
}

/// Installs the SIGPROF handler, once.
void install_handler() {
  if (g_installed.exchange(true)) {
    return;
  }
  for (int i = 0; i < kRefN * kRefN; ++i) {
    g_ref_a[i] = static_cast<float>(i % 17) * 0.25F;
    g_ref_b[i] = static_cast<float>(i % 13) * 0.5F;
  }
  // Installed once and never removed (nor the buffers freed): a signal
  // still in flight after stop() must not meet SIGPROF's default action,
  // which ends the process.
  struct sigaction action {};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) {
    throw std::runtime_error("sigaction(SIGPROF) failed");
  }
}

void set_timer(long period_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = period_us;
  timer.it_value.tv_usec = period_us;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    throw std::runtime_error("setitimer(ITIMER_PROF) failed");
  }
}

int find_load_bias(dl_phdr_info* info, std::size_t, void* out) {
  *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
  return 1;  // the first object is the executable
}

/// The function symbols of the running executable, from its .symtab.
class SymbolTable {
 public:
  SymbolTable() {
    std::ifstream in("/proc/self/exe", std::ios::binary | std::ios::ate);
    const auto size = static_cast<std::size_t>(in.tellg());
    std::string image(size, '\0');
    in.seekg(0);
    in.read(image.data(), static_cast<std::streamsize>(size));
    Elf64_Ehdr eh{};
    if (!in || size < sizeof eh) {
      throw std::runtime_error("cannot read the executable's symbol table");
    }
    std::memcpy(&eh, image.data(), sizeof eh);
    if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 || eh.e_ident[EI_CLASS] != ELFCLASS64 ||
        eh.e_shoff + std::size_t{eh.e_shnum} * sizeof(Elf64_Shdr) > size) {
      throw std::runtime_error("the executable is not a readable ELF64 file");
    }
    std::vector<Elf64_Shdr> sections(eh.e_shnum);
    std::memcpy(sections.data(), image.data() + eh.e_shoff, sections.size() * sizeof(Elf64_Shdr));
    std::uintptr_t bias = 0;
    dl_iterate_phdr(find_load_bias, &bias);
    for (const Elf64_Shdr& sh : sections) {
      if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= sections.size()) {
        continue;
      }
      const Elf64_Shdr& str = sections[sh.sh_link];
      if (sh.sh_offset + sh.sh_size > size || str.sh_offset + str.sh_size > size) {
        continue;
      }
      names_.assign(image, str.sh_offset, str.sh_size);
      for (std::size_t off = 0; off + sizeof(Elf64_Sym) <= sh.sh_size; off += sizeof(Elf64_Sym)) {
        Elf64_Sym sym{};
        std::memcpy(&sym, image.data() + sh.sh_offset + off, sizeof sym);
        if (ELF64_ST_TYPE(sym.st_info) == STT_FUNC && sym.st_size > 0 && sym.st_value != 0 &&
            sym.st_name < names_.size()) {
          functions_.push_back({bias + sym.st_value, bias + sym.st_value + sym.st_size,
                                sym.st_name});
        }
      }
    }
    if (functions_.empty()) {
      throw std::runtime_error("the executable has no function symbols (stripped?)");
    }
    std::sort(functions_.begin(), functions_.end(),
              [](const Function& a, const Function& b) { return a.lo < b.lo; });
  }

  /// Index of the function that holds `pc`, or -1.
  long find(std::uintptr_t pc) const {
    const auto it = std::upper_bound(functions_.begin(), functions_.end(), pc,
                                     [](std::uintptr_t p, const Function& f) { return p < f.lo; });
    if (it == functions_.begin() || pc >= std::prev(it)->hi) {
      return -1;
    }
    return std::prev(it) - functions_.begin();
  }

  std::string demangled(long index) const {
    const char* raw = names_.c_str() + functions_[static_cast<std::size_t>(index)].name;
    int status = 0;
    char* out = abi::__cxa_demangle(raw, nullptr, nullptr, &status);
    std::string name = status == 0 && out != nullptr ? out : raw;
    std::free(out);
    return name;
  }

 private:
  struct Function {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    std::size_t name = 0;  ///< offset into names_
  };
  std::vector<Function> functions_;
  std::string names_;
};

bool matches(const LayerRule& rule, const std::string& name) {
  return name.rfind(rule.prefix, 0) == 0 &&
         (rule.infix == nullptr || name.find(rule.infix) != std::string::npos);
}

}  // namespace

StackSampler::StackSampler() {
  // The first backtrace() loads the unwinder; doing it here keeps the
  // signal handler free of dynamic loading.
  void* warm[4];
  backtrace(warm, 4);
}

StackSampler::~StackSampler() {
  if (running_) {
    stop();
  }
}

void StackSampler::start() {
  if (g_frames == nullptr) {
    g_frames = new void*[static_cast<std::size_t>(kDepth) * kCapacity];
    g_depths = new std::uint8_t[kCapacity];
  }
  install_handler();
  g_next.store(0);
  g_dropped.store(0);
  g_probing.store(false);
  running_ = true;
  set_timer(kPeriodUs);
}

void StackSampler::stop() {
  set_timer(0);
  running_ = false;
}

SampleProfile StackSampler::attribute(const std::vector<LayerRule>& rules) const {
  SampleProfile profile;
  std::vector<std::size_t> layer_of_rule;
  for (const LayerRule& rule : rules) {
    const auto it = std::find(profile.layers.begin(), profile.layers.end(), rule.layer);
    layer_of_rule.push_back(static_cast<std::size_t>(it - profile.layers.begin()));
    if (it == profile.layers.end()) {
      profile.layers.emplace_back(rule.layer);
    }
  }
  profile.samples_in.assign(profile.layers.size(), 0);
  profile.samples = std::min(g_next.load(), kCapacity);
  profile.dropped = g_dropped.load();

  const SymbolTable symbols;
  struct Class {
    int rule = -1;
    bool library = false;
  };
  std::unordered_map<long, Class> classes;
  const auto classify = [&](long index) -> const Class& {
    auto it = classes.find(index);
    if (it == classes.end()) {
      const std::string name = symbols.demangled(index);
      Class c;
      c.library = name.find("hdc::") != std::string::npos;
      for (std::size_t r = 0; r < rules.size() && c.rule < 0; ++r) {
        if (matches(rules[r], name)) {
          c.rule = static_cast<int>(r);
        }
      }
      it = classes.emplace(index, c).first;
    }
    return it->second;
  };

  for (std::size_t slot = 0; slot < profile.samples; ++slot) {
    int inner = -1;
    int outer_opaque = -1;
    bool library = false;
    for (std::size_t k = 0; k < g_depths[slot]; ++k) {
      // Return addresses point past the call; step back into it.
      const auto pc = reinterpret_cast<std::uintptr_t>(g_frames[slot * kDepth + k]) - 1;
      const long index = symbols.find(pc);
      if (index < 0) {
        continue;
      }
      const Class& c = classify(index);
      library = library || c.library;
      if (c.rule < 0) {
        continue;
      }
      if (rules[static_cast<std::size_t>(c.rule)].opaque) {
        outer_opaque = c.rule;
      } else if (inner < 0) {
        inner = c.rule;
      }
    }
    profile.resolved += library ? 1 : 0;
    const int chosen = outer_opaque >= 0 ? outer_opaque : inner;
    if (chosen >= 0) {
      ++profile.samples_in[layer_of_rule[static_cast<std::size_t>(chosen)]];
    }
  }
  return profile;
}

ReferenceProbe::~ReferenceProbe() {
  if (running_) {
    stop();
  }
}

void ReferenceProbe::start() {
  if (g_ref_times == nullptr) {
    g_ref_times = new double[kProbeCapacity];
  }
  install_handler();
  g_next.store(0);
  g_dropped.store(0);
  g_probing.store(true);
  running_ = true;
  set_timer(kProbePeriodUs);
}

ReferenceTiming ReferenceProbe::stop() {
  set_timer(0);
  running_ = false;
  std::vector<double> times(g_ref_times, g_ref_times + std::min(g_next.load(), kProbeCapacity));
  // A call too short for a single tick is timed right after it instead.
  while (times.size() < 3) {
    times.push_back(time_reference_kernel());
  }
  ReferenceTiming timing;
  timing.count = times.size();
  for (const double t : times) {
    timing.total_s += t;
  }
  std::nth_element(times.begin(), times.begin() + static_cast<long>(times.size() / 2),
                   times.end());
  timing.median_s = times[times.size() / 2];
  return timing;
}

}  // namespace perfbench
