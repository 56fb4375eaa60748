// Microbenchmarks (google-benchmark) of the kernels everything else is
// built on: float GEMM/vecmat, HDC encoding, the int8 systolic tile engine
// and the quantized interpreter. These measure *host wall-clock* (unlike the
// figure harnesses, which report simulated time) and exist to keep the
// simulator's functional paths honest about their own cost.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/encoder.hpp"
#include "core/binary.hpp"
#include "core/level_encoder.hpp"
#include "core/online.hpp"
#include "core/trainer.hpp"
#include "lite/builder.hpp"
#include "lite/interpreter.hpp"
#include "lite/quantize.hpp"
#include "nn/wide_nn.hpp"
#include "tensor/ops.hpp"
#include "tpu/systolic.hpp"

namespace {

using namespace hdc;

tensor::MatrixF random_f(std::size_t r, std::size_t c, std::uint64_t seed) {
  tensor::MatrixF m(r, c);
  Rng rng(seed);
  rng.fill_gaussian(m.data(), m.size());
  return m;
}

tensor::MatrixI8 random_i8(std::size_t r, std::size_t c, std::uint64_t seed) {
  tensor::MatrixI8 m(r, c);
  Rng rng(seed);
  for (auto& v : m.storage()) {
    v = static_cast<std::int8_t>(static_cast<std::int64_t>(rng.next_below(256)) - 128);
  }
  return m;
}

void BM_MatmulFloat(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_f(n, n, 1);
  const auto b = random_f(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulFloat)->Arg(64)->Arg(128)->Arg(256);

// Host-pool threads sweep on the paper-scale batch-encode GEMM shape
// (512 samples x 784 features -> d = 10000). The Arg is the thread count;
// the acceptance bar is >= 2x over 1 thread at 4 threads on a 4-core host.
void BM_MatmulThreads(benchmark::State& state) {
  parallel::set_num_threads(static_cast<std::size_t>(state.range(0)));
  const auto a = random_f(512, 784, 1);
  const auto b = random_f(784, 10000, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 784 * 10000);
  parallel::set_num_threads(0);
}
BENCHMARK(BM_MatmulThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

// Same sweep through the fused encode kernel (matmul + tanh per row block).
void BM_EncodeBatchThreads(benchmark::State& state) {
  parallel::set_num_threads(static_cast<std::size_t>(state.range(0)));
  const core::Encoder encoder(784, 10000, 5);
  const auto samples = random_f(512, 784, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode_batch(samples));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 784 * 10000);
  parallel::set_num_threads(0);
}
BENCHMARK(BM_EncodeBatchThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_Vecmat(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto a = random_f(617, d, 3);
  const auto x = random_f(1, 617, 4);
  std::vector<float> y(d);
  for (auto _ : state) {
    tensor::vecmat(x.row(0), a, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 617 * d);
}
BENCHMARK(BM_Vecmat)->Arg(1024)->Arg(4096)->Arg(10000);

void BM_HdcEncodeSample(benchmark::State& state) {
  const auto d = static_cast<std::uint32_t>(state.range(0));
  const core::Encoder encoder(617, d, 5);
  std::vector<float> sample(617, 0.5F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(sample));
  }
  state.SetItemsProcessed(state.iterations() * 617 * d);
}
BENCHMARK(BM_HdcEncodeSample)->Arg(2048)->Arg(10000);

// The library's 4-lane tanh kernel over encoder-scale pre-activations
// (Gaussian, sigma 4: every fdlibm branch but the special values). Each
// iteration refills the buffer first, so the kernel sees the same inputs
// every time; the copy is about 3% of the figure.
void BM_TanhInplace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> source(n);
  Rng rng(23);
  rng.fill_gaussian(source.data(), source.size(), 0.0F, 4.0F);
  std::vector<float> values(n);
  for (auto _ : state) {
    std::copy(source.begin(), source.end(), values.begin());
    tensor::tanh_inplace(values);
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TanhInplace)->Arg(32768);

// One serve chunk's batch encode (Arg = width d): 16 PAMAP2-shaped samples
// (27 features), matmul with the tanh fused per row block.
void BM_EncodeChunk(benchmark::State& state) {
  const auto d = static_cast<std::uint32_t>(state.range(0));
  const core::Encoder encoder(27, d, 24);
  const auto chunk = random_f(16, 27, 25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode_batch(chunk));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 27 * d);
}
BENCHMARK(BM_EncodeChunk)->Arg(2048);

void BM_SystolicMatmulI8(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tpu::SystolicArray mxu;
  const auto a = random_i8(1, n, 6);
  const auto w = random_i8(n, 2500, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mxu.matmul(a, w));
  }
  state.SetItemsProcessed(state.iterations() * n * 2500);
}
BENCHMARK(BM_SystolicMatmulI8)->Arg(128)->Arg(617);

void BM_QuantizedInterpreterSample(benchmark::State& state) {
  const auto d = static_cast<std::uint32_t>(state.range(0));
  const core::Encoder encoder(128, d, 8);
  nn::Graph graph = nn::build_encode_graph(encoder);
  const auto float_model = lite::build_float_model(graph);
  const auto calib = random_f(32, 128, 9);
  const auto quantized = lite::quantize_model(float_model, calib);
  const lite::LiteInterpreter interpreter(quantized);
  const auto input = random_f(1, 128, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(interpreter.run(input));
  }
  state.SetItemsProcessed(state.iterations() * 128 * d);
}
BENCHMARK(BM_QuantizedInterpreterSample)->Arg(1024)->Arg(4096);

// The same model over a batch (Arg = rows): the interpreter runs each op over
// the whole row block, so per-row cost should sit below the single-sample
// figure at the same width (items count rows x MACs, as above).
void BM_QuantizedInterpreterBatch(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  constexpr std::uint32_t kDim = 1024;
  const core::Encoder encoder(128, kDim, 8);
  nn::Graph graph = nn::build_encode_graph(encoder);
  const auto float_model = lite::build_float_model(graph);
  const auto calib = random_f(32, 128, 9);
  const auto quantized = lite::quantize_model(float_model, calib);
  const lite::LiteInterpreter interpreter(quantized);
  const auto inputs = random_f(rows, 128, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(interpreter.run(inputs));
  }
  state.SetItemsProcessed(state.iterations() * rows * 128 * kDim);
}
BENCHMARK(BM_QuantizedInterpreterBatch)->Arg(16);

// Host shadow scoring of one serve chunk (Arg = width d): 16 PAMAP2-shaped
// samples (27 features) batch-encoded once, then each row scored against 5
// classes with the learner's cached class norms.
void BM_ShadowScoreChunk(benchmark::State& state) {
  core::OnlineConfig config;
  config.dim = static_cast<std::uint32_t>(state.range(0));
  config.seed = 12;
  core::OnlineLearner learner(27, 5, config);
  const auto warm = random_f(64, 27, 13);
  for (std::size_t i = 0; i < warm.rows(); ++i) {
    learner.learn(warm.row(i), static_cast<std::uint32_t>(i % 5));
  }
  const auto chunk = random_f(16, 27, 14);
  for (auto _ : state) {
    const tensor::MatrixF encoded = learner.encoder().encode_batch(chunk);
    for (std::size_t i = 0; i < encoded.rows(); ++i) {
      benchmark::DoNotOptimize(learner.decide_encoded(encoded.row(i)));
    }
  }
  state.SetItemsProcessed(state.iterations() * chunk.rows());
}
BENCHMARK(BM_ShadowScoreChunk)->Arg(2048);

void BM_LevelEncodeSample(benchmark::State& state) {
  const auto d = static_cast<std::uint32_t>(state.range(0));
  core::LevelEncoderConfig cfg;
  cfg.dim = d;
  const core::LevelEncoder encoder(128, cfg);
  std::vector<float> sample(128, 0.5F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(sample));
  }
  state.SetItemsProcessed(state.iterations() * 128 * d);
}
BENCHMARK(BM_LevelEncodeSample)->Arg(2048)->Arg(10000);

void BM_BinaryHammingPredict(benchmark::State& state) {
  const auto d = static_cast<std::uint32_t>(state.range(0));
  const core::Encoder encoder(128, d, 21);
  core::HdModel model(10, d);
  Rng rng(22);
  rng.fill_gaussian(model.class_hypervectors().data(), model.class_hypervectors().size());
  const auto binary =
      core::BinaryClassifier::binarize(core::TrainedClassifier{
          core::Encoder(encoder.base()), core::HdModel(model.class_hypervectors())});
  std::vector<float> sample(128, 0.4F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(binary.predict(sample));
  }
  state.SetItemsProcessed(state.iterations() * 10 * d);
}
BENCHMARK(BM_BinaryHammingPredict)->Arg(2048)->Arg(10000);

void BM_TrainerEpoch(benchmark::State& state) {
  // One update iteration over 256 pre-encoded samples at d = 2048, k = 10.
  const auto encoded = random_f(256, 2048, 11);
  std::vector<std::uint32_t> labels(256);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::uint32_t>(i % 10);
  }
  core::HdConfig cfg;
  cfg.dim = 2048;
  cfg.epochs = 1;
  const core::Trainer trainer(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.fit_encoded(encoded, labels, 10));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 2048 * 10);
}
BENCHMARK(BM_TrainerEpoch);

// Console reporter that also collects per-iteration runs so they can be
// re-emitted through BenchReporter as hdc-bench-v1 wall metrics. All
// micro-kernel numbers are host wall-clock, so the perf gate treats them as
// report-only (see bench_util.hpp).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double seconds_per_iter;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred ||
          run.iterations == 0) {
        continue;
      }
      entries_.push_back(Entry{run.benchmark_name(),
                               run.real_accumulated_time /
                                   static_cast<double>(run.iterations)});
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  hdc::bench::BenchReporter reporter(argc, argv, "micro_kernels");

  // google-benchmark rejects flags it does not know, so strip `--json <path>`
  // before handing argv over.
  std::vector<char*> filtered;
  filtered.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::string_view(argv[i]) == "--json") {
      ++i;  // skip the path operand too
      continue;
    }
    filtered.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, filtered.data())) {
    return 1;
  }

  CollectingReporter console;
  benchmark::RunSpecifiedBenchmarks(&console);
  for (const auto& entry : console.entries()) {
    reporter.wall_seconds(entry.name + ".s_per_iter", entry.seconds_per_iter);
  }
  reporter.write();
  return 0;
}
