// End-to-end integration: each test walks a complete user journey across
// module boundaries, asserting the invariants a downstream adopter relies
// on (accuracy preserved through every lowering step, artifacts round-trip,
// timing consistent between the functional framework and the analytic cost
// model).

#include <gtest/gtest.h>

#include <filesystem>

#include <algorithm>

#include "core/serialize.hpp"
#include "data/synthetic.hpp"
#include "lite/builder.hpp"
#include "lite/optimize.hpp"
#include "lite/quantize.hpp"
#include "lite/serialize.hpp"
#include "nn/wide_nn.hpp"
#include "platform/energy.hpp"
#include "runtime/autotune.hpp"
#include "runtime/framework.hpp"
#include "tpu/device.hpp"
#include "test_support.hpp"

namespace hdc {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::Dataset all = data::generate_synthetic(data::paper_dataset("UCIHAR"), 1000);
    auto split = data::split_dataset(all, 0.25, 77);
    data::MinMaxNormalizer norm;
    norm.fit(split.train);
    norm.apply(split.train);
    norm.apply(split.test);
    split_ = new data::TrainTestSplit(std::move(split));
  }
  static void TearDownTestSuite() {
    delete split_;
    split_ = nullptr;
  }

  static core::HdConfig config() {
    core::HdConfig cfg;
    cfg.dim = 2048;
    cfg.epochs = 10;
    return cfg;
  }

  static data::TrainTestSplit* split_;
};

data::TrainTestSplit* IntegrationTest::split_ = nullptr;

TEST_F(IntegrationTest, TrainPersistReloadDeployPreservesPredictions) {
  const runtime::CoDesignFramework framework;
  const auto trained = framework.train_cpu(split_->train, config());

  // Persist + reload the classifier.
  const auto path =
      (hdc::test::temp_dir() / "integration.hdcm").string();
  core::save_classifier(trained.classifier, path);
  const core::TrainedClassifier reloaded = core::load_classifier(path);
  std::filesystem::remove(path);

  // Deploy the reloaded classifier to the simulated TPU; predictions of the
  // original and the reloaded+deployed model must agree almost everywhere
  // (int8 quantization may flip a few boundary samples).
  const auto original = framework.infer_cpu(trained.classifier, split_->test);
  const auto deployed = framework.infer_tpu(reloaded, split_->test, split_->train);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < original.predictions.size(); ++i) {
    agree += original.predictions[i] == deployed.predictions[i] ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(agree) / original.predictions.size(), 0.95);
}

TEST_F(IntegrationTest, LoweringChainPreservesAccuracyAtEveryStage) {
  const runtime::CoDesignFramework framework;
  const auto trained = framework.train_cpu(split_->train, config());

  // Stage 1: direct associative search (cosine).
  const auto direct = trained.classifier.model.predict_batch(
      trained.classifier.encoder.encode_batch(split_->test.features),
      core::Similarity::kCosine);
  const double acc_direct = data::accuracy(direct, split_->test.labels);

  // Stage 2: wide-NN float graph.
  const nn::Graph graph = nn::build_inference_graph(trained.classifier);
  const double acc_graph = data::accuracy(graph.predict_batch(split_->test.features),
                                          split_->test.labels);
  EXPECT_DOUBLE_EQ(acc_graph, acc_direct);  // normalization makes this exact

  // Stage 3: HDLite float model.
  const auto float_model = lite::build_float_model(graph);
  const auto float_result = lite::LiteInterpreter(float_model).run(split_->test.features);
  std::vector<std::uint32_t> float_predictions(float_result.classes.begin(),
                                               float_result.classes.end());
  EXPECT_DOUBLE_EQ(data::accuracy(float_predictions, split_->test.labels), acc_direct);

  // Stage 4: int8 + serialized + reloaded + optimized.
  tensor::MatrixF calib(128, split_->train.num_features());
  std::copy_n(split_->train.features.data(), calib.size(), calib.data());
  const auto quantized = lite::quantize_model(float_model, calib);
  const auto reloaded = lite::deserialize_model(lite::serialize_model(quantized));
  const auto optimized = lite::optimize(reloaded);
  const auto int8_result = lite::LiteInterpreter(optimized).run(split_->test.features);
  std::vector<std::uint32_t> int8_predictions(int8_result.classes.begin(),
                                              int8_result.classes.end());
  const double acc_int8 = data::accuracy(int8_predictions, split_->test.labels);
  EXPECT_GT(acc_int8, acc_direct - 0.03);
}

TEST_F(IntegrationTest, FunctionalAndAnalyticTimingsAgree) {
  // The functional framework's simulated encode time at reduced scale must
  // match the analytic CostModel pricing of the identical workload.
  const runtime::CoDesignFramework framework;
  const auto trained = framework.train_tpu(split_->train, config());

  const auto& cost = framework.cost_model();
  const SimDuration analytic = cost.encode_tpu(
      split_->train.num_samples(),
      static_cast<std::uint32_t>(split_->train.num_features()), config().dim);
  // The functional path adds the encode-model compile to model_gen, not to
  // encode, so encode itself must match to within rounding.
  EXPECT_NEAR(trained.timings.encode.to_seconds(), analytic.to_seconds(),
              analytic.to_seconds() * 1e-6);
}

TEST_F(IntegrationTest, BaggedDeploymentEndToEnd) {
  const runtime::CoDesignFramework framework;
  core::BaggingConfig bagging;
  bagging.num_models = 4;
  bagging.epochs = 6;
  bagging.base = config();
  bagging.bootstrap.dataset_ratio = 0.6;

  const auto trained = framework.train_tpu_bagging(split_->train, bagging);
  EXPECT_EQ(trained.classifier.dim(), config().dim);

  const auto deployed =
      framework.infer_tpu(trained.classifier, split_->test, split_->train);
  EXPECT_GT(deployed.accuracy, 0.85);
  // Stacked deployment compiles to the same op count as an unbagged model.
  EXPECT_EQ(deployed.compile_report.device_ops, 3U);
  EXPECT_EQ(deployed.compile_report.host_ops, 2U);
}

TEST_F(IntegrationTest, AutotunerFindsPaperLikeOperatingPoint) {
  const runtime::CoDesignFramework framework;
  runtime::WorkloadShape shape;
  shape.name = "UCIHAR";
  shape.train_samples = 6134;
  shape.test_samples = 1533;
  shape.features = 561;
  shape.classes = 12;
  shape.dim = 10000;
  shape.epochs = 20;

  const runtime::BaggingAutotuner tuner(framework, shape);
  runtime::AutotuneSpace space;
  space.num_models = {4};
  space.epochs = {4, 6};
  space.alphas = {0.6, 1.0};

  const auto result = tuner.search(split_->train, split_->test, space, config(), 0.03);
  // Within a 3-point margin, a reduced-cost configuration must win over the
  // full (alpha=1) run.
  EXPECT_LT(result.best.config.bootstrap.dataset_ratio, 1.0);
  EXPECT_GT(result.best.accuracy, 0.85);
}

TEST_F(IntegrationTest, EnergyAccountingCoversAllPhases) {
  const runtime::CoDesignFramework framework;
  const auto trained = framework.train_tpu(split_->train, config());
  platform::EnergyModel energy;
  const auto report = energy.codesign_training(trained.timings);
  EXPECT_GT(report.joules, 0.0);
  EXPECT_DOUBLE_EQ(report.time.to_seconds(), trained.timings.total().to_seconds());
  // Average power must sit between the idle-host+TPU floor and the full
  // host-active ceiling.
  EXPECT_GT(report.average_watts(),
            energy.tpu_active_watts + 0.0);
  EXPECT_LT(report.average_watts(), energy.host.power_watts + energy.tpu_active_watts);
}

TEST_F(IntegrationTest, DeviceTraceMatchesDeployedModel) {
  const runtime::CoDesignFramework framework;
  const auto trained = framework.train_cpu(split_->train, config());

  tensor::MatrixF calib(64, split_->train.num_features());
  std::copy_n(split_->train.features.data(), calib.size(), calib.data());
  const auto quantized = lite::quantize_model(
      lite::build_float_model(nn::build_inference_graph(trained.classifier)), calib);

  const tpu::EdgeTpuCompiler compiler(tpu::SystolicConfig{}, 8ULL << 20);
  const auto compiled = compiler.compile(quantized);
  tpu::EdgeTpuDevice device;
  const auto program = device.trace(compiled);

  // 561 -> 2048 encode: 9 x 32 tiles; 2048 -> 12 classify: 32 x 1 tiles.
  EXPECT_EQ(program.count(tpu::IsaOp::kLoadTile), 9U * 32U + 32U * 1U);
  EXPECT_EQ(program.count(tpu::IsaOp::kActivation), 1U);
  EXPECT_EQ(program.dma_in_bytes(), split_->train.num_features());
  EXPECT_EQ(program.dma_out_bytes(), split_->train.num_classes);
}

}  // namespace
}  // namespace hdc
