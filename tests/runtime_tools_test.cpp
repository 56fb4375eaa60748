// Tests for the runtime-layer tooling: result tables, the bagging
// autotuner, and dimension-regeneration training.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "common/error.hpp"
#include "core/regen.hpp"
#include "data/synthetic.hpp"
#include "runtime/autotune.hpp"
#include "runtime/results.hpp"
#include "test_support.hpp"

namespace hdc::runtime {
namespace {

// --------------------------------------------------------------- tables ----

TEST(ResultTableTest, TextRenderingAligns) {
  ResultTable table({"dataset", "speedup"});
  table.add_row({"MNIST", "4.49x"});
  table.add_row({"PAMAP2", "0.96x"});
  const std::string text = table.to_text();
  EXPECT_NE(text.find("dataset"), std::string::npos);
  EXPECT_NE(text.find("MNIST"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(ResultTableTest, CsvEscapesSpecials) {
  ResultTable table({"name", "note"});
  table.add_row({"a,b", "say \"hi\""});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(ResultTableTest, RowWidthEnforced) {
  ResultTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(ResultTableTest, CellFormatsDoubles) {
  EXPECT_EQ(ResultTable::cell(3.14159, 2), "3.14");
  EXPECT_EQ(ResultTable::cell(10.0, 0), "10");
}

TEST(ResultTableTest, CsvFileRoundTrip) {
  ResultTable table({"x"});
  table.add_row({"1"});
  const auto path = (hdc::test::temp_dir() / "hdc_table.csv").string();
  table.save_csv(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_GT(std::filesystem::file_size(path), 0U);
  std::filesystem::remove(path);
}

// ------------------------------------------------------------- autotune ----

class AutotuneTest : public ::testing::Test {
 protected:
  static data::TrainTestSplit make_split() {
    data::Dataset all = data::generate_synthetic(data::paper_dataset("PAMAP2"), 800);
    auto split = data::split_dataset(all, 0.25, 23);
    data::MinMaxNormalizer norm;
    norm.fit(split.train);
    norm.apply(split.train);
    norm.apply(split.test);
    return split;
  }

  static WorkloadShape full_scale() {
    WorkloadShape shape;
    shape.name = "PAMAP2";
    shape.train_samples = 26214;
    shape.test_samples = 6554;
    shape.features = 27;
    shape.classes = 5;
    shape.dim = 10000;
    shape.epochs = 20;
    return shape;
  }
};

TEST_F(AutotuneTest, SearchEvaluatesWholeGrid) {
  const auto split = make_split();
  const CoDesignFramework framework;
  const BaggingAutotuner tuner(framework, full_scale());

  AutotuneSpace space;
  space.num_models = {2, 4};
  space.epochs = {4};
  space.alphas = {0.6, 1.0};

  core::HdConfig base;
  base.dim = 512;
  const auto result = tuner.search(split.train, split.test, space, base);
  EXPECT_EQ(result.all.size(), 4U);
  EXPECT_GT(result.best_accuracy_seen, 0.7);
}

TEST_F(AutotuneTest, BestIsFastestWithinMargin) {
  const auto split = make_split();
  const CoDesignFramework framework;
  const BaggingAutotuner tuner(framework, full_scale());

  AutotuneSpace space;
  space.num_models = {4};
  space.epochs = {4, 8};
  space.alphas = {0.6, 1.0};

  core::HdConfig base;
  base.dim = 512;
  // A generous margin means the cheapest candidate must win outright.
  const auto result = tuner.search(split.train, split.test, space, base, 1.0);
  for (const auto& candidate : result.all) {
    EXPECT_GE(candidate.projected_train_time.to_seconds(),
              result.best.projected_train_time.to_seconds());
  }
  // With alpha and iteration count minimal: cheapest = (4 iters, alpha 0.6).
  EXPECT_EQ(result.best.config.epochs, 4U);
  EXPECT_DOUBLE_EQ(result.best.config.bootstrap.dataset_ratio, 0.6);
}

TEST_F(AutotuneTest, EmptySpaceRejected) {
  AutotuneSpace space;
  space.alphas.clear();
  EXPECT_THROW(space.validate(), Error);
}

// ----------------------------------------------------------- regeneration ----

class RegenTest : public ::testing::Test {
 protected:
  static data::TrainTestSplit make_split() {
    data::Dataset all = data::generate_synthetic(data::paper_dataset("UCIHAR"), 900);
    auto split = data::split_dataset(all, 0.25, 29);
    data::MinMaxNormalizer norm;
    norm.fit(split.train);
    norm.apply(split.train);
    norm.apply(split.test);
    return split;
  }
};

TEST_F(RegenTest, DimensionScoresIdentifyDeadDimensions) {
  core::HdModel model(3, 8);
  // Dimension 2 separates classes; dimension 5 is identical for all classes.
  // Dimension 0 balances the row norms so normalization cannot introduce
  // artificial variance into dimension 5.
  const float dim2[3] = {-1.0F, 0.0F, 1.0F};
  for (std::uint32_t c = 0; c < 3; ++c) {
    model.class_hypervectors()(c, 2) = dim2[c];
    model.class_hypervectors()(c, 5) = 0.8F;
    model.class_hypervectors()(c, 0) =
        std::sqrt(2.0F - dim2[c] * dim2[c]);  // norm^2 = 2 + 0.64 for all rows
  }
  const auto scores = core::dimension_scores(model);
  EXPECT_GT(scores[2], scores[5]);
  EXPECT_LT(scores[5], 1e-6F);
}

TEST_F(RegenTest, RegeneratesRequestedFraction) {
  const auto split = make_split();
  core::HdConfig hd;
  hd.dim = 512;
  core::RegenConfig regen;
  regen.rounds = 3;
  regen.regenerate_fraction = 0.1;
  regen.epochs_per_round = 3;
  const auto result = core::train_with_regeneration(split.train, hd, regen, &split.test);
  EXPECT_EQ(result.regenerated_dimensions, 3U * 51U);  // 10% of 512 per round
  EXPECT_EQ(result.round_accuracy.size(), 4U);         // baseline + 3 rounds
}

TEST_F(RegenTest, RegenerationDoesNotHurtAccuracy) {
  const auto split = make_split();
  core::HdConfig hd;
  hd.dim = 512;
  hd.epochs = 5;
  core::RegenConfig regen;
  regen.rounds = 4;
  regen.regenerate_fraction = 0.1;
  regen.epochs_per_round = 5;
  const auto result = core::train_with_regeneration(split.train, hd, regen, &split.test);
  const double baseline = result.round_accuracy.front();
  const double final_accuracy = result.round_accuracy.back();
  EXPECT_GE(final_accuracy, baseline - 0.02)
      << "regeneration regressed: " << baseline << " -> " << final_accuracy;
}

TEST_F(RegenTest, FinalClassifierIsConsistent) {
  const auto split = make_split();
  core::HdConfig hd;
  hd.dim = 256;
  core::RegenConfig regen;
  regen.rounds = 2;
  regen.epochs_per_round = 3;
  const auto result = core::train_with_regeneration(split.train, hd, regen, &split.test);
  // The returned classifier must reproduce the last reported accuracy.
  const auto predictions = result.classifier.model.predict_batch(
      result.classifier.encoder.encode_batch(split.test.features),
      core::Similarity::kCosine);
  EXPECT_DOUBLE_EQ(data::accuracy(predictions, split.test.labels),
                   result.round_accuracy.back());
}

TEST_F(RegenTest, InvalidConfigRejected) {
  core::RegenConfig regen;
  regen.regenerate_fraction = 0.0;
  EXPECT_THROW(regen.validate(), Error);
  regen = core::RegenConfig{};
  regen.rounds = 0;
  EXPECT_THROW(regen.validate(), Error);
}

}  // namespace
}  // namespace hdc::runtime
