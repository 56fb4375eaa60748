#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/byte_io.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/online.hpp"
#include "core/trainer.hpp"
#include "data/stream.hpp"
#include "tensor/ops.hpp"
#include "data/synthetic.hpp"

namespace hdc::core {
namespace {

data::SyntheticSpec task_spec() {
  data::SyntheticSpec spec = data::paper_dataset("PAMAP2");
  spec.samples = 4000;
  return spec;
}

OnlineConfig small_online() {
  OnlineConfig cfg;
  cfg.dim = 1024;
  cfg.seed = 7;
  return cfg;
}

// --------------------------------------------------------------- stream ----

TEST(DriftStreamTest, ChunksHaveRequestedShape) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 64;
  data::DriftStream stream(cfg);
  const data::Dataset chunk = stream.next_chunk();
  EXPECT_EQ(chunk.num_samples(), 64U);
  EXPECT_EQ(chunk.num_features(), cfg.spec.features);
  EXPECT_EQ(stream.chunks_emitted(), 1U);
}

TEST(DriftStreamTest, NoDriftByDefault) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  data::DriftStream stream(cfg);
  for (int i = 0; i < 5; ++i) {
    stream.next_chunk();
  }
  EXPECT_EQ(stream.drift_progress(), 0.0);
}

TEST(DriftStreamTest, DriftProgressesToCompletion) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.drift_start_chunk = 2;
  cfg.drift_duration_chunks = 4;
  data::DriftStream stream(cfg);
  EXPECT_EQ(stream.drift_progress(), 0.0);
  for (int i = 0; i < 3; ++i) {
    stream.next_chunk();
  }
  EXPECT_GT(stream.drift_progress(), 0.0);
  EXPECT_LT(stream.drift_progress(), 1.0);
  for (int i = 0; i < 5; ++i) {
    stream.next_chunk();
  }
  EXPECT_EQ(stream.drift_progress(), 1.0);
}

TEST(DriftStreamTest, DeterministicForSeed) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  data::DriftStream a(cfg);
  data::DriftStream b(cfg);
  EXPECT_EQ(a.next_chunk().features, b.next_chunk().features);
}

TEST(DriftStreamTest, DriftChangesDistribution) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.drift_start_chunk = 1;
  cfg.drift_duration_chunks = 1;
  cfg.chunk_size = 256;

  data::DriftStream drifting(cfg);
  const data::Dataset before = drifting.next_chunk();
  drifting.next_chunk();  // crosses the drift window
  const data::Dataset after = drifting.next_chunk();

  // Per-class feature means must move substantially across the drift.
  double total_shift = 0.0;
  for (std::uint32_t cls = 0; cls < cfg.spec.classes; ++cls) {
    double shift = 0.0;
    for (std::size_t f = 0; f < 5; ++f) {  // a few features suffice
      double mean_before = 0.0;
      double mean_after = 0.0;
      int n_before = 0;
      int n_after = 0;
      for (std::size_t i = 0; i < before.num_samples(); ++i) {
        if (before.labels[i] == cls) {
          mean_before += before.features.at(i, f);
          ++n_before;
        }
      }
      for (std::size_t i = 0; i < after.num_samples(); ++i) {
        if (after.labels[i] == cls) {
          mean_after += after.features.at(i, f);
          ++n_after;
        }
      }
      if (n_before > 0 && n_after > 0) {
        shift += std::fabs(mean_after / n_after - mean_before / n_before);
      }
    }
    total_shift += shift;
  }
  EXPECT_GT(total_shift, 1.0);
}

TEST(DriftStreamTest, InvalidConfigRejected) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 0;
  EXPECT_THROW(data::DriftStream{cfg}, Error);
}

// --------------------------------------------------------------- online ----

TEST(OnlineLearnerTest, SinglePassLearnsStationaryTask) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 200;
  data::DriftStream stream(cfg);

  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, small_online());
  // Warm up on a few chunks, then check prequential accuracy on the next.
  for (int i = 0; i < 4; ++i) {
    learner.learn_batch(stream.next_chunk());
  }
  const double accuracy = learner.learn_batch(stream.next_chunk());
  EXPECT_GT(accuracy, 0.85);
}

TEST(OnlineLearnerTest, PrequentialStatsTrackErrors) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  data::DriftStream stream(cfg);
  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, small_online());
  learner.learn_batch(stream.next_chunk());
  EXPECT_EQ(learner.stats().samples_seen, cfg.chunk_size);
  EXPECT_GT(learner.stats().errors, 0U);  // the cold model cannot be perfect
  EXPECT_GT(learner.stats().error_rate(), 0.0);
  learner.reset_stats();
  EXPECT_EQ(learner.stats().samples_seen, 0U);
}

TEST(OnlineLearnerTest, AdaptiveUpdateScalesWithConfidence) {
  // After a confident wrong prediction the correction must be larger than
  // after a near-miss: verify through the class-hypervector delta norm.
  OnlineLearner learner(4, 2, OnlineConfig{.dim = 64, .seed = 3});

  std::vector<float> sample{0.5F, -0.2F, 0.8F, 0.1F};
  // Cold model: first learn creates a baseline correction.
  learner.learn(sample, 0);
  const float after_first = tensor::l2_norm(learner.model().class_hypervectors().row(0));

  // Re-learning the same sample now: the model already leans to class 0, so
  // either no update happens (correct) or the correction is smaller.
  learner.learn(sample, 0);
  const float after_second = tensor::l2_norm(learner.model().class_hypervectors().row(0));
  EXPECT_LE(after_second - after_first, after_first);
}

TEST(OnlineLearnerTest, RecoversFromConceptDrift) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 200;
  cfg.drift_start_chunk = 5;
  cfg.drift_duration_chunks = 2;
  data::DriftStream stream(cfg);

  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, small_online());
  for (int i = 0; i < 5; ++i) {
    learner.learn_batch(stream.next_chunk());  // pre-drift
  }
  double during_drift = 1.0;
  for (int i = 0; i < 3; ++i) {
    during_drift = std::min(during_drift, learner.learn_batch(stream.next_chunk()));
  }
  double recovered = 0.0;
  for (int i = 0; i < 6; ++i) {
    recovered = learner.learn_batch(stream.next_chunk());  // post-drift adapt
  }
  EXPECT_GT(recovered, during_drift);
  EXPECT_GT(recovered, 0.8);
}

TEST(WindowedRateTest, TracksLastNOutcomes) {
  WindowedRate rate(4);
  EXPECT_EQ(rate.count(), 0U);
  EXPECT_DOUBLE_EQ(rate.rate(), 0.0);
  rate.add(true);
  rate.add(true);
  EXPECT_DOUBLE_EQ(rate.rate(), 1.0);
  rate.add(false);
  rate.add(false);
  EXPECT_DOUBLE_EQ(rate.rate(), 0.5);
  // Two more false outcomes evict the two oldest true ones.
  rate.add(false);
  rate.add(false);
  EXPECT_DOUBLE_EQ(rate.rate(), 0.0);
  EXPECT_EQ(rate.count(), 4U);
  rate.reset();
  EXPECT_EQ(rate.count(), 0U);
}

TEST(WindowedRateTest, ZeroCapacityRejected) { EXPECT_THROW(WindowedRate{0}, Error); }

TEST(OnlineLearnerTest, WindowedErrorRateReactsToDriftLifetimeSmoothsAway) {
  // The lifetime error rate averages over all history, so after enough
  // stationary samples a drift onset barely moves it — while the windowed
  // rate jumps. This is the signal that makes drift *detectable* online.
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 200;
  cfg.drift_start_chunk = 12;
  cfg.drift_duration_chunks = 1;  // abrupt concept switch
  data::DriftStream stream(cfg);

  OnlineConfig ocfg = small_online();
  // Keep the window short relative to how fast the learner self-corrects:
  // the post-onset error burst only lasts a few dozen samples before the
  // online updates absorb the new concept, and a wide window dilutes it.
  ocfg.error_window = 50;
  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, ocfg);

  for (int i = 0; i < 12; ++i) {
    learner.learn_batch(stream.next_chunk());  // long stationary phase
  }
  const double lifetime_before = learner.stats().error_rate();
  const double windowed_before = learner.stats().windowed_error_rate();

  stream.next_chunk();  // crosses the drift window
  // Walk the first fully-drifted chunk sample by sample and track the *peak*
  // windowed rate: the learner adapts online, so by the end of the chunk the
  // spike has already started to heal — exactly why a lifetime average,
  // which never peaks, cannot serve as a drift signal.
  const data::Dataset drifted = stream.next_chunk();
  double windowed_peak = windowed_before;
  double lifetime_at_peak = lifetime_before;
  for (std::size_t i = 0; i < drifted.num_samples(); ++i) {
    learner.learn(drifted.features.row(i), drifted.labels[i]);
    const double windowed_now = learner.stats().windowed_error_rate();
    if (windowed_now > windowed_peak) {
      windowed_peak = windowed_now;
      lifetime_at_peak = learner.stats().error_rate();
    }
  }
  const double lifetime_jump = lifetime_at_peak - lifetime_before;
  const double windowed_jump = windowed_peak - windowed_before;
  EXPECT_GT(windowed_jump, 0.15) << "windowed rate must spike at drift onset";
  EXPECT_LT(lifetime_jump, windowed_jump / 2.0)
      << "lifetime " << lifetime_before << "->" << lifetime_at_peak << ", windowed "
      << windowed_before << "->" << windowed_peak;
}

TEST(OnlineLearnerTest, WindowedRateSurfacedFromLearnBatch) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 64;
  data::DriftStream stream(cfg);
  OnlineConfig ocfg = small_online();
  ocfg.error_window = 32;
  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, ocfg);
  const double accuracy = learner.learn_batch(stream.next_chunk());
  // learn_batch feeds every prequential outcome through the window; with a
  // 32-sample window over a 64-sample batch, the windowed rate reflects the
  // *second half* while 1 - accuracy covers the whole batch.
  EXPECT_EQ(learner.stats().recent.count(), 32U);
  EXPECT_LE(learner.stats().windowed_error_rate(), 1.0 - accuracy + 1e-9)
      << "a cold learner improves within the batch, so the tail cannot be "
         "worse than the whole";
}

TEST(OnlineLearnerTest, DecideMatchesPredictAndOrdersScores) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  data::DriftStream stream(cfg);
  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, small_online());
  learner.learn_batch(stream.next_chunk());
  const data::Dataset probe = stream.next_chunk();
  for (std::size_t i = 0; i < 32; ++i) {
    const auto decision = learner.decide(probe.features.row(i));
    EXPECT_EQ(decision.predicted, learner.predict(probe.features.row(i)));
    EXPECT_GE(decision.top1, decision.top2);
    EXPECT_GE(decision.margin(), 0.0);
  }
}

TEST(OnlineLearnerTest, FrozenClassifierMatchesPredictions) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  data::DriftStream stream(cfg);
  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, small_online());
  for (int i = 0; i < 3; ++i) {
    learner.learn_batch(stream.next_chunk());
  }

  const TrainedClassifier frozen = learner.freeze();
  const data::Dataset probe = stream.next_chunk();
  for (std::size_t i = 0; i < 32; ++i) {
    const auto encoded = frozen.encoder.encode(probe.features.row(i));
    EXPECT_EQ(frozen.model.predict(encoded, Similarity::kCosine),
              learner.predict(probe.features.row(i)));
  }
}

TEST(OnlineLearnerTest, LabelOutOfRangeThrows) {
  OnlineLearner learner(4, 2, OnlineConfig{.dim = 32});
  std::vector<float> sample(4, 0.5F);
  EXPECT_THROW(learner.learn(sample, 2), Error);
}

TEST(OnlineLearnerTest, SinglePassCompetitiveWithIteratedTraining) {
  // OnlineHD's core claim: one adaptive pass lands near multi-epoch training.
  const data::Dataset ds = data::generate_synthetic(task_spec(), 1200);
  auto split = data::split_dataset(ds, 0.25, 9);
  data::MinMaxNormalizer norm;
  norm.fit(split.train);
  norm.apply(split.train);
  norm.apply(split.test);

  OnlineConfig ocfg = small_online();
  OnlineLearner learner(static_cast<std::uint32_t>(split.train.num_features()),
                        split.train.num_classes, ocfg);
  learner.learn_batch(split.train);  // exactly one pass
  std::size_t correct = 0;
  for (std::size_t i = 0; i < split.test.num_samples(); ++i) {
    correct += learner.predict(split.test.features.row(i)) == split.test.labels[i];
  }
  const double online_acc =
      static_cast<double>(correct) / static_cast<double>(split.test.num_samples());

  HdConfig tcfg;
  tcfg.dim = ocfg.dim;
  tcfg.epochs = 10;
  tcfg.seed = ocfg.seed;
  Encoder encoder(static_cast<std::uint32_t>(split.train.num_features()), tcfg.dim,
                  tcfg.seed);
  const Trainer trainer(tcfg);
  const TrainResult result = trainer.fit(encoder, split.train);
  const auto iterated_predictions =
      result.model.predict_batch(encoder.encode_batch(split.test.features),
                                 Similarity::kCosine);
  const double iterated_acc = data::accuracy(iterated_predictions, split.test.labels);

  EXPECT_GT(online_acc, iterated_acc - 0.08)
      << "single-pass " << online_acc << " vs iterated " << iterated_acc;
}

// ------------------------------------------- encode once, score once ----

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Restores the default host thread count when a test changes it.
struct ThreadsScope {
  explicit ThreadsScope(std::size_t n) { parallel::set_num_threads(n); }
  ~ThreadsScope() { parallel::set_num_threads(0); }
};

void expect_batch_rows_match_single_encodes(const Encoder& encoder,
                                            const tensor::MatrixF& samples) {
  const tensor::MatrixF batch = encoder.encode_batch(samples);
  ASSERT_EQ(batch.rows(), samples.rows());
  for (std::size_t i = 0; i < samples.rows(); ++i) {
    EXPECT_TRUE(same_bits(batch.row(i), encoder.encode(samples.row(i))))
        << "row " << i << " at d=" << encoder.dim();
  }
}

TEST(EncodeOnceTest, BatchRowsMatchSingleEncodesBitForBit) {
  data::SyntheticSpec spec = task_spec();
  const data::Dataset ds = data::generate_synthetic(spec, 70);
  for (const std::size_t threads : {1U, 4U}) {
    const ThreadsScope scope(threads);
    for (const std::uint32_t dim : {256U, 2048U}) {
      const Encoder plain(spec.features, dim, 31);
      expect_batch_rows_match_single_encodes(plain, ds.features);

      // Bagging's feature mask zeroes whole base rows, which both kernels
      // skip; the skip must not change the accumulation order either.
      Encoder masked(spec.features, dim, 32);
      std::vector<std::uint8_t> mask(spec.features, 1);
      for (std::size_t f = 0; f < mask.size(); f += 3) {
        mask[f] = 0;
      }
      masked.apply_feature_mask(mask);
      expect_batch_rows_match_single_encodes(masked, ds.features);
    }
  }
}

/// The learner as it was before scoring was cached: every call encodes the
/// sample, recomputes every norm through tensor::cosine, decides, and then
/// `learn` scores the same encoding a second time.
struct ReferenceLearner {
  Encoder encoder;
  HdModel model;
  OnlineConfig config;
  std::uint64_t samples_seen = 0;
  std::uint64_t errors = 0;

  std::vector<float> scores(std::span<const float> encoded) const {
    std::vector<float> out(model.num_classes());
    for (std::size_t c = 0; c < out.size(); ++c) {
      const auto hv = model.class_hypervectors().row(c);
      out[c] = config.similarity == Similarity::kCosine ? tensor::cosine(encoded, hv)
                                                        : tensor::dot(encoded, hv);
    }
    return out;
  }

  OnlineLearner::Decision decide_encoded(std::span<const float> encoded) const {
    const std::vector<float> s = scores(encoded);
    OnlineLearner::Decision d;
    d.predicted = static_cast<std::uint32_t>(tensor::argmax(s));
    d.top1 = s[d.predicted];
    bool has_second = false;
    for (std::size_t c = 0; c < s.size(); ++c) {
      if (c != d.predicted && (!has_second || s[c] > d.top2)) {
        d.top2 = s[c];
        has_second = true;
      }
    }
    return d;
  }

  std::uint32_t learn(std::span<const float> sample, std::uint32_t label) {
    const std::vector<float> encoded = encoder.encode(sample);
    const std::vector<float> s = scores(encoded);
    const auto predicted = static_cast<std::uint32_t>(tensor::argmax(s));
    ++samples_seen;
    if (predicted != label) {
      ++errors;
      const float sim_true = std::clamp(s[label], -1.0F, 1.0F);
      const float sim_pred = std::clamp(s[predicted], -1.0F, 1.0F);
      model.bundle(label, encoded, config.learning_rate * (1.0F - sim_true));
      model.detach(predicted, encoded, config.learning_rate * (1.0F - sim_pred));
    }
    return predicted;
  }
};

void expect_learn_encoded_matches_reference(Similarity similarity) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 64;
  cfg.drift_start_chunk = 6;
  cfg.drift_duration_chunks = 6;
  data::DriftStream stream(cfg);

  OnlineConfig ocfg = small_online();
  ocfg.similarity = similarity;
  OnlineLearner learner(cfg.spec.features, cfg.spec.classes, ocfg);
  ReferenceLearner ref{Encoder(learner.encoder().base()), HdModel(cfg.spec.classes, ocfg.dim),
                       ocfg};

  std::size_t samples = 0;
  std::uint64_t ref_wrong = 0;
  for (std::uint32_t c = 0; c < 18; ++c) {  // 1,152 samples through the drift
    const data::Dataset chunk = stream.next_chunk();
    const tensor::MatrixF encoded = learner.encoder().encode_batch(chunk.features);
    for (std::size_t j = 0; j < chunk.num_samples(); ++j, ++samples) {
      const std::uint32_t label = chunk.labels[j];
      const OnlineLearner::Decision want =
          ref.decide_encoded(ref.encoder.encode(chunk.features.row(j)));
      const std::uint32_t want_predicted = ref.learn(chunk.features.row(j), label);
      ref_wrong += want_predicted != label ? 1 : 0;

      OnlineLearner::Decision got;
      const std::uint32_t got_predicted = learner.learn_encoded(encoded.row(j), label, &got);
      ASSERT_EQ(got_predicted, want_predicted) << "sample " << samples;
      ASSERT_EQ(got.predicted, want.predicted) << "sample " << samples;
      ASSERT_TRUE(same_bits(got.top1, want.top1)) << "sample " << samples;
      ASSERT_TRUE(same_bits(got.top2, want.top2)) << "sample " << samples;
    }
    ASSERT_EQ(learner.model().class_hypervectors(), ref.model.class_hypervectors())
        << "after chunk " << c;
  }
  EXPECT_GE(samples, 1000U);
  EXPECT_EQ(learner.stats().samples_seen, ref.samples_seen);
  EXPECT_EQ(learner.stats().errors, ref.errors);
  EXPECT_GT(ref_wrong, 0U) << "the stream must exercise the update path";
  EXPECT_TRUE(same_bits(learner.model().class_hypervectors().storage(),
                        ref.model.class_hypervectors().storage()));
}

TEST(EncodeOnceTest, LearnEncodedWithCachedNormsMatchesEncodeDecideLearn) {
  expect_learn_encoded_matches_reference(Similarity::kCosine);
}

TEST(EncodeOnceTest, LearnEncodedMatchesReferenceUnderDotSimilarity) {
  expect_learn_encoded_matches_reference(Similarity::kDot);
}

TEST(EncodeOnceTest, WrappersAgreeWithLearnEncoded) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  data::DriftStream stream(cfg);
  OnlineLearner a(cfg.spec.features, cfg.spec.classes, small_online());
  OnlineLearner b(cfg.spec.features, cfg.spec.classes, small_online());
  const data::Dataset chunk = stream.next_chunk();
  for (std::size_t i = 0; i < chunk.num_samples(); ++i) {
    const auto x = chunk.features.row(i);
    const OnlineLearner::Decision before = a.decide(x);
    EXPECT_EQ(a.predict(x), before.predicted);
    OnlineLearner::Decision seen;
    EXPECT_EQ(a.learn(x, chunk.labels[i]), b.learn_encoded(b.encode(x), chunk.labels[i], &seen));
    EXPECT_EQ(seen.predicted, before.predicted);
    EXPECT_TRUE(same_bits(seen.top1, before.top1));
    EXPECT_TRUE(same_bits(seen.top2, before.top2));
  }
  EXPECT_EQ(a.model().class_hypervectors(), b.model().class_hypervectors());
}

TEST(EncodeOnceTest, RestoredLearnerDecidesLikeTheLiveLearner) {
  data::StreamConfig cfg;
  cfg.spec = task_spec();
  cfg.chunk_size = 64;
  cfg.drift_start_chunk = 3;
  cfg.drift_duration_chunks = 4;
  data::DriftStream stream(cfg);
  OnlineLearner live(cfg.spec.features, cfg.spec.classes, small_online());
  for (int c = 0; c < 4; ++c) {
    live.learn_batch(stream.next_chunk());
  }

  ByteWriter writer;
  live.serialize(writer);
  const std::vector<std::uint8_t> bytes = writer.take();
  ByteReader reader(bytes);
  OnlineLearner restored = OnlineLearner::deserialize(reader);

  // Both keep learning in lockstep: the restored learner's norms are rebuilt
  // from the checkpointed class matrix, not carried over.
  for (int c = 0; c < 4; ++c) {
    const data::Dataset chunk = stream.next_chunk();
    const tensor::MatrixF encoded = live.encoder().encode_batch(chunk.features);
    for (std::size_t j = 0; j < chunk.num_samples(); ++j) {
      const OnlineLearner::Decision want = live.decide_encoded(encoded.row(j));
      const OnlineLearner::Decision got = restored.decide_encoded(encoded.row(j));
      ASSERT_EQ(got.predicted, want.predicted);
      ASSERT_TRUE(same_bits(got.top1, want.top1));
      ASSERT_TRUE(same_bits(got.top2, want.top2));
      ASSERT_EQ(restored.learn_encoded(encoded.row(j), chunk.labels[j]),
                live.learn_encoded(encoded.row(j), chunk.labels[j]));
    }
  }
  ByteWriter live_bytes;
  live.serialize(live_bytes);
  ByteWriter restored_bytes;
  restored.serialize(restored_bytes);
  EXPECT_EQ(restored_bytes.take(), live_bytes.take());
}

}  // namespace
}  // namespace hdc::core
