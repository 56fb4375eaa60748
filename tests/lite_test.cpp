#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "lite/builder.hpp"
#include "lite/interpreter.hpp"
#include "lite/model.hpp"
#include "lite/quantize.hpp"
#include "lite/serialize.hpp"
#include "nn/wide_nn.hpp"
#include "tensor/ops.hpp"
#include "test_support.hpp"

namespace hdc::lite {
namespace {

/// Small trained wide-NN float model plus the data it was trained on.
struct Fixture {
  core::TrainedClassifier classifier;
  data::Dataset train;
  data::Dataset test;
};

Fixture make_fixture(std::uint32_t dim = 512) {
  data::Dataset all = data::generate_synthetic(data::paper_dataset("PAMAP2"), 500);
  auto split = data::split_dataset(all, 0.25, 11);
  data::MinMaxNormalizer norm;
  norm.fit(split.train);
  norm.apply(split.train);
  norm.apply(split.test);

  core::HdConfig cfg;
  cfg.dim = dim;
  cfg.epochs = 6;
  core::Encoder encoder(static_cast<std::uint32_t>(split.train.num_features()), dim,
                        cfg.seed);
  const core::Trainer trainer(cfg);
  core::TrainResult result = trainer.fit(encoder, split.train);
  return Fixture{core::TrainedClassifier{std::move(encoder), std::move(result.model)},
                 std::move(split.train), std::move(split.test)};
}

// ---------------------------------------------------------------- model ----

TEST(LiteModelTest, DtypeSizes) {
  EXPECT_EQ(dtype_size(DType::kFloat32), 4U);
  EXPECT_EQ(dtype_size(DType::kInt8), 1U);
  EXPECT_EQ(dtype_size(DType::kInt32), 4U);
}

TEST(LiteModelTest, QuantizationRoundTripWithinHalfScale) {
  const Quantization q{0.05F, -10};
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float real = rng.uniform(-5.0F, 5.0F);
    const std::int8_t quantized = q.quantize(real);
    const float restored = q.dequantize(quantized);
    const float clamped = std::clamp(real, q.dequantize(-128), q.dequantize(127));
    EXPECT_LE(std::fabs(restored - clamped), q.scale * 0.5F + 1e-6F);
  }
}

TEST(LiteModelTest, QuantizeSaturates) {
  const Quantization q{0.01F, 0};
  EXPECT_EQ(q.quantize(100.0F), 127);
  EXPECT_EQ(q.quantize(-100.0F), -128);
}

TEST(LiteModelTest, RoundToInt8MatchesRoundThenClamp) {
  std::vector<double> values = {0.0, -0.0, 1e300, -1e300, INFINITY, -INFINITY,
                                255.5, -255.5, 256.0, -256.0, 2147483648.5};
  for (int half = -700; half <= 700; ++half) {  // every tie in [-350, 350]
    const double tie = half * 0.5;
    values.insert(values.end(), {tie, std::nextafter(tie, -1e9), std::nextafter(tie, 1e9)});
  }
  Rng rng(61);
  for (int i = 0; i < 20000; ++i) {
    values.push_back((rng.next_double() - 0.5) * (i % 2 == 0 ? 600.0 : 1e7));
  }
  for (const std::int32_t zero_point : {-128, -5, 0, 7, 127}) {
    for (const double v : values) {
      const double reference = std::clamp(std::round(v) + zero_point, -128.0, 127.0);
      ASSERT_EQ(round_to_int8(v, zero_point), static_cast<std::int8_t>(reference))
          << "v=" << v << " zero_point=" << zero_point;
    }
  }
}

TEST(LiteModelTest, RoundHalfAwayMatchesStdRound) {
  std::vector<float> values = {0.0F, -0.0F, 0.49999997F, -0.49999997F, 8388607.5F,
                               -8388607.5F, 8388608.0F, -8388608.0F, 1e30F, -1e30F,
                               INFINITY, -INFINITY};
  for (int half = -2000; half <= 2000; ++half) {  // every tie in [-1000, 1000]
    const float tie = static_cast<float>(half) * 0.5F;
    values.insert(values.end(),
                  {tie, std::nextafter(tie, -1e9F), std::nextafter(tie, 1e9F)});
  }
  Rng rng(62);
  for (int i = 0; i < 20000; ++i) {
    const float unit = static_cast<float>(rng.next_double() - 0.5);
    values.push_back(unit * (i % 3 == 0 ? 300.0F : (i % 3 == 1 ? 4.0F : 3e7F)));
  }
  for (const float v : values) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(round_half_away(v)),
              std::bit_cast<std::uint32_t>(std::round(v)))
        << "v=" << v;
  }
  EXPECT_TRUE(std::isnan(round_half_away(NAN)));
}

TEST(LiteModelTest, DisabledQuantThrowsOnUse) {
  const Quantization q;
  EXPECT_FALSE(q.enabled());
  EXPECT_THROW(q.quantize(1.0F), Error);
}

TEST(LiteModelTest, BuilderProducesValidFloatModel) {
  nn::Graph g("m", 3);
  g.add_dense(tensor::MatrixF(3, 8, 0.5F));
  g.add_tanh();
  g.add_dense(tensor::MatrixF(8, 2, 0.25F));
  g.add_argmax();
  const LiteModel model = build_float_model(g);
  EXPECT_NO_THROW(model.validate());
  EXPECT_FALSE(model.is_quantized());
  EXPECT_EQ(model.macs_per_sample(), 3U * 8U + 8U * 2U);
  EXPECT_EQ(model.weight_bytes(), (3 * 8 + 8 * 2) * sizeof(float));
}

TEST(LiteModelTest, ValidateCatchesDanglingIndices) {
  LiteModelBuilder b("bad");
  const auto in = b.add_activation("in", DType::kFloat32, 4);
  b.set_input(in);
  b.set_output(in);
  b.add_op(OpCode::kTanh, {in}, {99});
  EXPECT_THROW(b.finish(), Error);
}

TEST(LiteModelTest, ValidateCatchesShapeBreak) {
  LiteModelBuilder b("bad");
  const auto in = b.add_activation("in", DType::kFloat32, 4);
  const auto w = b.add_weights("w", tensor::MatrixF(5, 2));  // expects width 5
  const auto out = b.add_activation("out", DType::kFloat32, 2);
  b.add_op(OpCode::kFullyConnected, {in, w}, {out});
  b.set_input(in);
  b.set_output(out);
  EXPECT_THROW(b.finish(), Error);
}

TEST(LiteModelTest, ValidateCatchesInt8WithoutQuant) {
  LiteModelBuilder b("bad");
  const auto in = b.add_activation("in", DType::kFloat32, 4);
  const auto q = b.add_activation("q", DType::kInt8, 4);  // missing quant params
  b.add_op(OpCode::kQuantize, {in}, {q});
  b.set_input(in);
  b.set_output(q);
  EXPECT_THROW(b.finish(), Error);
}

TEST(LiteModelTest, ValidateCatchesInt8ZeroPointOutsideInt8) {
  const Fixture fx = make_fixture(64);
  const LiteModel float_model =
      build_float_model(nn::build_inference_graph(fx.classifier, "zero_point"));
  LiteModel model = quantize_model(float_model, fx.train.features);
  model.validate();
  for (LiteTensor& t : model.tensors) {
    if (t.dtype == DType::kInt8 && !t.is_constant()) {
      t.quant.zero_point = 128;
      break;
    }
  }
  EXPECT_THROW(model.validate(), Error);
}

TEST(LiteModelTest, ValidateCatchesArgMaxNotLast) {
  LiteModelBuilder b("bad");
  const auto in = b.add_activation("in", DType::kFloat32, 4);
  const auto cls = b.add_activation("cls", DType::kInt32, 1);
  const auto out = b.add_activation("out", DType::kFloat32, 4);
  b.add_op(OpCode::kArgMax, {in}, {cls});
  b.add_op(OpCode::kTanh, {in}, {out});
  b.set_input(in);
  b.set_output(out);
  EXPECT_THROW(b.finish(), Error);
}

TEST(LiteModelTest, ValidateCatchesWriteToConstant) {
  LiteModelBuilder b("bad");
  const auto in = b.add_activation("in", DType::kFloat32, 4);
  const auto w = b.add_weights("w", tensor::MatrixF(1, 4));
  b.add_op(OpCode::kTanh, {in}, {w});
  b.set_input(in);
  b.set_output(in);
  EXPECT_THROW(b.finish(), Error);
}

// ---------------------------------------------------------- interpreter ----

TEST(InterpreterTest, FloatModelMatchesGraphForward) {
  const Fixture fx = make_fixture(256);
  const nn::Graph graph = nn::build_encode_graph(fx.classifier.encoder);
  const LiteModel model = build_float_model(graph);
  const LiteInterpreter interpreter(model);

  tensor::MatrixF inputs(3, fx.train.num_features());
  std::copy_n(fx.train.features.data(), inputs.size(), inputs.data());
  const auto result = interpreter.run(inputs);
  const auto expected = graph.forward_batch(inputs);
  ASSERT_TRUE(result.values.same_shape(expected));
  for (std::size_t i = 0; i < result.values.size(); ++i) {
    EXPECT_NEAR(result.values.storage()[i], expected.storage()[i], 1e-4F);
  }
}

TEST(InterpreterTest, ArgMaxClassesMatchFloatLogits) {
  const Fixture fx = make_fixture(256);
  const nn::Graph graph = nn::build_inference_graph(fx.classifier);
  const LiteInterpreter interpreter(build_float_model(graph));
  const auto result = interpreter.run(fx.test.features);
  ASSERT_TRUE(result.has_classes);
  const auto expected = graph.predict_batch(fx.test.features);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint32_t>(result.classes[i]), expected[i]);
  }
}

TEST(InterpreterTest, WrongInputWidthThrows) {
  nn::Graph g("m", 4);
  g.add_tanh();
  const LiteInterpreter interpreter(build_float_model(g));
  EXPECT_THROW(interpreter.run(tensor::MatrixF(1, 3)), Error);
}

TEST(InterpreterTest, CalibrationTracksRanges) {
  nn::Graph g("m", 2);
  g.add_dense(tensor::MatrixF{{2.0F}, {1.0F}});  // out = 2a + b
  const LiteModel model = build_float_model(g);
  const LiteInterpreter interpreter(model);
  tensor::MatrixF inputs{{1.0F, 0.0F}, {0.0F, -3.0F}, {2.0F, 2.0F}};
  const auto ranges = interpreter.calibrate(inputs);
  // Output tensor is the model output; values were {2, -3, 6}.
  const auto& out_range = ranges[model.output];
  ASSERT_TRUE(out_range.seen);
  EXPECT_FLOAT_EQ(out_range.min, -3.0F);
  EXPECT_FLOAT_EQ(out_range.max, 6.0F);
}

TEST(InterpreterTest, CalibrateOnQuantizedModelThrows) {
  const Fixture fx = make_fixture(128);
  const LiteModel float_model =
      build_float_model(nn::build_encode_graph(fx.classifier.encoder));
  const LiteModel quantized = quantize_model(float_model, fx.train.features);
  const LiteInterpreter interpreter(quantized);
  EXPECT_THROW(interpreter.calibrate(fx.train.features), Error);
}

// ------------------------------------------------------------- quantize ----

TEST(QuantizeTest, ActivationQuantCoversRange) {
  const Quantization q = choose_activation_quant(-2.0F, 6.0F);
  EXPECT_TRUE(q.enabled());
  // Range endpoints should be representable within half a scale step.
  EXPECT_NEAR(q.dequantize(q.quantize(-2.0F)), -2.0F, q.scale);
  EXPECT_NEAR(q.dequantize(q.quantize(6.0F)), 6.0F, q.scale);
}

TEST(QuantizeTest, ActivationQuantIncludesZeroExactly) {
  const Quantization q = choose_activation_quant(0.5F, 6.0F);  // min > 0 widened to 0
  EXPECT_EQ(q.dequantize(q.quantize(0.0F)), 0.0F);
}

TEST(QuantizeTest, DegenerateRangeStillValid) {
  const Quantization q = choose_activation_quant(0.0F, 0.0F);
  EXPECT_TRUE(q.enabled());
}

TEST(QuantizeTest, SymmetricWeightsHaveZeroPointZero) {
  tensor::MatrixF w{{-1.0F, 0.5F}, {0.25F, 2.0F}};
  const QuantizedWeights qw = quantize_weights_symmetric(w);
  EXPECT_EQ(qw.quant.zero_point, 0);
  EXPECT_FLOAT_EQ(qw.quant.scale, 2.0F / 127.0F);
  EXPECT_EQ(qw.values(1, 1), 127);
  EXPECT_EQ(qw.values(0, 0), -64);  // round(-1 / (2/127)) = -64 (half-away rounding)
}

TEST(QuantizeTest, WeightRoundTripErrorBounded) {
  Rng rng(5);
  tensor::MatrixF w(16, 16);
  rng.fill_gaussian(w.data(), w.size());
  const QuantizedWeights qw = quantize_weights_symmetric(w);
  for (std::size_t i = 0; i < w.size(); ++i) {
    const float restored = qw.quant.dequantize(qw.values.storage()[i]);
    EXPECT_LE(std::fabs(restored - w.storage()[i]), qw.quant.scale * 0.5F + 1e-6F);
  }
}

TEST(QuantizeTest, QuantizedModelStructure) {
  const Fixture fx = make_fixture(128);
  const LiteModel float_model =
      build_float_model(nn::build_inference_graph(fx.classifier));
  const LiteModel quantized = quantize_model(float_model, fx.train.features);
  EXPECT_NO_THROW(quantized.validate());
  EXPECT_TRUE(quantized.is_quantized());
  EXPECT_EQ(quantized.ops.front().code, OpCode::kQuantize);
  EXPECT_EQ(quantized.ops.back().code, OpCode::kArgMax);
  // int8 weights: n*d + d*k bytes.
  EXPECT_EQ(quantized.weight_bytes(),
            fx.train.num_features() * 128 + 128 * fx.train.num_classes);
}

TEST(QuantizeTest, QuantizedAccuracyCloseToFloat) {
  const Fixture fx = make_fixture(512);
  const LiteModel float_model =
      build_float_model(nn::build_inference_graph(fx.classifier));
  const LiteModel quantized = quantize_model(float_model, fx.train.features);

  const LiteInterpreter float_interp(float_model);
  const LiteInterpreter int8_interp(quantized);
  const auto float_result = float_interp.run(fx.test.features);
  const auto int8_result = int8_interp.run(fx.test.features);

  std::size_t agree = 0;
  for (std::size_t i = 0; i < fx.test.num_samples(); ++i) {
    agree += float_result.classes[i] == int8_result.classes[i] ? 1 : 0;
  }
  const double agreement =
      static_cast<double>(agree) / static_cast<double>(fx.test.num_samples());
  EXPECT_GT(agreement, 0.9) << "int8 quantization changed too many predictions";
}

TEST(QuantizeTest, TanhLutMonotonicNonDecreasing) {
  const Fixture fx = make_fixture(64);
  const LiteModel quantized = quantize_model(
      build_float_model(nn::build_encode_graph(fx.classifier.encoder)),
      fx.train.features);
  // Drive the whole int8 input range through the quantized model's tanh by
  // checking the LUT contract indirectly: tanh output quant is 1/128.
  for (const auto& t : quantized.tensors) {
    if (t.name.find("tanh") != std::string::npos) {
      EXPECT_FLOAT_EQ(t.quant.scale, 1.0F / 128.0F);
      EXPECT_EQ(t.quant.zero_point, 0);
    }
  }
}

TEST(QuantizeTest, DequantizeOutputOptionAppendsOp) {
  const Fixture fx = make_fixture(64);
  QuantizeOptions options;
  options.dequantize_output = true;
  const LiteModel quantized = quantize_model(
      build_float_model(nn::build_encode_graph(fx.classifier.encoder)),
      fx.train.features, options);
  EXPECT_EQ(quantized.ops.back().code, OpCode::kDequantize);
  EXPECT_EQ(quantized.tensor(quantized.output).dtype, DType::kFloat32);
}

TEST(QuantizeTest, AlreadyQuantizedRejected) {
  const Fixture fx = make_fixture(64);
  const LiteModel quantized = quantize_model(
      build_float_model(nn::build_encode_graph(fx.classifier.encoder)),
      fx.train.features);
  EXPECT_THROW(quantize_model(quantized, fx.train.features), Error);
}

TEST(QuantizeTest, EncodeOutputsCloseToFloatEncodings) {
  const Fixture fx = make_fixture(256);
  const LiteModel quantized = quantize_model(
      build_float_model(nn::build_encode_graph(fx.classifier.encoder)),
      fx.train.features);
  const LiteInterpreter interpreter(quantized);

  tensor::MatrixF inputs(8, fx.train.num_features());
  std::copy_n(fx.train.features.data(), inputs.size(), inputs.data());
  const auto int8_result = interpreter.run(inputs);  // dequantized int8 encodings
  const auto float_encodings = fx.classifier.encoder.encode_batch(inputs);

  double err = 0.0;
  for (std::size_t i = 0; i < int8_result.values.size(); ++i) {
    err += std::fabs(int8_result.values.storage()[i] - float_encodings.storage()[i]);
  }
  err /= static_cast<double>(int8_result.values.size());
  // tanh output scale is 1/128 ~ 0.0078; the quantized input and base add a
  // little more noise. Mean absolute error should stay in that ballpark.
  EXPECT_LT(err, 0.05);
}

// ------------------------------------------------------- per-channel -------

TEST(PerChannelTest, EachChannelGetsItsOwnScale) {
  // Column 0 has tiny weights, column 1 huge ones: per-tensor quantization
  // would crush column 0 to a couple of codes; per-channel keeps both sharp.
  tensor::MatrixF w{{0.001F, 100.0F}, {-0.002F, -50.0F}};
  const auto qw = quantize_weights_per_channel(w);
  ASSERT_EQ(qw.channel_scales.size(), 2U);
  EXPECT_FLOAT_EQ(qw.channel_scales[0], 0.002F / 127.0F);
  EXPECT_FLOAT_EQ(qw.channel_scales[1], 100.0F / 127.0F);
  EXPECT_EQ(qw.values(0, 1), 127);
  EXPECT_EQ(qw.values(1, 0), -127);
}

TEST(PerChannelTest, RoundTripErrorBoundedPerChannel) {
  Rng rng(21);
  tensor::MatrixF w(32, 8);
  for (std::size_t j = 0; j < 8; ++j) {
    const float magnitude = std::pow(10.0F, static_cast<float>(j) - 4.0F);
    for (std::size_t i = 0; i < 32; ++i) {
      w(i, j) = rng.gaussian(0.0F, magnitude);
    }
  }
  const auto qw = quantize_weights_per_channel(w);
  for (std::size_t j = 0; j < 8; ++j) {
    for (std::size_t i = 0; i < 32; ++i) {
      const float restored = qw.channel_scales[j] * qw.values(i, j);
      EXPECT_LE(std::fabs(restored - w(i, j)), qw.channel_scales[j] * 0.5F + 1e-9F);
    }
  }
}

TEST(PerChannelTest, ModelValidatesAndRuns) {
  const Fixture fx = make_fixture(256);
  QuantizeOptions options;
  options.per_channel_weights = true;
  const LiteModel quantized = quantize_model(
      build_float_model(nn::build_inference_graph(fx.classifier)), fx.train.features,
      options);
  EXPECT_NO_THROW(quantized.validate());
  bool saw_per_channel = false;
  for (const auto& t : quantized.tensors) {
    saw_per_channel |= t.per_channel();
  }
  EXPECT_TRUE(saw_per_channel);
  const auto result = LiteInterpreter(quantized).run(fx.test.features);
  EXPECT_EQ(result.classes.size(), fx.test.num_samples());
}

TEST(PerChannelTest, AtLeastAsAccurateAsPerTensor) {
  const Fixture fx = make_fixture(512);
  const auto float_model = build_float_model(nn::build_inference_graph(fx.classifier));

  const LiteModel per_tensor = quantize_model(float_model, fx.train.features);
  QuantizeOptions options;
  options.per_channel_weights = true;
  const LiteModel per_channel = quantize_model(float_model, fx.train.features, options);

  const auto float_ref = LiteInterpreter(float_model).run(fx.test.features);
  const auto pt = LiteInterpreter(per_tensor).run(fx.test.features);
  const auto pc = LiteInterpreter(per_channel).run(fx.test.features);

  std::size_t pt_agree = 0;
  std::size_t pc_agree = 0;
  for (std::size_t i = 0; i < fx.test.num_samples(); ++i) {
    pt_agree += pt.classes[i] == float_ref.classes[i] ? 1 : 0;
    pc_agree += pc.classes[i] == float_ref.classes[i] ? 1 : 0;
  }
  // Per-channel must track the float model at least as closely (allow a
  // one-sample wobble from rounding).
  EXPECT_GE(pc_agree + 1, pt_agree);
}

TEST(PerChannelTest, SerializationPreservesChannelScales) {
  const Fixture fx = make_fixture(128);
  QuantizeOptions options;
  options.per_channel_weights = true;
  const LiteModel quantized = quantize_model(
      build_float_model(nn::build_encode_graph(fx.classifier.encoder)),
      fx.train.features, options);
  const LiteModel restored = deserialize_model(serialize_model(quantized));
  for (std::size_t i = 0; i < quantized.tensors.size(); ++i) {
    EXPECT_EQ(restored.tensors[i].channel_scales, quantized.tensors[i].channel_scales);
  }
  const auto a = LiteInterpreter(quantized).run(fx.test.features);
  const auto b = LiteInterpreter(restored).run(fx.test.features);
  EXPECT_EQ(a.values, b.values);
}

TEST(PerChannelTest, ValidateRejectsWrongScaleCount) {
  LiteModelBuilder b("bad");
  const auto in = b.add_activation("in", DType::kFloat32, 4);
  const auto in_q = b.add_activation("in_q", DType::kInt8, 4, Quantization{0.01F, 0});
  b.add_op(OpCode::kQuantize, {in}, {in_q});
  const auto w = b.add_weights_i8_per_channel("w", tensor::MatrixI8(4, 3),
                                              {0.1F, 0.2F, 0.3F});
  auto model_builder_finish = [&]() {
    const auto out = b.add_activation("out", DType::kInt8, 3, Quantization{0.01F, 0});
    b.add_op(OpCode::kFullyConnected, {in_q, w}, {out});
    b.set_input(in);
    b.set_output(out);
    return b.finish();
  };
  LiteModel model = model_builder_finish();
  model.tensors[2].channel_scales.pop_back();  // corrupt: 2 scales for 3 channels
  EXPECT_THROW(model.validate(), Error);
}

// ------------------------------------------------------------ serialize ----

TEST(LiteSerializeTest, RoundTripFloatModel) {
  const Fixture fx = make_fixture(64);
  const LiteModel model = build_float_model(nn::build_inference_graph(fx.classifier));
  const auto bytes = serialize_model(model);
  const LiteModel restored = deserialize_model(bytes);
  EXPECT_EQ(restored.name, model.name);
  ASSERT_EQ(restored.tensors.size(), model.tensors.size());
  for (std::size_t i = 0; i < model.tensors.size(); ++i) {
    EXPECT_EQ(restored.tensors[i].name, model.tensors[i].name);
    EXPECT_EQ(restored.tensors[i].shape, model.tensors[i].shape);
    EXPECT_EQ(restored.tensors[i].data, model.tensors[i].data);
  }
  ASSERT_EQ(restored.ops.size(), model.ops.size());
  for (std::size_t i = 0; i < model.ops.size(); ++i) {
    EXPECT_EQ(restored.ops[i].code, model.ops[i].code);
    EXPECT_EQ(restored.ops[i].inputs, model.ops[i].inputs);
  }
}

TEST(LiteSerializeTest, RoundTripQuantizedModelPreservesQuant) {
  const Fixture fx = make_fixture(64);
  const LiteModel quantized = quantize_model(
      build_float_model(nn::build_encode_graph(fx.classifier.encoder)),
      fx.train.features);
  const LiteModel restored = deserialize_model(serialize_model(quantized));
  for (std::size_t i = 0; i < quantized.tensors.size(); ++i) {
    EXPECT_EQ(restored.tensors[i].quant.scale, quantized.tensors[i].quant.scale);
    EXPECT_EQ(restored.tensors[i].quant.zero_point,
              quantized.tensors[i].quant.zero_point);
  }
}

TEST(LiteSerializeTest, RestoredModelProducesSameOutputs) {
  const Fixture fx = make_fixture(128);
  const LiteModel quantized = quantize_model(
      build_float_model(nn::build_inference_graph(fx.classifier)), fx.train.features);
  const LiteModel restored = deserialize_model(serialize_model(quantized));
  const auto a = LiteInterpreter(quantized).run(fx.test.features);
  const auto b = LiteInterpreter(restored).run(fx.test.features);
  EXPECT_EQ(a.classes, b.classes);
}

TEST(LiteSerializeTest, CorruptionDetected) {
  const Fixture fx = make_fixture(64);
  auto bytes = serialize_model(
      build_float_model(nn::build_encode_graph(fx.classifier.encoder)));
  bytes[bytes.size() / 3] ^= 0x40;
  EXPECT_THROW(deserialize_model(bytes), Error);
}

TEST(LiteSerializeTest, TruncationDetected) {
  const Fixture fx = make_fixture(64);
  auto bytes = serialize_model(
      build_float_model(nn::build_encode_graph(fx.classifier.encoder)));
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(deserialize_model(bytes), Error);
}

TEST(LiteSerializeTest, WrongMagicDetected) {
  std::vector<std::uint8_t> bytes(128, 0x5A);
  EXPECT_THROW(deserialize_model(bytes), Error);
}

TEST(LiteSerializeTest, FileRoundTrip) {
  const Fixture fx = make_fixture(64);
  const LiteModel model =
      build_float_model(nn::build_encode_graph(fx.classifier.encoder));
  const auto path =
      (hdc::test::temp_dir() / "hdc_lite_test.hdlt").string();
  save_model(model, path);
  const LiteModel restored = load_model(path);
  EXPECT_EQ(restored.name, model.name);
  std::filesystem::remove(path);
}

// ------------------------------------------------- batched interpreter ----

/// One row through `model` with the interpreter's semantics, written as the
/// plain per-sample loop (one activation vector per tensor, a GEMV per
/// FULLY_CONNECTED, the tanh LUT entry computed in place). Returns the row of
/// InferenceResult::values the interpreter must produce.
std::vector<float> reference_row(const LiteModel& model, std::span<const float> input) {
  std::vector<std::vector<float>> f32(model.tensors.size());
  std::vector<std::vector<std::int8_t>> i8(model.tensors.size());
  f32[model.input].assign(input.begin(), input.end());
  std::int32_t cls = -1;
  for (const LiteOp& op : model.ops) {
    const LiteTensor& in = model.tensor(op.inputs[0]);
    const LiteTensor& out = model.tensor(op.outputs[0]);
    switch (op.code) {
      case OpCode::kFullyConnected: {
        const LiteTensor& w = model.tensor(op.inputs[1]);
        const std::size_t n_in = w.shape[0];
        const std::size_t n_out = w.shape[1];
        if (in.dtype == DType::kFloat32) {
          const float* wd = w.typed_data<float>();
          std::vector<float>& y = f32[op.outputs[0]];
          y.assign(n_out, 0.0F);
          for (std::size_t i = 0; i < n_in; ++i) {
            const float xi = f32[op.inputs[0]][i];
            if (xi == 0.0F) {
              continue;
            }
            for (std::size_t j = 0; j < n_out; ++j) {
              y[j] += xi * wd[i * n_out + j];
            }
          }
        } else {
          const std::int8_t* wd = w.typed_data<std::int8_t>();
          std::vector<std::int64_t> acc(n_out, 0);
          for (std::size_t i = 0; i < n_in; ++i) {
            const std::int64_t xi = i8[op.inputs[0]][i] - in.quant.zero_point;
            for (std::size_t j = 0; j < n_out; ++j) {
              acc[j] += xi * wd[i * n_out + j];
            }
          }
          std::vector<std::int8_t>& y = i8[op.outputs[0]];
          y.resize(n_out);
          const double in_over_out = static_cast<double>(in.quant.scale) /
                                     static_cast<double>(out.quant.scale);
          for (std::size_t j = 0; j < n_out; ++j) {
            const double w_scale = static_cast<double>(
                w.per_channel() ? w.channel_scales[j] : w.quant.scale);
            const double scaled =
                std::round(static_cast<double>(acc[j]) * in_over_out * w_scale) +
                out.quant.zero_point;
            y[j] = static_cast<std::int8_t>(std::clamp(scaled, -128.0, 127.0));
          }
        }
        break;
      }
      case OpCode::kTanh:
        if (in.dtype == DType::kFloat32) {
          f32[op.outputs[0]] = f32[op.inputs[0]];
          tensor::tanh_inplace(f32[op.outputs[0]]);
        } else {
          i8[op.outputs[0]].clear();
          for (const std::int8_t q : i8[op.inputs[0]]) {
            i8[op.outputs[0]].push_back(out.quant.quantize(std::tanh(in.quant.dequantize(q))));
          }
        }
        break;
      case OpCode::kQuantize:
        i8[op.outputs[0]].clear();
        for (const float v : f32[op.inputs[0]]) {
          i8[op.outputs[0]].push_back(out.quant.quantize(v));
        }
        break;
      case OpCode::kDequantize:
        f32[op.outputs[0]].clear();
        for (const std::int8_t q : i8[op.inputs[0]]) {
          f32[op.outputs[0]].push_back(in.quant.dequantize(q));
        }
        break;
      case OpCode::kArgMax:
        if (in.dtype == DType::kFloat32) {
          cls = static_cast<std::int32_t>(tensor::argmax(f32[op.inputs[0]]));
        } else {
          const auto& x = i8[op.inputs[0]];
          cls = static_cast<std::int32_t>(std::max_element(x.begin(), x.end()) - x.begin());
        }
        break;
    }
  }
  if (cls >= 0) {
    return {static_cast<float>(cls)};
  }
  const LiteTensor& out = model.tensor(model.output);
  if (out.dtype == DType::kFloat32) {
    return f32[model.output];
  }
  std::vector<float> values;
  for (const std::int8_t q : i8[model.output]) {
    values.push_back(out.quant.dequantize(q));
  }
  return values;
}

void expect_batched_run_matches_rows(const LiteModel& model, const tensor::MatrixF& inputs) {
  const LiteInterpreter interpreter(model);
  for (const std::size_t threads : {1U, 4U}) {
    parallel::set_num_threads(threads);
    const InferenceResult batched = interpreter.run(inputs);
    ASSERT_EQ(batched.values.rows(), inputs.rows());
    for (std::size_t row = 0; row < inputs.rows(); ++row) {
      const std::vector<float> want = reference_row(model, inputs.row(row));
      const auto got = batched.values.row(row);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
          << model.name << " row " << row << " at " << threads << " threads";
      if (batched.has_classes) {
        EXPECT_EQ(static_cast<float>(batched.classes[row]), want[0]);
      }
    }
  }
  parallel::set_num_threads(0);
}

/// 37 rows: more than two interpreter row blocks, and uneven thread chunks.
tensor::MatrixF batch_inputs(const Fixture& fx) {
  tensor::MatrixF inputs(37, fx.test.num_features());
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    const auto src = fx.test.features.row(r % fx.test.num_samples());
    std::copy(src.begin(), src.end(), inputs.row(r).begin());
  }
  inputs.row(5)[0] = 0.0F;  // exercise the zero-input skip
  return inputs;
}

TEST(BatchedInterpreterTest, FloatModelMatchesPerRowReference) {
  const Fixture fx = make_fixture(256);
  const LiteModel model =
      build_float_model(nn::build_inference_graph(fx.classifier, "float_classifier"));
  expect_batched_run_matches_rows(model, batch_inputs(fx));
  const LiteModel encode = build_float_model(nn::build_encode_graph(fx.classifier.encoder));
  expect_batched_run_matches_rows(encode, batch_inputs(fx));
}

TEST(BatchedInterpreterTest, Int8PerTensorModelMatchesPerRowReference) {
  const Fixture fx = make_fixture(256);
  const LiteModel float_model =
      build_float_model(nn::build_inference_graph(fx.classifier, "int8_classifier"));
  expect_batched_run_matches_rows(quantize_model(float_model, fx.train.features),
                                  batch_inputs(fx));
  QuantizeOptions dequantized;
  dequantized.dequantize_output = true;
  const LiteModel encode = build_float_model(nn::build_encode_graph(fx.classifier.encoder));
  expect_batched_run_matches_rows(quantize_model(encode, fx.train.features, dequantized),
                                  batch_inputs(fx));
}

TEST(BatchedInterpreterTest, Int8PerChannelModelMatchesPerRowReference) {
  const Fixture fx = make_fixture(256);
  QuantizeOptions options;
  options.per_channel_weights = true;
  const LiteModel float_model =
      build_float_model(nn::build_inference_graph(fx.classifier, "per_channel_classifier"));
  const LiteModel quantized = quantize_model(float_model, fx.train.features, options);
  ASSERT_TRUE(std::any_of(quantized.tensors.begin(), quantized.tensors.end(),
                          [](const LiteTensor& t) { return t.per_channel(); }));
  expect_batched_run_matches_rows(quantized, batch_inputs(fx));
}

TEST(BatchedInterpreterTest, EmptyBatchYieldsEmptyResult) {
  const Fixture fx = make_fixture(128);
  const LiteInterpreter interpreter(
      build_float_model(nn::build_inference_graph(fx.classifier, "empty")));
  const InferenceResult result =
      interpreter.run(tensor::MatrixF(0, fx.test.num_features()));
  EXPECT_EQ(result.values.rows(), 0U);
  EXPECT_TRUE(result.classes.empty());
}

}  // namespace
}  // namespace hdc::lite
