#include "lite/interpreter.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace hdc::lite {

void TensorRange::update(float value) {
  if (!seen) {
    min = max = value;
    seen = true;
    return;
  }
  min = std::min(min, value);
  max = std::max(max, value);
}

/// Activation storage for one row block, one slot per tensor index: slot t
/// holds the block's rows of tensor t back to back (row-major). Reused across
/// the blocks one thread runs, so steady state allocates nothing.
struct LiteInterpreter::Scratch {
  std::vector<std::vector<float>> f32;
  std::vector<std::vector<std::int8_t>> i8;
  std::vector<std::vector<std::int32_t>> i32;
  std::vector<std::int32_t> acc;  ///< int8 FULLY_CONNECTED accumulators

  explicit Scratch(std::size_t tensor_count)
      : f32(tensor_count), i8(tensor_count), i32(tensor_count) {}
};

namespace {

std::array<std::int8_t, 256> build_tanh_lut(const Quantization& in, const Quantization& out) {
  std::array<std::int8_t, 256> lut{};
  for (int q = -128; q <= 127; ++q) {
    const float real = in.dequantize(q);
    const float t = tensor::tanh(real);
    lut[static_cast<std::size_t>(q + 128)] = out.quantize(t);
  }
  return lut;
}

}  // namespace

LiteInterpreter::LiteInterpreter(LiteModel model) : model_(std::move(model)) {
  model_.validate();
  tanh_luts_.resize(model_.ops.size());
  for (std::size_t i = 0; i < model_.ops.size(); ++i) {
    const auto& op = model_.ops[i];
    if (op.code != OpCode::kTanh) {
      continue;
    }
    const auto& in = model_.tensor(op.inputs[0]);
    const auto& out = model_.tensor(op.outputs[0]);
    if (in.dtype == DType::kInt8) {
      tanh_luts_[i] = build_tanh_lut(in.quant, out.quant);
    }
  }
}

void LiteInterpreter::run_block(const tensor::MatrixF& inputs, std::size_t row_begin,
                                std::size_t row_end, Scratch& scratch,
                                std::vector<TensorRange>* ranges) const {
  const auto& input_tensor = model_.tensor(model_.input);
  HDC_CHECK(inputs.cols() == input_tensor.num_elements(), "input width mismatch");
  HDC_CHECK(input_tensor.dtype == DType::kFloat32, "model input must be float32");
  const std::size_t rows = row_end - row_begin;
  const float* first = inputs.storage().data() + row_begin * inputs.cols();
  scratch.f32[model_.input].assign(first, first + rows * inputs.cols());

  // Per tensor, values arrive in row order and then element order — the
  // sequence the row-at-a-time loop produced.
  auto record = [&](std::uint32_t tensor_index) {
    if (ranges == nullptr) {
      return;
    }
    for (const float v : scratch.f32[tensor_index]) {
      (*ranges)[tensor_index].update(v);
    }
  };
  record(model_.input);

  for (std::size_t op_index = 0; op_index < model_.ops.size(); ++op_index) {
    const auto& op = model_.ops[op_index];
    switch (op.code) {
      case OpCode::kFullyConnected: {
        const auto& act = model_.tensor(op.inputs[0]);
        const auto& weights = model_.tensor(op.inputs[1]);
        const auto& out = model_.tensor(op.outputs[0]);
        const std::size_t in_width = weights.shape[0];
        const std::size_t out_width = weights.shape[1];

        if (act.dtype == DType::kFloat32) {
          // Float GEMM, row by row in i-then-j order: each output element
          // accumulates its terms in the same order as a per-row GEMV.
          const float* w = weights.typed_data<float>();
          const float* x = scratch.f32[op.inputs[0]].data();
          auto& y = scratch.f32[op.outputs[0]];
          y.assign(rows * out_width, 0.0F);
          for (std::size_t r = 0; r < rows; ++r) {
            const float* x_row = x + r * in_width;
            float* y_row = y.data() + r * out_width;
            for (std::size_t i = 0; i < in_width; ++i) {
              const float xi = x_row[i];
              if (xi == 0.0F) {
                continue;
              }
              const float* w_row = w + i * out_width;
              for (std::size_t j = 0; j < out_width; ++j) {
                y_row[j] += xi * w_row[j];
              }
            }
          }
          record(op.outputs[0]);
        } else {
          // int8 GEMM: int32 accumulation over zero-point-corrected inputs
          // (exact in any order), blocked over the input width so each
          // weight block is reused by every row of the block while it is
          // cache-resident; then requantization to the output's scale.
          // Each product is formed in 16 bits, which lets the compiler use
          // 16-bit SIMD multiplies. That is exact: validate() holds zero
          // points to int8, so |xi| <= 255, and |w| <= 128, so
          // |xi * w| <= 32,640.
          const std::int8_t* w = weights.typed_data<std::int8_t>();
          const std::int8_t* x = scratch.i8[op.inputs[0]].data();
          const std::int32_t zp_in = act.quant.zero_point;
          auto& acc = scratch.acc;
          acc.assign(rows * out_width, 0);
          constexpr std::size_t kInBlock = 64;
          for (std::size_t i0 = 0; i0 < in_width; i0 += kInBlock) {
            const std::size_t i_end = std::min(i0 + kInBlock, in_width);
            for (std::size_t r = 0; r < rows; ++r) {
              const std::int8_t* x_row = x + r * in_width;
              std::int32_t* acc_row = acc.data() + r * out_width;
              for (std::size_t i = i0; i < i_end; ++i) {
                const auto xi = static_cast<std::int16_t>(x_row[i] - zp_in);
                if (xi == 0) {
                  continue;
                }
                const std::int8_t* w_row = w + i * out_width;
                for (std::size_t j = 0; j < out_width; ++j) {
                  acc_row[j] += static_cast<std::int16_t>(xi * w_row[j]);
                }
              }
            }
          }
          // Per-channel weights carry one scale per output column; per-tensor
          // weights share quant.scale across all of them.
          auto& y = scratch.i8[op.outputs[0]];
          y.resize(rows * out_width);
          const double in_over_out = static_cast<double>(act.quant.scale) /
                                     static_cast<double>(out.quant.scale);
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t j = 0; j < out_width; ++j) {
              const std::size_t k = r * out_width + j;
              const double w_scale = weights.per_channel()
                                         ? static_cast<double>(weights.channel_scales[j])
                                         : static_cast<double>(weights.quant.scale);
              y[k] = round_to_int8(static_cast<double>(acc[k]) * in_over_out * w_scale,
                                   out.quant.zero_point);
            }
          }
        }
        break;
      }
      case OpCode::kTanh: {
        const auto& in = model_.tensor(op.inputs[0]);
        if (in.dtype == DType::kFloat32) {
          auto& y = scratch.f32[op.outputs[0]];
          y = scratch.f32[op.inputs[0]];
          tensor::tanh_inplace(y);
          record(op.outputs[0]);
        } else {
          const auto& lut = tanh_luts_[op_index];
          HDC_CHECK(lut.has_value(), "missing tanh LUT for int8 op");
          const auto& x = scratch.i8[op.inputs[0]];
          auto& y = scratch.i8[op.outputs[0]];
          y.resize(x.size());
          for (std::size_t i = 0; i < x.size(); ++i) {
            y[i] = (*lut)[static_cast<std::size_t>(static_cast<int>(x[i]) + 128)];
          }
        }
        break;
      }
      case OpCode::kQuantize: {
        const auto& out = model_.tensor(op.outputs[0]);
        const auto& x = scratch.f32[op.inputs[0]];
        auto& y = scratch.i8[op.outputs[0]];
        y.resize(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
          y[i] = out.quant.quantize(x[i]);
        }
        break;
      }
      case OpCode::kDequantize: {
        const auto& in = model_.tensor(op.inputs[0]);
        const auto& x = scratch.i8[op.inputs[0]];
        auto& y = scratch.f32[op.outputs[0]];
        y.resize(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
          y[i] = in.quant.dequantize(x[i]);
        }
        record(op.outputs[0]);
        break;
      }
      case OpCode::kArgMax: {
        const auto& in = model_.tensor(op.inputs[0]);
        const std::size_t width = in.num_elements();
        auto& y = scratch.i32[op.outputs[0]];
        y.resize(rows);
        for (std::size_t r = 0; r < rows; ++r) {
          std::size_t best = 0;
          if (in.dtype == DType::kFloat32) {
            best = tensor::argmax({scratch.f32[op.inputs[0]].data() + r * width, width});
          } else {
            // argmax over raw int8 values equals argmax over real values since
            // the whole tensor shares one (scale, zero_point).
            const std::int8_t* x = scratch.i8[op.inputs[0]].data() + r * width;
            best = static_cast<std::size_t>(std::max_element(x, x + width) - x);
          }
          y[r] = static_cast<std::int32_t>(best);
        }
        break;
      }
    }
  }
}

InferenceResult LiteInterpreter::run(const tensor::MatrixF& inputs,
                                     obs::TraceContext* trace) const {
  if (trace != nullptr) {
    // The op loop executes every op once per row; counting outside the loop
    // keeps the per-sample path untouched.
    trace->instant(obs::Track::kHost, "lite.run",
                   {{"samples", static_cast<std::int64_t>(inputs.rows())},
                    {"ops", static_cast<std::int64_t>(model_.ops.size())}});
    if (obs::MetricsRegistry* metrics = trace->metrics()) {
      metrics->counter("lite.runs").add(1);
      metrics->counter("lite.samples").add(inputs.rows());
      for (const auto& op : model_.ops) {
        metrics->counter(std::string("lite.op.") + opcode_name(op.code))
            .add(inputs.rows());
      }
    }
  }
  const auto& out_tensor = model_.tensor(model_.output);
  const bool ends_argmax =
      !model_.ops.empty() && model_.ops.back().code == OpCode::kArgMax;

  InferenceResult result;
  result.has_classes = ends_argmax;
  const std::size_t out_width = ends_argmax ? 1 : out_tensor.num_elements();
  result.values = tensor::MatrixF(inputs.rows(), out_width);
  if (ends_argmax) {
    result.classes.resize(inputs.rows());
  }

  // Sample-parallel execution: rows are independent, each chunk owns its
  // activation scratch and runs every op over row blocks of at most
  // kRowBlock rows (bounding scratch memory), and every output row is written
  // by exactly one chunk — results match a row-at-a-time loop bit for bit.
  parallel::parallel_for(0, inputs.rows(), [&](std::size_t lo, std::size_t hi) {
    Scratch scratch(model_.tensors.size());
    for (std::size_t block = lo; block < hi; block += kRowBlock) {
      const std::size_t block_end = std::min(block + kRowBlock, hi);
      run_block(inputs, block, block_end, scratch, nullptr);
      for (std::size_t row = block; row < block_end; ++row) {
        const std::size_t r = row - block;
        auto out_row = result.values.row(row);
        if (ends_argmax) {
          const std::int32_t cls = scratch.i32[model_.output][r];
          result.classes[row] = cls;
          out_row[0] = static_cast<float>(cls);
        } else if (out_tensor.dtype == DType::kFloat32) {
          const float* y = scratch.f32[model_.output].data() + r * out_width;
          std::copy(y, y + out_width, out_row.begin());
        } else {
          const std::int8_t* y = scratch.i8[model_.output].data() + r * out_width;
          for (std::size_t j = 0; j < out_width; ++j) {
            out_row[j] = out_tensor.quant.dequantize(y[j]);
          }
        }
      }
    }
  });
  return result;
}

std::vector<TensorRange> LiteInterpreter::calibrate(const tensor::MatrixF& inputs) const {
  HDC_CHECK(!model_.is_quantized(), "calibration runs on the float model");
  std::vector<TensorRange> ranges(model_.tensors.size());
  Scratch scratch(model_.tensors.size());
  for (std::size_t block = 0; block < inputs.rows(); block += kRowBlock) {
    run_block(inputs, block, std::min(block + kRowBlock, inputs.rows()), scratch, &ranges);
  }
  return ranges;
}

}  // namespace hdc::lite
