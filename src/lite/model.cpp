#include "lite/model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hdc::lite {

std::size_t dtype_size(DType dtype) {
  switch (dtype) {
    case DType::kFloat32:
      return 4;
    case DType::kInt8:
      return 1;
    case DType::kInt32:
      return 4;
  }
  throw Error("unknown dtype");
}

const char* dtype_name(DType dtype) {
  switch (dtype) {
    case DType::kFloat32:
      return "float32";
    case DType::kInt8:
      return "int8";
    case DType::kInt32:
      return "int32";
  }
  return "?";
}

const char* opcode_name(OpCode code) {
  switch (code) {
    case OpCode::kFullyConnected:
      return "FULLY_CONNECTED";
    case OpCode::kTanh:
      return "TANH";
    case OpCode::kQuantize:
      return "QUANTIZE";
    case OpCode::kDequantize:
      return "DEQUANTIZE";
    case OpCode::kArgMax:
      return "ARG_MAX";
  }
  return "?";
}

std::int8_t Quantization::quantize(float real) const {
  HDC_CHECK(enabled(), "quantize through disabled quantization params");
  const float q = round_half_away(real / scale) + static_cast<float>(zero_point);
  return static_cast<std::int8_t>(std::clamp(q, -128.0F, 127.0F));
}

std::size_t LiteTensor::num_elements() const {
  std::size_t n = 1;
  for (const std::uint32_t d : shape) {
    n *= d;
  }
  return shape.empty() ? 0 : n;
}

const LiteTensor& LiteModel::tensor(std::uint32_t index) const {
  HDC_CHECK(index < tensors.size(), "tensor index out of range");
  return tensors[index];
}

LiteTensor& LiteModel::tensor(std::uint32_t index) {
  HDC_CHECK(index < tensors.size(), "tensor index out of range");
  return tensors[index];
}

bool LiteModel::is_quantized() const {
  return std::any_of(tensors.begin(), tensors.end(),
                     [](const LiteTensor& t) { return t.dtype == DType::kInt8; });
}

std::size_t LiteModel::weight_bytes() const {
  std::size_t total = 0;
  for (const auto& t : tensors) {
    if (t.is_constant()) {
      total += t.data.size();
    }
  }
  return total;
}

std::uint64_t LiteModel::macs_per_sample() const {
  std::uint64_t macs = 0;
  for (const auto& op : ops) {
    if (op.code == OpCode::kFullyConnected) {
      const auto& weights = tensor(op.inputs[1]);
      HDC_CHECK(weights.shape.size() == 2, "FC weights must be 2-D");
      macs += static_cast<std::uint64_t>(weights.shape[0]) * weights.shape[1];
    }
  }
  return macs;
}

void LiteModel::validate() const {
  HDC_CHECK(!tensors.empty(), "model has no tensors");
  HDC_CHECK(!ops.empty(), "model has no ops");
  HDC_CHECK(input < tensors.size(), "model input index out of range");
  HDC_CHECK(output < tensors.size(), "model output index out of range");
  HDC_CHECK(!tensor(input).is_constant(), "model input must be an activation");

  for (const auto& t : tensors) {
    HDC_CHECK(!t.shape.empty(), "tensor '" + t.name + "' has no shape");
    if (t.is_constant()) {
      HDC_CHECK(t.data.size() == t.byte_size(),
                "tensor '" + t.name + "' payload size disagrees with shape");
    }
    if (t.dtype == DType::kInt8) {
      HDC_CHECK(t.quant.enabled() || t.per_channel(),
                "int8 tensor '" + t.name + "' lacks quantization");
      // The int8 kernels rely on this: a corrected input x - zero_point then
      // stays within +-255 (see LiteInterpreter's FULLY_CONNECTED).
      HDC_CHECK(t.quant.zero_point >= -128 && t.quant.zero_point <= 127,
                "int8 tensor '" + t.name + "' has a zero point outside [-128, 127]");
    }
    if (t.per_channel()) {
      HDC_CHECK(t.is_constant() && t.shape.size() == 2,
                "per-channel quantization is only defined for 2-D weights");
      HDC_CHECK(t.channel_scales.size() == t.shape[1],
                "per-channel scale count must match the output-channel count");
      for (const float scale : t.channel_scales) {
        HDC_CHECK(scale > 0.0F, "per-channel scales must be positive");
      }
    }
  }

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto& op = ops[i];
    for (const std::uint32_t idx : op.inputs) {
      HDC_CHECK(idx < tensors.size(), "op input index out of range");
    }
    for (const std::uint32_t idx : op.outputs) {
      HDC_CHECK(idx < tensors.size(), "op output index out of range");
      HDC_CHECK(!tensor(idx).is_constant(), "op writes to a constant tensor");
    }

    switch (op.code) {
      case OpCode::kFullyConnected: {
        HDC_CHECK(op.inputs.size() == 2 && op.outputs.size() == 1,
                  "FULLY_CONNECTED signature is (activation, weights) -> activation");
        const auto& act = tensor(op.inputs[0]);
        const auto& weights = tensor(op.inputs[1]);
        const auto& out = tensor(op.outputs[0]);
        HDC_CHECK(weights.is_constant(), "FC weights must be constant");
        HDC_CHECK(weights.shape.size() == 2, "FC weights must be 2-D");
        HDC_CHECK(act.shape.size() == 1 && out.shape.size() == 1,
                  "FC activations must be 1-D per sample");
        HDC_CHECK(act.shape[0] == weights.shape[0], "FC input width mismatch");
        HDC_CHECK(out.shape[0] == weights.shape[1], "FC output width mismatch");
        HDC_CHECK(act.dtype == weights.dtype, "FC input/weight dtype mismatch");
        break;
      }
      case OpCode::kTanh: {
        HDC_CHECK(op.inputs.size() == 1 && op.outputs.size() == 1, "TANH is unary");
        const auto& in = tensor(op.inputs[0]);
        const auto& out = tensor(op.outputs[0]);
        HDC_CHECK(in.shape == out.shape, "TANH must preserve shape");
        HDC_CHECK(in.dtype == out.dtype, "TANH must preserve dtype");
        break;
      }
      case OpCode::kQuantize: {
        HDC_CHECK(op.inputs.size() == 1 && op.outputs.size() == 1, "QUANTIZE is unary");
        HDC_CHECK(tensor(op.inputs[0]).dtype == DType::kFloat32 &&
                      tensor(op.outputs[0]).dtype == DType::kInt8,
                  "QUANTIZE maps float32 -> int8");
        break;
      }
      case OpCode::kDequantize: {
        HDC_CHECK(op.inputs.size() == 1 && op.outputs.size() == 1, "DEQUANTIZE is unary");
        HDC_CHECK(tensor(op.inputs[0]).dtype == DType::kInt8 &&
                      tensor(op.outputs[0]).dtype == DType::kFloat32,
                  "DEQUANTIZE maps int8 -> float32");
        break;
      }
      case OpCode::kArgMax: {
        HDC_CHECK(op.inputs.size() == 1 && op.outputs.size() == 1, "ARG_MAX is unary");
        HDC_CHECK(i + 1 == ops.size(), "ARG_MAX must be the final op");
        const auto& out = tensor(op.outputs[0]);
        HDC_CHECK(out.dtype == DType::kInt32 && out.num_elements() == 1,
                  "ARG_MAX output must be a scalar int32");
        break;
      }
    }
  }
}

}  // namespace hdc::lite
