#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace hdc::lite {

/// HDLite: a deliberately small TensorFlow-Lite analog. It carries exactly
/// the op set the paper's wide-NN mapping needs, with TFLite-compatible
/// int8 quantization semantics (asymmetric activations, symmetric weights,
/// int32 accumulation), so the Edge TPU simulator consumes the same kind of
/// artifact the real edgetpu pipeline would.

enum class DType : std::uint8_t { kFloat32 = 0, kInt8 = 1, kInt32 = 2 };

std::size_t dtype_size(DType dtype);
const char* dtype_name(DType dtype);

/// Affine quantization: real = scale * (q - zero_point). scale == 0 means
/// "not quantized".
struct Quantization {
  float scale = 0.0F;
  std::int32_t zero_point = 0;

  bool enabled() const noexcept { return scale != 0.0F; }
  float dequantize(std::int32_t q) const noexcept {
    return scale * static_cast<float>(q - zero_point);
  }
  std::int8_t quantize(float real) const;
};

/// `std::round` on a float, bit for bit, without the libm call (weight and
/// activation quantization round millions of values per lowering). Every
/// float with |x| >= 2^23, and inf and NaN, is already integral and returned
/// as is. Below that, rounding |x| is its int32 truncation plus a step when
/// the (exact) fraction is at least one half; the sign goes back on last,
/// so -0.4 rounds to -0 as with `std::round`. One comparison feeds a select,
/// not a branch: the fraction is data, and a mispredicted branch per value
/// would cost more than the libm call.
inline float round_half_away(float x) {
  const float magnitude = std::fabs(x);
  if (!(magnitude < 8388608.0F)) {
    return x;
  }
  const auto whole = static_cast<float>(static_cast<std::int32_t>(magnitude));
  const float rounded = whole + (magnitude - whole >= 0.5F ? 1.0F : 0.0F);
  return std::copysign(rounded, x);
}

/// The int8 kernels' requantization step: `clamp(std::round(real) +
/// zero_point, -128, 127)` bit for bit, for a zero point in [-128, 127],
/// without the libm call. Any |real| >= 256 saturates either way, so `real`
/// is clamped to +-256 first; there an int32 conversion is exact, and
/// rounding half away from zero is the truncation plus a step on the
/// (exact) fraction.
inline std::int8_t round_to_int8(double real, std::int32_t zero_point) {
  const double v = real >= -256.0 ? (real <= 256.0 ? real : 256.0) : -256.0;
  const auto whole = static_cast<std::int32_t>(v);
  const double frac = v - static_cast<double>(whole);
  const std::int32_t q = whole + (frac >= 0.5 ? 1 : 0) - (frac <= -0.5 ? 1 : 0) + zero_point;
  return static_cast<std::int8_t>(q < -128 ? -128 : (q > 127 ? 127 : q));
}

struct LiteTensor {
  std::string name;
  DType dtype = DType::kFloat32;
  std::vector<std::uint32_t> shape;  ///< [width] activations, [in,out] weights
  Quantization quant;
  /// Per-output-channel weight scales (TFLite per-channel quantization).
  /// Empty = per-tensor (`quant.scale` applies to every channel); when set,
  /// size must equal shape[1] and `quant.scale` is ignored for this tensor.
  std::vector<float> channel_scales;
  std::vector<std::uint8_t> data;  ///< raw constant payload; empty = activation

  bool is_constant() const noexcept { return !data.empty(); }
  bool per_channel() const noexcept { return !channel_scales.empty(); }
  std::size_t num_elements() const;
  std::size_t byte_size() const { return num_elements() * dtype_size(dtype); }

  /// Typed view into constant payload (checked).
  template <typename T>
  const T* typed_data() const {
    HDC_CHECK(data.size() == num_elements() * sizeof(T), "tensor payload size mismatch");
    return reinterpret_cast<const T*>(data.data());
  }
};

enum class OpCode : std::uint8_t {
  kFullyConnected = 0,  ///< inputs: {activation, weights}; output: activation
  kTanh = 1,            ///< inputs: {activation}; output: activation
  kQuantize = 2,        ///< float32 -> int8
  kDequantize = 3,      ///< int8 -> float32
  kArgMax = 4,          ///< inputs: {activation}; output: int32 [1]
};

const char* opcode_name(OpCode code);

struct LiteOp {
  OpCode code;
  std::vector<std::uint32_t> inputs;   ///< tensor indices
  std::vector<std::uint32_t> outputs;  ///< tensor indices
};

struct LiteModel {
  std::string name;
  std::vector<LiteTensor> tensors;
  std::vector<LiteOp> ops;  ///< executed in order (single chain)
  std::uint32_t input = 0;  ///< tensor index of the model input
  std::uint32_t output = 0; ///< tensor index of the model output

  const LiteTensor& tensor(std::uint32_t index) const;
  LiteTensor& tensor(std::uint32_t index);

  /// True when any op consumes/produces int8 activations.
  bool is_quantized() const;

  /// Bytes of constant weight payload (what must ship to the accelerator).
  std::size_t weight_bytes() const;

  /// Multiply-accumulates one sample costs in this model (dense ops only).
  std::uint64_t macs_per_sample() const;

  /// Structural validation: index bounds, shape chaining, op signatures,
  /// quantization presence on int8 tensors, ArgMax last. Throws hdc::Error.
  void validate() const;
};

}  // namespace hdc::lite
