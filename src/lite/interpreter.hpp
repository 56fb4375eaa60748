#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "lite/model.hpp"
#include "tensor/matrix.hpp"

namespace hdc::obs {
class TraceContext;
}  // namespace hdc::obs

namespace hdc::lite {

/// Observed value range of one tensor during calibration.
struct TensorRange {
  float min = 0.0F;
  float max = 0.0F;
  bool seen = false;

  void update(float value);
};

/// Result of running a model over a batch. `values` holds the final tensor
/// per row (dequantized to float when the model output is int8); `classes`
/// is additionally filled when the model ends in ARG_MAX.
struct InferenceResult {
  tensor::MatrixF values;
  std::vector<std::int32_t> classes;
  bool has_classes = false;
};

/// Reference interpreter for HDLite models — the stand-in for the TFLite
/// runtime on the host CPU. Executes float and int8 kernels with
/// TFLite-compatible semantics (int32 accumulation, re-quantization through
/// a real-valued multiplier, 256-entry tanh LUT for int8).
class LiteInterpreter {
 public:
  explicit LiteInterpreter(LiteModel model);

  const LiteModel& model() const noexcept { return model_; }

  /// When `trace` is non-null, the op loop publishes per-opcode execution
  /// counters (`lite.op.<OPCODE>`) and records one `lite.run` instant at the
  /// trace cursor. The math is unaffected; a null trace is a no-op.
  InferenceResult run(const tensor::MatrixF& inputs,
                      obs::TraceContext* trace = nullptr) const;

  /// Runs a float model over representative inputs and records per-tensor
  /// value ranges; the quantizer consumes these. Throws if the model is
  /// already quantized.
  std::vector<TensorRange> calibrate(const tensor::MatrixF& inputs) const;

 private:
  struct Scratch;
  /// Rows per op pass: a serve chunk's worth, enough to amortize per-op
  /// overhead and reuse each int8 weight block across rows, while a block's
  /// activations stay under 1 MB at d = 10,000.
  static constexpr std::size_t kRowBlock = 16;

  /// Runs every op over rows [row_begin, row_end) of `inputs` into `scratch`,
  /// recording float tensor ranges when `ranges` is non-null.
  void run_block(const tensor::MatrixF& inputs, std::size_t row_begin, std::size_t row_end,
                 Scratch& scratch, std::vector<TensorRange>* ranges) const;

  LiteModel model_;
  // Precomputed 256-entry LUTs, one per int8 TANH op (indexed by op order).
  std::vector<std::optional<std::array<std::int8_t, 256>>> tanh_luts_;
};

}  // namespace hdc::lite
