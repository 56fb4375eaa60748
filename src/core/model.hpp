#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "tensor/matrix.hpp"

namespace hdc::core {

/// The trained HDC state: k class hypervectors of width d (row per class).
/// Classification is an associative search — the class whose hypervector is
/// most similar to the encoded query wins.
class HdModel {
 public:
  HdModel(std::uint32_t num_classes, std::uint32_t dim);

  /// Wraps an existing class-hypervector matrix (row per class).
  explicit HdModel(tensor::MatrixF class_hypervectors);

  std::uint32_t num_classes() const noexcept {
    return static_cast<std::uint32_t>(class_hvs_.rows());
  }
  std::uint32_t dim() const noexcept { return static_cast<std::uint32_t>(class_hvs_.cols()); }
  const tensor::MatrixF& class_hypervectors() const noexcept { return class_hvs_; }
  tensor::MatrixF& class_hypervectors() noexcept { return class_hvs_; }

  /// Per-class similarity scores for one encoded hypervector.
  std::vector<float> scores(std::span<const float> encoded, Similarity metric) const;

  /// `scores` with the class norms supplied (see `class_norms`; unused by the
  /// dot metric). Bit-identical to `scores`, at k+1 passes over d instead of
  /// 3k for cosine, so callers that score many queries against one model
  /// compute the norms once.
  std::vector<float> scores(std::span<const float> encoded, Similarity metric,
                            std::span<const float> class_norms) const;

  /// L2 norm of each class hypervector, in class order.
  std::vector<float> class_norms() const;

  /// argmax over scores.
  std::uint32_t predict(std::span<const float> encoded, Similarity metric) const;

  /// One prediction per row of `encoded`.
  std::vector<std::uint32_t> predict_batch(const tensor::MatrixF& encoded,
                                           Similarity metric) const;

  /// Bundling: C_class += lambda * E  (paper eq. in Section III-A).
  void bundle(std::uint32_t class_index, std::span<const float> encoded, float lambda);

  /// Detaching: C_class -= lambda * E.
  void detach(std::uint32_t class_index, std::span<const float> encoded, float lambda);

 private:
  tensor::MatrixF class_hvs_;  ///< num_classes x dim
};

}  // namespace hdc::core
