#include "core/model.hpp"

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "tensor/ops.hpp"

namespace hdc::core {

HdModel::HdModel(std::uint32_t num_classes, std::uint32_t dim) : class_hvs_(num_classes, dim) {
  HDC_CHECK(num_classes >= 2, "a classifier needs at least two classes");
  HDC_CHECK(dim > 0, "hypervector width must be positive");
}

HdModel::HdModel(tensor::MatrixF class_hypervectors) : class_hvs_(std::move(class_hypervectors)) {
  HDC_CHECK(class_hvs_.rows() >= 2 && class_hvs_.cols() > 0,
            "class hypervector matrix must be k x d with k >= 2");
}

std::vector<float> HdModel::scores(std::span<const float> encoded, Similarity metric) const {
  return scores(encoded, metric,
                metric == Similarity::kCosine ? class_norms() : std::vector<float>{});
}

std::vector<float> HdModel::scores(std::span<const float> encoded, Similarity metric,
                                   std::span<const float> class_norms) const {
  HDC_CHECK(encoded.size() == class_hvs_.cols(), "encoded width disagrees with model dim");
  std::vector<float> out(class_hvs_.rows());
  if (metric != Similarity::kCosine) {
    for (std::size_t c = 0; c < class_hvs_.rows(); ++c) {
      out[c] = tensor::dot(encoded, class_hvs_.row(c));
    }
    return out;
  }
  HDC_CHECK(class_norms.size() == class_hvs_.rows(), "class norm count disagrees with model");
  const float query_norm = tensor::l2_norm(encoded);
  for (std::size_t c = 0; c < class_hvs_.rows(); ++c) {
    out[c] = tensor::cosine(encoded, class_hvs_.row(c), query_norm, class_norms[c]);
  }
  return out;
}

std::vector<float> HdModel::class_norms() const {
  std::vector<float> norms(class_hvs_.rows());
  for (std::size_t c = 0; c < class_hvs_.rows(); ++c) {
    norms[c] = tensor::l2_norm(class_hvs_.row(c));
  }
  return norms;
}

std::uint32_t HdModel::predict(std::span<const float> encoded, Similarity metric) const {
  const auto s = scores(encoded, metric);
  return static_cast<std::uint32_t>(tensor::argmax(s));
}

std::vector<std::uint32_t> HdModel::predict_batch(const tensor::MatrixF& encoded,
                                                  Similarity metric) const {
  std::vector<std::uint32_t> out(encoded.rows());
  const std::vector<float> norms =
      metric == Similarity::kCosine ? class_norms() : std::vector<float>{};
  // Sample-parallel scoring: each row's prediction is independent and lands
  // in its own slot, so any thread count yields identical output.
  parallel::parallel_for(0, encoded.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = static_cast<std::uint32_t>(
          tensor::argmax(scores(encoded.row(i), metric, norms)));
    }
  });
  return out;
}

void HdModel::bundle(std::uint32_t class_index, std::span<const float> encoded, float lambda) {
  HDC_CHECK(class_index < class_hvs_.rows(), "bundle class index out of range");
  tensor::axpy(lambda, encoded, class_hvs_.row(class_index));
}

void HdModel::detach(std::uint32_t class_index, std::span<const float> encoded, float lambda) {
  HDC_CHECK(class_index < class_hvs_.rows(), "detach class index out of range");
  tensor::axpy(-lambda, encoded, class_hvs_.row(class_index));
}

}  // namespace hdc::core
