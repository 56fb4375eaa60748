#pragma once

#include <cstdint>
#include <span>

#include "tensor/matrix.hpp"

namespace hdc::tensor {

/// C = A * B  (float, row-major, blocked for cache efficiency). Row blocks
/// run on the host worker pool (see common/parallel.hpp); results are
/// bit-identical for any thread count.
MatrixF matmul(const MatrixF& a, const MatrixF& b);

/// C = tanh(A * B): the HDC batch-encode kernel, with the non-linearity
/// fused into each parallel row block.
MatrixF matmul_tanh(const MatrixF& a, const MatrixF& b);

/// y = x * A  for a single row vector x (1 x k) and matrix A (k x n).
void vecmat(std::span<const float> x, const MatrixF& a, std::span<float> y);

/// C(int32) = A(int8) * B(int8), the reference the systolic array is tested
/// against. Accumulation in int32, no saturation (matches MXU semantics).
MatrixI32 matmul_i8(const MatrixI8& a, const MatrixI8& b);

/// y += alpha * x.
void axpy(float alpha, std::span<const float> x, std::span<float> y);

float dot(std::span<const float> a, std::span<const float> b);
float l2_norm(std::span<const float> v);

/// Cosine similarity; returns 0 when either vector has zero norm.
float cosine(std::span<const float> a, std::span<const float> b);

/// `cosine` with both norms supplied (each as `l2_norm` computes it): the
/// same expression and zero guard, for callers that score one query against
/// many vectors whose norms they already hold.
float cosine(std::span<const float> a, std::span<const float> b, float norm_a,
             float norm_b);

/// Index of the maximum element (first occurrence on ties).
std::size_t argmax(std::span<const float> v);
std::size_t argmax_i32(std::span<const std::int32_t> v);

/// tanh(x), computed by the library rather than libm: the fdlibm `tanhf`
/// algorithm (glibc's among others), bit for bit, on every input. Simulated
/// outputs therefore do not depend on the platform's libm.
float tanh(float x);

/// Elementwise `tanh` in place: a 4-lane vector kernel (SSE2 / NEON) whose
/// every result equals the scalar `tanh` bit for bit.
void tanh_inplace(std::span<float> v);

/// B = A^T.
MatrixF transpose(const MatrixF& a);

/// Horizontal concatenation [A | B | ...]: equal row counts required.
MatrixF hstack(std::span<const MatrixF> blocks);
/// Vertical concatenation: equal column counts required.
MatrixF vstack(std::span<const MatrixF> blocks);

/// Min / max over all elements (matrix must be non-empty).
struct MinMax {
  float min;
  float max;
};
MinMax min_max(const MatrixF& a);

}  // namespace hdc::tensor
