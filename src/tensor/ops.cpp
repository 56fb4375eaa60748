#include "tensor/ops.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/parallel.hpp"
#include "tensor/vec4.hpp"

namespace hdc::tensor {
namespace {

// Row blocks of A against k x column panels of B, sized so a panel stays in
// cache across the rows of a block. Within a panel each row keeps a
// 16-column tile of C in four vector registers over every k and stores it
// once. Each C element still sums a_ik * b_kj in increasing k, skipping
// a_ik == 0, so the tiling changes no bit of the result; and row blocks are
// independent, so computing [row_begin, row_end) on different threads is
// bit-identical to the serial loop.
void matmul_rows(const MatrixF& a, const MatrixF& b, MatrixF& c, std::size_t row_begin,
                 std::size_t row_end) {
  using vec4::F4;
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  constexpr std::size_t kBlock = 64;
  constexpr std::size_t kPanelCols = 256;
  constexpr std::size_t kTile = 16;
  std::array<std::size_t, kBlock> live{};  // the block's k with a_ik != 0
  for (std::size_t i0 = row_begin; i0 < row_end; i0 += kBlock) {
    const std::size_t i_end = std::min(i0 + kBlock, row_end);
    for (std::size_t k0 = 0; k0 < k; k0 += kBlock) {
      const std::size_t k_end = std::min(k0 + kBlock, k);
      for (std::size_t j0 = 0; j0 < n; j0 += kPanelCols) {
        const std::size_t j_end = std::min(j0 + kPanelCols, n);
        for (std::size_t i = i0; i < i_end; ++i) {
          const float* a_row = a.data() + i * k;
          std::size_t live_count = 0;
          for (std::size_t kk = k0; kk < k_end; ++kk) {
            if (a_row[kk] != 0.0F) {  // bagging feature masks zero whole columns of A
              live[live_count++] = kk;
            }
          }
          float* c_row = c.data() + i * n;
          std::size_t j = j0;
          for (; j + kTile <= j_end; j += kTile) {
            F4 acc0 = vec4::load(c_row + j);
            F4 acc1 = vec4::load(c_row + j + 4);
            F4 acc2 = vec4::load(c_row + j + 8);
            F4 acc3 = vec4::load(c_row + j + 12);
            for (std::size_t l = 0; l < live_count; ++l) {
              const float a_ik = a_row[live[l]];
              const float* b_tile = b.data() + live[l] * n + j;
              acc0 += a_ik * vec4::load(b_tile);
              acc1 += a_ik * vec4::load(b_tile + 4);
              acc2 += a_ik * vec4::load(b_tile + 8);
              acc3 += a_ik * vec4::load(b_tile + 12);
            }
            vec4::store(c_row + j, acc0);
            vec4::store(c_row + j + 4, acc1);
            vec4::store(c_row + j + 8, acc2);
            vec4::store(c_row + j + 12, acc3);
          }
          for (; j < j_end; ++j) {
            float acc = c_row[j];
            for (std::size_t l = 0; l < live_count; ++l) {
              acc += a_row[live[l]] * b(live[l], j);
            }
            c_row[j] = acc;
          }
        }
      }
    }
  }
}

}  // namespace

MatrixF matmul(const MatrixF& a, const MatrixF& b) {
  HDC_CHECK(a.cols() == b.rows(), "matmul inner dimensions disagree");
  MatrixF c(a.rows(), b.cols(), 0.0F);
  parallel::parallel_for(0, a.rows(), [&](std::size_t lo, std::size_t hi) {
    matmul_rows(a, b, c, lo, hi);
  });
  return c;
}

MatrixF matmul_tanh(const MatrixF& a, const MatrixF& b) {
  HDC_CHECK(a.cols() == b.rows(), "matmul inner dimensions disagree");
  MatrixF c(a.rows(), b.cols(), 0.0F);
  const std::size_t n = b.cols();
  parallel::parallel_for(0, a.rows(), [&](std::size_t lo, std::size_t hi) {
    matmul_rows(a, b, c, lo, hi);
    // tanh fused per row block: each row is finished (its full k reduction
    // done above) before the non-linearity touches it.
    tanh_inplace({c.data() + lo * n, (hi - lo) * n});
  });
  return c;
}

void vecmat(std::span<const float> x, const MatrixF& a, std::span<float> y) {
  HDC_CHECK(x.size() == a.rows(), "vecmat input length disagrees with matrix rows");
  HDC_CHECK(y.size() == a.cols(), "vecmat output length disagrees with matrix cols");
  std::fill(y.begin(), y.end(), 0.0F);
  const std::size_t n = a.cols();
  for (std::size_t k = 0; k < x.size(); ++k) {
    const float xk = x[k];
    if (xk == 0.0F) {
      continue;
    }
    const float* row = a.data() + k * n;
    for (std::size_t j = 0; j < n; ++j) {
      y[j] += xk * row[j];
    }
  }
}

MatrixI32 matmul_i8(const MatrixI8& a, const MatrixI8& b) {
  HDC_CHECK(a.cols() == b.rows(), "matmul_i8 inner dimensions disagree");
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  MatrixI32 c(m, n, 0);
  parallel::parallel_for(0, m, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::int32_t* c_row = c.data() + i * n;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const std::int32_t a_ik = a(i, kk);
        if (a_ik == 0) {
          continue;
        }
        const std::int8_t* b_row = b.data() + kk * n;
        for (std::size_t j = 0; j < n; ++j) {
          c_row[j] += a_ik * static_cast<std::int32_t>(b_row[j]);
        }
      }
    }
  });
  return c;
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  HDC_CHECK(x.size() == y.size(), "axpy length mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += alpha * x[i];
  }
}

float dot(std::span<const float> a, std::span<const float> b) {
  HDC_CHECK(a.size() == b.size(), "dot length mismatch");
  double acc = 0.0;  // double accumulation keeps 10k-wide dots stable
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return static_cast<float>(acc);
}

float l2_norm(std::span<const float> v) {
  double acc = 0.0;
  for (const float x : v) {
    acc += static_cast<double>(x) * static_cast<double>(x);
  }
  return static_cast<float>(std::sqrt(acc));
}

float cosine(std::span<const float> a, std::span<const float> b) {
  return cosine(a, b, l2_norm(a), l2_norm(b));
}

float cosine(std::span<const float> a, std::span<const float> b, float norm_a,
             float norm_b) {
  if (norm_a == 0.0F || norm_b == 0.0F) {
    return 0.0F;
  }
  return dot(a, b) / (norm_a * norm_b);
}

std::size_t argmax(std::span<const float> v) {
  HDC_CHECK(!v.empty(), "argmax of empty span");
  return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) - v.begin());
}

std::size_t argmax_i32(std::span<const std::int32_t> v) {
  HDC_CHECK(!v.empty(), "argmax of empty span");
  return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) - v.begin());
}

MatrixF transpose(const MatrixF& a) {
  MatrixF t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      t(j, i) = a(i, j);
    }
  }
  return t;
}

MatrixF hstack(std::span<const MatrixF> blocks) {
  HDC_CHECK(!blocks.empty(), "hstack of zero blocks");
  const std::size_t rows = blocks.front().rows();
  std::size_t cols = 0;
  for (const auto& block : blocks) {
    HDC_CHECK(block.rows() == rows, "hstack blocks must share a row count");
    cols += block.cols();
  }
  MatrixF out(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    std::size_t offset = 0;
    for (const auto& block : blocks) {
      std::copy_n(block.data() + i * block.cols(), block.cols(),
                  out.data() + i * cols + offset);
      offset += block.cols();
    }
  }
  return out;
}

MatrixF vstack(std::span<const MatrixF> blocks) {
  HDC_CHECK(!blocks.empty(), "vstack of zero blocks");
  const std::size_t cols = blocks.front().cols();
  std::size_t rows = 0;
  for (const auto& block : blocks) {
    HDC_CHECK(block.cols() == cols, "vstack blocks must share a column count");
    rows += block.rows();
  }
  MatrixF out(rows, cols);
  std::size_t row_offset = 0;
  for (const auto& block : blocks) {
    std::copy_n(block.data(), block.size(), out.data() + row_offset * cols);
    row_offset += block.rows();
  }
  return out;
}

MinMax min_max(const MatrixF& a) {
  HDC_CHECK(!a.empty(), "min_max of empty matrix");
  const auto [lo, hi] = std::minmax_element(a.storage().begin(), a.storage().end());
  return {*lo, *hi};
}

}  // namespace hdc::tensor
