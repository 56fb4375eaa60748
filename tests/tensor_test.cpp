#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/model.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace hdc::tensor {
namespace {

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  MatrixF m(rows, cols);
  Rng rng(seed);
  rng.fill_gaussian(m.data(), m.size());
  return m;
}

/// Naive O(mnk) reference used to validate the blocked implementation.
MatrixF naive_matmul(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols(), 0.0F);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a(i, k)) * b(k, j);
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

// --------------------------------------------------------------- Matrix ----

TEST(MatrixTest, DefaultIsEmpty) {
  MatrixF m;
  EXPECT_EQ(m.rows(), 0U);
  EXPECT_EQ(m.cols(), 0U);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, FillConstructor) {
  MatrixF m(3, 4, 2.5F);
  EXPECT_EQ(m.size(), 12U);
  for (const float v : m.storage()) {
    EXPECT_EQ(v, 2.5F);
  }
}

TEST(MatrixTest, InitializerListLayout) {
  MatrixF m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2U);
  EXPECT_EQ(m.cols(), 3U);
  EXPECT_EQ(m.at(0, 2), 3.0F);
  EXPECT_EQ(m.at(1, 0), 4.0F);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((MatrixF{{1, 2}, {3}}), Error);
}

TEST(MatrixTest, StorageConstructorValidatesSize) {
  EXPECT_THROW(MatrixF(2, 3, std::vector<float>{1, 2, 3}), Error);
}

TEST(MatrixTest, AtBoundsChecked) {
  MatrixF m(2, 2);
  EXPECT_THROW(m.at(2, 0), Error);
  EXPECT_THROW(m.at(0, 2), Error);
}

TEST(MatrixTest, RowSpanWritesThrough) {
  MatrixF m(2, 3, 0.0F);
  auto row = m.row(1);
  row[2] = 9.0F;
  EXPECT_EQ(m.at(1, 2), 9.0F);
}

TEST(MatrixTest, RowOutOfRangeThrows) {
  MatrixF m(2, 3);
  EXPECT_THROW(m.row(2), Error);
}

TEST(MatrixTest, EqualityIsElementwise) {
  MatrixF a{{1, 2}, {3, 4}};
  MatrixF b{{1, 2}, {3, 4}};
  MatrixF c{{1, 2}, {3, 5}};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(MatrixTest, SameShape) {
  EXPECT_TRUE(MatrixF(2, 3).same_shape(MatrixF(2, 3)));
  EXPECT_FALSE(MatrixF(2, 3).same_shape(MatrixF(3, 2)));
}

// --------------------------------------------------------------- matmul ----

TEST(MatmulTest, SmallKnownProduct) {
  MatrixF a{{1, 2}, {3, 4}};
  MatrixF b{{5, 6}, {7, 8}};
  const MatrixF c = matmul(a, b);
  EXPECT_EQ(c, (MatrixF{{19, 22}, {43, 50}}));
}

TEST(MatmulTest, IdentityIsNeutral) {
  const MatrixF a = random_matrix(7, 7, 1);
  MatrixF eye(7, 7, 0.0F);
  for (std::size_t i = 0; i < 7; ++i) {
    eye(i, i) = 1.0F;
  }
  const MatrixF c = matmul(a, eye);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(c.storage()[i], a.storage()[i], 1e-5F);
  }
}

TEST(MatmulTest, ShapeMismatchThrows) {
  EXPECT_THROW(matmul(MatrixF(2, 3), MatrixF(4, 2)), Error);
}

struct MatmulShape {
  std::size_t m, k, n;
};

class MatmulShapeTest : public ::testing::TestWithParam<MatmulShape> {};

TEST_P(MatmulShapeTest, BlockedMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const MatrixF a = random_matrix(m, k, m * 131 + k);
  const MatrixF b = random_matrix(k, n, k * 17 + n);
  const MatrixF blocked = matmul(a, b);
  const MatrixF naive = naive_matmul(a, b);
  ASSERT_TRUE(blocked.same_shape(naive));
  for (std::size_t i = 0; i < blocked.size(); ++i) {
    EXPECT_NEAR(blocked.storage()[i], naive.storage()[i],
                1e-3F * (1.0F + std::fabs(naive.storage()[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulShapeTest,
                         ::testing::Values(MatmulShape{1, 1, 1}, MatmulShape{1, 64, 1},
                                           MatmulShape{3, 5, 7}, MatmulShape{64, 64, 64},
                                           MatmulShape{65, 63, 130}, MatmulShape{2, 200, 33},
                                           MatmulShape{128, 1, 128}));

bool same_bits(const MatrixF& x, const MatrixF& y) {
  return x.same_shape(y) && std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// The plain i-k-j float loop: each C element sums a_ik * b_kj in
/// increasing k, skipping a_ik == 0.
MatrixF ikj_matmul(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols(), 0.0F);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      if (a(i, k) == 0.0F) {
        continue;
      }
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += a(i, k) * b(k, j);
      }
    }
  }
  return c;
}

TEST(MatmulTest, TiledKernelMatchesPlainLoopBitForBit) {
  // Shapes cross every blocking edge: k and rows past 64, columns past a
  // 256-column panel and off the 16-column tile; zeroed columns of A take
  // the skip, as a bagging feature mask does.
  for (const MatmulShape shape : {MatmulShape{3, 5, 7}, MatmulShape{70, 130, 300},
                                  MatmulShape{16, 27, 2048}, MatmulShape{2, 65, 17}}) {
    MatrixF a = random_matrix(shape.m, shape.k, shape.k * 7 + 1);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t k = 0; k < a.cols(); k += 3) {
        a(i, k) = 0.0F;
      }
    }
    const MatrixF b = random_matrix(shape.k, shape.n, shape.n * 5 + 2);
    const MatrixF expected = ikj_matmul(a, b);
    EXPECT_TRUE(same_bits(matmul(a, b), expected));
    MatrixF tanh_expected = expected;
    tanh_inplace({tanh_expected.data(), tanh_expected.size()});
    EXPECT_TRUE(same_bits(matmul_tanh(a, b), tanh_expected));
  }
}

TEST(MatmulI8Test, SmallKnownProduct) {
  MatrixI8 a(1, 2);
  a(0, 0) = 3;
  a(0, 1) = -2;
  MatrixI8 b(2, 2);
  b(0, 0) = 10;
  b(0, 1) = -1;
  b(1, 0) = 5;
  b(1, 1) = 4;
  const MatrixI32 c = matmul_i8(a, b);
  EXPECT_EQ(c(0, 0), 20);
  EXPECT_EQ(c(0, 1), -11);
}

TEST(MatmulI8Test, ExtremeValuesDoNotOverflowInt32) {
  // 128 * 127 * 127 fits comfortably in int32; verify no UB at extremes.
  MatrixI8 a(1, 128);
  MatrixI8 b(128, 1);
  for (auto& v : a.storage()) {
    v = -128;
  }
  for (auto& v : b.storage()) {
    v = 127;
  }
  const MatrixI32 c = matmul_i8(a, b);
  EXPECT_EQ(c(0, 0), -128 * 127 * 128);
}

// --------------------------------------------------------------- vector ----

TEST(VecmatTest, MatchesMatmulRow) {
  const MatrixF a = random_matrix(9, 13, 3);
  const MatrixF x = random_matrix(1, 9, 4);
  std::vector<float> y(13);
  vecmat(x.row(0), a, y);
  const MatrixF full = matmul(x, a);
  for (std::size_t j = 0; j < 13; ++j) {
    EXPECT_NEAR(y[j], full(0, j), 1e-4F);
  }
}

TEST(VecmatTest, LengthMismatchThrows) {
  MatrixF a(3, 2);
  std::vector<float> x(4);
  std::vector<float> y(2);
  EXPECT_THROW(vecmat(x, a, y), Error);
}

TEST(AxpyTest, AccumulatesScaled) {
  std::vector<float> x{1, 2, 3};
  std::vector<float> y{10, 10, 10};
  axpy(2.0F, x, y);
  EXPECT_EQ(y, (std::vector<float>{12, 14, 16}));
}

TEST(AxpyTest, MismatchedLengthsThrow) {
  std::vector<float> x{1};
  std::vector<float> y{1, 2};
  EXPECT_THROW(axpy(1.0F, x, y), Error);
}

TEST(DotTest, KnownValue) {
  std::vector<float> a{1, 2, 3};
  std::vector<float> b{4, -5, 6};
  EXPECT_FLOAT_EQ(dot(a, b), 12.0F);
}

TEST(DotTest, StableForWideVectors) {
  // 10k-wide all-ones dot must be exact with double accumulation.
  std::vector<float> a(10000, 1.0F);
  EXPECT_FLOAT_EQ(dot(a, a), 10000.0F);
}

TEST(NormTest, L2KnownValue) {
  std::vector<float> v{3, 4};
  EXPECT_FLOAT_EQ(l2_norm(v), 5.0F);
}

TEST(CosineTest, ParallelVectorsAreOne) {
  std::vector<float> a{1, 2, 3};
  std::vector<float> b{2, 4, 6};
  EXPECT_NEAR(cosine(a, b), 1.0F, 1e-6F);
}

TEST(CosineTest, OrthogonalVectorsAreZero) {
  std::vector<float> a{1, 0};
  std::vector<float> b{0, 5};
  EXPECT_NEAR(cosine(a, b), 0.0F, 1e-6F);
}

TEST(CosineTest, ZeroVectorYieldsZero) {
  std::vector<float> a{0, 0};
  std::vector<float> b{1, 1};
  EXPECT_EQ(cosine(a, b), 0.0F);
}

TEST(ArgmaxTest, FirstOfTiesWins) {
  std::vector<float> v{1, 3, 3, 2};
  EXPECT_EQ(argmax(v), 1U);
}

TEST(ArgmaxTest, EmptyThrows) {
  std::vector<float> v;
  EXPECT_THROW(argmax(v), Error);
}

TEST(ArgmaxI32Test, NegativeValues) {
  std::vector<std::int32_t> v{-5, -1, -9};
  EXPECT_EQ(argmax_i32(v), 1U);
}

TEST(TanhTest, BoundedAndOdd) {
  std::vector<float> v{-100.0F, -1.0F, 0.0F, 1.0F, 100.0F};
  tanh_inplace(v);
  EXPECT_NEAR(v[0], -1.0F, 1e-5F);
  EXPECT_NEAR(v[4], 1.0F, 1e-5F);
  EXPECT_EQ(v[2], 0.0F);
  EXPECT_NEAR(v[1], -v[3], 1e-6F);
}

/// Runs `inputs` through the vector kernel (padded to whole 4-lane groups
/// so no input takes the scalar tail) and checks kernel, scalar port and
/// libm agree bit for bit; a NaN input must give NaN from all three.
void expect_tanh_exact(const std::vector<float>& inputs) {
  std::vector<float> kernel(inputs);
  kernel.resize((inputs.size() + 3) / 4 * 4, 0.0F);
  tanh_inplace(kernel);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const float x = inputs[i];
    const float scalar = tensor::tanh(x);
    const float libm = std::tanh(x);
    if (std::isnan(x)) {
      EXPECT_TRUE(std::isnan(kernel[i]) && std::isnan(scalar) && std::isnan(libm));
      continue;
    }
    const auto bits = std::bit_cast<std::uint32_t>(libm);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(scalar), bits)
        << "scalar, x bits " << std::hex << std::bit_cast<std::uint32_t>(x);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(kernel[i]), bits)
        << "kernel, x bits " << std::hex << std::bit_cast<std::uint32_t>(x);
  }
}

TEST(TanhTest, StridedBitPatternSweepMatchesLibm) {
  std::vector<float> inputs;
  for (std::uint64_t bits = 12345; bits < (1ULL << 32); bits += 4093) {  // ~1M patterns
    inputs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
  }
  expect_tanh_exact(inputs);
}

TEST(TanhTest, BranchBoundariesMatchLibm) {
  // fdlibm's thresholds on |x|: tanh's 2^-55, 1 and 22; expm1's 0.5 ln2,
  // 1.5 ln2, 2^-25 and 27 ln2 (reached as 2|x| or -2|x|, so also halved).
  const std::uint32_t boundaries[] = {0x24000000, 0x3f800000, 0x41b00000, 0x3eb17218,
                                      0x3F851592, 0x33000000, 0x4195b844};
  std::vector<float> inputs;
  for (const std::uint32_t boundary : boundaries) {
    for (const float at : {std::bit_cast<float>(boundary), std::bit_cast<float>(boundary) / 2}) {
      for (const std::uint32_t sign : {0U, 0x80000000U}) {
        const std::uint32_t bits = std::bit_cast<std::uint32_t>(at) | sign;
        for (const std::uint32_t b : {bits - 1, bits, bits + 1}) {
          inputs.push_back(std::bit_cast<float>(b));
        }
      }
    }
  }
  expect_tanh_exact(inputs);
}

TEST(TanhTest, SpecialValuesMatchLibm) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm_min = std::numeric_limits<float>::denorm_min();
  const float norm_min = std::numeric_limits<float>::min();
  expect_tanh_exact({0.0F, -0.0F, denorm_min, -denorm_min, norm_min / 2, -norm_min / 2,
                     std::nextafter(norm_min, 0.0F), -std::nextafter(norm_min, 0.0F), inf,
                     -inf, std::numeric_limits<float>::max(),
                     -std::numeric_limits<float>::max()});
  EXPECT_EQ(std::bit_cast<std::uint32_t>(tensor::tanh(-0.0F)), 0x80000000U);
  EXPECT_EQ(tensor::tanh(inf), 1.0F);
  EXPECT_EQ(tensor::tanh(-inf), -1.0F);
}

TEST(TanhTest, NanMapsToNan) {
  const float quiet = std::numeric_limits<float>::quiet_NaN();
  expect_tanh_exact({quiet, -quiet, std::bit_cast<float>(0x7f800001U),
                     std::bit_cast<float>(0xff800001U), std::bit_cast<float>(0x7fffffffU)});
}

TEST(TanhTest, EverySpanLengthAndOffsetMatchesScalar) {
  std::vector<float> source(16);
  Rng rng(71);
  rng.fill_gaussian(source.data(), source.size(), 0.0F, 3.0F);
  for (std::size_t offset = 0; offset < 4; ++offset) {
    for (std::size_t length = 0; length <= 9; ++length) {
      std::vector<float> values(source);
      tanh_inplace({values.data() + offset, length});
      for (std::size_t i = 0; i < values.size(); ++i) {
        const bool inside = i >= offset && i < offset + length;
        const float expected = inside ? tensor::tanh(source[i]) : source[i];
        ASSERT_EQ(std::bit_cast<std::uint32_t>(values[i]), std::bit_cast<std::uint32_t>(expected))
            << "offset " << offset << " length " << length << " index " << i;
      }
    }
  }
}

// ------------------------------------------------------------- reshape ----

TEST(TransposeTest, RoundTrip) {
  const MatrixF a = random_matrix(5, 8, 6);
  const MatrixF t = transpose(a);
  EXPECT_EQ(t.rows(), 8U);
  EXPECT_EQ(t.cols(), 5U);
  EXPECT_EQ(transpose(t), a);
}

TEST(HstackTest, ConcatenatesColumns) {
  MatrixF a{{1, 2}, {3, 4}};
  MatrixF b{{5}, {6}};
  std::vector<MatrixF> blocks{a, b};
  const MatrixF c = hstack(blocks);
  EXPECT_EQ(c, (MatrixF{{1, 2, 5}, {3, 4, 6}}));
}

TEST(HstackTest, RowMismatchThrows) {
  std::vector<MatrixF> blocks{MatrixF(2, 2), MatrixF(3, 2)};
  EXPECT_THROW(hstack(blocks), Error);
}

TEST(VstackTest, ConcatenatesRows) {
  MatrixF a{{1, 2}};
  MatrixF b{{3, 4}, {5, 6}};
  std::vector<MatrixF> blocks{a, b};
  const MatrixF c = vstack(blocks);
  EXPECT_EQ(c, (MatrixF{{1, 2}, {3, 4}, {5, 6}}));
}

TEST(VstackTest, ColumnMismatchThrows) {
  std::vector<MatrixF> blocks{MatrixF(2, 2), MatrixF(2, 3)};
  EXPECT_THROW(vstack(blocks), Error);
}

TEST(MinMaxTest, FindsExtremes) {
  MatrixF m{{3, -7}, {11, 0}};
  const auto [lo, hi] = min_max(m);
  EXPECT_EQ(lo, -7.0F);
  EXPECT_EQ(hi, 11.0F);
}

TEST(MinMaxTest, EmptyThrows) { EXPECT_THROW(min_max(MatrixF()), Error); }

// Property: hstack then slicing back the blocks via matmul is consistent
// with per-block products (the stacking identity behind the bagged model).
TEST(StackPropertyTest, MatmulDistributesOverHstack) {
  const MatrixF x = random_matrix(4, 6, 10);
  const MatrixF b1 = random_matrix(6, 5, 11);
  const MatrixF b2 = random_matrix(6, 3, 12);
  std::vector<MatrixF> blocks{b1, b2};
  const MatrixF stacked = matmul(x, hstack(blocks));
  const MatrixF p1 = matmul(x, b1);
  const MatrixF p2 = matmul(x, b2);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(stacked(i, j), p1(i, j), 1e-4F);
    }
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(stacked(i, 5 + j), p2(i, j), 1e-4F);
    }
  }
}

// ---------------------------------------------- scoring with cached norms ----

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(CosineNormsTest, SuppliedNormsGiveTheSameBits) {
  const MatrixF m = random_matrix(12, 2048, 41);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.rows(); ++j) {
      const float plain = cosine(m.row(i), m.row(j));
      const float normed = cosine(m.row(i), m.row(j), l2_norm(m.row(i)), l2_norm(m.row(j)));
      EXPECT_TRUE(same_bits({&plain, 1}, {&normed, 1})) << i << "," << j;
    }
  }
}

TEST(CosineNormsTest, ZeroNormGuardMatches) {
  const std::vector<float> zero(64, 0.0F);
  const MatrixF m = random_matrix(1, 64, 42);
  EXPECT_EQ(cosine(zero, m.row(0), 0.0F, l2_norm(m.row(0))), 0.0F);
  EXPECT_EQ(cosine(m.row(0), zero, l2_norm(m.row(0)), 0.0F), 0.0F);
  EXPECT_EQ(cosine(zero, m.row(0)), 0.0F);
}

TEST(CosineNormsTest, ModelScoresWithClassNormsMatchPlainScores) {
  core::HdModel model(random_matrix(5, 2048, 43));
  model.class_hypervectors().row(3)[0] = 0.0F;
  const MatrixF queries = random_matrix(20, 2048, 44);
  const std::vector<float> norms = model.class_norms();
  ASSERT_EQ(norms.size(), 5U);
  for (const core::Similarity metric : {core::Similarity::kCosine, core::Similarity::kDot}) {
    for (std::size_t i = 0; i < queries.rows(); ++i) {
      EXPECT_TRUE(same_bits(model.scores(queries.row(i), metric, norms),
                            model.scores(queries.row(i), metric)))
          << "query " << i;
    }
  }
  EXPECT_THROW(model.scores(queries.row(0), core::Similarity::kCosine, {}), Error);
}

TEST(CosineNormsTest, PredictBatchMatchesPerRowPredictAtAnyThreadCount) {
  const core::HdModel model(random_matrix(7, 512, 45));
  const MatrixF queries = random_matrix(53, 512, 46);
  std::vector<std::uint32_t> per_row;
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    per_row.push_back(model.predict(queries.row(i), core::Similarity::kCosine));
  }
  for (const std::size_t threads : {1U, 4U}) {
    parallel::set_num_threads(threads);
    EXPECT_EQ(model.predict_batch(queries, core::Similarity::kCosine), per_row);
  }
  parallel::set_num_threads(0);
}

}  // namespace
}  // namespace hdc::tensor
