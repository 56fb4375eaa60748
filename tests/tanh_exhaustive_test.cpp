// The 4-lane tanh kernel against the scalar port on all 2^32 float bit
// patterns, spread over the host thread pool (about a minute of CPU per
// core on a 4-core host, hence tier2). tensor_test checks both against libm
// on a strided sweep and at every branch boundary.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "tensor/ops.hpp"

namespace hdc::tensor {
namespace {

TEST(TanhExhaustiveTest, KernelMatchesScalarOnEveryBitPattern) {
  constexpr std::uint64_t kBlock = 1ULL << 16;
  constexpr std::uint64_t kBlocks = (1ULL << 32) / kBlock;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> first_mismatch{~0ULL};
  parallel::parallel_for(0, kBlocks, [&](std::size_t lo, std::size_t hi) {
    std::vector<float> values(kBlock);
    for (std::size_t block = lo; block < hi; ++block) {
      const std::uint64_t base = block * kBlock;
      for (std::uint64_t i = 0; i < kBlock; ++i) {
        values[i] = std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
      }
      tanh_inplace(values);
      for (std::uint64_t i = 0; i < kBlock; ++i) {
        const auto bits = static_cast<std::uint32_t>(base + i);
        const float scalar = tensor::tanh(std::bit_cast<float>(bits));
        const bool same = std::isnan(scalar)
                              ? std::isnan(values[i])
                              : std::bit_cast<std::uint32_t>(scalar) ==
                                    std::bit_cast<std::uint32_t>(values[i]);
        if (!same) {
          mismatches.fetch_add(1);
          std::uint64_t seen = first_mismatch.load();
          while (base + i < seen && !first_mismatch.compare_exchange_weak(seen, base + i)) {
          }
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0U) << "first at bits 0x" << std::hex << first_mismatch.load();
}

}  // namespace
}  // namespace hdc::tensor
