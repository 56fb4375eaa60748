#pragma once

// Four-lane float/int vectors for the tensor kernels, written with GCC/Clang
// vector extensions. Four lanes lower to SSE2 on x86-64 and NEON on aarch64,
// both baseline ISAs, so the kernels need no runtime dispatch. Private to
// src/tensor.

#include <cstdint>
#include <cstring>

namespace hdc::tensor::vec4 {

typedef float F4 __attribute__((vector_size(16)));
typedef std::int32_t I4 __attribute__((vector_size(16)));
typedef std::uint32_t U4 __attribute__((vector_size(16)));

inline F4 load(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store(float* p, F4 v) { std::memcpy(p, &v, sizeof(v)); }

}  // namespace hdc::tensor::vec4
