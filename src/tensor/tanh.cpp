// The encoder's non-linearity, owned by the library instead of libm.
//
// `tanh` is a scalar port of the fdlibm `tanhf`/`expm1f` pair (the float
// tanh glibc ships, among others). `tanh_inplace` evaluates the same
// algorithm four lanes at a time (tensor/vec4.hpp): every lane computes
// every branch with the same IEEE single-precision operations in the same
// order (or an exact equivalent, such as a sign flip by xor), and masks pick
// each lane's result, so kernel, port and fdlibm agree bit for bit on every
// input.
//
// Exactness needs every operation rounded on its own: no a*b+c contracted
// into an FMA. GCC's ISO mode (the build uses -std=c++20) already keeps
// contraction off; Clang needs the pragma.

#include <bit>
#include <cstdint>
#include <limits>

#include "tensor/ops.hpp"
#include "tensor/vec4.hpp"

#if defined(__clang__)
#pragma clang fp contract(off)
#endif

namespace hdc::tensor {
namespace {

// fdlibm s_tanhf.c / s_expm1f.c constants.
constexpr float kOne = 1.0F;
constexpr float kTwo = 2.0F;
constexpr float kTiny = 1.0e-30F;
constexpr float kHuge = 1.0e+30F;
constexpr float kLn2Hi = 6.9313812256e-01F;  // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06F;  // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00F;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02F;     // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03F;      // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05F;     // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06F;      // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07F;     // 0xb457edbb

// |x| thresholds on the bit pattern with the sign cleared.
constexpr std::int32_t kTanhTiny = 0x24000000;      // 2^-55: tanh(x) = x*(1+x)
constexpr std::int32_t kTanhOne = 0x3f800000;       // 1: which expm1 form
constexpr std::int32_t kTanhSat = 0x41b00000;       // 22: tanh(x) = +-1
constexpr std::int32_t kExpHalfLn2 = 0x3eb17218;    // 0.5*ln2: reduce above
constexpr std::int32_t kExpOneHalfLn2 = 0x3F851592;  // 1.5*ln2: k = -1 below
constexpr std::int32_t kExpTiny = 0x33000000;       // 2^-25: expm1(x) = x

constexpr std::int32_t kAbsMask = 0x7fffffff;
constexpr std::int32_t kSignBit = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kInfBits = 0x7f800000;

using vec4::F4;
using vec4::I4;
using vec4::U4;

// expm1f as `tanh` calls it: x = 2|y| >= 2 or x = -2|y| > -2 with
// 2^-55 <= |y| < 22. So |x| < 44, the overflow, NaN and "x < -27 ln2" exits
// of expm1f are unreachable, and only k in {-3..0} (x < 0) and {3..63}
// (x > 0) occur; fdlibm's k = +1 branch (0.35 < x < 1.04) is left out.
float expm1_for_tanh(float x) {
  const auto hx = std::bit_cast<std::int32_t>(x) & kAbsMask;
  const bool negative = std::bit_cast<std::int32_t>(x) < 0;

  float c = 0.0F;
  std::int32_t k = 0;
  if (hx > kExpHalfLn2) {
    float hi = 0.0F;
    float lo = 0.0F;
    if (hx < kExpOneHalfLn2) {  // only negative x: positive ones are >= 2
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (negative ? -0.5F : 0.5F));
      const auto t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t*ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < kExpTiny) {
    const float t = kHuge + x;
    return x - (t - (kHuge + x));
  }

  // x is now in the primary range.
  const float hfx = 0.5F * x;
  const float hxs = x * hfx;
  const float r1 = kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0F - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0F - x * t));
  if (k == 0) {
    return x - (x * e - hxs);
  }
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) {
    return 0.5F * (x - e) - 0.5F;
  }
  // "add k to y's exponent", on the bit pattern.
  const auto scale = [k](float y) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(y) +
                                (static_cast<std::uint32_t>(k) << 23));
  };
  if (k <= -2 || k > 56) {
    return scale(kOne - (e - x)) - kOne;
  }
  if (k < 23) {
    t = std::bit_cast<float>(0x3f800000 - (0x1000000 >> k));  // 1 - 2^-k
    return scale(t - (e - x));
  }
  t = std::bit_cast<float>((0x7f - k) << 23);  // 2^-k
  float y = x - (e + t);
  y += kOne;
  return scale(y);
}

// ---------------------------------------------------------------- 4 lanes

/// Per lane: `mask ? a : b`, for masks from vector comparisons (all bits
/// set or clear).
inline F4 select(I4 mask, F4 a, F4 b) {
  return std::bit_cast<F4>((mask & std::bit_cast<I4>(a)) | (~mask & std::bit_cast<I4>(b)));
}

inline I4 select(I4 mask, I4 a, I4 b) { return (mask & a) | (~mask & b); }

inline bool any(I4 mask) { return (mask[0] | mask[1] | mask[2] | mask[3]) != 0; }

/// `expm1_for_tanh` per lane; lanes outside that domain must hold 0, which
/// keeps every float->int conversion below in range.
inline F4 expm1_for_tanh(F4 x) {
  const I4 bits = std::bit_cast<I4>(x);
  const I4 hx = bits & kAbsMask;
  const I4 reduce = hx > kExpHalfLn2;
  const I4 near = reduce & (hx < kExpOneHalfLn2);

  // k: -1 below 1.5 ln2 (only x < 0 get there), the rounded quotient above
  // it, 0 unreduced. With t = -1 the general hi/lo below equal fdlibm's
  // near branch x + ln2_hi and -ln2_lo exactly, so one formula serves both.
  const F4 half = std::bit_cast<F4>((bits & kSignBit) | std::bit_cast<std::int32_t>(0.5F));
  const I4 k_far = __builtin_convertvector(kInvLn2 * x + half, I4);
  const I4 k = select(reduce, select(near, I4{} - 1, k_far), I4{});
  const F4 tk = __builtin_convertvector(k, F4);
  const F4 hi = x - tk * kLn2Hi;
  const F4 lo = tk * kLn2Lo;
  const F4 reduced = hi - lo;
  const F4 c = (hi - reduced) - lo;
  const F4 xr = select(reduce, reduced, x);

  const F4 hfx = 0.5F * xr;
  const F4 hxs = xr * hfx;
  const F4 r1 = kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const F4 t = 3.0F - r1 * hfx;
  F4 e = hxs * ((r1 - t) / (6.0F - xr * t));
  const F4 result_k0 = xr - (xr * e - hxs);
  e = (xr * (e - c) - c);
  e -= hxs;
  const F4 result_km1 = 0.5F * (xr - e) - 0.5F;

  const U4 exponent_step = std::bit_cast<U4>(k) << 23;
  const auto scale = [&](F4 y) {
    return std::bit_cast<F4>(std::bit_cast<U4>(y) + exponent_step);
  };
  // 2^-k for k in {-3..63}: a normal float, so built from its exponent.
  const F4 pow2_neg_k = std::bit_cast<F4>((0x7f - k) << 23);
  const F4 result_wide = scale(kOne - (e - xr)) - kOne;          // k <= -2, k > 56
  const F4 result_small = scale((kOne - pow2_neg_k) - (e - xr));  // k < 23 (exact 1-2^-k)
  F4 y = xr - (e + pow2_neg_k);                                   // 23 <= k <= 56
  y += kOne;
  const F4 result_large = scale(y);

  F4 result = select(k < 23, result_small, result_large);
  result = select((k <= -2) | (k > 56), result_wide, result);
  result = select(k == -1, result_km1, result);
  result = select(k == 0, result_k0, result);
  const F4 t_tiny = kHuge + x;
  return select(hx < kExpTiny, x - (t_tiny - (kHuge + x)), result);
}

inline F4 tanh4(F4 x) {
  const I4 jx = std::bit_cast<I4>(x);
  const I4 ix = jx & kAbsMask;
  const F4 ax = std::bit_cast<F4>(ix);
  const I4 above_one = ix >= kTanhOne;
  const I4 general = (ix >= kTanhTiny) & (ix < kTanhSat);

  // 2|x| or -2|x|: the product's sign is exact, so flipping it equals -2*|x|.
  const F4 arg = std::bit_cast<F4>(std::bit_cast<I4>(kTwo * ax) | (~above_one & kSignBit));
  const F4 t = expm1_for_tanh(select(general, arg, F4{}));
  // |x| >= 1: 1 - 2/(t+2); |x| < 1: -t/(t+2). One division serves both.
  const F4 q = select(above_one, F4{} + kTwo, -t) / (t + kTwo);
  F4 z = select(above_one, kOne - q, q);
  z = select(ix >= kTanhSat, F4{} + (kOne - kTiny), z);
  F4 result = std::bit_cast<F4>(std::bit_cast<I4>(z) ^ (jx & kSignBit));  // -z for x < 0
  // Also +-0: x*(1+x) returns x there, as fdlibm's own zero branch does.
  result = select(ix < kTanhTiny, x * (kOne + x), result);
  const I4 special = ix >= kInfBits;
  if (any(special)) {  // +-inf -> +-1, NaN -> NaN
    result = select(special, select(jx >= 0, kOne / x + kOne, kOne / x - kOne), result);
  }
  return result;
}

}  // namespace

float tanh(float x) {
  const auto jx = std::bit_cast<std::int32_t>(x);
  const std::int32_t ix = jx & kAbsMask;
  if (ix >= kInfBits) {
    return jx >= 0 ? kOne / x + kOne : kOne / x - kOne;
  }
  float z = 0.0F;
  if (ix < kTanhSat) {
    if (ix == 0) {
      return x;
    }
    if (ix < kTanhTiny) {
      return x * (kOne + x);
    }
    const float ax = std::bit_cast<float>(ix);
    if (ix >= kTanhOne) {
      const float t = expm1_for_tanh(kTwo * ax);
      z = kOne - kTwo / (t + kTwo);
    } else {
      const float t = expm1_for_tanh(-kTwo * ax);
      z = -t / (t + kTwo);
    }
  } else {
    z = kOne - kTiny;
  }
  return jx >= 0 ? z : -z;
}

void tanh_inplace(std::span<float> v) {
  std::size_t i = 0;
  for (; i + 4 <= v.size(); i += 4) {
    vec4::store(v.data() + i, tanh4(vec4::load(v.data() + i)));
  }
  for (; i < v.size(); ++i) {
    v[i] = tanh(v[i]);
  }
}

}  // namespace hdc::tensor
