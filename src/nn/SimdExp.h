//===- SimdExp.h - shared vectorized exp/reduction kernels ------*- C++ -*-===//
///
/// \file
/// The exp kernel shared by every softmax in the system: the autograd
/// softmaxRows op (training and the graph-path oracle), the graph-free
/// inference runtime's encoder softmax, and the batched decode attention.
/// Keeping ONE definition is what makes the inference fast path
/// bit-identical to the training graph: both sides call the same code, so
/// their rounding can never diverge.
///
/// expPsScalar mirrors one lane of exp256Ps operation for operation
/// (std::fma where the vector code uses fmadd, separate rounding steps
/// elsewhere), so vector blocks and scalar tails of one row agree bitwise.
/// Builds without AVX2+FMA fall back to std::exp everywhere — still one
/// definition per build, so cross-path bit-exactness holds on every
/// target.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_SIMDEXP_H
#define SLADE_NN_SIMDEXP_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace slade {
namespace nn {

#if defined(__AVX2__) && defined(__FMA__)
#define SLADE_SIMD_EXP 1

/// Polynomial expf (Cephes coefficients, ~1e-7 relative error), 8-wide.
/// Used inside softmax where the argument is <= 0; the clamp keeps
/// denormal/overflow inputs finite.
inline __m256 exp256Ps(__m256 X) {
  const __m256 Hi = _mm256_set1_ps(88.3762626647950f);
  const __m256 Lo = _mm256_set1_ps(-87.3365478515625f);
  X = _mm256_min_ps(_mm256_max_ps(X, Lo), Hi);
  const __m256 Log2E = _mm256_set1_ps(1.44269504088896341f);
  __m256 Fx = _mm256_round_ps(_mm256_mul_ps(X, Log2E),
                              _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  X = _mm256_fnmadd_ps(Fx, _mm256_set1_ps(0.693359375f), X);
  X = _mm256_fnmadd_ps(Fx, _mm256_set1_ps(-2.12194440e-4f), X);
  __m256 Y = _mm256_set1_ps(1.9875691500e-4f);
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(1.3981999507e-3f));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(8.3334519073e-3f));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(4.1665795894e-2f));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(1.6666665459e-1f));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(5.0000001201e-1f));
  __m256 X2 = _mm256_mul_ps(X, X);
  Y = _mm256_fmadd_ps(Y, X2, _mm256_add_ps(X, _mm256_set1_ps(1.0f)));
  __m256i N = _mm256_cvtps_epi32(Fx);
  N = _mm256_slli_epi32(_mm256_add_epi32(N, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(Y, _mm256_castsi256_ps(N));
}

/// One lane of exp256Ps, operation for operation: explicit std::fma where
/// the vector code fuses, separate rounding steps where it does not. Row
/// tails computed here agree bitwise with the vector blocks.
inline float expPsScalar(float X) {
  X = std::min(std::max(X, -87.3365478515625f), 88.3762626647950f);
  float Fx = std::nearbyintf(X * 1.44269504088896341f);
  X = std::fma(-Fx, 0.693359375f, X);
  X = std::fma(-Fx, -2.12194440e-4f, X);
  float Y = 1.9875691500e-4f;
  Y = std::fma(Y, X, 1.3981999507e-3f);
  Y = std::fma(Y, X, 8.3334519073e-3f);
  Y = std::fma(Y, X, 4.1665795894e-2f);
  Y = std::fma(Y, X, 1.6666665459e-1f);
  Y = std::fma(Y, X, 5.0000001201e-1f);
  float X2 = X * X;
  Y = std::fma(Y, X2, X + 1.0f);
  int32_t N = static_cast<int32_t>(Fx); // Fx is integral after the round.
  uint32_t Bits = static_cast<uint32_t>(N + 127) << 23;
  float Pow2;
  std::memcpy(&Pow2, &Bits, sizeof(float));
  return Y * Pow2;
}

inline float hsum256(__m256 V) {
  __m128 S = _mm_add_ps(_mm256_castps256_ps128(V),
                        _mm256_extractf128_ps(V, 1));
  S = _mm_add_ps(S, _mm_movehl_ps(S, S));
  S = _mm_add_ss(S, _mm_movehdup_ps(S));
  return _mm_cvtss_f32(S);
}

/// Eight horizontal sums at once: lane J of the result is hsum256(A[J]),
/// bit for bit. Each level is hsum256's add with the same operands,
/// applied to all eight inputs in one register: lo+hi, then lanes 0+2 and
/// 1+3, then 0+1. Inputs J and J+4 share a register in the first level
/// so the sums come out in natural order.
inline __m256 hsum8x256(const __m256 A[8]) {
  __m256 B[4];
  for (int J = 0; J < 4; ++J)
    B[J] = _mm256_add_ps(_mm256_permute2f128_ps(A[J], A[J + 4], 0x20),
                         _mm256_permute2f128_ps(A[J], A[J + 4], 0x31));
  __m256 C01 = _mm256_add_ps(_mm256_shuffle_ps(B[0], B[1], 0x44),
                             _mm256_shuffle_ps(B[0], B[1], 0xEE));
  __m256 C23 = _mm256_add_ps(_mm256_shuffle_ps(B[2], B[3], 0x44),
                             _mm256_shuffle_ps(B[2], B[3], 0xEE));
  return _mm256_add_ps(_mm256_shuffle_ps(C01, C23, 0x88),
                       _mm256_shuffle_ps(C01, C23, 0xDD));
}

inline float hmax256(__m256 V) {
  __m128 S = _mm_max_ps(_mm256_castps256_ps128(V),
                        _mm256_extractf128_ps(V, 1));
  S = _mm_max_ps(S, _mm_movehl_ps(S, S));
  S = _mm_max_ss(S, _mm_movehdup_ps(S));
  return _mm_cvtss_f32(S);
}

#else // !(__AVX2__ && __FMA__)

/// Scalar fallback: std::exp. Slower, but every softmax in the build uses
/// it, so the graph path and the inference runtime still agree bitwise.
inline float expPsScalar(float X) { return std::exp(X); }

#endif

} // namespace nn
} // namespace slade

#endif // SLADE_NN_SIMDEXP_H
