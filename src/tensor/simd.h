#ifndef INFUSERKI_TENSOR_SIMD_H_
#define INFUSERKI_TENSOR_SIMD_H_

// Generic vector helpers shared by the GEMM kernel (gemm.cc) and the
// attention backward (ops.cc). Internal to src/tensor.

#include <algorithm>
#include <cstddef>
#include <utility>

namespace infuserki::tensor::internal {

// GCC/Clang generic vectors as wide as the target keeps in registers: 16
// floats under AVX-512, 8 under AVX, 4 under SSE or NEON. Lanes never mix,
// so the width changes speed, never an element's arithmetic.
constexpr size_t kVecBytes =
    std::clamp<size_t>(__BIGGEST_ALIGNMENT__, 16, 16 * sizeof(float));
constexpr size_t kLanes = kVecBytes / sizeof(float);
using Vec = float __attribute__((vector_size(kVecBytes)));

// One stage of an in-register kLanes x kLanes transpose: rows i and i + S
// trade their off-diagonal S-wide blocks. After stages S = kLanes / 2, ...,
// 1, row i holds what was column i. Both are forced inline: as templates
// with external linkage they miss the inliner's called-once bonus, and an
// out-of-line stage costs more than its shuffles.
template <size_t S, size_t... L>
[[gnu::always_inline]] inline void SwapBlocks(Vec& lo, Vec& hi,
                                              std::index_sequence<L...>) {
  Vec a = lo;
  lo = __builtin_shufflevector(a, hi, ((L & S) ? kLanes + L - S : L)...);
  hi = __builtin_shufflevector(a, hi, ((L & S) ? kLanes + L : L + S)...);
}

template <size_t S = kLanes / 2>
[[gnu::always_inline]] inline void Transpose(Vec* rows) {
#pragma GCC unroll 16
  for (size_t i = 0; i < kLanes; ++i) {
    if ((i & S) == 0) {
      SwapBlocks<S>(rows[i], rows[i + S], std::make_index_sequence<kLanes>());
    }
  }
  if constexpr (S > 1) Transpose<S / 2>(rows);
}

}  // namespace infuserki::tensor::internal

#endif  // INFUSERKI_TENSOR_SIMD_H_
