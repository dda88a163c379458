#ifndef INFUSERKI_TESTS_GEMM_REFERENCE_H_
#define INFUSERKI_TESTS_GEMM_REFERENCE_H_

#include <cstddef>

// Scalar reference GEMMs: the loops tensor::GemmNN / GemmNT / GemmTN
// replaced, kept single-threaded as the oracle for tests/gemm_kernel_test.cc
// and the baseline for bench_micro_tensor's GEMM shapes. Not bit-identical
// to the kernel: GemmAcc and GemmTNAcc accumulate straight into C and skip
// zero multipliers (so 0 * Inf gives 0 here, NaN in the kernel).

namespace infuserki::testing {

// C[m,n] += A[m,k] * B[k,n]
inline void GemmAcc(const float* a, const float* b, float* c, size_t m,
                    size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    const float* a_row = a + i * k;
    for (size_t p = 0; p < k; ++p) {
      float av = a_row[p];
      if (av == 0.0f) continue;
      const float* b_row = b + p * n;
      for (size_t j = 0; j < n; ++j) c_row[j] += av * b_row[j];
    }
  }
}

// C[m,n] += A[m,k] * B[n,k]^T
inline void GemmNTAcc(const float* a, const float* b, float* c, size_t m,
                      size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (size_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      c_row[j] += acc;
    }
  }
}

// C[k,n] += A[m,k]^T * B[m,n]
inline void GemmTNAcc(const float* a, const float* b, float* c, size_t m,
                      size_t k, size_t n) {
  for (size_t p = 0; p < k; ++p) {
    float* c_row = c + p * n;
    for (size_t i = 0; i < m; ++i) {
      float av = a[i * k + p];
      if (av == 0.0f) continue;
      const float* b_row = b + i * n;
      for (size_t j = 0; j < n; ++j) c_row[j] += av * b_row[j];
    }
  }
}

}  // namespace infuserki::testing

#endif  // INFUSERKI_TESTS_GEMM_REFERENCE_H_
