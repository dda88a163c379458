#ifndef INFUSERKI_TENSOR_GEMM_H_
#define INFUSERKI_TENSOR_GEMM_H_

#include <cstddef>

namespace infuserki::tensor {

// The single-precision GEMM kernel behind Matmul, MatmulNT and their
// backward passes. The three entry points are stride adapters over one
// register-blocked loop nest (DESIGN.md §7, "GEMM kernel contract"):
//
//   * every output element is summed from 0 over ascending k, with the same
//     multiply-add form for every tile and tail, and then added to C once;
//   * so a row of C depends only on its row of A and on B — never on m, on
//     where the row sits in A, or on the thread-pool width.
//
// All three accumulate into a row-major C with row stride n; an empty sum
// (k == 0 for GemmNN/GemmNT, m == 0 for GemmTN) leaves C untouched. Each
// call counts one `tensor/gemm_calls` and 2*m*k*n `tensor/gemm_flops`.

/// C[m,n] += A[m,k] * B[k,n]
void GemmNN(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n);

/// C[m,n] += A[m,k] * B[n,k]^T
void GemmNT(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n);

/// C[k,n] += A[m,k]^T * B[m,n]
void GemmTN(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n);

}  // namespace infuserki::tensor

#endif  // INFUSERKI_TENSOR_GEMM_H_
