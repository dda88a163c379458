#ifndef INFUSERKI_TENSOR_OPS_H_
#define INFUSERKI_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace infuserki::tensor {

// Differentiable operators. All functions build autograd graph nodes when
// grad mode is on (see NoGradGuard) and some input requires grad.
//
// Broadcasting for the binary elementwise ops supports three cases:
//   * identical shapes,
//   * `b` is a scalar (one element),
//   * `b`'s shape is a suffix of `a`'s shape (e.g. bias [D] against [T, D]).

/// Elementwise a + b.
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise (Hadamard) a * b.
Tensor Mul(const Tensor& a, const Tensor& b);

/// a * s elementwise.
Tensor MulScalar(const Tensor& a, float s);

/// Matrix product [m, k] x [k, n] -> [m, n].
Tensor Matmul(const Tensor& a, const Tensor& b);

/// Matrix product with transposed rhs: [m, k] x [n, k]^T -> [m, n]. This is
/// the natural layout for weight matrices stored as [out, in].
Tensor MatmulNT(const Tensor& a, const Tensor& b);

/// Same data, new shape (NumElements must match).
Tensor Reshape(const Tensor& a, Shape shape);

// -- Nonlinearities --------------------------------------------------------

Tensor Relu(const Tensor& a);
Tensor Gelu(const Tensor& a);
Tensor Silu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);

/// Row-wise softmax over the last dimension of a 2-D tensor.
Tensor Softmax(const Tensor& a);

// -- Normalization ---------------------------------------------------------

/// RMSNorm over the last dimension: y = x / rms(x) * weight, rows of a 2-D
/// input normalized independently. `weight` has shape {D}.
Tensor RmsNorm(const Tensor& x, const Tensor& weight, float eps = 1e-5f);

// -- Indexing --------------------------------------------------------------

/// Selects rows of a 2-D tensor -> [rows.size(), D]; rows may repeat.
/// Backward scatter-adds into the selected rows. This is the embedding
/// lookup (tensor::Embedding).
Tensor GatherRows(const Tensor& a, const std::vector<int>& rows);

/// Concatenates two 1-D tensors.
Tensor Concat1d(const Tensor& a, const Tensor& b);

/// Concatenates two 2-D tensors along rows (same column count).
Tensor ConcatRows(const Tensor& a, const Tensor& b);

/// Contiguous row slice of a 2-D tensor: rows [start, start + count) ->
/// [count, D]. Backward scatter-adds into the sliced rows. This is the
/// ragged-batch unpacking primitive: a packed [sum_T, D] batch is cut back
/// into per-row [T_r, D] views for per-row attention.
Tensor SliceRows(const Tensor& a, size_t start, size_t count);

// -- Reductions ------------------------------------------------------------

/// Sum of all elements -> scalar.
Tensor SumAll(const Tensor& a);

/// Column means of a 2-D tensor [n, d] -> {d}. This is the paper's
/// Mean(H_P^l) over the sequence dimension (Eq. 4).
Tensor MeanAxis0(const Tensor& a);

// -- Losses ----------------------------------------------------------------

/// Token-averaged cross entropy of logits [T, V] against integer targets.
/// Positions whose target equals `ignore_index` contribute nothing.
Tensor CrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                    int ignore_index = -1);

/// Mean binary cross entropy with logits (numerically stable).
Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& targets);

// -- Attention -------------------------------------------------------------

/// Fused causal multi-head self-attention over one sequence: the one-row
/// case of CausalSelfAttentionRagged.
///
/// q has shape [Tq, D]; k and v have shape [Tk, D] with
/// Tk == prefix_len + Tq. The first `prefix_len` key/value rows form an
/// always-visible prefix (prefix tuning, or a row's cached positions);
/// beyond the prefix the mask is causal: query i attends to keys j with
/// j < prefix_len + i + 1. `num_heads` must divide D.
Tensor CausalSelfAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                           size_t num_heads, size_t prefix_len = 0);

/// Ragged batched causal attention (DESIGN.md §11), the one attention
/// kernel: one call for a whole batch of independent sequences. `q` packs
/// every row's query chunk as [sum(row_lens), D]; `keys[r]` / `values[r]`
/// hold row r's FULL key / value rows (always-visible prefix followed by
/// the row's new rows, shape [prefix_r + row_lens[r], D]). Each row is
/// computed alone, so the packed result is, row for row, bit-identical to
/// one-row calls. (row, head) pairs fan out over the global thread pool
/// once the call's multiply-adds pass a fixed threshold; smaller calls run
/// inline.
///
/// A graph is recorded (grad mode on and an input requires grad) for a
/// one-row call only; its backward reads the softmax probabilities kept
/// as [H][Tq][Tk]. Without a graph no probability buffer is kept.
Tensor CausalSelfAttentionRagged(const Tensor& q,
                                 const std::vector<Tensor>& keys,
                                 const std::vector<Tensor>& values,
                                 const std::vector<size_t>& row_lens,
                                 size_t num_heads);

}  // namespace infuserki::tensor

#endif  // INFUSERKI_TENSOR_OPS_H_
