#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "util/threadpool.h"

namespace infuserki::tensor {
namespace {

using internal::kLanes;
using internal::TensorImpl;
using internal::Vec;

// Attention calls below this many multiply-adds run inline:
// thread-pool dispatch (schedule + wait) costs more than the arithmetic.
constexpr size_t kAttentionParallelMinWork = 1 << 15;

/// Op counters for the hot kernels, resolved once per process. Each kernel
/// call costs two relaxed atomic adds — noise next to the O(m*k*n) work.
struct OpMetrics {
  obs::Counter* matmul_ops;      // forward Matmul/MatmulNT calls
  obs::Counter* softmax_ops;
  obs::Counter* softmax_rows;
  obs::Counter* attention_ops;   // forward attention rows (sequences)
  obs::Counter* attention_flops; // ~4*Tq*Tk*d per row
};

OpMetrics& Metrics() {
  static OpMetrics* metrics = [] {
    obs::Registry& registry = obs::Registry::Get();
    return new OpMetrics{registry.GetCounter("tensor/matmul_ops"),
                         registry.GetCounter("tensor/softmax_ops"),
                         registry.GetCounter("tensor/softmax_rows"),
                         registry.GetCounter("tensor/attention_ops"),
                         registry.GetCounter("tensor/attention_flops")};
  }();
  return *metrics;
}

// Returns true when `b` broadcasts against `a` as a suffix shape.
bool IsSuffixShape(const Shape& a, const Shape& b) {
  if (b.size() > a.size()) return false;
  for (size_t i = 0; i < b.size(); ++i) {
    if (b[b.size() - 1 - i] != a[a.size() - 1 - i]) return false;
  }
  return true;
}

enum class BroadcastKind { kSame, kScalar, kSuffix };

BroadcastKind CheckBroadcast(const Tensor& a, const Tensor& b,
                             const char* op_name) {
  if (a.shape() == b.shape()) return BroadcastKind::kSame;
  if (b.size() == 1) return BroadcastKind::kScalar;
  CHECK(IsSuffixShape(a.shape(), b.shape()))
      << op_name << ": incompatible shapes " << ShapeToString(a.shape())
      << " vs " << ShapeToString(b.shape());
  return BroadcastKind::kSuffix;
}

/// One (head, query row) of causal attention. The one attention kernel
/// runs every row through it, whatever the batch it sits in.
/// `kp`/`vp` point at the head's first column of key/value row 0 (row
/// stride `d`); the first `limit` keys are visible. Scores go to `arow`
/// (max-shifted softmax, ascending key order), then the weighted value
/// sum accumulates into `orow`. Entries of `arow` past `limit` are left
/// untouched, so masked entries of a zeroed buffer stay exactly zero.
void AttendQueryRow(const float* qrow, const float* kp, const float* vp,
                    size_t d, size_t dh, size_t limit, float scale,
                    float* arow, float* orow) {
  float mx = -1e30f;
  for (size_t j = 0; j < limit; ++j) {
    const float* krow = kp + j * d;
    float s = 0.0f;
    for (size_t c = 0; c < dh; ++c) s += qrow[c] * krow[c];
    s *= scale;
    arow[j] = s;
    mx = std::max(mx, s);
  }
  float sum = 0.0f;
  for (size_t j = 0; j < limit; ++j) {
    arow[j] = std::exp(arow[j] - mx);
    sum += arow[j];
  }
  float inv = 1.0f / sum;
  for (size_t j = 0; j < limit; ++j) arow[j] *= inv;
  for (size_t j = 0; j < limit; ++j) {
    float a = arow[j];
    if (a == 0.0f) continue;
    const float* vrow = vp + j * d;
    for (size_t c = 0; c < dh; ++c) orow[c] += a * vrow[c];
  }
}

// Hides `v` from the optimizer, so the multiply that produced it is rounded
// on its own and never fused into the add that consumes it.
inline void RoundProduct(Vec& v) {
#if defined(__x86_64__) || defined(__i386__)
  asm("" : "+x"(v));
#elif defined(__aarch64__)
  asm("" : "+w"(v));
#else
  asm("" : "+m"(v));
#endif
}

/// dA_j = dO . V_j for the first `limit` keys of one (head, query row) of the
/// attention backward, into `da`. `vp` points at the head's first column of
/// value row 0 (row stride `d`). Each dot sums from 0 over ascending c. The
/// scalar loop defines the result. When dh is a multiple of the vector
/// width, GCC -O3 vectorizes it as a vector multiply followed by in-order
/// adds that are never fused; the lanes path reproduces exactly that with
/// one key per lane, so no sum crosses lanes.
void ValueDots(const float* grow, const float* vp, size_t d, size_t dh,
               size_t limit, float* da) {
  if (dh % kLanes != 0) {
    for (size_t j = 0; j < limit; ++j) {
      const float* vrow = vp + j * d;
      float acc = 0.0f;
      for (size_t c = 0; c < dh; ++c) acc += grow[c] * vrow[c];
      da[j] = acc;
    }
    return;
  }
  for (size_t j0 = 0; j0 < limit; j0 += kLanes) {
    size_t keys = std::min(kLanes, limit - j0);
    Vec acc = {};
    for (size_t c0 = 0; c0 < dh; c0 += kLanes) {
      // block[c] holds column c0 + c of value rows j0 .. j0 + kLanes - 1.
      Vec block[kLanes] = {};
      for (size_t l = 0; l < keys; ++l) {
        std::memcpy(&block[l], vp + (j0 + l) * d + c0, sizeof(Vec));
      }
      internal::Transpose(block);
#pragma GCC unroll 16
      for (size_t c = 0; c < kLanes; ++c) {
        Vec product = grow[c0 + c] * block[c];
        RoundProduct(product);
        acc += product;
      }
    }
    for (size_t l = 0; l < keys; ++l) da[j0 + l] = acc[l];
  }
}

/// dQ_i += sum_j dS_ij K_j over the first `limit` keys in ascending j,
/// skipping dS_ij == 0, as `q += s * k` per element. When dh is a multiple
/// of kLanes, each kLanes-wide slice of dQ_i stays in a register across
/// keys instead of being loaded and stored per key.
void AccumulateKeyRows(const float* ds, const float* kp, size_t d, size_t dh,
                       size_t limit, float* qgrow) {
  if (dh % kLanes != 0) {
    for (size_t j = 0; j < limit; ++j) {
      float s = ds[j];
      if (s == 0.0f) continue;
      const float* krow = kp + j * d;
      for (size_t c = 0; c < dh; ++c) qgrow[c] += s * krow[c];
    }
    return;
  }
  for (size_t c0 = 0; c0 < dh; c0 += kLanes) {
    Vec acc;
    std::memcpy(&acc, qgrow + c0, sizeof acc);
    for (size_t j = 0; j < limit; ++j) {
      float s = ds[j];
      if (s == 0.0f) continue;
      Vec k;
      std::memcpy(&k, kp + j * d + c0, sizeof k);
      acc += s * k;
    }
    std::memcpy(qgrow + c0, &acc, sizeof acc);
  }
}

// Elementwise unary op with pointwise derivative computed from saved
// input and/or output values.
template <typename ForwardFn, typename BackwardFn>
Tensor UnaryOp(const Tensor& a, ForwardFn fwd, BackwardFn bwd) {
  std::vector<float> out(a.size());
  const float* in = a.data();
  for (size_t i = 0; i < out.size(); ++i) out[i] = fwd(in[i]);
  return Tensor::MakeOpResult(
      a.shape(), std::move(out), {a}, [a, bwd](TensorImpl* result) {
        result->backward_fn = [a, bwd, result]() {
          if (!a.requires_grad()) return;
          float* agrad = a.impl()->MutableGrad();
          const float* g = result->grad.data();
          const float* x = a.data();
          const float* y = result->data.data();
          for (size_t i = 0; i < result->data.size(); ++i) {
            agrad[i] += g[i] * bwd(x[i], y[i]);
          }
        };
      });
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  BroadcastKind kind = CheckBroadcast(a, b, "Add");
  std::vector<float> out(a.vec());
  const float* bp = b.data();
  size_t bn = b.size();
  if (kind == BroadcastKind::kScalar) {
    for (float& v : out) v += bp[0];
  } else {
    for (size_t i = 0; i < out.size(); ++i) out[i] += bp[i % bn];
  }
  return Tensor::MakeOpResult(
      a.shape(), std::move(out), {a, b}, [a, b](TensorImpl* result) {
        result->backward_fn = [a, b, result]() {
          const float* g = result->grad.data();
          size_t n = result->data.size();
          if (a.requires_grad()) {
            float* ag = a.impl()->MutableGrad();
            for (size_t i = 0; i < n; ++i) ag[i] += g[i];
          }
          if (b.requires_grad()) {
            float* bg = b.impl()->MutableGrad();
            size_t bn = b.size();
            // Row by row, so bg[j] sums g[j], g[j + bn], ... in ascending
            // order with no division per element.
            for (size_t base = 0; base < n; base += bn) {
              for (size_t j = 0; j < bn; ++j) bg[j] += g[base + j];
            }
          }
        };
      });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  BroadcastKind kind = CheckBroadcast(a, b, "Mul");
  std::vector<float> out(a.vec());
  const float* bp = b.data();
  size_t bn = b.size();
  if (kind == BroadcastKind::kScalar) {
    for (float& v : out) v *= bp[0];
  } else {
    for (size_t i = 0; i < out.size(); ++i) out[i] *= bp[i % bn];
  }
  return Tensor::MakeOpResult(
      a.shape(), std::move(out), {a, b}, [a, b](TensorImpl* result) {
        result->backward_fn = [a, b, result]() {
          const float* g = result->grad.data();
          const float* ap = a.data();
          const float* bp = b.data();
          size_t n = result->data.size();
          size_t bn = b.size();
          if (a.requires_grad()) {
            float* ag = a.impl()->MutableGrad();
            for (size_t base = 0; base < n; base += bn) {
              for (size_t j = 0; j < bn; ++j) {
                ag[base + j] += g[base + j] * bp[j];
              }
            }
          }
          if (b.requires_grad()) {
            float* bg = b.impl()->MutableGrad();
            for (size_t base = 0; base < n; base += bn) {
              for (size_t j = 0; j < bn; ++j) {
                bg[j] += g[base + j] * ap[base + j];
              }
            }
          }
        };
      });
}

Tensor MulScalar(const Tensor& a, float s) {
  std::vector<float> out(a.vec());
  for (float& v : out) v *= s;
  return Tensor::MakeOpResult(
      a.shape(), std::move(out), {a}, [a, s](TensorImpl* result) {
        result->backward_fn = [a, s, result]() {
          if (!a.requires_grad()) return;
          float* ag = a.impl()->MutableGrad();
          const float* g = result->grad.data();
          for (size_t i = 0; i < result->data.size(); ++i) ag[i] += g[i] * s;
        };
      });
}

Tensor Matmul(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.rank(), size_t{2});
  CHECK_EQ(b.rank(), size_t{2});
  CHECK_EQ(a.dim(1), b.dim(0)) << "Matmul: " << ShapeToString(a.shape())
                               << " x " << ShapeToString(b.shape());
  size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Metrics().matmul_ops->Increment();
  std::vector<float> out(m * n, 0.0f);
  GemmNN(a.data(), b.data(), out.data(), m, k, n);
  return Tensor::MakeOpResult(
      {m, n}, std::move(out), {a, b}, [a, b, m, k, n](TensorImpl* result) {
        result->backward_fn = [a, b, m, k, n, result]() {
          const float* g = result->grad.data();
          // dA = dC * B^T ; dB = A^T * dC
          if (a.requires_grad()) {
            GemmNT(g, b.data(), a.impl()->MutableGrad(), m, n, k);
          }
          if (b.requires_grad()) {
            GemmTN(a.data(), g, b.impl()->MutableGrad(), m, k, n);
          }
        };
      });
}

Tensor MatmulNT(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.rank(), size_t{2});
  CHECK_EQ(b.rank(), size_t{2});
  CHECK_EQ(a.dim(1), b.dim(1)) << "MatmulNT: " << ShapeToString(a.shape())
                               << " x " << ShapeToString(b.shape()) << "^T";
  size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Metrics().matmul_ops->Increment();
  std::vector<float> out(m * n, 0.0f);
  GemmNT(a.data(), b.data(), out.data(), m, k, n);
  return Tensor::MakeOpResult(
      {m, n}, std::move(out), {a, b}, [a, b, m, k, n](TensorImpl* result) {
        result->backward_fn = [a, b, m, k, n, result]() {
          const float* g = result->grad.data();
          // C = A B^T : dA = dC * B ; dB = dC^T * A
          if (a.requires_grad()) {
            GemmNN(g, b.data(), a.impl()->MutableGrad(), m, n, k);
          }
          if (b.requires_grad()) {
            GemmTN(g, a.data(), b.impl()->MutableGrad(), m, n, k);
          }
        };
      });
}

Tensor Reshape(const Tensor& a, Shape shape) {
  CHECK_EQ(NumElements(shape), a.size());
  return Tensor::MakeOpResult(
      std::move(shape), a.vec(), {a}, [a](TensorImpl* result) {
        result->backward_fn = [a, result]() {
          if (!a.requires_grad()) return;
          float* ag = a.impl()->MutableGrad();
          const float* g = result->grad.data();
          for (size_t i = 0; i < result->data.size(); ++i) ag[i] += g[i];
        };
      });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Gelu(const Tensor& a) {
  constexpr float kInvSqrt2 = 0.7071067811865475f;
  constexpr float kInvSqrt2Pi = 0.3989422804014327f;
  return UnaryOp(
      a,
      [](float x) {
        return 0.5f * x * (1.0f + std::erf(x * kInvSqrt2));
      },
      [](float x, float) {
        float cdf = 0.5f * (1.0f + std::erf(x * kInvSqrt2));
        float pdf = kInvSqrt2Pi * std::exp(-0.5f * x * x);
        return cdf + x * pdf;
      });
}

Tensor Silu(const Tensor& a) {
  const float* in = a.data();
  std::vector<float> out(a.size());
  if (!GradEnabled() || !a.requires_grad()) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = in[i] / (1.0f + std::exp(-in[i]));
    }
    return Tensor::FromData(a.shape(), std::move(out));
  }
  // y = x / den with den = 1 + exp(-x). The backward's sigmoid is 1 / den,
  // so keeping den spares it a second exp.
  auto den = std::make_shared<std::vector<float>>(a.size());
  for (size_t i = 0; i < out.size(); ++i) {
    float dn = 1.0f + std::exp(-in[i]);
    (*den)[i] = dn;
    out[i] = in[i] / dn;
  }
  return Tensor::MakeOpResult(
      a.shape(), std::move(out), {a}, [a, den](TensorImpl* result) {
        result->backward_fn = [a, den, result]() {
          if (!a.requires_grad()) return;
          float* agrad = a.impl()->MutableGrad();
          const float* g = result->grad.data();
          const float* x = a.data();
          const float* dn = den->data();
          for (size_t i = 0; i < result->data.size(); ++i) {
            float s = 1.0f / dn[i];
            agrad[i] += g[i] * (s * (1.0f + x[i] * (1.0f - s)));
          }
        };
      });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Softmax(const Tensor& a) {
  CHECK_EQ(a.rank(), size_t{2});
  size_t rows = a.dim(0), cols = a.dim(1);
  Metrics().softmax_ops->Increment();
  Metrics().softmax_rows->Increment(rows);
  std::vector<float> out(a.size());
  const float* in = a.data();
  for (size_t r = 0; r < rows; ++r) {
    const float* x = in + r * cols;
    float* y = out.data() + r * cols;
    float mx = x[0];
    for (size_t c = 1; c < cols; ++c) mx = std::max(mx, x[c]);
    float sum = 0.0f;
    for (size_t c = 0; c < cols; ++c) {
      y[c] = std::exp(x[c] - mx);
      sum += y[c];
    }
    float inv = 1.0f / sum;
    for (size_t c = 0; c < cols; ++c) y[c] *= inv;
  }
  return Tensor::MakeOpResult(
      a.shape(), std::move(out), {a}, [a, rows, cols](TensorImpl* result) {
        result->backward_fn = [a, rows, cols, result]() {
          if (!a.requires_grad()) return;
          float* ag = a.impl()->MutableGrad();
          const float* g = result->grad.data();
          const float* y = result->data.data();
          for (size_t r = 0; r < rows; ++r) {
            const float* gr = g + r * cols;
            const float* yr = y + r * cols;
            float dot = 0.0f;
            for (size_t c = 0; c < cols; ++c) dot += gr[c] * yr[c];
            float* agr = ag + r * cols;
            for (size_t c = 0; c < cols; ++c) {
              agr[c] += yr[c] * (gr[c] - dot);
            }
          }
        };
      });
}

Tensor RmsNorm(const Tensor& x, const Tensor& weight, float eps) {
  CHECK_EQ(x.rank(), size_t{2});
  CHECK_EQ(weight.rank(), size_t{1});
  size_t rows = x.dim(0), cols = x.dim(1);
  CHECK_EQ(weight.dim(0), cols);
  std::vector<float> out(x.size());
  auto inv_rms = std::make_shared<std::vector<float>>(rows);
  const float* in = x.data();
  const float* w = weight.data();
  for (size_t r = 0; r < rows; ++r) {
    const float* xr = in + r * cols;
    float ss = 0.0f;
    for (size_t c = 0; c < cols; ++c) ss += xr[c] * xr[c];
    float inv = 1.0f / std::sqrt(ss / static_cast<float>(cols) + eps);
    (*inv_rms)[r] = inv;
    float* yr = out.data() + r * cols;
    for (size_t c = 0; c < cols; ++c) yr[c] = xr[c] * inv * w[c];
  }
  return Tensor::MakeOpResult(
      x.shape(), std::move(out), {x, weight},
      [x, weight, rows, cols, inv_rms](TensorImpl* result) {
        result->backward_fn = [x, weight, rows, cols, inv_rms, result]() {
          const float* g = result->grad.data();
          const float* in = x.data();
          const float* w = weight.data();
          float* wg = weight.requires_grad() ? weight.impl()->MutableGrad()
                                             : nullptr;
          float* xg = x.requires_grad() ? x.impl()->MutableGrad() : nullptr;
          for (size_t r = 0; r < rows; ++r) {
            const float* xr = in + r * cols;
            const float* gr = g + r * cols;
            float inv = (*inv_rms)[r];
            if (wg != nullptr) {
              for (size_t c = 0; c < cols; ++c) {
                wg[c] += gr[c] * xr[c] * inv;
              }
            }
            if (xg != nullptr) {
              // dxh = g * w ; dx = inv * (dxh - xh * mean(dxh * xh))
              float dot = 0.0f;
              for (size_t c = 0; c < cols; ++c) {
                dot += gr[c] * w[c] * xr[c] * inv;
              }
              dot /= static_cast<float>(cols);
              float* xgr = xg + r * cols;
              for (size_t c = 0; c < cols; ++c) {
                float xh = xr[c] * inv;
                xgr[c] += inv * (gr[c] * w[c] - xh * dot);
              }
            }
          }
        };
      });
}

Tensor GatherRows(const Tensor& a, const std::vector<int>& rows) {
  CHECK_EQ(a.rank(), size_t{2});
  CHECK(!rows.empty());
  size_t n = a.dim(0), d = a.dim(1);
  std::vector<float> out(rows.size() * d);
  const float* in = a.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    CHECK_GE(rows[i], 0);
    CHECK_LT(static_cast<size_t>(rows[i]), n);
    std::memcpy(out.data() + i * d, in + static_cast<size_t>(rows[i]) * d,
                d * sizeof(float));
  }
  auto rows_copy = std::make_shared<std::vector<int>>(rows);
  return Tensor::MakeOpResult(
      {rows.size(), d}, std::move(out), {a},
      [a, rows_copy, d](TensorImpl* result) {
        result->backward_fn = [a, rows_copy, d, result]() {
          if (!a.requires_grad()) return;
          float* ag = a.impl()->MutableGrad();
          const float* g = result->grad.data();
          for (size_t i = 0; i < rows_copy->size(); ++i) {
            float* row = ag + static_cast<size_t>((*rows_copy)[i]) * d;
            const float* gr = g + i * d;
            for (size_t c = 0; c < d; ++c) row[c] += gr[c];
          }
        };
      });
}

Tensor Concat1d(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.rank(), size_t{1});
  CHECK_EQ(b.rank(), size_t{1});
  std::vector<float> out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.vec().begin(), a.vec().end());
  out.insert(out.end(), b.vec().begin(), b.vec().end());
  size_t na = a.size();
  return Tensor::MakeOpResult(
      {a.size() + b.size()}, std::move(out), {a, b},
      [a, b, na](TensorImpl* result) {
        result->backward_fn = [a, b, na, result]() {
          const float* g = result->grad.data();
          if (a.requires_grad()) {
            float* ag = a.impl()->MutableGrad();
            for (size_t i = 0; i < na; ++i) ag[i] += g[i];
          }
          if (b.requires_grad()) {
            float* bg = b.impl()->MutableGrad();
            for (size_t i = 0; i < b.size(); ++i) bg[i] += g[na + i];
          }
        };
      });
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.rank(), size_t{2});
  CHECK_EQ(b.rank(), size_t{2});
  CHECK_EQ(a.dim(1), b.dim(1));
  std::vector<float> out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.vec().begin(), a.vec().end());
  out.insert(out.end(), b.vec().begin(), b.vec().end());
  size_t na = a.size();
  return Tensor::MakeOpResult(
      {a.dim(0) + b.dim(0), a.dim(1)}, std::move(out), {a, b},
      [a, b, na](TensorImpl* result) {
        result->backward_fn = [a, b, na, result]() {
          const float* g = result->grad.data();
          if (a.requires_grad()) {
            float* ag = a.impl()->MutableGrad();
            for (size_t i = 0; i < na; ++i) ag[i] += g[i];
          }
          if (b.requires_grad()) {
            float* bg = b.impl()->MutableGrad();
            for (size_t i = 0; i < b.size(); ++i) bg[i] += g[na + i];
          }
        };
      });
}

Tensor SliceRows(const Tensor& a, size_t start, size_t count) {
  CHECK_EQ(a.rank(), size_t{2});
  CHECK_GT(count, size_t{0});
  CHECK_LE(start + count, a.dim(0));
  size_t cols = a.dim(1);
  const float* src = a.data() + start * cols;
  std::vector<float> out(src, src + count * cols);
  size_t offset = start * cols;
  size_t n = count * cols;
  return Tensor::MakeOpResult(
      {count, cols}, std::move(out), {a},
      [a, offset, n](TensorImpl* result) {
        result->backward_fn = [a, offset, n, result]() {
          if (!a.requires_grad()) return;
          const float* g = result->grad.data();
          float* ag = a.impl()->MutableGrad();
          for (size_t i = 0; i < n; ++i) ag[offset + i] += g[i];
        };
      });
}

Tensor SumAll(const Tensor& a) {
  float sum = 0.0f;
  for (float v : a.vec()) sum += v;
  return Tensor::MakeOpResult({1}, {sum}, {a}, [a](TensorImpl* result) {
    result->backward_fn = [a, result]() {
      if (!a.requires_grad()) return;
      float g = result->grad[0];
      float* ag = a.impl()->MutableGrad();
      for (size_t i = 0; i < a.size(); ++i) ag[i] += g;
    };
  });
}

Tensor MeanAxis0(const Tensor& a) {
  CHECK_EQ(a.rank(), size_t{2});
  size_t rows = a.dim(0), cols = a.dim(1);
  std::vector<float> out(cols, 0.0f);
  const float* in = a.data();
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) out[c] += in[r * cols + c];
  }
  float inv = 1.0f / static_cast<float>(rows);
  for (float& v : out) v *= inv;
  return Tensor::MakeOpResult(
      {cols}, std::move(out), {a}, [a, rows, cols, inv](TensorImpl* result) {
        result->backward_fn = [a, rows, cols, inv, result]() {
          if (!a.requires_grad()) return;
          float* ag = a.impl()->MutableGrad();
          const float* g = result->grad.data();
          for (size_t r = 0; r < rows; ++r) {
            for (size_t c = 0; c < cols; ++c) ag[r * cols + c] += g[c] * inv;
          }
        };
      });
}

Tensor CrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                    int ignore_index) {
  CHECK_EQ(logits.rank(), size_t{2});
  size_t rows = logits.dim(0), cols = logits.dim(1);
  CHECK_EQ(targets.size(), rows);
  auto probs = std::make_shared<std::vector<float>>(logits.size());
  const float* in = logits.data();
  double loss = 0.0;
  size_t valid = 0;
  for (size_t r = 0; r < rows; ++r) {
    const float* x = in + r * cols;
    float* p = probs->data() + r * cols;
    float mx = x[0];
    for (size_t c = 1; c < cols; ++c) mx = std::max(mx, x[c]);
    float sum = 0.0f;
    for (size_t c = 0; c < cols; ++c) {
      p[c] = std::exp(x[c] - mx);
      sum += p[c];
    }
    float inv = 1.0f / sum;
    for (size_t c = 0; c < cols; ++c) p[c] *= inv;
    int t = targets[r];
    if (t == ignore_index) continue;
    CHECK_GE(t, 0);
    CHECK_LT(static_cast<size_t>(t), cols);
    loss -= std::log(std::max(p[t], 1e-12f));
    ++valid;
  }
  CHECK_GT(valid, size_t{0}) << "CrossEntropy: no valid targets";
  float mean_loss = static_cast<float>(loss / static_cast<double>(valid));
  auto targets_copy = std::make_shared<std::vector<int>>(targets);
  return Tensor::MakeOpResult(
      {1}, {mean_loss}, {logits},
      [logits, targets_copy, probs, rows, cols, valid,
       ignore_index](TensorImpl* result) {
        result->backward_fn = [logits, targets_copy, probs, rows, cols,
                               valid, ignore_index, result]() {
          if (!logits.requires_grad()) return;
          float g = result->grad[0] / static_cast<float>(valid);
          float* lg = logits.impl()->MutableGrad();
          for (size_t r = 0; r < rows; ++r) {
            int t = (*targets_copy)[r];
            if (t == ignore_index) continue;
            const float* p = probs->data() + r * cols;
            float* row = lg + r * cols;
            for (size_t c = 0; c < cols; ++c) row[c] += g * p[c];
            row[static_cast<size_t>(t)] -= g;
          }
        };
      });
}

Tensor BceWithLogits(const Tensor& logits,
                     const std::vector<float>& targets) {
  CHECK_EQ(logits.size(), targets.size());
  const float* z = logits.data();
  double loss = 0.0;
  for (size_t i = 0; i < targets.size(); ++i) {
    // max(z,0) - z*t + log(1 + exp(-|z|)): stable for both signs.
    float zi = z[i];
    loss += std::max(zi, 0.0f) - zi * targets[i] +
            std::log1p(std::exp(-std::fabs(zi)));
  }
  float inv = 1.0f / static_cast<float>(targets.size());
  auto targets_copy = std::make_shared<std::vector<float>>(targets);
  return Tensor::MakeOpResult(
      {1}, {static_cast<float>(loss) * inv}, {logits},
      [logits, targets_copy, inv](TensorImpl* result) {
        result->backward_fn = [logits, targets_copy, inv, result]() {
          if (!logits.requires_grad()) return;
          float g = result->grad[0] * inv;
          float* lg = logits.impl()->MutableGrad();
          const float* z = logits.data();
          for (size_t i = 0; i < targets_copy->size(); ++i) {
            float s = 1.0f / (1.0f + std::exp(-z[i]));
            lg[i] += g * (s - (*targets_copy)[i]);
          }
        };
      });
}

Tensor CausalSelfAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                           size_t num_heads, size_t prefix_len) {
  CHECK_EQ(q.rank(), size_t{2});
  CHECK_EQ(k.rank(), size_t{2});
  CHECK_EQ(k.dim(0), prefix_len + q.dim(0))
      << "key length must be prefix_len + query length";
  return CausalSelfAttentionRagged(q, {k}, {v}, {q.dim(0)}, num_heads);
}

Tensor CausalSelfAttentionRagged(const Tensor& q,
                                 const std::vector<Tensor>& keys,
                                 const std::vector<Tensor>& values,
                                 const std::vector<size_t>& row_lens,
                                 size_t num_heads) {
  CHECK_EQ(q.rank(), size_t{2});
  CHECK_EQ(keys.size(), row_lens.size());
  CHECK_EQ(values.size(), row_lens.size());
  size_t d = q.dim(1);
  CHECK_GT(num_heads, size_t{0});
  CHECK_EQ(d % num_heads, size_t{0});
  size_t dh = d / num_heads;
  float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  std::vector<size_t> row_offsets(row_lens.size());
  size_t total = 0;
  size_t total_work = 0;
  bool inputs_need_grad = q.requires_grad();
  for (size_t r = 0; r < row_lens.size(); ++r) {
    CHECK_GT(row_lens[r], size_t{0});
    CHECK_EQ(keys[r].rank(), size_t{2});
    CHECK_EQ(values[r].rank(), size_t{2});
    CHECK_EQ(keys[r].dim(1), d);
    CHECK_EQ(values[r].dim(1), d);
    CHECK_GE(keys[r].dim(0), row_lens[r])
        << "key rows must cover the row's new tokens";
    CHECK_EQ(keys[r].dim(0), values[r].dim(0));
    inputs_need_grad = inputs_need_grad || keys[r].requires_grad() ||
                       values[r].requires_grad();
    row_offsets[r] = total;
    total += row_lens[r];
    size_t work = 4 * row_lens[r] * keys[r].dim(0) * d;
    Metrics().attention_ops->Increment();
    Metrics().attention_flops->Increment(work);
    total_work += work;
  }
  CHECK_EQ(q.dim(0), total);

  // Only a recorded graph keeps the probabilities: the backward reads them
  // from attn, [H][Tq][Tk] flattened with masked entries exactly zero.
  // Without one, each worker scores into a scratch row.
  bool record = GradEnabled() && inputs_need_grad;
  std::shared_ptr<std::vector<float>> attn;
  if (record) {
    CHECK_EQ(row_lens.size(), size_t{1})
        << "attention records a graph for one row only";
    attn = std::make_shared<std::vector<float>>(
        num_heads * total * keys[0].dim(0), 0.0f);
  }

  // Work items are (row, head) pairs with disjoint output blocks, so how
  // they are split across threads never changes a row's result.
  std::vector<float> out(total * d, 0.0f);
  auto attend_pairs = [&](size_t begin, size_t end) {
    std::vector<float> scratch;
    for (size_t pair = begin; pair < end; ++pair) {
      size_t r = pair / num_heads;
      size_t h = pair % num_heads;
      size_t off = h * dh;
      size_t tq = row_lens[r];
      size_t tk = keys[r].dim(0);
      if (!record) scratch.resize(tk);
      const float* qp = q.data() + row_offsets[r] * d + off;
      float* op = out.data() + row_offsets[r] * d + off;
      for (size_t i = 0; i < tq; ++i) {
        float* arow =
            record ? attn->data() + (h * tq + i) * tk : scratch.data();
        AttendQueryRow(qp + i * d, keys[r].data() + off,
                       values[r].data() + off, d, dh, tk - tq + i + 1, scale,
                       arow, op + i * d);
      }
    }
  };
  size_t pairs = row_lens.size() * num_heads;
  if (total_work < kAttentionParallelMinWork) {
    attend_pairs(0, pairs);
  } else {
    util::ParallelFor(pairs, 1, attend_pairs);
  }
  if (!record) return Tensor::FromData({total, d}, std::move(out));

  const Tensor& k = keys[0];
  const Tensor& v = values[0];
  size_t tq = total;
  size_t tk = k.dim(0);
  size_t prefix_len = tk - tq;
  return Tensor::MakeOpResult(
      {tq, d}, std::move(out), {q, k, v},
      [q, k, v, num_heads, prefix_len, tq, tk, d, dh, scale,
       attn](TensorImpl* result) {
        result->backward_fn = [q, k, v, num_heads, prefix_len, tq, tk, d, dh,
                               scale, attn, result]() {
          const float* g = result->grad.data();
          const float* qp = q.data();
          const float* kp = k.data();
          const float* vp = v.data();
          float* qg = q.requires_grad() ? q.impl()->MutableGrad() : nullptr;
          float* kg = k.requires_grad() ? k.impl()->MutableGrad() : nullptr;
          float* vg = v.requires_grad() ? v.impl()->MutableGrad() : nullptr;
          // Heads write to disjoint column ranges of the gradients, so the
          // per-head loop is safe to run in parallel.
          util::ParallelFor(num_heads, 1, [&](size_t hbegin, size_t hend) {
            std::vector<float> da(tk);  // dA for one query row
            std::vector<float> ds(tk);  // dS for one query row
            for (size_t h = hbegin; h < hend; ++h) {
              size_t off = h * dh;
              const float* ah = attn->data() + h * tq * tk;
              for (size_t i = 0; i < tq; ++i) {
                size_t limit = prefix_len + i + 1;
                const float* arow = ah + i * tk;
                const float* grow = g + i * d + off;
                // dA_j = dO . V_j ; dV_j += A_j * dO
                ValueDots(grow, vp + off, d, dh, limit, da.data());
                if (vg != nullptr) {
                  for (size_t j = 0; j < limit; ++j) {
                    float a = arow[j];
                    if (a == 0.0f) continue;
                    float* vgrow = vg + j * d + off;
                    for (size_t c = 0; c < dh; ++c) vgrow[c] += a * grow[c];
                  }
                }
                // Softmax backward within the visible window.
                float dot = 0.0f;
                for (size_t j = 0; j < limit; ++j) dot += da[j] * arow[j];
                for (size_t j = 0; j < limit; ++j) {
                  ds[j] = arow[j] * (da[j] - dot) * scale;
                }
                // dQ_i += sum_j dS_ij K_j ; dK_j += dS_ij Q_i. dQ_i is done
                // before any dK_j moves. Where q and k are one tensor,
                // prefix_len is 0 and key i is row i's last, so the one
                // element both touch is still added to in the same order.
                if (qg != nullptr) {
                  AccumulateKeyRows(ds.data(), kp + off, d, dh, limit,
                                    qg + i * d + off);
                }
                if (kg != nullptr) {
                  const float* qrow = qp + i * d + off;
                  for (size_t j = 0; j < limit; ++j) {
                    float s = ds[j];
                    if (s == 0.0f) continue;
                    float* kgrow = kg + j * d + off;
                    for (size_t c = 0; c < dh; ++c) kgrow[c] += s * qrow[c];
                  }
                }
              }
            }
          });
        };
      });
}

}  // namespace infuserki::tensor
