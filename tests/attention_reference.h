#ifndef INFUSERKI_TESTS_ATTENTION_REFERENCE_H_
#define INFUSERKI_TESTS_ATTENTION_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

// Scalar reference attention: tensor::AttendQueryRow and the
// CausalSelfAttention backward loops as they stood before the backward got
// its lanes-over-keys dA dot and register-held dQ row, kept single-threaded
// as the bit-exact oracle for tests/backward_oracle_test.cc. The kernel must
// match these under memcmp on the same build.
//
// The compiler decides per loop whether to vectorize and fuse, and a
// constant dh propagated from a caller could change that choice. The library
// only ever sees dh at run time, so the oracle is kept out of
// interprocedural optimization to see it the same way.
#if defined(__clang__)
#define INFUSERKI_ORACLE [[gnu::noinline]]
#else
#define INFUSERKI_ORACLE [[gnu::noipa]]
#endif

namespace infuserki::testing {

INFUSERKI_ORACLE inline void AttendQueryRowReference(
    const float* qrow, const float* kp, const float* vp, size_t d, size_t dh,
    size_t limit, float scale, float* arow, float* orow) {
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

/// Causal attention of q[tq, d] over k, v [tk, d] with tk = prefix_len + tq.
/// Fills `attn` ([H][tq][tk], zeroed here) and accumulates into `out`.
inline void AttentionForwardReference(const float* qp, const float* kp,
                                      const float* vp, size_t tq, size_t d,
                                      size_t num_heads, size_t prefix_len,
                                      std::vector<float>* attn, float* out) {
  size_t tk = prefix_len + tq;
  size_t dh = d / num_heads;
  float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  attn->assign(num_heads * tq * tk, 0.0f);
  for (size_t h = 0; h < num_heads; ++h) {
    size_t off = h * dh;
    float* ah = attn->data() + h * tq * tk;
    for (size_t i = 0; i < tq; ++i) {
      AttendQueryRowReference(qp + i * d + off, kp + off, vp + off, d, dh,
                              prefix_len + i + 1, scale, ah + i * tk,
                              out + i * d + off);
    }
  }
}

/// Backward of AttentionForwardReference for the upstream gradient `g`
/// [tq, d]: accumulates into qg, kg and vg, each skipped when null.
INFUSERKI_ORACLE inline void AttentionBackwardReference(
    const float* g, const float* qp, const float* kp, const float* vp,
    const std::vector<float>& attn, size_t tq, size_t d,
    size_t num_heads, size_t prefix_len, float* qg, float* kg, float* vg) {
  size_t tk = prefix_len + tq;
  size_t dh = d / num_heads;
  float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  std::vector<float> da(tk);  // dA for one query row
  std::vector<float> ds(tk);  // dS for one query row
  for (size_t h = 0; h < num_heads; ++h) {
    size_t off = h * dh;
    const float* ah = attn.data() + h * tq * tk;
    for (size_t i = 0; i < tq; ++i) {
      size_t limit = prefix_len + i + 1;
      const float* arow = ah + i * tk;
      const float* grow = g + i * d + off;
      // dA_j = dO . V_j ; dV_j += A_j * dO
      for (size_t j = 0; j < limit; ++j) {
        const float* vrow = vp + j * d + off;
        float acc = 0.0f;
        for (size_t c = 0; c < dh; ++c) acc += grow[c] * vrow[c];
        da[j] = acc;
        if (vg != nullptr && arow[j] != 0.0f) {
          float* vgrow = vg + j * d + off;
          float a = arow[j];
          for (size_t c = 0; c < dh; ++c) vgrow[c] += a * grow[c];
        }
      }
      // Softmax backward within the visible window.
      float dot = 0.0f;
      for (size_t j = 0; j < limit; ++j) dot += da[j] * arow[j];
      for (size_t j = 0; j < limit; ++j) {
        ds[j] = arow[j] * (da[j] - dot) * scale;
      }
      // dQ_i += sum_j dS_ij K_j ; dK_j += dS_ij Q_i
      const float* qrow = qp + i * d + off;
      float* qgrow = qg != nullptr ? qg + i * d + off : nullptr;
      for (size_t j = 0; j < limit; ++j) {
        float s = ds[j];
        if (s == 0.0f) continue;
        const float* krow = kp + j * d + off;
        if (qgrow != nullptr) {
          for (size_t c = 0; c < dh; ++c) qgrow[c] += s * krow[c];
        }
        if (kg != nullptr) {
          float* kgrow = kg + j * d + off;
          for (size_t c = 0; c < dh; ++c) kgrow[c] += s * qrow[c];
        }
      }
    }
  }
}

}  // namespace infuserki::testing

#undef INFUSERKI_ORACLE

#endif  // INFUSERKI_TESTS_ATTENTION_REFERENCE_H_
