// Bit-exact differential tests of the training backward against the loops it
// replaced: CausalSelfAttention (forward output, softmax probabilities and
// dQ/dK/dV) against tests/attention_reference.h, the Add/Mul broadcast
// gradients against per-element `i % bn` loops, and Silu's gradient against
// the formula that recomputes its sigmoid. A packed ragged attention call
// is checked against one-row calls. Everything is compared with memcmp, at
// thread-pool widths 4 and 1 (DESIGN.md §7, "Backward contract").

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tests/attention_reference.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace infuserki::tensor {
namespace {

// Pins the global pool to four workers before anything touches it, so the
// per-head split is exercised even on small hosts. Runs before main().
[[maybe_unused]] const bool kPoolWidthPinned = [] {
  setenv("INFUSERKI_NUM_THREADS", "4", /*overwrite=*/1);
  return true;
}();

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Runs `fn` on a global pool worker, where nested parallel loops run
// inline: pool width 1.
template <typename Fn>
void OnPoolWorker(Fn fn) {
  util::ThreadPool& pool = util::GlobalThreadPool();
  bool on_worker = false;
  pool.Schedule([&] {
    on_worker = util::OnGlobalPoolWorker();
    fn();
  });
  pool.Wait();
  ASSERT_TRUE(on_worker);
}

std::vector<float> Normals(size_t n, util::Rng* rng, float stddev = 1.0f) {
  std::vector<float> values(n);
  for (float& v : values) v = stddev * static_cast<float>(rng->Normal());
  return values;
}

// Backward of SumAll(Mul(y, upstream)): y's gradient is exactly `upstream`
// (0 + 1 * u), so each op under test sees a known random upstream gradient.
void BackwardWith(const Tensor& y, const std::vector<float>& upstream) {
  SumAll(Mul(y, Tensor::FromData(y.shape(), upstream))).Backward();
}

constexpr size_t kHeads = 4;

struct AttentionCase {
  size_t dh, tq, prefix_len;
  float q_scale;  // > 1 sharpens the softmax until probabilities hit 0
};

std::string Describe(const AttentionCase& c) {
  return "dh=" + std::to_string(c.dh) + " T=" + std::to_string(c.tq) +
         " prefix=" + std::to_string(c.prefix_len) +
         " q_scale=" + std::to_string(c.q_scale);
}

// One attention problem with its oracle results.
struct AttentionProblem {
  size_t tq, tk, d;
  std::vector<float> q, k, v, upstream;
  std::vector<float> attn, out, qg, kg, vg;

  AttentionProblem(const AttentionCase& c, uint64_t seed)
      : tq(c.tq), tk(c.prefix_len + c.tq), d(c.dh * kHeads) {
    util::Rng rng(seed);
    q = Normals(tq * d, &rng, c.q_scale);
    k = Normals(tk * d, &rng);
    v = Normals(tk * d, &rng);
    upstream = Normals(tq * d, &rng);
    out.assign(tq * d, 0.0f);
    testing::AttentionForwardReference(q.data(), k.data(), v.data(), tq, d,
                                       kHeads, c.prefix_len, &attn,
                                       out.data());
    qg.assign(q.size(), 0.0f);
    kg.assign(k.size(), 0.0f);
    vg.assign(v.size(), 0.0f);
    testing::AttentionBackwardReference(
        upstream.data(), q.data(), k.data(), v.data(), attn, tq, d, kHeads,
        c.prefix_len, qg.data(), kg.data(), vg.data());
  }
};

void ExpectKernelMatchesOracle(const AttentionCase& c, uint64_t seed) {
  AttentionProblem oracle(c, seed);
  Tensor q = Tensor::FromData({oracle.tq, oracle.d}, oracle.q, true);
  Tensor k = Tensor::FromData({oracle.tk, oracle.d}, oracle.k, true);
  Tensor v = Tensor::FromData({oracle.tk, oracle.d}, oracle.v, true);
  Tensor out = CausalSelfAttention(q, k, v, kHeads, c.prefix_len);
  EXPECT_TRUE(SameBits(out.vec(), oracle.out)) << "output " << Describe(c);
  BackwardWith(out, oracle.upstream);
  EXPECT_TRUE(SameBits(q.grad(), oracle.qg)) << "dQ " << Describe(c);
  EXPECT_TRUE(SameBits(k.grad(), oracle.kg)) << "dK " << Describe(c);
  EXPECT_TRUE(SameBits(v.grad(), oracle.vg)) << "dV " << Describe(c);
}

const size_t kHeadDims[] = {1, 3, 16, 17, 32};

// Every length through two full 16-key blocks plus the prefix, then the
// block edges up to the model's longest sequence.
std::vector<size_t> QueryLengths() {
  std::vector<size_t> lengths;
  for (size_t t = 1; t <= 34; ++t) lengths.push_back(t);
  for (size_t t : {47, 48, 49, 63, 64, 65, 80, 95, 96}) lengths.push_back(t);
  return lengths;
}

void ExpectAllAttentionCasesMatch() {
  uint64_t seed = 1;
  for (size_t dh : kHeadDims) {
    for (size_t prefix_len : {size_t{0}, size_t{3}}) {
      for (size_t tq : QueryLengths()) {
        for (float q_scale : {1.0f, 40.0f}) {
          ExpectKernelMatchesOracle({dh, tq, prefix_len, q_scale}, seed++);
        }
      }
    }
  }
}

TEST(AttentionOracle, MatchesReferenceAtPoolWidthFour) {
  ASSERT_EQ(util::GlobalThreadPool().num_threads(), 4u);
  ExpectAllAttentionCasesMatch();
}

TEST(AttentionOracle, MatchesReferenceAtPoolWidthOne) {
  OnPoolWorker(ExpectAllAttentionCasesMatch);
}

// The kernel keeps no probability output, so read them through V: with
// each head's value rows set to unit vectors e_j (tk <= dh), output column j
// is exactly 0 + a_j * 1, the probability of key j.
TEST(AttentionOracle, ProbabilitiesMatchReference) {
  uint64_t seed = 500;
  for (size_t dh : kHeadDims) {
    for (size_t prefix_len : {size_t{0}, size_t{3}}) {
      for (size_t tq = 1; prefix_len + tq <= dh; ++tq) {
        for (float q_scale : {1.0f, 40.0f}) {
          AttentionCase c{dh, tq, prefix_len, q_scale};
          AttentionProblem oracle(c, seed++);
          size_t tk = oracle.tk, d = oracle.d;
          std::vector<float> unit(tk * d, 0.0f);
          for (size_t h = 0; h < kHeads; ++h) {
            for (size_t j = 0; j < tk; ++j) unit[j * d + h * dh + j] = 1.0f;
          }
          NoGradGuard no_grad;
          Tensor out = CausalSelfAttention(
              Tensor::FromData({tq, d}, oracle.q),
              Tensor::FromData({tk, d}, oracle.k),
              Tensor::FromData({tk, d}, unit), kHeads, prefix_len);
          std::vector<float> probs(kHeads * tq * tk, 0.0f);
          for (size_t h = 0; h < kHeads; ++h) {
            for (size_t i = 0; i < tq; ++i) {
              for (size_t j = 0; j < tk; ++j) {
                probs[(h * tq + i) * tk + j] = out.vec()[i * d + h * dh + j];
              }
            }
          }
          EXPECT_TRUE(SameBits(probs, oracle.attn)) << Describe(c);
        }
      }
    }
  }
}

// q, k and v as one tensor: dQ, dK and dV share one buffer, so every
// element must still see the reference's update order.
TEST(AttentionOracle, SharedOperandMatchesReference) {
  uint64_t seed = 900;
  for (size_t dh : kHeadDims) {
    for (size_t tq : {1, 2, 17, 33, 64}) {
      util::Rng rng(seed++);
      size_t d = dh * kHeads;
      std::vector<float> x = Normals(tq * d, &rng);
      std::vector<float> upstream = Normals(tq * d, &rng);
      std::vector<float> attn, out(tq * d, 0.0f), xg(tq * d, 0.0f);
      testing::AttentionForwardReference(x.data(), x.data(), x.data(), tq, d,
                                         kHeads, 0, &attn, out.data());
      testing::AttentionBackwardReference(upstream.data(), x.data(),
                                          x.data(), x.data(), attn, tq, d,
                                          kHeads, 0, xg.data(), xg.data(),
                                          xg.data());
      Tensor t = Tensor::FromData({tq, d}, x, true);
      Tensor y = CausalSelfAttention(t, t, t, kHeads);
      EXPECT_TRUE(SameBits(y.vec(), out)) << "dh=" << dh << " T=" << tq;
      BackwardWith(y, upstream);
      EXPECT_TRUE(SameBits(t.grad(), xg)) << "dh=" << dh << " T=" << tq;
    }
  }
}

// One row of a ragged attention batch: a query chunk of `tq` rows whose
// keys are `prefix_len` always-visible rows followed by the chunk's own.
struct RaggedRow {
  size_t tq, prefix_len;
};

// CausalSelfAttentionRagged's fan-out threshold in multiply-adds
// (kAttentionParallelMinWork in ops.cc). The batches below sit on either
// side of it.
constexpr size_t kFanOutMinWork = size_t{1} << 15;

// Packs `rows` into one CausalSelfAttentionRagged call under NoGradGuard
// with inputs that require grad, and checks that it records no graph and
// that each row's output block is memcmp-equal to a one-row
// CausalSelfAttention call, with grad mode on (a recorded graph) and off.
void ExpectPackedMatchesOneRowCalls(const std::vector<RaggedRow>& rows,
                                    size_t dh, bool above_fan_out,
                                    uint64_t seed) {
  size_t d = dh * kHeads;
  util::Rng rng(seed);
  std::vector<float> packed_q;
  std::vector<Tensor> qs, keys, values;
  std::vector<size_t> row_lens;
  size_t work = 0;
  for (const RaggedRow& row : rows) {
    size_t tk = row.prefix_len + row.tq;
    std::vector<float> q = Normals(row.tq * d, &rng);
    packed_q.insert(packed_q.end(), q.begin(), q.end());
    qs.push_back(Tensor::FromData({row.tq, d}, q, true));
    keys.push_back(Tensor::FromData({tk, d}, Normals(tk * d, &rng), true));
    values.push_back(Tensor::FromData({tk, d}, Normals(tk * d, &rng), true));
    row_lens.push_back(row.tq);
    work += 4 * row.tq * tk * d;
  }
  std::string what = "dh=" + std::to_string(dh) + " rows=" +
                     std::to_string(rows.size()) +
                     " work=" + std::to_string(work);
  ASSERT_EQ(work >= kFanOutMinWork, above_fan_out) << what;
  Tensor q = Tensor::FromData({packed_q.size() / d, d}, packed_q, true);
  Tensor packed;
  {
    NoGradGuard no_grad;
    packed = CausalSelfAttentionRagged(q, keys, values, row_lens, kHeads);
  }
  EXPECT_FALSE(packed.requires_grad()) << what;
  size_t offset = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    Tensor recorded = CausalSelfAttention(qs[r], keys[r], values[r], kHeads,
                                          rows[r].prefix_len);
    EXPECT_TRUE(recorded.requires_grad()) << what;
    Tensor bare;
    {
      NoGradGuard no_grad;
      bare = CausalSelfAttention(qs[r], keys[r], values[r], kHeads,
                                 rows[r].prefix_len);
    }
    EXPECT_FALSE(bare.requires_grad()) << what;
    EXPECT_TRUE(SameBits(bare.vec(), recorded.vec())) << what << " r=" << r;
    std::vector<float> block(packed.vec().begin() + offset * d,
                             packed.vec().begin() + (offset + rows[r].tq) * d);
    EXPECT_TRUE(SameBits(block, recorded.vec())) << what << " r=" << r;
    offset += rows[r].tq;
  }
}

// Prefix lengths 0, 1 and T-1 in both batches.
void ExpectRaggedBatchesMatch() {
  const std::vector<RaggedRow> small = {{1, 0}, {2, 1}, {3, 2}, {2, 0}};
  const std::vector<RaggedRow> large = {
      {24, 0}, {24, 1}, {24, 23}, {1, 0}, {5, 4}};
  uint64_t seed = 1100;
  for (size_t dh : {1, 3, 16, 17}) {
    ExpectPackedMatchesOneRowCalls(small, dh, false, seed++);
    ExpectPackedMatchesOneRowCalls(large, dh, true, seed++);
  }
}

TEST(RaggedAttention, PackedRowsMatchOneRowCallsAtPoolWidthFour) {
  ASSERT_EQ(util::GlobalThreadPool().num_threads(), 4u);
  ExpectRaggedBatchesMatch();
}

TEST(RaggedAttention, PackedRowsMatchOneRowCallsAtPoolWidthOne) {
  OnPoolWorker(ExpectRaggedBatchesMatch);
}

enum class BinaryOp { kAdd, kMul };

// The broadcast gradients as per-element loops over `i % bn`.
void BroadcastReference(BinaryOp op, const std::vector<float>& a,
                        const std::vector<float>& b,
                        const std::vector<float>& g, std::vector<float>* ag,
                        std::vector<float>* bg) {
  size_t n = a.size(), bn = b.size();
  ag->assign(n, 0.0f);
  bg->assign(bn, 0.0f);
  for (size_t i = 0; i < n; ++i) {
    switch (op) {
      case BinaryOp::kAdd:
        (*ag)[i] += g[i];
        (*bg)[i % bn] += g[i];
        break;
      case BinaryOp::kMul:
        (*ag)[i] += g[i] * b[i % bn];
        (*bg)[i % bn] += g[i] * a[i];
        break;
    }
  }
}

void ExpectBroadcastGradientsMatch() {
  struct Shapes {
    Shape a, b;
  };
  const Shapes shapes[] = {
      {{7, 16}, {7, 16}},  {{1, 1}, {1, 1}},     {{64, 17}, {17}},
      {{5, 64}, {64}},     {{3, 5}, {1}},        {{96}, {1}},
      {{2, 3, 5}, {3, 5}}, {{2, 3, 5}, {5}},     {{33, 128}, {128}},
  };
  uint64_t seed = 1000;
  for (const Shapes& s : shapes) {
    for (BinaryOp op : {BinaryOp::kAdd, BinaryOp::kMul}) {
      util::Rng rng(seed++);
      std::vector<float> a = Normals(NumElements(s.a), &rng);
      std::vector<float> b = Normals(NumElements(s.b), &rng);
      std::vector<float> g = Normals(a.size(), &rng);
      Tensor ta = Tensor::FromData(s.a, a, true);
      Tensor tb = Tensor::FromData(s.b, b, true);
      Tensor y = op == BinaryOp::kAdd ? Add(ta, tb) : Mul(ta, tb);
      BackwardWith(y, g);
      std::vector<float> ag, bg;
      BroadcastReference(op, a, b, g, &ag, &bg);
      std::string what = ShapeToString(s.a) + " op" +
                         std::to_string(static_cast<int>(op)) + " " +
                         ShapeToString(s.b);
      EXPECT_TRUE(SameBits(ta.grad(), ag)) << "dA " << what;
      EXPECT_TRUE(SameBits(tb.grad(), bg)) << "dB " << what;
    }
  }
}

TEST(BroadcastOracle, GradientsMatchPerElementLoops) {
  ExpectBroadcastGradientsMatch();
  OnPoolWorker(ExpectBroadcastGradientsMatch);
}

TEST(SiluOracle, GradientMatchesRecomputedSigmoid) {
  util::Rng rng(77);
  for (size_t n : {1, 7, 16, 100, 1027}) {
    std::vector<float> x = Normals(n, &rng, 4.0f);
    x[0] = 0.0f;
    if (n > 2) {
      x[1] = -90.0f;  // exp(-x) overflows: den = Inf
      x[2] = 90.0f;
    }
    std::vector<float> g = Normals(n, &rng);
    Tensor t = Tensor::FromData({n}, x, true);
    Tensor y = Silu(t);
    BackwardWith(y, g);
    std::vector<float> expected(n, 0.0f);
    for (size_t i = 0; i < n; ++i) {
      float s = 1.0f / (1.0f + std::exp(-x[i]));
      expected[i] += g[i] * (s * (1.0f + x[i] * (1.0f - s)));
    }
    EXPECT_TRUE(SameBits(t.grad(), expected)) << "n=" << n;
    // Without a graph the forward is the same arithmetic.
    NoGradGuard no_grad;
    EXPECT_TRUE(SameBits(Silu(t).vec(), y.vec())) << "n=" << n;
  }
}

}  // namespace
}  // namespace infuserki::tensor
