// Differential test of the GEMM kernel (tensor/gemm.h) against the scalar
// loops it replaced (tests/gemm_reference.h), plus the kernel's row
// invariance contract (DESIGN.md §7): a row of C is bit-identical however
// many rows are computed with it, wherever it sits in A, and at any
// thread-pool width.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/gemm.h"
#include "tests/gemm_reference.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace infuserki::tensor {
namespace {

bool SameBits(const float* a, const float* b, size_t count) {
  return std::memcmp(a, b, count * sizeof(float)) == 0;
}

// Pins the global pool to four workers before anything touches it, so the
// parallel split is exercised even on small hosts. Runs before main().
[[maybe_unused]] const bool kPoolWidthPinned = [] {
  setenv("INFUSERKI_NUM_THREADS", "4", /*overwrite=*/1);
  return true;
}();

const size_t kSizes[] = {1, 2, 3, 4, 5, 7, 15, 16, 17, 31, 33, 64, 65, 128};

enum class Layout { kNN, kNT, kTN };

std::string Name(Layout layout) {
  switch (layout) {
    case Layout::kNN:
      return "NN";
    case Layout::kNT:
      return "NT";
    case Layout::kTN:
      return "TN";
  }
  return "?";
}

/// One C[rows, n] += A * B problem in `layout`, where the reduction runs
/// over k. Operand shapes follow the entry points: NN A[m,k] B[k,n];
/// NT A[m,k] B[n,k]; TN A[k,m] B[k,n] (output rows are A's columns).
struct Problem {
  Layout layout;
  size_t m, k, n;
  std::vector<float> a, b;

  Problem(Layout l, size_t m_, size_t k_, size_t n_, uint64_t seed)
      : layout(l), m(m_), k(k_), n(n_), a(m_ * k_), b(k_ * n_) {
    util::Rng rng(seed);
    for (float& v : a) v = static_cast<float>(rng.Normal());
    for (float& v : b) v = static_cast<float>(rng.Normal());
  }

  float A(size_t i, size_t p) const {
    return layout == Layout::kTN ? a[p * m + i] : a[i * k + p];
  }
  float B(size_t p, size_t j) const {
    return layout == Layout::kNT ? b[j * k + p] : b[p * n + j];
  }

  void Kernel(float* c) const {
    switch (layout) {
      case Layout::kNN:
        return GemmNN(a.data(), b.data(), c, m, k, n);
      case Layout::kNT:
        return GemmNT(a.data(), b.data(), c, m, k, n);
      case Layout::kTN:
        return GemmTN(a.data(), b.data(), c, k, m, n);
    }
  }

  void Reference(float* c) const {
    switch (layout) {
      case Layout::kNN:
        return testing::GemmAcc(a.data(), b.data(), c, m, k, n);
      case Layout::kNT:
        return testing::GemmNTAcc(a.data(), b.data(), c, m, k, n);
      case Layout::kTN:
        return testing::GemmTNAcc(a.data(), b.data(), c, k, m, n);
    }
  }

  /// The kernel's C for A restricted to rows [first, first + rows): a
  /// fresh problem whose A holds just those rows.
  std::vector<float> KernelRows(size_t first, size_t rows) const {
    Problem sub(layout, rows, k, n, 0);
    sub.b = b;
    for (size_t i = 0; i < rows; ++i) {
      for (size_t p = 0; p < k; ++p) {
        float v = A(first + i, p);
        (layout == Layout::kTN ? sub.a[p * rows + i] : sub.a[i * k + p]) = v;
      }
    }
    std::vector<float> c(rows * n, 0.0f);
    sub.Kernel(c.data());
    return c;
  }
};

/// Error bound: both the kernel and the reference sum k products in
/// float, each within gamma_k = k * eps / (1 - k * eps) of sum |a * b|
/// (Higham, recursive summation). Their difference is therefore within
/// 2 * gamma_k * sum |a * b|; a small absolute floor covers k = 1.
void ExpectNearReference(const Problem& problem) {
  std::string label = Name(problem.layout) + " m=" + std::to_string(problem.m);
  label += " k=" + std::to_string(problem.k);
  label += " n=" + std::to_string(problem.n);
  SCOPED_TRACE(label);
  std::vector<float> kernel(problem.m * problem.n, 0.0f);
  std::vector<float> reference(problem.m * problem.n, 0.0f);
  problem.Kernel(kernel.data());
  problem.Reference(reference.data());
  double keps = static_cast<double>(problem.k) * FLT_EPSILON;
  double gamma = keps / (1.0 - keps);
  size_t failures = 0;
  for (size_t i = 0; i < problem.m; ++i) {
    for (size_t j = 0; j < problem.n; ++j) {
      double magnitude = 0.0;
      for (size_t p = 0; p < problem.k; ++p) {
        double term = static_cast<double>(problem.A(i, p)) * problem.B(p, j);
        magnitude += std::fabs(term);
      }
      double bound = 2.0 * gamma * magnitude + 1e-30;
      size_t at = i * problem.n + j;
      double diff = std::fabs(static_cast<double>(kernel[at]) - reference[at]);
      EXPECT_LE(diff, bound) << "C[" << i << "," << j << "]";
      if (diff > bound && ++failures == 5) return;  // enough to diagnose
    }
  }
}

TEST(GemmKernel, MatchesReferenceOnEveryShape) {
  uint64_t seed = 1;
  for (Layout layout : {Layout::kNN, Layout::kNT, Layout::kTN}) {
    for (size_t m : kSizes) {
      for (size_t k : kSizes) {
        for (size_t n : kSizes) {
          ExpectNearReference(Problem(layout, m, k, n, seed++));
        }
      }
    }
  }
}

TEST(GemmKernel, MatchesReferenceOnHeadShape) {
  // The tied vocabulary head: 3100 outputs over a 64-wide hidden state, at
  // one decode row and at a batch of 8 (and its backward layouts).
  for (Layout layout : {Layout::kNN, Layout::kNT, Layout::kTN}) {
    for (size_t m : {size_t{1}, size_t{8}}) {
      ExpectNearReference(Problem(layout, m, 64, 3100, 100 + m));
    }
  }
  ExpectNearReference(Problem(Layout::kNN, 8, 3100, 64, 7));
  ExpectNearReference(Problem(Layout::kTN, 3100, 8, 64, 8));
}

TEST(GemmKernel, EmptyReductionLeavesCUntouched) {
  for (Layout layout : {Layout::kNN, Layout::kNT, Layout::kTN}) {
    Problem problem(layout, 5, 0, 17, 3);
    std::vector<float> c = {-0.0f, 1.5f, -2.0f};
    c.resize(5 * 17, 3.25f);
    std::vector<float> before = c;
    problem.Kernel(c.data());
    EXPECT_TRUE(SameBits(c.data(), before.data(), c.size())) << Name(layout);
  }
}

TEST(GemmKernel, AccumulatesIntoNonzeroC) {
  // Contract: the k-sum is formed from 0 and added to C once, so C0 + A*B
  // equals C0 plus the kernel's product into zeros, bit for bit.
  util::Rng rng(5);
  for (Layout layout : {Layout::kNN, Layout::kNT, Layout::kTN}) {
    for (size_t m : {size_t{1}, size_t{7}, size_t{33}}) {
      SCOPED_TRACE(Name(layout) + " m=" + std::to_string(m));
      Problem problem(layout, m, 31, 33, 40 + m);
      std::vector<float> c0(m * 33);
      for (float& v : c0) v = static_cast<float>(rng.Normal());
      std::vector<float> product(c0.size(), 0.0f);
      problem.Kernel(product.data());
      std::vector<float> c = c0;
      problem.Kernel(c.data());
      for (size_t i = 0; i < c.size(); ++i) {
        float expected = c0[i] + product[i];
        ASSERT_TRUE(SameBits(&c[i], &expected, 1)) << "element " << i;
      }
      // And it still agrees with the reference accumulating into C0.
      std::vector<float> reference = c0;
      problem.Reference(reference.data());
      for (size_t i = 0; i < c.size(); ++i) {
        EXPECT_NEAR(c[i], reference[i], 1e-4f) << "element " << i;
      }
    }
  }
}

void ExpectRowsEqual(const std::vector<float>& whole, size_t first,
                     const std::vector<float>& rows, size_t n,
                     const std::string& what) {
  bool same = SameBits(whole.data() + first * n, rows.data(), rows.size());
  EXPECT_TRUE(same) << what;
}

TEST(GemmKernel, RowsAreBitwiseInvariantToBatchAndOffset) {
  for (Layout layout : {Layout::kNN, Layout::kNT, Layout::kTN}) {
    for (size_t n : {size_t{17}, size_t{64}, size_t{3100}}) {
      SCOPED_TRACE(Name(layout) + " n=" + std::to_string(n));
      Problem problem(layout, 37, 64, n, 60 + n);
      std::vector<float> whole(37 * n, 0.0f);
      problem.Kernel(whole.data());
      for (size_t row : {size_t{0}, size_t{3}, size_t{17}, size_t{36}}) {
        std::string what = "row " + std::to_string(row) + " alone";
        ExpectRowsEqual(whole, row, problem.KernelRows(row, 1), n, what);
      }
      // A row block at an offset that straddles tile boundaries.
      ExpectRowsEqual(whole, 6, problem.KernelRows(6, 11), n, "rows 6..16");
    }
  }
}

TEST(GemmKernel, RowsAreBitwiseInvariantToPoolWidth) {
  util::ThreadPool& pool = util::GlobalThreadPool();
  ASSERT_EQ(pool.num_threads(), 4u);
  for (Layout layout : {Layout::kNN, Layout::kNT, Layout::kTN}) {
    // Large enough to split across the pool (see kParallelMinWork).
    Problem problem(layout, 130, 128, 200, 90);
    std::vector<float> wide(130 * 200, 0.0f);
    problem.Kernel(wide.data());
    // On a pool worker, nested parallel loops run inline: width 1.
    std::vector<float> narrow(wide.size(), 0.0f);
    bool on_worker = false;
    pool.Schedule([&] {
      on_worker = util::OnGlobalPoolWorker();
      problem.Kernel(narrow.data());
    });
    pool.Wait();
    ASSERT_TRUE(on_worker);
    bool same = SameBits(wide.data(), narrow.data(), wide.size());
    EXPECT_TRUE(same) << Name(layout);
  }
}

}  // namespace
}  // namespace infuserki::tensor
