#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "tensor/simd.h"
#include "util/threadpool.h"

namespace infuserki::tensor {
namespace {

// Tile shape: up to kMr rows of A against one panel of kNr columns of B.
constexpr size_t kNr = 16;
constexpr size_t kMr = 4;

using internal::kLanes;
using internal::Vec;
static_assert(kNr % kLanes == 0);
constexpr size_t kVecs = kNr / kLanes;  // vectors per panel row

// Rows of A handed to one pool task: bounds how often a packed panel is
// reused before the next task packs it again.
constexpr size_t kRowBlock = 64;

// GEMMs below this many multiply-adds run inline: thread-pool dispatch
// costs more than the arithmetic. Partitioning only decides which thread
// computes which tile, never how an element is summed, so the choice never
// changes results.
constexpr size_t kParallelMinWork = size_t{1} << 19;

// Element (i, j) of a matrix operand is data[i * row_stride + j * col_stride].
struct Operand {
  const float* data;
  size_t row_stride;
  size_t col_stride;
};

void CountGemm(size_t m, size_t k, size_t n) {
  static obs::Counter* calls =
      obs::Registry::Get().GetCounter("tensor/gemm_calls");
  static obs::Counter* flops =
      obs::Registry::Get().GetCounter("tensor/gemm_flops");
  calls->Increment();
  flops->Increment(2 * m * k * n);
}

// The one GEMM loop nest. Computes an R x kNr tile of A*B over the whole k
// and adds its first `cols` columns to C. `a_rows` holds R row pointers
// into A; `panel` holds k rows of kNr values spaced `ldp` floats apart.
// Every tile, full or tail, runs this code: R only sets how many rows
// share each panel load, never how an element is summed. The unroll
// pragmas keep the accumulators in registers at -O2 as well as -O3.
template <size_t R>
void Tile(const float* const* a_rows, size_t a_col_stride, const float* panel,
          size_t ldp, size_t k, float* c, size_t ldc, size_t cols) {
  Vec acc[R][kVecs] = {};
  for (size_t p = 0; p < k; ++p) {
    Vec b[kVecs];
    std::memcpy(b, panel + p * ldp, sizeof b);
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      float a = a_rows[r][p * a_col_stride];
#pragma GCC unroll 4
      for (size_t v = 0; v < kVecs; ++v) acc[r][v] += a * b[v];
    }
  }
  for (size_t r = 0; r < R; ++r) {
    float* c_row = c + r * ldc;
    if (cols == kNr) {
      Vec sum[kVecs];
      std::memcpy(sum, c_row, sizeof sum);
      for (size_t v = 0; v < kVecs; ++v) sum[v] += acc[r][v];
      std::memcpy(c_row, sum, sizeof sum);
    } else {
      for (size_t j = 0; j < cols; ++j) {
        c_row[j] += acc[r][j / kLanes][j % kLanes];
      }
    }
  }
}

// Copies columns [j0, j0 + cols) of B into a k x kNr panel, zero-filling
// lanes past `cols`. When B's columns are contiguous (the MatmulNT weight
// layout), kLanes x kLanes blocks are transposed in registers.
void PackPanel(const Operand& b, size_t j0, size_t cols, size_t k,
               float* panel) {
  const float* data = b.data + j0 * b.col_stride;
  const size_t row_stride = b.row_stride;
  const size_t col_stride = b.col_stride;
  size_t p = 0;
  if (row_stride == 1) {
    for (; p + kLanes <= k; p += kLanes) {
      for (size_t g = 0; g < kNr; g += kLanes) {
        Vec block[kLanes] = {};
#pragma GCC unroll 16
        for (size_t i = 0; i < kLanes; ++i) {
          if (g + i < cols) {
            std::memcpy(&block[i], data + (g + i) * col_stride + p,
                        sizeof(Vec));
          }
        }
        internal::Transpose(block);
#pragma GCC unroll 16
        for (size_t i = 0; i < kLanes; ++i) {
          std::memcpy(panel + (p + i) * kNr + g, &block[i], sizeof(Vec));
        }
      }
    }
  }
  for (; p < k; ++p) {
    for (size_t j = 0; j < kNr; ++j) {
      panel[p * kNr + j] =
          j < cols ? data[p * row_stride + j * col_stride] : 0.0f;
    }
  }
}

// C[m,n] += A[m,k] * B[k,n] for strided operands; C is row-major with row
// stride n.
void Gemm(const Operand& a, const Operand& b, float* c, size_t m, size_t k,
          size_t n) {
  CountGemm(m, k, n);
  if (m == 0 || n == 0 || k == 0) return;
  size_t panels = (n + kNr - 1) / kNr;
  size_t row_blocks = (m + kRowBlock - 1) / kRowBlock;
  size_t units = panels * row_blocks;
  size_t grain = m * k * n < kParallelMinWork ? units : 1;
  util::ParallelFor(units, grain, [&](size_t begin, size_t end) {
    thread_local std::vector<float> buffer;
    if (buffer.size() < k * kNr) buffer.resize(k * kNr);
    size_t packed = panels;  // none yet
    for (size_t unit = begin; unit < end; ++unit) {
      size_t panel = unit / row_blocks;
      size_t j0 = panel * kNr;
      size_t cols = std::min(kNr, n - j0);
      const float* panel_data = b.data + j0;
      size_t ldp = b.row_stride;
      if (b.col_stride != 1 || cols < kNr) {
        if (packed != panel) PackPanel(b, j0, cols, k, buffer.data());
        packed = panel;
        panel_data = buffer.data();
        ldp = kNr;
      }
      size_t row_begin = (unit % row_blocks) * kRowBlock;
      size_t row_end = std::min(m, row_begin + kRowBlock);
      const float* a_rows[kMr];
      size_t i = row_begin;
      for (; i + kMr <= row_end; i += kMr) {
        for (size_t r = 0; r < kMr; ++r) {
          a_rows[r] = a.data + (i + r) * a.row_stride;
        }
        Tile<kMr>(a_rows, a.col_stride, panel_data, ldp, k, c + i * n + j0, n,
                  cols);
      }
      for (; i < row_end; ++i) {
        a_rows[0] = a.data + i * a.row_stride;
        Tile<1>(a_rows, a.col_stride, panel_data, ldp, k, c + i * n + j0, n,
                cols);
      }
    }
  });
}

}  // namespace

void GemmNN(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n) {
  Gemm({a, k, 1}, {b, n, 1}, c, m, k, n);
}

void GemmNT(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n) {
  Gemm({a, k, 1}, {b, 1, k}, c, m, k, n);
}

void GemmTN(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n) {
  // Output rows are A's columns; the sum runs over A's rows.
  Gemm({a, 1, k}, {b, n, 1}, c, k, m, n);
}

}  // namespace infuserki::tensor
