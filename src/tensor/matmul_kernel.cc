#include "tensor/matmul_kernel.h"

#include <cstddef>
#include <vector>

// Vectorization hint for an inner loop whose iterations are independent.
// Ordered weakest-assumption first: `omp simd` when the build enables it
// (-fopenmp-simd, no runtime), otherwise a compiler-specific no-dependence
// pragma.  None of these permit reassociation of the k accumulation — the
// bitwise contract in the header depends on that.
#if defined(FEWNER_HAVE_OMP_SIMD)
#define FEWNER_SIMD _Pragma("omp simd")
#elif defined(__clang__)
#define FEWNER_SIMD _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define FEWNER_SIMD _Pragma("GCC ivdep")
#else
#define FEWNER_SIMD
#endif

namespace fewner::tensor::kernel {

namespace {

constexpr int64_t kRowTile = 4;  ///< A rows per register block
constexpr int64_t kColTile = 8;  ///< C columns per register block (2 SSE lanes)

/// Element (i, kk) of op(A).
template <ALayout kA>
inline float AAt(const float* a, int64_t lda, int64_t i, int64_t kk) {
  if constexpr (kA == ALayout::kRowMajor) {
    return a[i * lda + kk];
  } else {
    return a[kk * lda + i];
  }
}

/// One MI x kColTile output block: accumulators live in registers across the
/// whole k loop; each B row is loaded once and reused by all MI A rows.
template <ALayout kA, int MI>
inline void MicroTile(const float* a, int64_t lda, const float* b, float* c,
                      int64_t k, int64_t n, int64_t j0) {
  float acc[MI][kColTile] = {};
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * n + j0;
    for (int ii = 0; ii < MI; ++ii) {
      const float aik = AAt<kA>(a, lda, ii, kk);
      FEWNER_SIMD
      for (int jj = 0; jj < kColTile; ++jj) acc[ii][jj] += aik * brow[jj];
    }
  }
  for (int ii = 0; ii < MI; ++ii) {
    FEWNER_SIMD
    for (int jj = 0; jj < kColTile; ++jj) c[ii * n + j0 + jj] = acc[ii][jj];
  }
}

/// Remainder columns [j0, n): one scalar accumulator per output element,
/// still ascending in k.
template <ALayout kA, int MI>
inline void TailCols(const float* a, int64_t lda, const float* b, float* c,
                     int64_t k, int64_t n, int64_t j0) {
  for (int ii = 0; ii < MI; ++ii) {
    for (int64_t j = j0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += AAt<kA>(a, lda, ii, kk) * b[kk * n + j];
      }
      c[ii * n + j] = acc;
    }
  }
}

/// MI consecutive rows of C.
template <ALayout kA, int MI>
void RowBlock(const float* a, int64_t lda, const float* b, float* c, int64_t k,
              int64_t n) {
  int64_t j = 0;
  for (; j + kColTile <= n; j += kColTile) {
    MicroTile<kA, MI>(a, lda, b, c, k, n, j);
  }
  if (j < n) TailCols<kA, MI>(a, lda, b, c, k, n, j);
}

}  // namespace

template <ALayout kA>
void SerialGemm(const float* a, int64_t lda, const float* b, float* c,
                int64_t m, int64_t k, int64_t n) {
  int64_t i = 0;
  for (; i + kRowTile <= m; i += kRowTile) {
    RowBlock<kA, kRowTile>(a + ARowOffset<kA>(i, lda), lda, b, c + i * n, k, n);
  }
  const float* ai = a + ARowOffset<kA>(i, lda);
  switch (m - i) {
    case 3:
      RowBlock<kA, 3>(ai, lda, b, c + i * n, k, n);
      break;
    case 2:
      RowBlock<kA, 2>(ai, lda, b, c + i * n, k, n);
      break;
    case 1:
      RowBlock<kA, 1>(ai, lda, b, c + i * n, k, n);
      break;
    default:
      break;
  }
}

template void SerialGemm<ALayout::kRowMajor>(const float*, int64_t, const float*,
                                             float*, int64_t, int64_t, int64_t);
template void SerialGemm<ALayout::kColMajor>(const float*, int64_t, const float*,
                                             float*, int64_t, int64_t, int64_t);

void PackTranspose(const float* src, float* dst, int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* srow = src + r * cols;
    for (int64_t cc = 0; cc < cols; ++cc) dst[cc * rows + r] = srow[cc];
  }
}

float* TransposeScratch(int64_t numel) {
  static thread_local std::vector<float> scratch;
  if (static_cast<int64_t>(scratch.size()) < numel) {
    scratch.resize(static_cast<size_t>(numel));
  }
  return scratch.data();
}

}  // namespace fewner::tensor::kernel
