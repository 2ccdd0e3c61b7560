// Single-precision GEMM kernel for the op layer.
//
// One register-tiled kernel computes every product the op layer needs:
// c[m, n] = op(A)·b with b row-major [k, n].  It tiles the output in 4x8
// blocks so each loaded B row is reused across four A rows and the eight
// accumulators stay in registers across the whole k loop.  The inner loops
// carry portable vectorization hints (omp simd when available,
// compiler-specific pragmas otherwise) and no fast-math assumptions.
//
// A's layout is a compile-time parameter, so each instance compiles to its
// own inner loop:
//   - kRowMajor (NN): A is [m, lda], element (i, kk) at a[i·lda + kk];
//   - kColMajor (TN, Aᵀ·B): A is stored [k, lda] and C's rows are A's
//     columns, element (i, kk) at a[kk·lda + i].  Per k step the four A
//     values are contiguous (one row of the stored A) and the B row is
//     contiguous, so Aᵀ·B runs at NN speed with zero copies: MatMul's
//     backward dW = xᵀ·grad needs no materialized activation transpose.
// An explicit lda lets a row range of C be computed in isolation, which is
// what the row-sharded dispatcher (tensor/intraop.h) needs.
//
// NT (A·Bᵀ) packs Bᵀ into a per-thread scratch buffer and runs the row-major
// instance.  A direct NT kernel cannot vectorize: both operands stream along
// k, and the bitwise contract below forbids splitting the k accumulation
// across SIMD lanes.  Packing performs exactly the data movement a
// graph-level `Transpose(b)` would — same bits — but without a graph node,
// without an allocation in steady state (the scratch is reused), and packed
// once per call even when the multiply itself is row-sharded across threads.
// B here is the *weight* operand ([k, n] with k·n ≪ m·k·n flops), so the
// pack is noise next to the multiply.
//
// Bitwise contract: for every output element, partial products are accumulated
// in ascending contraction order onto a single accumulator — exactly the
// sequence the reference i-k-j loop performs — so results are identical to the
// last bit (0 ULP) to the naive references for finite inputs, regardless of
// tile remainders, and NT/TN results are identical to transpose-then-NN (same
// products, same order; IEEE multiplication is commutative).
// tests/gemm_kernel_test.cc enforces this on non-multiple-of-tile shapes.
// Keeping the order fixed is what lets eval mode and graph mode share this
// kernel while the differential suite demands bitwise equality, and is also
// what makes row-sharded parallel dispatch bitwise-safe: the per-element
// sequence does not depend on which slab — or thread — computes the element.

#pragma once

#include <cstdint>

namespace fewner::tensor::kernel {

/// How the blocked kernel reads A (see header comment).
enum class ALayout { kRowMajor, kColMajor };

/// Offset of op(A)'s row i in A's storage: where a block of C rows starting
/// at row i reads A from.
template <ALayout kA>
constexpr int64_t ARowOffset(int64_t i, int64_t lda) {
  return kA == ALayout::kRowMajor ? i * lda : i;
}

/// c[m, n] = op(A)[m, k] * b[k, n], row-major c fully overwritten, serial.
/// A is read as a[i·lda + kk] (kRowMajor) or a[kk·lda + i] (kColMajor).
/// Instantiated for both layouts in matmul_kernel.cc.
template <ALayout kA>
void SerialGemm(const float* a, int64_t lda, const float* b, float* c,
                int64_t m, int64_t k, int64_t n);

/// dst[cols, rows] = src[rows, cols]ᵀ — the pack step of NT.
void PackTranspose(const float* src, float* dst, int64_t rows, int64_t cols);

/// Thread-local scratch of at least `numel` floats, reused across calls.
/// Valid until the calling thread's next TransposeScratch call.
float* TransposeScratch(int64_t numel);

}  // namespace fewner::tensor::kernel
