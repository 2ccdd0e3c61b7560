// Deterministic intra-op parallelism for the GEMM layer.
//
// The Gemm* entry points front the matmul kernel with a row-sharded parallel
// dispatch: C's rows are partitioned into disjoint contiguous slabs, each
// computed by exactly one thread running the ordinary serial kernel over its
// range.  Because every output element is owned by a single slab and the
// kernel accumulates each element on a single ascending-k chain (see
// matmul_kernel.h), the result is bitwise-identical for ANY thread count,
// including 1 — the partition changes which thread runs a given element's
// loop, never the loop itself.  There is no reduction and no shared write:
// determinism falls out of disjoint ownership, not of synchronization order.
//
// Small GEMMs stay serial: dispatch costs a queue round-trip per slab, so a
// multiply is only sharded when its flop volume (m·k·n) clears a threshold
// and there are enough rows for at least two full slabs.
//
// The slab budget is the scoped, thread-local ParallelismBudget.  Its default
// comes from FEWNER_INTRAOP_THREADS (unset -> 1, "0" -> all hardware
// threads, same grammar as FEWNER_THREADS).  Nesting with the episode-level
// parallelism of meta::ParallelMetaBatch (DESIGN.md §5) is arbitrated by
// scope: meta-batch workers run their tasks under ParallelismBudget(1), so
// during training the coarse episode grain owns the cores; at adaptation /
// serving time — the single-task path the paper's timing analysis cares
// about — no worker scope is active and the full budget applies.  Slabs run
// on a shared, lazily created pool that is independent of the episode pool,
// and each dispatch waits on its own latch, so concurrent servers can
// dispatch in parallel without blocking on each other's slabs.

#pragma once

#include <cstdint>

namespace fewner::tensor {

/// RAII scope setting the calling thread's intra-op slab budget.  Budgets
/// clamp to >= 1; the previous scope (or the FEWNER_INTRAOP_THREADS default)
/// is restored on destruction.  Thread-local: a scope on one thread never
/// affects GEMMs issued by another.
class ParallelismBudget {
 public:
  explicit ParallelismBudget(int64_t threads);
  ~ParallelismBudget();

  ParallelismBudget(const ParallelismBudget&) = delete;
  ParallelismBudget& operator=(const ParallelismBudget&) = delete;

  /// The budget in effect on the calling thread: the innermost live scope,
  /// else the FEWNER_INTRAOP_THREADS default.
  static int64_t current();

 private:
  int64_t prev_;  ///< enclosing scope's raw budget, restored on destruction
};

namespace kernel {

// The three layouts share one dispatcher over the one serial kernel
// (matmul_kernel.h): each entry is row-sharded when profitable, and the
// sharded result is bitwise the serial one.

/// c[m, n] = a[m, k] * b[k, n].
void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n);

/// c[m, n] = a[m, k] * b[n, k]ᵀ — bᵀ is packed once on the calling thread,
/// then the row-major kernel runs over the pack.
void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n);

/// c[m, n] = a[k, m]ᵀ * b[k, n] — the column-major kernel reads `a` in place;
/// a slab addresses a column block of `a` through its leading dimension.
void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n);

}  // namespace kernel
}  // namespace fewner::tensor
