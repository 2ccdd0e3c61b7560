// Graph-free inference fast path.
//
// EvalMode is a thread-local RAII guard: while one is alive on a thread, every
// op in ops.cc skips autodiff bookkeeping entirely — no input edges, no
// backward closure, requires_grad pinned to false — and writes its output into
// a buffer recycled from the thread's WorkspaceArena instead of a fresh heap
// allocation.  The numeric kernels are the very same code that runs in graph
// mode, so eval-mode outputs are bitwise identical to graph-mode outputs
// (tests/eval_mode_test.cc enforces 0 ULP for every op).
//
// The arena recycles whole graph nodes.  A node is reusable exactly when no
// live Tensor handle references it any more (shared-ownership count of one,
// arena-only); tensors that escape the eval scope therefore stay valid forever
// — they merely pin their node out of the pool.  Recycling is per-thread and
// lock-free, matching the episode-parallel trainer's thread-isolated graphs.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace fewner::tensor {

/// Per-thread pool of computation-graph nodes backing eval-mode op outputs.
/// Buffers keep their capacity across reuse, so steady-state tagging of
/// same-shaped sentences performs no float allocations at all — but only up
/// to a bound: a recycled buffer larger than 2n + 4096 floats for an
/// n-element output is released first, so one huge output cannot pin its
/// capacity in the pool for the life of the thread.
class WorkspaceArena {
 public:
  /// The calling thread's arena (created on first use).
  static WorkspaceArena& ThreadLocal();

  /// A node owned only by the arena and the returned handle, for an output
  /// of `numel` elements.  Its values buffer holds stale data from a previous
  /// op (or none); callers must resize to `numel` and overwrite (or zero) it.
  std::shared_ptr<internal::Node> Acquire(size_t numel);

  /// Drops every pooled node (frees the float buffers of nodes no Tensor
  /// references; pinned nodes stay alive through their handles).
  void Clear();

  /// Nodes currently owned by the pool.
  size_t pool_size() const { return pool_.size(); }

  /// Lifetime counters: how many Acquire() calls recycled a node vs. grew the
  /// pool.  Diagnostics for tests.
  uint64_t reuse_count() const { return reuses_; }
  uint64_t alloc_count() const { return allocs_; }

 private:
  /// Entries scanned per Acquire before giving up and growing the pool; bounds
  /// the cost when many nodes are pinned by escaped tensors.
  static constexpr size_t kMaxScan = 64;

  std::vector<std::shared_ptr<internal::Node>> pool_;
  size_t cursor_ = 0;
  uint64_t reuses_ = 0;
  uint64_t allocs_ = 0;
};

namespace internal {
/// Whether the current thread is inside an EvalMode scope.  Read on every op;
/// inline thread-local keeps it a plain TLS load.
inline thread_local bool g_eval_mode_active = false;
}  // namespace internal

/// RAII guard enabling the graph-free fast path on the current thread.
/// Nests: the previous state is restored on destruction.
class EvalMode {
 public:
  EvalMode() : prev_(internal::g_eval_mode_active) {
    internal::g_eval_mode_active = true;
  }
  ~EvalMode() { internal::g_eval_mode_active = prev_; }

  EvalMode(const EvalMode&) = delete;
  EvalMode& operator=(const EvalMode&) = delete;

  static bool active() { return internal::g_eval_mode_active; }

 private:
  bool prev_;
};

}  // namespace fewner::tensor
