#include "tensor/eval_mode.h"

namespace fewner::tensor {

WorkspaceArena& WorkspaceArena::ThreadLocal() {
  static thread_local WorkspaceArena arena;
  return arena;
}

std::shared_ptr<internal::Node> WorkspaceArena::Acquire(size_t numel) {
  const size_t n = pool_.size();
  const size_t scan = n < kMaxScan ? n : kMaxScan;
  for (size_t step = 0; step < scan; ++step) {
    if (cursor_ >= n) cursor_ = 0;
    std::shared_ptr<internal::Node>& slot = pool_[cursor_++];
    // use_count == 1 means only the pool holds the node: every Tensor handle
    // to this output has been dropped, so its buffer can be reused.
    if (slot.use_count() == 1) {
      ++reuses_;
      internal::Node* node = slot.get();
      node->requires_grad = false;
      node->inputs.clear();
      node->backward = nullptr;
      // Bound what the pool keeps: a buffer far larger than this output
      // would otherwise stay pinned at its high-water mark forever.
      if (node->values.capacity() > 2 * numel + 4096) {
        std::vector<float>().swap(node->values);
      }
      return slot;
    }
  }
  ++allocs_;
  pool_.push_back(std::make_shared<internal::Node>());
  cursor_ = 0;
  return pool_.back();
}

void WorkspaceArena::Clear() {
  pool_.clear();
  cursor_ = 0;
}

}  // namespace fewner::tensor
