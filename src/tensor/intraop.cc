#include "tensor/intraop.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "tensor/matmul_kernel.h"
#include "util/thread_pool.h"

namespace fewner::tensor {

namespace {

/// Innermost live ParallelismBudget scope on this thread; 0 means "no scope",
/// which falls back to the FEWNER_INTRAOP_THREADS default.
thread_local int64_t g_budget = 0;

int64_t DefaultBudget() {
  static const int64_t cached = util::ThreadCountFromEnv("FEWNER_INTRAOP_THREADS");
  return cached;
}

/// Minimum flop volume (m·k·n) before a GEMM is worth sharding: below this,
/// the per-slab queue round-trip eats the win.  ~a [128, 64]x[64, 32] step.
constexpr int64_t kFlopThreshold = int64_t{1} << 18;

/// Minimum C rows per slab — two full 4-row register tiles, so sharding never
/// degrades a slab into all-remainder row blocks.
constexpr int64_t kMinSlabRows = 8;

/// Shared pool for intra-op slabs, created on first parallel dispatch and
/// intentionally leaked: tests and benches may run GEMMs from static-teardown
/// contexts, and joining workers in a static destructor would race them.
/// Sized to the hardware minus the dispatching caller, which always executes
/// slab 0 itself.
util::ThreadPool& SlabPool() {
  static util::ThreadPool* pool = []() {
    const unsigned hw = std::thread::hardware_concurrency();
    return new util::ThreadPool(std::max<int64_t>(1, static_cast<int64_t>(hw) - 1));
  }();
  return *pool;
}

/// Per-dispatch countdown latch.  ThreadPool::Wait() waits for the WHOLE
/// queue to drain, which would make concurrent dispatchers (e.g. two serving
/// threads) block on each other's slabs; counting down only our own tasks
/// keeps dispatches independent.
class SlabLatch {
 public:
  explicit SlabLatch(int64_t count) : remaining_(count) {}

  void CountDown() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t remaining_;
};

/// The one GEMM dispatcher: c = op(A)·b through SerialGemm<kA>.  Small GEMMs
/// run serially.  Otherwise [0, m) is partitioned into contiguous row slabs
/// (sizes differing by at most one row) and each slab runs once, on exactly
/// one thread: the caller runs slab 0 inline, the rest go to the shared pool.
/// The partition cannot affect results: each output element keeps its own
/// single ascending-k accumulator no matter which slab computes it.  A slab's
/// C rows start at ARowOffset in `a` and keep the full lda, so no copy is made
/// for either layout.
template <kernel::ALayout kA>
void Dispatch(const float* a, int64_t lda, const float* b, float* c, int64_t m,
              int64_t k, int64_t n) {
  const int64_t budget = ParallelismBudget::current();
  if (budget <= 1 || m < 2 * kMinSlabRows || m * k * n < kFlopThreshold) {
    kernel::SerialGemm<kA>(a, lda, b, c, m, k, n);
    return;
  }
  const auto slab = [=](int64_t row0, int64_t rows) {
    kernel::SerialGemm<kA>(a + kernel::ARowOffset<kA>(row0, lda), lda, b,
                           c + row0 * n, rows, k, n);
  };
  const int64_t slabs = std::min(budget, m / kMinSlabRows);
  const int64_t base = m / slabs;
  const int64_t extra = m % slabs;
  SlabLatch latch(slabs - 1);
  int64_t row0 = base + (extra > 0 ? 1 : 0);  // slab 0, run by the caller
  for (int64_t s = 1; s < slabs; ++s) {
    const int64_t rows = base + (s < extra ? 1 : 0);
    const int64_t begin = row0;
    SlabPool().Submit([&slab, &latch, begin, rows] {
      slab(begin, rows);
      latch.CountDown();
    });
    row0 += rows;
  }
  slab(0, base + (extra > 0 ? 1 : 0));
  latch.Wait();
}

}  // namespace

ParallelismBudget::ParallelismBudget(int64_t threads) {
  const int64_t prev = g_budget;
  g_budget = std::max<int64_t>(1, threads);
  prev_ = prev;
}

ParallelismBudget::~ParallelismBudget() { g_budget = prev_; }

int64_t ParallelismBudget::current() {
  return g_budget > 0 ? g_budget : DefaultBudget();
}

namespace kernel {

void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  Dispatch<ALayout::kRowMajor>(a, k, b, c, m, k, n);
}

void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  // Pack bᵀ once on the dispatching thread; slabs read it concurrently
  // (publication ordered by the pool's queue mutex, lifetime by the latch).
  float* bt = TransposeScratch(k * n);
  PackTranspose(b, bt, n, k);  // b [n, k] -> bt [k, n]
  Dispatch<ALayout::kRowMajor>(a, k, bt, c, m, k, n);
}

void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  Dispatch<ALayout::kColMajor>(a, m, b, c, m, k, n);
}

}  // namespace kernel
}  // namespace fewner::tensor
