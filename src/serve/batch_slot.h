// Pooled completion slots for the batched cost-serving path.
//
// The legacy submit_gemm hands every request a std::promise/std::future
// pair: one heap-allocated shared state per request, destroyed after a
// single use.  At millions of cost queries per second that allocator
// traffic IS the hot path.  The batched API replaces it with a BatchSlot —
// one completion slot per submit_gemm_batch call, carrying the WHOLE
// batch's shapes in and its CostEstimates out — recycled through a SlotPool
// freelist so the shape/result vectors keep their capacity across
// submissions and the steady state allocates nothing.
//
// Lifecycle (and why reuse is safe):
//   1. submit_gemm_batch acquires a slot from the pool, fills shapes(),
//      and enqueues ONE Request holding a shared_ptr to it.  The client
//      gets a BatchTicket holding the other reference.
//   2. The shard worker answers via complete() (or fail()) exactly once —
//      guarded like the legacy promise: a second settle is counted in
//      ServerStats::promise_double_sets and fatal in debug builds.  After
//      settling, the worker never touches the slot again.
//   3. BatchTicket::get() blocks on the settle, moves the results out (or
//      rethrows), and returns the slot to the pool.  Since get() cannot
//      return before the settle, and the settle is the worker's LAST
//      access, a recycled slot can never be mutated by a stale holder —
//      lingering shared_ptr copies only delay destruction, never reuse
//      hazards.  A ticket dropped without get() simply lets the slot die
//      with its last reference (no pooling, no leak).

#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "gemm/tiling.h"
#include "util/status.h"

namespace af::serve {

class BatchSlot {
 public:
  // Filled by the submitter BEFORE the request is enqueued; read by the
  // worker after the queue handoff (the queue mutex publishes it), so no
  // slot lock is needed on either side.
  std::vector<gemm::GemmShape>& shapes() { return shapes_; }
  std::size_t count() const { return shapes_.size(); }

  // Recycles the slot for a new submission: clears shapes and results but
  // keeps both vectors' capacity — the pooling win.
  void reset() {
    shapes_.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    results_.clear();
    error_ = nullptr;
    settled_ = false;
  }

  // Worker-side delivery.  Returns false when the slot was already settled
  // (the double-complete bug the legacy promise guard catches) — the
  // caller counts it and must not touch the slot again.
  bool complete(std::vector<engine::CostEstimate> results) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (settled_) return false;
      results_ = std::move(results);
      settled_ = true;
    }
    cv_.notify_all();
    return true;
  }

  bool fail(std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (settled_) return false;
      error_ = std::move(error);
      settled_ = true;
    }
    cv_.notify_all();
    return true;
  }

  // Client-side wait: blocks until settled, then moves the results out or
  // rethrows the worker's error (future::get semantics, one-shot).
  std::vector<engine::CostEstimate> take() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return settled_; });
    if (error_ != nullptr) std::rethrow_exception(error_);
    return std::move(results_);
  }

 private:
  std::vector<gemm::GemmShape> shapes_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<engine::CostEstimate> results_;
  std::exception_ptr error_;
  bool settled_ = false;
};

// Mutex-guarded freelist of slots.  acquire() pops (or allocates on a dry
// list); release() pushes back up to a bounded depth — the bound only
// limits how much idle capacity the pool retains, never correctness.
class SlotPool {
 public:
  explicit SlotPool(std::size_t max_free = 256) : max_free_(max_free) {}

  std::shared_ptr<BatchSlot> acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        std::shared_ptr<BatchSlot> slot = std::move(free_.back());
        free_.pop_back();
        slot->reset();
        return slot;
      }
    }
    return std::make_shared<BatchSlot>();
  }

  void release(std::shared_ptr<BatchSlot> slot) {
    if (slot == nullptr) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (free_.size() < max_free_) free_.push_back(std::move(slot));
  }

 private:
  const std::size_t max_free_;
  std::mutex mutex_;
  std::vector<std::shared_ptr<BatchSlot>> free_;
};

// Move-only client handle returned by Server::submit_gemm_batch — the
// batched path's stand-in for std::future.  get() blocks for the whole
// batch's CostEstimates (indexed like the submitted shapes) and recycles
// the slot into the server's pool.
class BatchTicket {
 public:
  BatchTicket() = default;
  BatchTicket(std::shared_ptr<BatchSlot> slot, SlotPool* pool)
      : slot_(std::move(slot)), pool_(pool) {}

  BatchTicket(BatchTicket&&) = default;
  BatchTicket& operator=(BatchTicket&&) = default;
  BatchTicket(const BatchTicket&) = delete;
  BatchTicket& operator=(const BatchTicket&) = delete;

  bool valid() const { return slot_ != nullptr; }

  std::vector<engine::CostEstimate> get() {
    AF_CHECK(slot_ != nullptr, "BatchTicket::get on an empty ticket");
    std::shared_ptr<BatchSlot> slot = std::move(slot_);
    slot_ = nullptr;
    // take() throws on a failed batch; the slot is settled either way, so
    // recycle it either way.
    struct Recycle {
      SlotPool* pool;
      std::shared_ptr<BatchSlot>* slot;
      ~Recycle() {
        if (pool != nullptr) pool->release(std::move(*slot));
      }
    } recycle{pool_, &slot};
    return slot->take();
  }

 private:
  std::shared_ptr<BatchSlot> slot_;
  SlotPool* pool_ = nullptr;
};

}  // namespace af::serve
