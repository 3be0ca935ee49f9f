#include "serve/scheduler.h"

#include <algorithm>
#include <limits>

namespace af::serve {

bool compatible(const Request& head, const Request& r) {
  if (head.kind != r.kind) return false;
  if (head.kind == RequestKind::kGemm) {
    // Same pipeline mode: the shard executes the whole batch under one
    // configuration.  (Same-weight fusion inside the batch is the
    // executor's business; mode equality is what batch membership needs.)
    // Same engine backend too: a per-request fidelity override must not
    // drag neighbours onto a different engine.  Degrade-uniform as well:
    // degraded batches may run on a shrunk-scratchpad engine, so a full-
    // fidelity rider must not be dragged onto it (nor vice versa).
    return head.decided_k == r.decided_k && head.backend == r.backend &&
           head.degraded == r.degraded;
  }
  if (head.kind == RequestKind::kGemmBatch) {
    // Batched cost queries never configure the array (the executor skips
    // prepare_mode entirely; each request's decided_k is resolved inside
    // evaluate_batch), so mode equality is irrelevant — only the backend
    // override must match, because one engine answers the whole dispatch.
    return head.backend == r.backend;
  }
  // Inferences coalesce only when they are the same analytic work: the
  // identical model (by identity).
  return head.model == r.model;
}

Batch assemble_batch(Request head, RequestQueue& queue, int max_batch,
                     std::int64_t max_batch_bytes) {
  Batch batch;
  batch.kind = head.kind;
  batch.k = head.decided_k;
  // Reaper sweep, piggybacked on the dispatch wakeup path: every batch
  // assembly first clears the overdue backlog (a relaxed load when no
  // queued request carries a deadline), so an expired request's wait for
  // its DeadlineExceeded is bounded by the queue's dispatch cadence.  The
  // head itself may have expired while queued — it then rides in
  // batch.expired and the batch may carry no serveable request at all.
  const Clock::time_point now = Clock::now();
  batch.expired = queue.remove_expired(now);
  if (head.expired(now)) {
    batch.expired.push_back(std::move(head));
    return batch;
  }
  batch.requests.push_back(std::move(head));
  if (max_batch > 1) {
    // One sweep over the backlog, keyed by the head's (mode, backend) /
    // model, instead of a rescan of the whole queue per rider —
    // O(batch x backlog) under the lock.  The byte
    // budget (when set) is spent inside the predicate: a rider whose
    // projected DRAM traffic no longer fits keeps its queue position.
    std::int64_t byte_budget =
        max_batch_bytes > 0
            ? std::max<std::int64_t>(0, max_batch_bytes -
                                            batch.requests.front().drr_bytes)
            : std::numeric_limits<std::int64_t>::max();
    // Weight matrices already aboard the batch.  A rider sharing one will
    // fuse with that member in the executor (the B panel streams ONCE for
    // the whole stack), so it is charged only its private A+C bytes
    // (drr_rider_bytes); charging full drr_bytes double-counted the shared
    // panel per rider and under-filled decode batches.
    std::vector<const gemm::Mat32*> aboard_bs;
    if (batch.kind == RequestKind::kGemm &&
        batch.requests.front().b != nullptr) {
      aboard_bs.push_back(batch.requests.front().b.get());
    }
    std::vector<Request> riders = queue.pop_all_if(
        [&](const Request& r) {
          if (!compatible(batch.requests.front(), r)) return false;
          const bool fuses =
              r.b != nullptr &&
              std::find(aboard_bs.begin(), aboard_bs.end(), r.b.get()) !=
                  aboard_bs.end();
          const std::int64_t charge = fuses ? r.drr_rider_bytes : r.drr_bytes;
          if (charge > byte_budget) return false;
          byte_budget -= charge;
          if (!fuses && r.b != nullptr) aboard_bs.push_back(r.b.get());
          return true;
        },
        max_batch - 1);
    for (Request& r : riders) batch.requests.push_back(std::move(r));
  }
  return batch;
}

}  // namespace af::serve
