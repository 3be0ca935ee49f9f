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
    // one degraded member sheds the audit of its whole fused run, so a
    // mixed batch would drop the audit samples of full-fidelity requests.
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

RiderFilter::RiderFilter(const Batch& batch, std::int64_t max_batch_bytes)
    : batch_(batch),
      bytes_left_(max_batch_bytes > 0
                      ? max_batch_bytes
                      : std::numeric_limits<std::int64_t>::max()) {
  for (const Request& r : batch.requests) board(r, /*must_fit=*/false);
}

bool RiderFilter::admit(const Request& r) {
  return compatible(batch_.requests.front(), r) && board(r, /*must_fit=*/true);
}

bool RiderFilter::board(const Request& r, bool must_fit) {
  const bool fuses =
      std::find(aboard_.begin(), aboard_.end(), r.b.get()) != aboard_.end();
  const std::int64_t charge = fuses ? r.drr_rider_bytes : r.drr_bytes;
  if (must_fit && charge > bytes_left_) return false;
  bytes_left_ = std::max<std::int64_t>(0, bytes_left_ - charge);
  if (!fuses && r.b != nullptr) aboard_.push_back(r.b.get());
  return true;
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
    // O(batch x backlog) under the lock.  A rider whose bytes no longer
    // fit keeps its queue position.
    RiderFilter filter(batch, max_batch_bytes);
    std::vector<Request> riders = queue.pop_all_if(
        [&](const Request& r) { return filter.admit(r); }, max_batch - 1);
    for (Request& r : riders) batch.requests.push_back(std::move(r));
  }
  return batch;
}

}  // namespace af::serve
