// Batch formation over the request queue.
//
// Reconfiguring an ArrayFlex shard between pipeline modes means draining
// the array, so back-to-back requests in the SAME mode are cheaper than an
// interleaved stream; and GEMM requests against the same stationary weight
// matrix can be fused outright (activation rows stacked along T) so the
// weight preload is paid once per tile instead of once per request.  The
// scheduler therefore coalesces, up to max_batch requests per dispatch:
//
//   * GEMMs whose admission-chosen mode k matches the batch head's — the
//     shard runs them without a mode switch; within the batch the executor
//     additionally fuses requests sharing (weights, shape);
//   * inferences of the same model — identical analytic work, evaluated
//     once and fanned to every requester (the serving layer's result
//     coalescing).
//
// The batch head is the deque's DRR-selected request (RequestQueue::
// try_pop, see serve/queue.h), so a flooding tenant cannot monopolize
// dispatch; assemble_batch then sweeps compatible requests from any
// tenant's backlog in ONE pass via RequestQueue::pop_all_if, keyed by the
// head's (mode, backend) for GEMMs and the model for inferences (each
// rider is charged to its own tenant's deficit).
// Incompatible requests keep their queue position, so batching never
// starves anyone.  The Dispatcher (serve/dispatcher.h) calls it for every
// batch it hands a shard worker.

#pragma once

#include <cstdint>
#include <vector>

#include "serve/queue.h"

namespace af::serve {

struct Batch {
  RequestKind kind = RequestKind::kGemm;
  int k = 1;  // mode of a GEMM batch (meaningless for inferences)
  std::vector<Request> requests;
  // Requests whose deadline passed while queued, collected by the reaper
  // sweep during batch assembly.  They are NOT served: the executor fails
  // each with ErrorCode::kDeadlineExceeded.  `requests` may be empty when
  // the popped head itself had expired — the batch then carries only
  // expiries for the worker to resolve.
  std::vector<Request> expired;
  // Assembled from another shard's deque (work stealing).  The executor
  // uses it to credit locality-aware stealing: a stolen batch whose mode
  // already matches the thief's array skipped a reconfiguration drain.
  bool stolen = false;
};

// True when `r` can join a batch headed by `head` (see file comment).
bool compatible(const Request& head, const Request& r);

// The one rider rule of both batch sweeps — assemble_batch over the home
// deque and the dispatcher's top-up over the others.  A rider must be
// compatible with the batch head, and its projected DRAM traffic must fit
// what is left of `max_batch_bytes` (0 = unlimited).  A rider sharing a
// weight matrix already aboard fuses with that member in the executor (the
// B panel streams ONCE for the whole stack), so it is charged only its
// private A+C bytes (Request::drr_rider_bytes); any other request pays its
// full drr_bytes.  Construction charges every request already in `batch`,
// in order, so a top-up continues from exactly the budget the local sweep
// left.  `batch` must be non-empty and outlive the filter; it may grow
// between calls.
class RiderFilter {
 public:
  RiderFilter(const Batch& batch, std::int64_t max_batch_bytes);

  // True when `r` may join; it is then charged and its weights go aboard.
  bool admit(const Request& r);

 private:
  // Charges `r` and puts its weights aboard.  With `must_fit` a charge
  // past what is left refuses `r` instead; without, the budget bottoms out
  // at zero (the head always dispatches).
  bool board(const Request& r, bool must_fit);

  const Batch& batch_;
  std::int64_t bytes_left_;
  std::vector<const gemm::Mat32*> aboard_;
};

// Batch formation around an already-popped head: one pop_all_if sweep
// collects up to max_batch - 1 compatible riders from `queue` — the
// shard's own deque, or a steal victim's, whose whole DRR round moves with
// exactly this call.
//
// `max_batch_bytes` (0 = unlimited) additionally caps the batch's summed
// projected DRAM traffic, charged by RiderFilter: with the memory hierarchy
// enabled, a fused run's DMA stream scales with its data footprint, so a
// byte budget keeps one batch from parking the array behind a DRAM
// transfer longer than the latency SLO.  The head always dispatches even
// when it alone exceeds the budget — the cap shapes coalescing, never
// strands work.
Batch assemble_batch(Request head, RequestQueue& queue, int max_batch,
                     std::int64_t max_batch_bytes = 0);

}  // namespace af::serve
