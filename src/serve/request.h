// Request/response types of the multi-tenant serving layer.
//
// Clients hand the serve::Server either a raw GEMM (activations against a
// shared weight matrix), a batch of cost queries, or a whole nn::Model
// inference, tagged with a tenant id; they get a std::future (or a
// BatchTicket) back.  Internally every submission becomes exactly one
// Request record flowing through the bounded RequestQueue to the shard
// workers; one shard answers a model inference with one
// InferenceRunner::run.

#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "gemm/matrix.h"
#include "gemm/reference.h"
#include "nn/models.h"
#include "nn/runner.h"

namespace af::serve {

using Clock = std::chrono::steady_clock;

// The instant `ms` milliseconds after `from`, saturating: a budget past the
// last instant the steady clock can represent (+inf included) is
// Clock::time_point::max(), which every deadline and wait in serve/ and
// fleet/ reads as "never".  A non-positive (or NaN) budget is `from`
// itself.  The one conversion from a millisecond budget to the clock — a
// bare duration_cast of a double is undefined once it overflows the rep.
inline Clock::time_point deadline_after(Clock::time_point from, double ms) {
  if (!(ms > 0.0)) return from;
  const double ticks = std::chrono::duration<double, Clock::period>(
                           std::chrono::duration<double, std::milli>(ms))
                           .count();
  const Clock::rep room = (Clock::time_point::max() - from).count();
  // `room` rounds to at most 2^63 as a double, so a `ticks` below it casts
  // to Clock::rep exactly; the integer compare catches the last few ticks
  // that rounding hides.
  if (!(ticks < static_cast<double>(room))) return Clock::time_point::max();
  const auto span = static_cast<Clock::rep>(ticks);
  return span >= room ? Clock::time_point::max()
                      : from + Clock::duration(span);
}

// Pooled completion slot of the batched cost path (serve/batch_slot.h);
// forward-declared so this header stays light — only the server and the
// executors need the full type.
class BatchSlot;

enum class RequestKind { kGemm, kInference, kGemmBatch };

// Response to a submit_gemm: the product plus the simulated cost of the
// (possibly fused) hardware run that produced it.
struct GemmResult {
  gemm::Mat64 out;              // this request's rows of the fused product
                                // (empty when the request declined outputs)
  int k = 1;                    // pipeline mode the batch ran in
  int shard = -1;               // shard that executed the batch
  std::int64_t batch_requests = 1;  // size of the coalesced batch
  std::int64_t fused_rows = 0;  // total T of the fused run this rode in
  std::int64_t cycles = 0;      // simulated cycles of the fused run
  std::int64_t stall_cycles = 0;  // cycles of `cycles` spent waiting on DRAM
                                  // (0 with magic memory)
  std::int64_t dram_bytes = 0;  // DRAM traffic of the fused run (0 with
                                // magic memory)
  double time_ps = 0.0;         // simulated execution time of the fused run
  double energy_pj = 0.0;       // this request's attributed energy share
  double queue_ms = 0.0;        // wall-clock enqueue -> dispatch
  double latency_ms = 0.0;      // wall-clock enqueue -> completion
  std::string backend;          // engine backend that served the fused run
  bool measured = false;        // cost measured cycle-accurately (vs closed form)
  bool audited = false;         // fused run replayed on the audit engine
  bool degraded = false;        // served cost-only under the degrade policy
};

// Response to a submit_inference: the per-layer report (bit-identical to a
// direct InferenceRunner::run with the same config) plus serving metadata.
struct InferenceResult {
  nn::ModelReport report;
  double latency_ms = 0.0;      // wall-clock submit -> completion
};

// One unit of queued work.  Move-only (it carries the client's promise).
struct Request {
  RequestKind kind = RequestKind::kGemm;
  std::uint64_t id = 0;
  std::string tenant;
  Clock::time_point enqueue_time;

  // Optional wall-clock deadline (time_point::max() = none).  A request
  // still queued when this passes is expired with ErrorCode::
  // kDeadlineExceeded by the dispatcher's reaper sweep instead of being
  // served; the executor double-checks at dispatch so a request never
  // starts running after its budget is gone.
  Clock::time_point deadline = Clock::time_point::max();
  bool expired(Clock::time_point now) const { return deadline <= now; }

  // Engine-fault retries already burned (the budget is ServerOptions::
  // max_retries).  A failing shard stamps avoid_shard before resubmitting,
  // so the retry routes to a DIFFERENT shard even before the quarantine
  // machinery pulls the bad one from the pool.
  int attempts = 0;
  int avoid_shard = -1;

  // Admitted under the "degrade" overload policy: served at cost-only
  // analytic fidelity (no output, no audit) while the pressure lasts.
  bool degraded = false;

  // Deficit-round-robin cost of this request (serve/queue.h): the useful
  // work it asks the hardware for, in MACs.  Set at admission; always >= 1.
  std::int64_t drr_cost = 1;

  // Projected DRAM traffic of this request in bytes (mem::
  // projected_gemm_bytes — the compulsory A+B+C movement, computed whether
  // or not the memory model is enabled).  The queue mirrors the sum as
  // approx_bytes(), the bandwidth-pressure twin of approx_cost(): two
  // backlogs of equal MAC volume can differ hugely in how much data they
  // drag through DRAM.  Zero for inferences (their traffic is
  // layer-dependent and accounted in the ModelReport instead).
  std::int64_t drr_bytes = 0;

  // Marginal byte cost when this request RIDES a same-weight fusion (mem::
  // projected_fused_rider_bytes — private A+C rows only; the shared B panel
  // is billed to the batch member that brought it in).  Batch assembly
  // charges this against the byte budget instead of drr_bytes whenever the
  // rider's weight matrix is already aboard, so decode spam against one
  // weight set fills a batch instead of double-counting B per rider.
  std::int64_t drr_rider_bytes = 0;

  // Per-request fidelity override (engine::make registry key, e.g.
  // "cycle"): empty serves on the shard's default engine.  Validated at
  // admission against the registry; requests batch only with requests of
  // the same backend (serve::compatible), and a measuring override skips
  // the sampled audit (it IS the ground truth).
  std::string backend;

  // --- kGemm ---------------------------------------------------------------
  gemm::Mat32 a;                            // activations, t x n
  std::shared_ptr<const gemm::Mat32> b;     // shared weights, n x m
  gemm::GemmShape shape;
  int decided_k = 1;       // mode chosen at admission (request or optimizer)
  // False for cost-estimation traffic: the serving engine may then skip
  // computing the product entirely (the analytic backend answers from
  // closed forms alone), and GemmResult::out comes back empty.
  bool want_output = true;
  std::promise<GemmResult> gemm_promise;

  // --- kInference ------------------------------------------------------------
  std::shared_ptr<const nn::Model> model;
  // Allocated by submit_inference only, so the other kinds carry no unused
  // promise state.
  std::unique_ptr<std::promise<InferenceResult>> infer_promise;

  // --- kGemmBatch ------------------------------------------------------------
  // One queued record for a whole submit_gemm_batch call: the shapes ride
  // in the pooled slot (filled before enqueue, read after the queue
  // handoff), the CostEstimates come back through it, and the client waits
  // on a BatchTicket instead of a future — no per-shape promise, no
  // per-shape queue hop.  decided_k carries the caller's mode (0 = the
  // engine's per-shape argmin, resolved inside evaluate_batch).
  std::shared_ptr<BatchSlot> slot;
};

}  // namespace af::serve
