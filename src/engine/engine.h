// Unified execution API: every way this repo can answer "what does GEMM X
// cost (and produce) in pipeline mode k" behind one facade.
//
// Before this layer existed there were three disjoint entry points — the
// cycle-accurate arch::SystolicArray (exact outputs + measured
// ActivityCounters), the closed-form models in arch/latency.h /
// arch/activity.h / arch/power_model.h (what the optimizer and the
// inference runner consume), and the gate-level compiled engine — and every
// bench/example/server re-wired config + clock + power by hand.  An
// engine::Engine bundles that wiring once and exposes two kinds of call:
//
//   run_gemm(GemmRequest)        -> RunResult    execute one GEMM — the one
//                                                call a backend answers its
//                                                own way
//   evaluate(GemmShape, k)       -> CostEstimate cost of a shape in mode k —
//                                                closed forms, defined once
//                                                here for every backend
//
// Three backends ship (see engine::make / registered_backends):
//
//   "cycle"    CycleAccurateEngine — run_gemm drives arch::SystolicArray;
//              outputs and counters are MEASURED cycle by cycle.  Ground
//              truth, slow.
//   "chaos"    ChaosEngine — deterministic fault injection wrapped around
//              any other backend's run_gemm (engine/chaos_engine.h): a
//              throw every Nth run, a delay on every run, +1-cycle
//              results.  The serving layer's failure-path test rig;
//              injects nothing by default.
//   "analytic" AnalyticEngine — run_gemm prices from the closed forms
//              (latency/activity/power, pinned cycle-for-cycle and
//              counter-for-counter against the simulator by
//              tests/arch_equivalence_test.cpp and tests/engine_test.cpp);
//              the output matrix is computed via gemm::multiply (checked
//              bit-exactly against gemm::reference_gemm) ONLY when the
//              request asks for it.  Orders of magnitude faster,
//              bit-identical outputs, and — because the closed forms are
//              exact — identical cycles, counters and energy too.
//
// The contract that makes the fidelity knob safe: for every supported
// (shape, k) the cycle backend's run_gemm measures EXACTLY the
// CostEstimate evaluate() predicts, and both backends return bit-equal
// outputs.  serve::Server exploits it by serving analytic cost traffic at
// high throughput while replaying a sampled audit fraction on the
// cycle-accurate backend and cross-checking (see ServerOptions).
//
// Pricing: CostEstimate::energy_pj is the utilization-aware model
// (SaPowerModel::from_counters) applied to the estimate's ActivityCounters
// at Tclock(k) — fill/drain bubbles burn clock but no datapath energy.
// The steady-state per-mode pricing (the paper's Fig. 9 methodology) stays
// available through power().

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/array.h"
#include "arch/clocking.h"
#include "arch/config.h"
#include "arch/optimizer.h"
#include "arch/power_model.h"
#include "gemm/matrix.h"
#include "gemm/reference.h"

namespace af::util {
class ThreadPool;
}

namespace af::arch {
class TileOccupancy;
}

namespace af::mem {
class TileScheduler;
}

namespace af::engine {

class CostCache;
class EngineBuilder;

// One GEMM to execute: X(T x M) = A(T x N) x B(N x M).  Non-owning views;
// both matrices must outlive the run_gemm call.
struct GemmRequest {
  const gemm::Mat32* a = nullptr;  // activations, T x N (required)
  const gemm::Mat32* b = nullptr;  // weights, N x M (required)
  // Pipeline-collapse mode; 0 lets the engine pick the Eq. 6 argmin (mode
  // PLANNING is closed-form on every backend — fidelity applies to
  // execution, not to the optimizer).
  int k = 0;
  // When false the engine skips producing the output matrix: the analytic
  // backend then answers from closed forms alone (no arithmetic over the
  // operands at all), which is what makes cost-estimation traffic orders of
  // magnitude cheaper than simulation.  The cycle backend always computes
  // the product internally (that IS the measurement); the flag only elides
  // returning it.
  bool want_output = true;
  // Block-sparse execution (the paper's Section V future work,
  // arch/sparse.h): R x C weight tiles of B that are entirely zero are
  // skipped — they cost neither preload nor streaming cycles.  Outputs are
  // bit-identical to the dense run (a zero tile contributes zero to every
  // accumulator); cycles, counters and energy drop with the occupancy.
  // The cycle backend routes through SystolicArray::run_gemm_sparse; the
  // analytic backend scans B's occupancy and prices the nnz tiles via
  // arch::sparse_total_latency_cycles — still exactly equal (pinned by
  // tests/engine_test.cpp).
  bool sparse = false;
};

// Unified cost of one GEMM (or shape) under a given clock + energy model.
struct CostEstimate {
  int k = 1;                      // mode the cost describes
  // Eq. 4 total (preload + streaming); with the memory hierarchy enabled
  // (arch::MemoryConfig) this is the full makespan, compute + stalls.
  std::int64_t cycles = 0;
  double period_ps = 0.0;         // Tclock(k), Eq. 5
  double time_ps = 0.0;           // cycles x period (Eq. 6)
  // Utilization-aware pricing of `activity`, plus EnergyParams::
  // e_dram_byte_fj per byte of `dram_bytes` when the memory model is on.
  double energy_pj = 0.0;
  arch::ActivityCounters activity;
  // Memory-hierarchy terms (mem::TileScheduler; all zero when the config's
  // MemoryConfig is disabled — magic memory).
  std::int64_t stall_cycles = 0;     // cycles the array waited on DMA
  std::int64_t dram_bytes = 0;       // DRAM traffic, reads + writes
  std::int64_t spad_peak_bytes = 0;  // scratchpad high-water footprint
};

// Exact equality — the audit path's cross-check and the bit-exact
// contract between backends.  Doubles compare exactly on purpose: both
// backends must execute the SAME arithmetic on the SAME integers, not
// merely land close.
bool exactly_equal(const arch::ActivityCounters& a,
                   const arch::ActivityCounters& b);
bool exactly_equal(const CostEstimate& a, const CostEstimate& b);

// The Eq. 6 mode plan of one shape: every supported mode's compute-only
// projection (PipelineOptimizer::sweep, winner flagged) and the winner.
struct ModePlan {
  std::vector<arch::ModeSweepEntry> modes;
  arch::ModeDecision best;
};

struct RunResult {
  // Present iff the request asked for the output.
  std::optional<gemm::Mat64> out;
  CostEstimate cost;
  // True when `cost` was measured by cycle-accurate simulation; false when
  // it came from the closed forms.
  bool measured = false;
};

// Abstract execution engine.  Thread safety: run_gemm and the cost
// queries may be called concurrently from many threads (the cycle backend's
// SystolicArray keeps all mutable run state on the stack; the cost queries
// read immutable wiring and the internally synchronized cost cache).
class Engine {
 public:
  virtual ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Registry key of the backend ("cycle", "analytic", ...).
  virtual const std::string& name() const = 0;

  // True when run_gemm MEASURES (cycle-accurate) rather than predicts.
  // Both fidelities return the same numbers — that equivalence is
  // test-pinned — but only a measuring backend can catch a model bug.
  virtual bool measures() const = 0;

  // Execute one GEMM: output (optional), exact cycles, ActivityCounters,
  // and energy/time under this engine's clock + energy params.
  virtual RunResult run_gemm(const GemmRequest& request) = 0;

  // Cost of a full tiled GEMM of `shape` in mode k (k = 0 picks the Eq. 6
  // argmin), from the closed forms: Eq. 4 cycles, predicted counters,
  // utilization-aware pricing and, with the memory hierarchy enabled, the
  // mem::TileScheduler re-timing.  The same answer on every backend, and
  // exactly what the cycle backend's run_gemm measures for any operands
  // of this shape (pinned by tests/engine_test.cpp).
  CostEstimate evaluate(const gemm::GemmShape& shape, int k = 0) const;

  // Cost of a BLOCK-SPARSE GEMM of `shape` given the weight matrix's tile
  // occupancy alone — no weight matrix needed, so pruned-layer cost sweeps
  // can price designs that exist only as sparsity statistics (pair with
  // arch::TileOccupancy::synthetic).  Exactly what run_gemm with
  // GemmRequest::sparse over a matrix of that occupancy costs (pinned by
  // tests/engine_test.cpp); the occupancy's tile grid must match `shape`
  // under this engine's R x C array.  k = 0 picks the Eq. 6 argmin.
  CostEstimate evaluate_sparse(const gemm::GemmShape& shape, int k,
                               const arch::TileOccupancy& occupancy) const;

  // Cost of MANY shapes in one call — the serving hot path's batched
  // entry point (one cache pass, no per-element promise/queue machinery
  // above it).  The Eq. 3/4 integer closed forms and the Eq. 6 argmin run
  // over contiguous SoA arrays (one branch-free inner loop per mode); only
  // cache misses pay the full per-element finalization.  Element i is
  // EXACTLY equal to evaluate(shapes[i], k) — pinned by
  // tests/cost_path_test.cpp.
  std::vector<CostEstimate> evaluate_batch(
      std::span<const gemm::GemmShape> shapes, int k = 0);

  // Memoized evaluate(): answers from the cost cache keyed by
  // (cost_fingerprint, shape, k) and falls back to evaluate() on a miss —
  // so the cached result is exactly the uncached one by construction.
  // k = 0 resolves the Eq. 6 argmin through plan() first.
  CostEstimate evaluate_cached(const gemm::GemmShape& shape, int k = 0);

  // The memoized Eq. 6 mode plan of `shape`: ONE optimizer pass per
  // distinct shape instead of one per admission.  Every k = 0 resolution,
  // the admission argmin, the sticky reconfig policy, the quarantine probe
  // and the inference runner read it.  Thread-safe (the cache is
  // internally synchronized); the returned plan is immutable and shared.
  std::shared_ptr<const ModePlan> plan(const gemm::GemmShape& shape) const;

  // 64-bit structural key of everything a CostEstimate depends on: array
  // geometry, bit widths, supported modes, memory knobs, per-mode clock
  // periods and all EnergyParams.  Two engines agree on a fingerprint iff
  // their cost arithmetic is identical — which is what lets them share one
  // CostCache with no epoch-based invalidation (see engine/cost_cache.h).
  std::uint64_t cost_fingerprint() const { return fingerprint_; }

  // The memoization store behind evaluate_cached / plan /
  // evaluate_batch.  Private per engine by default; inject a shared one
  // via EngineBuilder::cost_cache (the serve::Server path: admission,
  // reconfig and every shard engine of a backend share entries).
  const std::shared_ptr<CostCache>& cost_cache() const { return cache_; }

  // --- the wiring the engine owns (previously duplicated per call site) ---
  const arch::ArrayConfig& config() const { return config_; }
  const arch::ClockModel& clock() const { return *clock_; }
  const arch::SaPowerModel& power() const { return power_; }
  const arch::PipelineOptimizer& optimizer() const { return optimizer_; }
  // Worker pool for host-side parallelism (nullptr = serial): the private
  // pool when the config's SimOptions asked for threads, or the injected
  // shared pool (see EngineBuilder::shared_pool and the shared-pool
  // contract in arch/array.h).
  util::ThreadPool* pool() const;

 protected:
  Engine(const arch::ArrayConfig& config,
         std::shared_ptr<const arch::ClockModel> clock,
         const arch::EnergyParams& energy, util::ThreadPool* shared_pool);

  // The one finalization every whole-GEMM cost shares: price
  // `compute_cycles` of array work plus, when the config's MemoryConfig is
  // enabled, the mem::TileScheduler re-timing of the tile grid's data
  // movement (stalls burn clock and leakage; DRAM traffic adds
  // EnergyParams::e_dram_byte_fj per byte).  Because the cycle backend
  // measures EXACTLY the compute cycles the closed forms predict (pinned
  // against the simulator), its memory-aware run costs equal evaluate()'s
  // by construction.  With the model disabled this is byte-for-byte the
  // old pricing.
  CostEstimate finalized(const gemm::GemmShape& shape, int k,
                         std::int64_t compute_cycles,
                         const arch::ActivityCounters& activity,
                         const arch::TileOccupancy* occupancy = nullptr) const;

  int resolve_mode(const gemm::GemmShape& shape, int k) const;

 private:
  friend std::shared_ptr<Engine> make(const std::string&,
                                      const EngineBuilder&);

  // Swap in a (typically shared) memoization store.  Called by the factory
  // right after construction, before the engine is published to other
  // threads — not safe once cost queries are in flight.
  void set_cost_cache(std::shared_ptr<CostCache> cache);

  arch::ArrayConfig config_;
  std::shared_ptr<const arch::ClockModel> clock_;  // owned: no dangling refs
  arch::EnergyParams energy_;
  arch::SaPowerModel power_;
  arch::PipelineOptimizer optimizer_;
  // Tile-traffic scheduler, constructed iff config().mem.enabled.
  std::unique_ptr<mem::TileScheduler> tiles_;
  std::unique_ptr<util::ThreadPool> pool_;  // private, when threads requested
  util::ThreadPool* external_pool_ = nullptr;
  std::shared_ptr<CostCache> cache_;  // never null past construction
  std::uint64_t fingerprint_ = 0;
};

// Fault-injection knobs of the "chaos" backend (engine/chaos_engine.h), a
// wrapper around any other registered backend.  Every fault is a function
// of the run counter alone, so a given construction replays the exact same
// fault sequence — what makes chaos stress tests reproducible.  The
// defaults inject NOTHING: a bare `make("chaos", builder)` is a transparent
// analytic wrapper (so registry-wide smoke tests stay green); tests and
// harnesses turn on faults via EngineBuilder::chaos.
struct ChaosOptions {
  std::string inner = "analytic";  // wrapped backend (any non-chaos key)
  // Deterministic throw-on-run: every Nth run_gemm throws af::Error with
  // ErrorCode::kEngineFault (0 disables).
  int throw_every_n = 0;
  bool wrong_cost = false;  // every run reports one cycle too many
  double delay_ms = 0.0;    // every run sleeps this long first (0 = never)
};

// Fluent owner of the config/clock/energy/thread-pool wiring.  Every field
// has the repo-wide default (128x128 {1,2,4} array, the paper's DATE-23
// calibrated clock, generic28nm energy, serial) so a one-liner works:
//
//   auto eng = engine::EngineBuilder().square(16).build("analytic");
//
// build() may be called repeatedly — e.g. once per backend to get a
// serving engine and its auditor over identical wiring.
class EngineBuilder {
 public:
  EngineBuilder();

  EngineBuilder& config(arch::ArrayConfig config);
  EngineBuilder& square(int side);                    // keeps modes {1,2,4}
  EngineBuilder& modes(std::vector<int> supported_k);
  // The engine shares ownership; pass CalibratedClockModel::date23() etc.
  EngineBuilder& clock(std::shared_ptr<const arch::ClockModel> clock);
  EngineBuilder& energy(const arch::EnergyParams& params);
  // SimOptions::num_threads: 1 serial (default), 0 all hardware threads.
  EngineBuilder& threads(int num_threads);
  // Inject ONE pool shared across components instead of a private pool per
  // engine (the serve::Server path; shared-pool contract in arch/array.h).
  // Overrides threads() for pool construction; must outlive the engine.
  EngineBuilder& shared_pool(util::ThreadPool* pool);
  // Fault-injection knobs consumed only by build("chaos"); other backends
  // ignore them.
  EngineBuilder& chaos(const ChaosOptions& options);
  // Inject ONE CostCache shared across engines instead of a private cache
  // per engine — the serve::Server path: admission, reconfig and every
  // shard engine of a backend hit the same entries.  Safe across engines
  // with DIFFERENT wiring too (keys carry each engine's cost fingerprint).
  EngineBuilder& cost_cache(std::shared_ptr<CostCache> cache);

  // Construct the backend registered under `backend` ("analytic", "cycle").
  // Throws af::Error for unknown names, listing the registry.
  std::shared_ptr<Engine> build(const std::string& backend) const;

  // Read-only views of the accumulated wiring (used by the factory's
  // backend creators and by call sites that mirror an engine's setup).
  const arch::ArrayConfig& peek_config() const { return config_; }
  const std::shared_ptr<const arch::ClockModel>& peek_clock() const {
    return clock_;
  }
  const arch::EnergyParams& peek_energy() const { return energy_; }
  util::ThreadPool* peek_shared_pool() const { return shared_pool_; }
  const ChaosOptions& peek_chaos() const { return chaos_; }
  const std::shared_ptr<CostCache>& peek_cost_cache() const {
    return cost_cache_;
  }

 private:
  arch::ArrayConfig config_;
  std::shared_ptr<const arch::ClockModel> clock_;
  arch::EnergyParams energy_;
  util::ThreadPool* shared_pool_ = nullptr;
  ChaosOptions chaos_;
  std::shared_ptr<CostCache> cost_cache_;
};

// String-keyed factory — the one place backend names resolve.  The names
// returned by registered_backends() are a public contract: the README's
// "Execution engines" table must list exactly these (ctest
// readme_registries diffs the two).
std::shared_ptr<Engine> make(const std::string& backend,
                             const EngineBuilder& builder = EngineBuilder());
std::vector<std::string> registered_backends();
// Allocation-free membership probe — admission-path validation (the
// serving layer checks per-request overrides on every submit).
bool is_registered(const std::string& backend);
// The registry keys quoted and comma-joined ('"analytic", "cycle"') — the
// one formatter behind every unknown-backend error message.
std::string registered_backend_list();
// One-line human description per backend (the README matrix source).
std::string backend_description(const std::string& backend);

}  // namespace af::engine
