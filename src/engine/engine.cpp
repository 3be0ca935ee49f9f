#include "engine/engine.h"

#include <bit>
#include <limits>
#include <map>
#include <utility>

#include "arch/activity.h"
#include "arch/latency.h"
#include "arch/sparse.h"
#include "engine/analytic_engine.h"
#include "engine/chaos_engine.h"
#include "engine/cost_cache.h"
#include "engine/cycle_engine.h"
#include "gemm/tiling.h"
#include "mem/tile_scheduler.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace af::engine {
namespace {

std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t v) {
  // splitmix64 over the running hash — cheap, and every input bit reaches
  // every output bit, so near-identical configs never collide in practice.
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

std::uint64_t fingerprint_mix(std::uint64_t h, double v) {
  // Hash the exact bit pattern: cost equality is exact double equality, so
  // the invalidation key must distinguish exactly what the arithmetic does.
  return fingerprint_mix(h, std::bit_cast<std::uint64_t>(v));
}

// Structural identity of an engine's cost arithmetic — see
// Engine::cost_fingerprint().  Computed once at construction.
std::uint64_t compute_cost_fingerprint(const arch::ArrayConfig& config,
                                       const arch::ClockModel& clock,
                                       const arch::EnergyParams& energy) {
  std::uint64_t h = 0x636f7374ULL;  // "cost"
  h = fingerprint_mix(h, static_cast<std::uint64_t>(config.rows));
  h = fingerprint_mix(h, static_cast<std::uint64_t>(config.cols));
  h = fingerprint_mix(h, static_cast<std::uint64_t>(config.input_bits));
  h = fingerprint_mix(h, static_cast<std::uint64_t>(config.acc_bits));
  h = fingerprint_mix(h, static_cast<std::uint64_t>(config.supported_k.size()));
  for (const int k : config.supported_k) {
    h = fingerprint_mix(h, static_cast<std::uint64_t>(k));
    h = fingerprint_mix(h, clock.period_ps(k));
  }
  h = fingerprint_mix(h, clock.conventional_period_ps());
  h = fingerprint_mix(h, static_cast<std::uint64_t>(config.mem.enabled));
  h = fingerprint_mix(h, static_cast<std::uint64_t>(config.mem.spad_bytes));
  h = fingerprint_mix(h,
                      static_cast<std::uint64_t>(config.mem.dram_bytes_per_cycle));
  h = fingerprint_mix(h,
                      static_cast<std::uint64_t>(config.mem.dram_latency_cycles));
  h = fingerprint_mix(h, static_cast<std::uint64_t>(config.mem.reuse));
  h = fingerprint_mix(h, energy.e_mult_fj);
  h = fingerprint_mix(h, energy.e_csa_fj);
  h = fingerprint_mix(h, energy.e_bypass_mux_fj);
  h = fingerprint_mix(h, energy.e_cpa_fj);
  h = fingerprint_mix(h, energy.e_reg_bit_fj);
  h = fingerprint_mix(h, energy.e_acc_fj);
  h = fingerprint_mix(h, energy.e_clk_bit_fj);
  h = fingerprint_mix(h, energy.clock_trunk_fraction);
  h = fingerprint_mix(h, energy.clock_gate_efficiency);
  h = fingerprint_mix(h, energy.glitch_per_stage);
  h = fingerprint_mix(h, energy.leak_mw_per_pe);
  h = fingerprint_mix(h, energy.e_dram_byte_fj);
  return h;
}

}  // namespace

bool exactly_equal(const arch::ActivityCounters& a,
                   const arch::ActivityCounters& b) {
  // Defaulted member-wise ==: a counter added to ActivityCounters joins
  // the audit cross-check automatically instead of silently escaping it.
  return a == b;
}

bool exactly_equal(const CostEstimate& a, const CostEstimate& b) {
  // Doubles compare exactly on purpose: both backends must execute the SAME
  // arithmetic on the SAME integers, not merely land close.
  return a.k == b.k && a.cycles == b.cycles && a.period_ps == b.period_ps &&
         a.time_ps == b.time_ps && a.energy_pj == b.energy_pj &&
         a.stall_cycles == b.stall_cycles && a.dram_bytes == b.dram_bytes &&
         a.spad_peak_bytes == b.spad_peak_bytes &&
         exactly_equal(a.activity, b.activity);
}

Engine::Engine(const arch::ArrayConfig& config,
               std::shared_ptr<const arch::ClockModel> clock,
               const arch::EnergyParams& energy, util::ThreadPool* shared_pool)
    : config_(config),
      clock_(std::move(clock)),
      energy_(energy),
      power_(config, *clock_, energy),
      optimizer_(config, *clock_),
      external_pool_(shared_pool) {
  AF_CHECK(clock_ != nullptr, "engine needs a clock model");
  config_.validate();
  if (config_.mem.enabled) {
    tiles_ = std::make_unique<mem::TileScheduler>(config_);
  }
  if (external_pool_ == nullptr) {
    const int threads =
        util::ThreadPool::resolve_num_threads(config_.sim.num_threads);
    if (threads > 1) pool_ = std::make_unique<util::ThreadPool>(threads);
  }
  // Private memoization store by default; the factory swaps in the
  // builder's shared cache right after construction (set_cost_cache).
  cache_ = std::make_shared<CostCache>();
  fingerprint_ = compute_cost_fingerprint(config_, *clock_, energy_);
}

void Engine::set_cost_cache(std::shared_ptr<CostCache> cache) {
  AF_CHECK(cache != nullptr, "set_cost_cache requires a cache");
  cache_ = std::move(cache);
}

Engine::~Engine() = default;

util::ThreadPool* Engine::pool() const {
  return external_pool_ != nullptr ? external_pool_ : pool_.get();
}

int Engine::resolve_mode(const gemm::GemmShape& shape, int k) const {
  // The Eq. 6 argmin goes through the memoized plan: one projection per
  // distinct shape instead of one per call — the fix for the per-admission
  // argmin re-deriving every mode per request.
  if (k == 0) return plan(shape)->best.k;
  AF_CHECK(config_.supports(k), "mode k=" << k << " not supported by "
                                          << config_.to_string());
  return k;
}

CostEstimate Engine::evaluate(const gemm::GemmShape& shape, int k) const {
  const int mode = resolve_mode(shape, k);
  return finalized(shape, mode,
                   arch::total_latency_cycles(shape, config_, mode),
                   arch::predict_gemm_activity(shape, config_, mode));
}

CostEstimate Engine::evaluate_sparse(
    const gemm::GemmShape& shape, int k,
    const arch::TileOccupancy& occupancy) const {
  occupancy.check_grid(shape, config_.rows, config_.cols);
  const int mode = resolve_mode(shape, k);
  // Every executed tile is zero-padded to the full R x C geometry with the
  // full T, so the per-tile counters are identical across tiles and the
  // sparse total is simply per-tile x nnz (the dense model's `x tiles`,
  // with the skipped tiles gone).
  arch::ActivityCounters activity =
      arch::predict_tile_activity(config_, shape.t, mode);
  activity *= occupancy.nonzero_tiles();
  return finalized(shape, mode,
                   arch::sparse_total_latency_cycles(shape, config_, mode,
                                                     occupancy),
                   activity, &occupancy);
}

std::vector<CostEstimate> Engine::evaluate_batch(
    std::span<const gemm::GemmShape> shapes, int k) {
  const std::size_t count = shapes.size();
  std::vector<CostEstimate> out(count);
  if (count == 0) return out;

  if (k != 0) {
    AF_CHECK(config_.supports(k),
             "mode k=" << k << " not supported by " << config_.to_string());
  }
  const std::int64_t rows = config_.rows;
  const std::int64_t cols = config_.cols;

  // SoA pass 1: contiguous per-shape integers.  tiles = ceil(N/R)*ceil(M/C)
  // (Eq. 4's tile grid, the same integer math as gemm::tile_count).
  std::vector<std::int64_t> t(count);
  std::vector<std::int64_t> tiles(count);
  for (std::size_t i = 0; i < count; ++i) {
    const gemm::GemmShape& s = shapes[i];
    AF_CHECK(s.m > 0 && s.n > 0 && s.t > 0,
             "evaluate_batch shape dims must be positive, got m=" << s.m
                 << " n=" << s.n << " t=" << s.t);
    t[i] = s.t;
    tiles[i] = ((s.n + rows - 1) / rows) * ((s.m + cols - 1) / cols);
  }

  // SoA pass 2: Eq. 4 cycles per element, and for k = 0 the Eq. 6 argmin
  // — one branch-free inner loop per supported mode over the contiguous
  // arrays, exactly the arithmetic of arch::total_latency_cycles (L(k) =
  // R + R/k + C/k + T - 2, times the tile count) and absolute_time_ps
  // (cycles * period), with the optimizer's iteration order and strict-<
  // tie-break, so the selected mode matches resolve_mode() exactly.
  std::vector<int> mode(count, k);
  std::vector<std::int64_t> cycles(count);
  if (k != 0) {
    const std::int64_t l_fixed = rows + rows / k + cols / k - 2;
    for (std::size_t i = 0; i < count; ++i) {
      cycles[i] = (l_fixed + t[i]) * tiles[i];
    }
  } else {
    std::vector<double> best_time(count,
                                  std::numeric_limits<double>::infinity());
    for (const int km : config_.supported_k) {
      const double period = clock_->period_ps(km);
      const std::int64_t l_fixed = rows + rows / km + cols / km - 2;
      for (std::size_t i = 0; i < count; ++i) {
        const std::int64_t c = (l_fixed + t[i]) * tiles[i];
        const double time = static_cast<double>(c) * period;
        if (time < best_time[i]) {
          best_time[i] = time;
          mode[i] = km;
          cycles[i] = c;
        }
      }
    }
  }

  // Finalization: cache hits return the memoized estimate; misses run the
  // shared finalized() (counter prediction + utilization-aware pricing +
  // memory re-timing) on the SoA cycles — identical inputs to the scalar
  // path, so exact equality holds element for element.
  for (std::size_t i = 0; i < count; ++i) {
    if (std::optional<CostEstimate> hit =
            cache_->find(fingerprint_, shapes[i], mode[i])) {
      out[i] = *std::move(hit);
      continue;
    }
    out[i] = finalized(shapes[i], mode[i], cycles[i],
                       arch::predict_gemm_activity(shapes[i], config_,
                                                   mode[i]));
    cache_->insert(fingerprint_, shapes[i], mode[i], out[i]);
  }
  return out;
}

CostEstimate Engine::finalized(const gemm::GemmShape& shape, int k,
                               std::int64_t compute_cycles,
                               const arch::ActivityCounters& activity,
                               const arch::TileOccupancy* occupancy) const {
  CostEstimate est;
  est.k = k;
  est.cycles = compute_cycles;
  est.activity = activity;
  est.period_ps = clock_->period_ps(k);
  if (tiles_ != nullptr) {
    // Re-time the tile grid through the scratchpad/DRAM hierarchy.  The
    // per-visit array cost is compute_cycles spread over the executed
    // tiles — an exact division: every (zero-padded) tile costs the same
    // L(k) cycles (Eq. 3), on the measured path as on the closed form.
    const std::int64_t executed =
        occupancy != nullptr
            ? occupancy->nonzero_tiles()
            : gemm::tile_count(shape, config_.rows, config_.cols);
    const std::int64_t per_tile =
        executed > 0 ? compute_cycles / executed : 0;
    if (executed > 0) {
      const mem::MemoryPlan plan = tiles_->plan(shape, per_tile, occupancy);
      est.cycles = plan.total_cycles;
      est.stall_cycles = plan.stall_cycles;
      est.dram_bytes = plan.dram_bytes();
      est.spad_peak_bytes = plan.spad_peak_bytes;
    }
  }
  const arch::PowerResult priced = power_.from_counters(
      est.activity, est.cycles, est.period_ps, /*arrayflex_hardware=*/true, k);
  est.time_ps = priced.time_ps;
  // DRAM access energy is the one term from_counters cannot see (it prices
  // array activity; traffic lives in the memory model).  dram_bytes == 0
  // when the model is off, so the default stays bit-exact (+0.0).
  est.energy_pj =
      priced.energy_pj +
      static_cast<double>(est.dram_bytes) * energy_.e_dram_byte_fj * 1e-3;
  return est;
}

CostEstimate Engine::evaluate_cached(const gemm::GemmShape& shape, int k) {
  const int mode = resolve_mode(shape, k);
  if (std::optional<CostEstimate> hit =
          cache_->find(fingerprint_, shape, mode)) {
    return *std::move(hit);
  }
  CostEstimate est = evaluate(shape, mode);
  cache_->insert(fingerprint_, shape, mode, est);
  return est;
}

std::shared_ptr<const ModePlan> Engine::plan(
    const gemm::GemmShape& shape) const {
  if (auto hit = cache_->find_plan(fingerprint_, shape)) return hit;
  auto fresh = std::make_shared<ModePlan>();
  fresh->modes = optimizer_.sweep(shape);
  for (const arch::ModeSweepEntry& entry : fresh->modes) {
    if (entry.is_best) fresh->best = entry.decision;
  }
  // First-writer-wins under a racing miss: both computed identical values.
  cache_->insert_plan(fingerprint_, shape, fresh);
  return fresh;
}

// ----------------------------------------------------------------- builder

EngineBuilder::EngineBuilder()
    : clock_(std::make_shared<arch::CalibratedClockModel>(
          arch::CalibratedClockModel::date23())),
      energy_(arch::EnergyParams::generic28nm()) {}

EngineBuilder& EngineBuilder::config(arch::ArrayConfig config) {
  config_ = std::move(config);
  return *this;
}

EngineBuilder& EngineBuilder::square(int side) {
  const arch::SimOptions sim = config_.sim;  // geometry change keeps knobs
  config_ = arch::ArrayConfig::square(side);
  config_.sim = sim;
  return *this;
}

EngineBuilder& EngineBuilder::modes(std::vector<int> supported_k) {
  config_.supported_k = std::move(supported_k);
  return *this;
}

EngineBuilder& EngineBuilder::clock(
    std::shared_ptr<const arch::ClockModel> clock) {
  AF_CHECK(clock != nullptr, "EngineBuilder::clock requires a model");
  clock_ = std::move(clock);
  return *this;
}

EngineBuilder& EngineBuilder::energy(const arch::EnergyParams& params) {
  energy_ = params;
  return *this;
}

EngineBuilder& EngineBuilder::threads(int num_threads) {
  config_.sim.num_threads = num_threads;
  return *this;
}

EngineBuilder& EngineBuilder::shared_pool(util::ThreadPool* pool) {
  shared_pool_ = pool;
  return *this;
}

EngineBuilder& EngineBuilder::chaos(const ChaosOptions& options) {
  chaos_ = options;
  return *this;
}

EngineBuilder& EngineBuilder::cost_cache(std::shared_ptr<CostCache> cache) {
  AF_CHECK(cache != nullptr, "EngineBuilder::cost_cache requires a cache");
  cost_cache_ = std::move(cache);
  return *this;
}

std::shared_ptr<Engine> EngineBuilder::build(const std::string& backend) const {
  return make(backend, *this);
}

// ----------------------------------------------------------------- factory

namespace {

struct BackendEntry {
  std::string description;
  std::shared_ptr<Engine> (*create)(const EngineBuilder&);
};

// The registry: ordered so registered_backends() is stable for the
// readme_registries drift check against the README table.
const std::map<std::string, BackendEntry>& registry() {
  static const std::map<std::string, BackendEntry> entries = {
      {"analytic",
       {"closed-form Eqs. 1-4 latency + activity model + utilization-aware "
        "power; outputs via gemm::multiply (checked bit-exactly against "
        "reference_gemm) only on request",
        [](const EngineBuilder& b) -> std::shared_ptr<Engine> {
          return std::make_shared<AnalyticEngine>(
              b.peek_config(), b.peek_clock(), b.peek_energy(),
              b.peek_shared_pool());
        }}},
      {"chaos",
       {"fault-injection wrapper around any registered backend: seeded "
        "deterministic throw-on-run, latency spikes and wrong-cycle results "
        "(EngineBuilder::chaos); injects nothing by default",
        [](const EngineBuilder& b) -> std::shared_ptr<Engine> {
          const ChaosOptions& chaos = b.peek_chaos();
          AF_CHECK(chaos.inner != "chaos",
                   "chaos backend cannot wrap itself");
          return std::make_shared<ChaosEngine>(b, make(chaos.inner, b));
        }}},
      {"cycle",
       {"cycle-accurate SystolicArray simulation; outputs, cycles and "
        "ActivityCounters measured register by register",
        [](const EngineBuilder& b) -> std::shared_ptr<Engine> {
          return std::make_shared<CycleAccurateEngine>(
              b.peek_config(), b.peek_clock(), b.peek_energy(),
              b.peek_shared_pool());
        }}},
  };
  return entries;
}

}  // namespace

std::shared_ptr<Engine> make(const std::string& backend,
                             const EngineBuilder& builder) {
  const auto it = registry().find(backend);
  if (it == registry().end()) {
    AF_CHECK(false, "unknown engine backend \""
                        << backend << "\" (registered: "
                        << registered_backend_list() << ")");
  }
  std::shared_ptr<Engine> engine = it->second.create(builder);
  // Swap in the builder's shared memoization store before the engine is
  // published (the chaos creator's recursive make() gives the inner engine
  // the same cache, so wrapper and wrapped share entries).
  if (builder.peek_cost_cache() != nullptr) {
    engine->set_cost_cache(builder.peek_cost_cache());
  }
  return engine;
}

std::vector<std::string> registered_backends() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, entry] : registry()) names.push_back(name);
  return names;
}

bool is_registered(const std::string& backend) {
  return registry().count(backend) > 0;
}

std::string registered_backend_list() {
  std::string known;
  for (const auto& [name, entry] : registry()) {
    if (!known.empty()) known += ", ";
    known += "\"" + name + "\"";
  }
  return known;
}

std::string backend_description(const std::string& backend) {
  const auto it = registry().find(backend);
  AF_CHECK(it != registry().end(),
           "unknown engine backend \"" << backend << "\"");
  return it->second.description;
}

}  // namespace af::engine
