#include "engine/analytic_engine.h"

#include <limits>
#include <utility>
#include <vector>

#include "arch/activity.h"
#include "arch/sparse.h"
#include "engine/cost_cache.h"
#include "gemm/multiply.h"
#include "util/status.h"

namespace af::engine {

AnalyticEngine::AnalyticEngine(const arch::ArrayConfig& config,
                               std::shared_ptr<const arch::ClockModel> clock,
                               const arch::EnergyParams& energy,
                               util::ThreadPool* shared_pool)
    : Engine(config, std::move(clock), energy, shared_pool) {}

const std::string& AnalyticEngine::name() const {
  static const std::string kName = "analytic";
  return kName;
}

RunResult AnalyticEngine::run_gemm(const GemmRequest& request) {
  AF_CHECK(request.a != nullptr && request.b != nullptr,
           "run_gemm needs both operand matrices");
  AF_CHECK(request.a->cols() == request.b->rows(),
           "GEMM inner-dimension mismatch: " << request.a->cols() << " vs "
                                             << request.b->rows());
  const gemm::GemmShape shape{request.b->cols(), request.b->rows(),
                              request.a->rows()};
  const int k = resolve_mode(shape, request.k);

  RunResult result;
  if (request.sparse) {
    // Block-sparse pricing inspects B's tile occupancy (the one part of a
    // cost query that must read an operand) and charges only the non-zero
    // tiles; see GemmRequest::sparse.
    const arch::TileOccupancy occupancy = arch::TileOccupancy::from_matrix(
        *request.b, config().rows, config().cols);
    result.cost = analytic_sparse_estimate(shape, k, occupancy);
  } else {
    result.cost = analytic_estimate(shape, k);
  }
  result.measured = false;
  // The product is computed only on demand — and by gemm::multiply, not the
  // simulator.  multiply is checked bit-exactly against reference_gemm,
  // which is bit-identical to the array (that is the simulator's own
  // correctness oracle), so a caller cannot tell the backends apart by
  // their outputs, only by their speed.
  if (request.want_output) {
    result.out = gemm::multiply(*request.a, *request.b);
  }
  return result;
}

CostEstimate AnalyticEngine::evaluate(const gemm::GemmShape& shape, int k) {
  return analytic_estimate(shape, resolve_mode(shape, k));
}

std::vector<CostEstimate> AnalyticEngine::evaluate_batch(
    std::span<const gemm::GemmShape> shapes, int k) {
  const std::size_t count = shapes.size();
  std::vector<CostEstimate> out(count);
  if (count == 0) return out;

  const arch::ArrayConfig& cfg = config();
  if (k != 0) {
    AF_CHECK(cfg.supports(k),
             "mode k=" << k << " not supported by " << cfg.to_string());
  }
  const std::int64_t rows = cfg.rows;
  const std::int64_t cols = cfg.cols;

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
    for (const int km : cfg.supported_k) {
      const double period = clock().period_ps(km);
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
  CostCache& cache = *cost_cache();
  const std::uint64_t fp = cost_fingerprint();
  for (std::size_t i = 0; i < count; ++i) {
    if (std::optional<CostEstimate> hit =
            cache.find(fp, shapes[i], mode[i], CostCache::kDenseOccupancy)) {
      out[i] = *std::move(hit);
      continue;
    }
    out[i] = finalized(shapes[i], mode[i], cycles[i],
                       arch::predict_gemm_activity(shapes[i], cfg, mode[i]));
    cache.insert(fp, shapes[i], mode[i], CostCache::kDenseOccupancy, out[i]);
  }
  return out;
}

CostEstimate AnalyticEngine::evaluate_tile_asym(std::int64_t t, int k_v,
                                                int k_h) {
  return analytic_tile_asym_estimate(t, k_v, k_h);
}

CostEstimate AnalyticEngine::evaluate_sparse(
    const gemm::GemmShape& shape, int k,
    const arch::TileOccupancy& occupancy) {
  occupancy.check_grid(shape, config().rows, config().cols);
  return analytic_sparse_estimate(shape, resolve_mode(shape, k), occupancy);
}

}  // namespace af::engine
