#include "engine/cycle_engine.h"

#include <utility>

#include "arch/sparse.h"
#include "util/status.h"

namespace af::engine {

CycleAccurateEngine::CycleAccurateEngine(
    const arch::ArrayConfig& config,
    std::shared_ptr<const arch::ClockModel> clock,
    const arch::EnergyParams& energy, util::ThreadPool* shared_pool)
    : Engine(config, std::move(clock), energy, shared_pool),
      array_(this->config(), pool()) {}

const std::string& CycleAccurateEngine::name() const {
  static const std::string kName = "cycle";
  return kName;
}

RunResult CycleAccurateEngine::run_gemm(const GemmRequest& request) {
  AF_CHECK(request.a != nullptr && request.b != nullptr,
           "run_gemm needs both operand matrices");
  AF_CHECK(request.a->cols() == request.b->rows(),
           "GEMM inner-dimension mismatch: " << request.a->cols() << " vs "
                                             << request.b->rows());
  const gemm::GemmShape shape{request.b->cols(), request.b->rows(),
                              request.a->rows()};
  const int k = resolve_mode(shape, request.k);

  gemm::Mat64 out;
  const arch::TileRunStats stats =
      request.sparse ? array_.run_gemm_sparse(*request.a, *request.b, k, &out)
                     : array_.run_gemm(*request.a, *request.b, k, &out);

  RunResult result;
  if (request.sparse) {
    // The memory-aware finalization needs the tile occupancy to know which
    // visits moved data; scanning B mirrors what the sparse sequencer did.
    const arch::TileOccupancy occupancy = arch::TileOccupancy::from_matrix(
        *request.b, config().rows, config().cols);
    result.cost = finalized(shape, k, stats.total_cycles, stats.activity,
                            &occupancy);
  } else {
    result.cost = finalized(shape, k, stats.total_cycles, stats.activity);
  }
  result.measured = true;
  if (request.want_output) result.out = std::move(out);
  return result;
}

CostEstimate CycleAccurateEngine::evaluate(const gemm::GemmShape& shape,
                                           int k) {
  const int mode = resolve_mode(shape, k);
  // Counters and cycle counts are data-independent, so streaming zeros
  // through the simulator measures the exact cost of any GEMM of `shape`.
  const gemm::Mat32 a(shape.t, shape.n);
  const gemm::Mat32 b(shape.n, shape.m);
  gemm::Mat64 out;
  const arch::TileRunStats stats = array_.run_gemm(a, b, mode, &out);
  return finalized(shape, mode, stats.total_cycles, stats.activity);
}

CostEstimate CycleAccurateEngine::evaluate_sparse(
    const gemm::GemmShape& shape, int k,
    const arch::TileOccupancy& occupancy) {
  occupancy.check_grid(shape, config().rows, config().cols);
  const int mode = resolve_mode(shape, k);
  // Materialize the cheapest weight matrix with exactly this occupancy:
  // one non-zero in the top-left corner of every occupied tile.  The
  // sequencer's skip decisions depend only on which tiles are non-zero,
  // and the counters are data-independent past that — so this measures
  // the exact cost of ANY sparse GEMM with this shape and occupancy.
  const gemm::Mat32 a(shape.t, shape.n);
  gemm::Mat32 b(shape.n, shape.m);
  for (std::int64_t rt = 0; rt < occupancy.row_tiles(); ++rt) {
    for (std::int64_t ct = 0; ct < occupancy.col_tiles(); ++ct) {
      if (occupancy.is_nonzero(rt, ct)) {
        b.at(rt * config().rows, ct * config().cols) = 1;
      }
    }
  }
  gemm::Mat64 out;
  const arch::TileRunStats stats = array_.run_gemm_sparse(a, b, mode, &out);
  return finalized(shape, mode, stats.total_cycles, stats.activity,
                   &occupancy);
}

CostEstimate CycleAccurateEngine::evaluate_tile_asym(std::int64_t t, int k_v,
                                                     int k_h) {
  const gemm::Mat32 a(t, config().rows);
  const gemm::Mat32 b(config().rows, config().cols);
  gemm::Mat64 acc(t, config().cols);
  const arch::TileRunStats stats = array_.run_tile_asym(a, b, k_v, k_h, &acc);
  // Priced at Tclock(k_v), like the analytic estimate: the vertical
  // reduction chain dominates the period (paper Section III-A).
  CostEstimate est = priced(stats, k_v);
  return est;
}

}  // namespace af::engine
