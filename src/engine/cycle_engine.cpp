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

}  // namespace af::engine
