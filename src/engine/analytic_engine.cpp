#include "engine/analytic_engine.h"

#include <utility>

#include "arch/sparse.h"
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

  RunResult result;
  if (request.sparse) {
    // Block-sparse pricing inspects B's tile occupancy (the one part of a
    // cost query that must read an operand) and charges only the non-zero
    // tiles; see GemmRequest::sparse.
    const arch::TileOccupancy occupancy = arch::TileOccupancy::from_matrix(
        *request.b, config().rows, config().cols);
    result.cost = evaluate_sparse(shape, request.k, occupancy);
  } else {
    result.cost = evaluate(shape, request.k);
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

}  // namespace af::engine
