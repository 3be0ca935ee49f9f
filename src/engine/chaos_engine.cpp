#include "engine/chaos_engine.h"

#include <chrono>
#include <thread>

#include "util/status.h"

namespace af::engine {

ChaosEngine::ChaosEngine(const EngineBuilder& builder,
                         std::shared_ptr<Engine> inner)
    : Engine(builder.peek_config(), builder.peek_clock(),
             builder.peek_energy(), builder.peek_shared_pool()),
      inner_(std::move(inner)),
      options_(builder.peek_chaos()) {
  AF_CHECK(inner_ != nullptr, "chaos backend needs an inner engine");
  AF_CHECK(options_.throw_every_n >= 0,
           "chaos throw_every_n must be non-negative");
  AF_CHECK(options_.delay_ms >= 0.0, "chaos delay_ms must be non-negative");
}

const std::string& ChaosEngine::name() const {
  static const std::string kName = "chaos";
  return kName;
}

RunResult ChaosEngine::run_gemm(const GemmRequest& request) {
  const std::uint64_t run = runs_.fetch_add(1) + 1;
  if (options_.delay_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(options_.delay_ms));
  }
  if (options_.throw_every_n > 0 &&
      run % static_cast<std::uint64_t>(options_.throw_every_n) == 0) {
    throw Error(
        (detail::MessageBuilder()
         << "chaos: injected engine fault at run " << run).str(),
        ErrorCode::kEngineFault);
  }
  RunResult result = inner_->run_gemm(request);
  if (options_.wrong_cost) {
    // The smallest lie an audit replay must still catch: exact-equality
    // cross-checks tolerate no slack at all.
    result.cost.cycles += 1;
  }
  return result;
}

}  // namespace af::engine
