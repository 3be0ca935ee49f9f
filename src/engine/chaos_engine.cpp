#include "engine/chaos_engine.h"

#include <chrono>
#include <thread>

#include "util/rng.h"
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
  for (const double rate : {options_.throw_rate, options_.wrong_cost_rate,
                            options_.delay_rate}) {
    AF_CHECK(rate >= 0.0 && rate <= 1.0,
             "chaos rates must be in [0, 1], got " << rate);
  }
  AF_CHECK(options_.delay_ms >= 0.0, "chaos delay_ms must be non-negative");
}

const std::string& ChaosEngine::name() const {
  static const std::string kName = "chaos";
  return kName;
}

bool ChaosEngine::draw(double rate, std::uint64_t run,
                       std::uint64_t salt) const {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  const std::uint64_t bits = splitmix64(options_.seed ^ (run * salt));
  return static_cast<double>(bits) <
         rate * 18446744073709551616.0;  // 2^64: uniform in [0, 1)
}

RunResult ChaosEngine::run_gemm(const GemmRequest& request) {
  const std::uint64_t run = runs_.fetch_add(1) + 1;
  if (options_.delay_ms > 0.0 &&
      draw(options_.delay_rate, run, 0x9ddfea08eb382d69ULL)) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(options_.delay_ms));
  }
  const bool scheduled_throw =
      options_.throw_every_n > 0 &&
      run % static_cast<std::uint64_t>(options_.throw_every_n) == 0;
  if (scheduled_throw || draw(options_.throw_rate, run, 0xff51afd7ed558ccdULL)) {
    throw Error(
        (detail::MessageBuilder()
         << "chaos: injected engine fault at run " << run).str(),
        ErrorCode::kEngineFault);
  }
  RunResult result = inner_->run_gemm(request);
  if (draw(options_.wrong_cost_rate, run, 0xc4ceb9fe1a85ec53ULL)) {
    // The smallest lie an audit replay must still catch: exact-equality
    // cross-checks tolerate no slack at all.
    result.cost.cycles += 1;
  }
  return result;
}

}  // namespace af::engine
