// GPT-style transformer inference on ArrayFlex: the prefill/decode phase
// economics the serving layer schedules around, per-phase cost totals, the
// KV-cache footprint at the array's operand width — and the exactness
// contract, re-proven on a whole stack: the cycle backend simulates every
// layer's GEMM on random operands and must measure bit-for-bit what the
// closed forms predict.
//
//   $ ./transformer_inference [side]          (default 16)

#include <cstdlib>
#include <iostream>

#include "engine/engine.h"
#include "gemm/matrix.h"
#include "nn/runner.h"
#include "nn/transformer.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

using namespace af;

namespace {

void print_phase_table(const nn::ModelReport& report) {
  const std::map<std::string, nn::PhaseTotals> phases =
      nn::totals_by_phase(report);
  Table table({"phase", "layers", "MACs", "time", "share", "energy pJ",
               "DRAM bytes", "stalls", "spad peak"});
  table.set_align(0, Table::Align::kLeft);
  for (const nn::TransformerPhase p : nn::transformer_phases()) {
    const auto it = phases.find(nn::transformer_phase_name(p));
    if (it == phases.end()) continue;
    const nn::PhaseTotals& t = it->second;
    table.add_row({it->first, std::to_string(t.layers), with_commas(t.macs),
                   format_time_ps(t.arrayflex_time_ps),
                   percent(t.arrayflex_time_ps / report.arrayflex_time_ps),
                   fixed(t.arrayflex_energy_pj, 1), with_commas(t.dram_bytes),
                   with_commas(t.stall_cycles), with_commas(t.spad_peak_bytes)});
  }
  std::cout << table;
  std::cout << "modes chosen:";
  for (const auto& [k, n] : report.mode_histogram()) {
    std::cout << format("  k=%d: %d layers", k, n);
  }
  std::cout << "\n";
}

// The analytic engine IS the spec: the cycle backend runs each layer's GEMM
// on random operands in the layer's chosen mode and must measure exactly
// the closed-form cost, the report's memory fields and its compute cycles.
// Returns the number of disagreeing layers (0 on a healthy build).
int check_layers(const nn::ModelReport& report, const engine::Engine& analytic,
                 engine::Engine& cycle, Rng& rng) {
  int mismatches = 0;
  for (const nn::LayerReport& l : report.layers) {
    const gemm::Mat32 a =
        gemm::random_matrix(rng, l.shape.t, l.shape.n, -100, 100);
    const gemm::Mat32 b =
        gemm::random_matrix(rng, l.shape.n, l.shape.m, -100, 100);
    engine::GemmRequest request;
    request.a = &a;
    request.b = &b;
    request.k = l.arrayflex.k;
    request.want_output = false;
    const engine::CostEstimate measured = cycle.run_gemm(request).cost;
    const bool same =
        engine::exactly_equal(measured,
                              analytic.evaluate(l.shape, l.arrayflex.k)) &&
        measured.stall_cycles == l.stall_cycles &&
        measured.dram_bytes == l.dram_bytes &&
        measured.spad_peak_bytes == l.spad_peak_bytes &&
        measured.cycles - measured.stall_cycles == l.arrayflex.cycles;
    if (!same) {
      std::cout << "  MISMATCH at " << l.name << "\n";
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  const int side = argc > 1 ? std::atoi(argv[1]) : 16;

  // A small GPT-style stack, with the memory hierarchy enabled so the
  // per-phase table also shows DRAM traffic, stalls and scratchpad peaks.
  nn::TransformerConfig tc;
  tc.d_model = 64;
  tc.n_heads = 4;
  tc.d_ff = 256;
  tc.n_blocks = 2;
  const std::int64_t prompt_len = 64;
  const std::int64_t kv_len = 192;

  arch::ArrayConfig cfg = arch::ArrayConfig::square(side);
  cfg.mem.enabled = true;
  cfg.mem.spad_bytes = 1 << 15;
  cfg.mem.dram_bytes_per_cycle = 4;
  engine::EngineBuilder builder;
  builder.config(cfg);
  const nn::InferenceRunner analytic(builder.build("analytic"));

  const nn::Model prefill = nn::prefill_model(tc, prompt_len);
  const nn::Model decode = nn::decode_model(tc, kv_len);
  const nn::ModelReport prefill_report = analytic.run(prefill);
  const nn::ModelReport decode_report = analytic.run(decode);

  std::cout << format(
      "GPT-style stack: d_model=%d heads=%d d_ff=%d blocks=%d on %s\n",
      tc.d_model, tc.n_heads, tc.d_ff, tc.n_blocks,
      analytic.config().to_string().c_str());

  const nn::KvCacheReport kv = nn::kv_cache_report(tc, cfg, kv_len);
  std::cout << format(
      "KV cache @ %lld positions: %s bytes resident, %s bytes/token, "
      "%s read + %s written per decode step\n\n",
      static_cast<long long>(kv_len), with_commas(kv.resident_bytes).c_str(),
      with_commas(kv.bytes_per_token).c_str(),
      with_commas(kv.read_bytes_per_step).c_str(),
      with_commas(kv.write_bytes_per_step).c_str());

  std::cout << format("prefill (%lld prompt tokens, %s MACs):\n",
                      static_cast<long long>(prompt_len),
                      with_commas(prefill.total_macs()).c_str());
  print_phase_table(prefill_report);

  std::cout << format("\ndecode (1 token over a %lld-deep cache, %s MACs):\n",
                      static_cast<long long>(kv_len),
                      with_commas(decode.total_macs()).c_str());
  print_phase_table(decode_report);

  // The serving layer's reconfiguration story in two numbers: per-token
  // array time in each phase (prefill amortizes its fat GEMMs over the
  // whole prompt; decode pays one skinny pass per token at deeper
  // collapse).
  std::cout << format(
      "\nper-token array time : %s (prefill, amortized) vs %s (decode)\n",
      format_time_ps(prefill_report.arrayflex_time_ps /
                     static_cast<double>(prompt_len))
          .c_str(),
      format_time_ps(decode_report.arrayflex_time_ps).c_str());

  // Both backends, same numbers: the cycle engine simulates every layer.
  const std::shared_ptr<engine::Engine> cycle = builder.build("cycle");
  Rng rng(7);
  int mismatches =
      check_layers(prefill_report, analytic.engine(), *cycle, rng);
  mismatches += check_layers(decode_report, analytic.engine(), *cycle, rng);
  const int layers = static_cast<int>(prefill_report.layers.size() +
                                      decode_report.layers.size());
  if (mismatches != 0) {
    std::cout << format("\ncycle backend DISAGREES on %d of %d layers\n",
                        mismatches, layers);
    return 1;
  }
  std::cout << format(
      "\ncycle backend agrees bit-exactly on all %d layers (both phases)\n",
      layers);
  return 0;
}
