// Transformer workload subsystem: phase-shape algebra, block lowering to
// nn::Layer lists, the KV-cache size/traffic model, per-phase report
// aggregation, the analytic==cycle equivalence of the new kGemm layer path
// (randomized over heads/seq/KV depths, memory hierarchy on and off), and
// the runtime reconfiguration policy state machine on synthetic streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "engine/engine.h"
#include "gemm/reference.h"
#include "nn/mapper.h"
#include "nn/runner.h"
#include "nn/transformer.h"
#include "serve/reconfig.h"
#include "util/rng.h"
#include "util/status.h"

namespace af::nn {
namespace {

TransformerConfig small_config() {
  TransformerConfig cfg;
  cfg.d_model = 32;
  cfg.n_heads = 4;
  cfg.d_ff = 64;
  cfg.n_blocks = 2;
  return cfg;
}

TEST(TransformerShapesTest, PhaseShapesMatchBlockAlgebra) {
  TransformerConfig cfg;
  cfg.d_model = 512;
  cfg.n_heads = 8;
  cfg.d_ff = 2048;
  const std::int64_t seq = 64, kv = 128;
  const auto shape = [&](TransformerPhase p) {
    return transformer_phase_shape(cfg, p, seq, kv);
  };
  // X(T x M) = A(T x N) x B(N x M); GemmShape carries {m, n, t}.
  const gemm::GemmShape qkv = shape(TransformerPhase::kQkvProj);
  EXPECT_EQ(qkv.t, seq);
  EXPECT_EQ(qkv.n, 512);
  EXPECT_EQ(qkv.m, 3 * 512);
  const gemm::GemmShape score = shape(TransformerPhase::kAttnScore);
  EXPECT_EQ(score.t, seq);
  EXPECT_EQ(score.n, cfg.head_dim());
  EXPECT_EQ(score.m, kv);
  const gemm::GemmShape ctx = shape(TransformerPhase::kAttnContext);
  EXPECT_EQ(ctx.t, seq);
  EXPECT_EQ(ctx.n, kv);
  EXPECT_EQ(ctx.m, cfg.head_dim());
  const gemm::GemmShape out = shape(TransformerPhase::kOutProj);
  EXPECT_EQ(out.n, 512);
  EXPECT_EQ(out.m, 512);
  const gemm::GemmShape up = shape(TransformerPhase::kMlpUp);
  EXPECT_EQ(up.n, 512);
  EXPECT_EQ(up.m, 2048);
  const gemm::GemmShape down = shape(TransformerPhase::kMlpDown);
  EXPECT_EQ(down.n, 2048);
  EXPECT_EQ(down.m, 512);
}

TEST(TransformerShapesTest, InvalidConfigsRejected) {
  TransformerConfig bad = small_config();
  bad.n_heads = 5;  // 32 % 5 != 0
  EXPECT_THROW(bad.validate(), Error);
  bad = small_config();
  bad.d_ff = 0;
  EXPECT_THROW(bad.validate(), Error);
  EXPECT_THROW(
      transformer_phase_shape(small_config(), TransformerPhase::kQkvProj,
                              /*seq_t=*/0, /*kv_len=*/8),
      Error);
  EXPECT_THROW(
      transformer_phase_shape(small_config(), TransformerPhase::kAttnScore,
                              /*seq_t=*/4, /*kv_len=*/-1),
      Error);
}

TEST(TransformerModelTest, BlockLayerListStructureAndMapperAgreement) {
  const TransformerConfig cfg = small_config();
  const std::int64_t seq = 8, kv = 16;
  const std::vector<Layer> block = transformer_block_layers(cfg, seq, kv, 3);
  ASSERT_EQ(block.size(), static_cast<std::size_t>(4 + 2 * cfg.n_heads));
  EXPECT_EQ(block.front().name, "blk3.qkv_proj");
  EXPECT_EQ(block[1].name, "blk3.attn_score.h0");
  EXPECT_EQ(block.back().name, "blk3.mlp_down");
  // The nn::Layer lowering (LayerKind::kGemm) must reproduce the phase
  // algebra exactly — this is what makes a transformer an ordinary model.
  std::size_t i = 0;
  const auto expect_shape = [&](TransformerPhase p) {
    const gemm::GemmShape want = transformer_phase_shape(cfg, p, seq, kv);
    const gemm::GemmShape got = gemm_shape(block[i]);
    EXPECT_EQ(got.t, want.t) << block[i].name;
    EXPECT_EQ(got.n, want.n) << block[i].name;
    EXPECT_EQ(got.m, want.m) << block[i].name;
    EXPECT_EQ(block[i].kind, LayerKind::kGemm) << block[i].name;
    ++i;
  };
  expect_shape(TransformerPhase::kQkvProj);
  for (int h = 0; h < cfg.n_heads; ++h) {
    expect_shape(TransformerPhase::kAttnScore);
  }
  for (int h = 0; h < cfg.n_heads; ++h) {
    expect_shape(TransformerPhase::kAttnContext);
  }
  expect_shape(TransformerPhase::kOutProj);
  expect_shape(TransformerPhase::kMlpUp);
  expect_shape(TransformerPhase::kMlpDown);

  const Model stack = transformer_model(cfg, seq, kv);
  EXPECT_EQ(stack.layers.size(), block.size() * cfg.n_blocks);
  // Prefill: seq_t == kv_len == prompt length.  Decode: one token row.
  const Model prefill = prefill_model(cfg, 24);
  EXPECT_EQ(gemm_shape(prefill.layers.front()).t, 24);
  EXPECT_EQ(gemm_shape(prefill.layers[1]).m, 24);  // score spans the prompt
  const Model decode = decode_model(cfg, 48);
  EXPECT_EQ(gemm_shape(decode.layers.front()).t, 1);
  EXPECT_EQ(gemm_shape(decode.layers[1]).m, 48);
}

TEST(TransformerModelTest, KvCacheReportClosedForm) {
  TransformerConfig cfg;
  cfg.d_model = 256;
  cfg.n_heads = 4;
  cfg.d_ff = 512;
  cfg.n_blocks = 3;
  arch::ArrayConfig array = arch::ArrayConfig::square(16);  // input_bits = 32
  const std::int64_t kv = 100;
  const KvCacheReport r = kv_cache_report(cfg, array, kv);
  const std::int64_t in_b = 4;
  EXPECT_EQ(r.resident_bytes, 2 * 3 * kv * 256 * in_b);
  EXPECT_EQ(r.bytes_per_token, 2 * 3 * 256 * in_b);
  EXPECT_EQ(r.write_bytes_per_step, r.bytes_per_token);
  // A decode step streams the whole resident cache once (every head's K^T
  // and V panel) — reads equal residency, and equal the summed B-operand
  // bytes of the score and context layers.
  EXPECT_EQ(r.read_bytes_per_step, r.resident_bytes);
  std::int64_t b_bytes = 0;
  for (const Layer& l : decode_model(cfg, kv).layers) {
    if (l.name.find("attn_") != std::string::npos) {
      const gemm::GemmShape s = gemm_shape(l);
      b_bytes += s.n * s.m * in_b;
    }
  }
  EXPECT_EQ(b_bytes, r.read_bytes_per_step);
}

TEST(TransformerModelTest, TotalsByPhasePartitionTheReport) {
  arch::ArrayConfig array = arch::ArrayConfig::square(16);
  array.mem.enabled = true;
  array.mem.spad_bytes = 1 << 14;
  const InferenceRunner runner(
      engine::EngineBuilder().config(array).build("analytic"));
  const ModelReport report = runner.run(prefill_model(small_config(), 12));
  const std::map<std::string, PhaseTotals> phases = totals_by_phase(report);
  ASSERT_EQ(phases.size(), 6u);  // all six phases, nothing under "other"
  EXPECT_EQ(phases.count("other"), 0u);
  int layers = 0;
  double time_ps = 0.0;
  std::int64_t dram = 0;
  for (const TransformerPhase p : transformer_phases()) {
    const auto it = phases.find(transformer_phase_name(p));
    ASSERT_NE(it, phases.end()) << transformer_phase_name(p);
    layers += it->second.layers;
    time_ps += it->second.arrayflex_time_ps;
    dram += it->second.dram_bytes;
    EXPECT_GT(it->second.macs, 0) << transformer_phase_name(p);
    EXPECT_GT(it->second.spad_peak_bytes, 0) << transformer_phase_name(p);
  }
  EXPECT_EQ(layers, static_cast<int>(report.layers.size()));
  EXPECT_DOUBLE_EQ(time_ps, report.arrayflex_time_ps);
  EXPECT_GT(dram, 0);
  // The attention phases' DRAM traffic covers at least the KV panels they
  // stream (tiling can only add traffic, never elide a compulsory byte).
  const KvCacheReport kv = kv_cache_report(small_config(), array, 12);
  EXPECT_GE(phases.at("attn_score").dram_bytes +
                phases.at("attn_context").dram_bytes,
            kv.read_bytes_per_step);
}

TEST(TransformerModelTest, DecodePrefersDeeperCollapseThanPrefill) {
  // Eq. 7: k-hat grows as T shrinks, so one-token decode rows lean to deep
  // collapse while fat prefill rows lean shallow.  Compare the MAC-weighted
  // mean chosen mode of the two pass types on the paper's 128x128 array.
  TransformerConfig cfg;
  cfg.d_model = 512;
  cfg.n_heads = 8;
  cfg.d_ff = 2048;
  const InferenceRunner runner(engine::EngineBuilder()
                                   .config(arch::ArrayConfig::square(128))
                                   .build("analytic"));
  const auto mean_k = [](const ModelReport& r) {
    double k = 0.0;
    for (const LayerReport& l : r.layers) k += l.arrayflex.k;
    return k / static_cast<double>(r.layers.size());
  };
  const double prefill_k = mean_k(runner.run(prefill_model(cfg, 1024)));
  const double decode_k = mean_k(runner.run(decode_model(cfg, 1024)));
  EXPECT_GT(decode_k, prefill_k);
  // Decode's skinny rows are unanimous: every layer collapses maximally.
  EXPECT_DOUBLE_EQ(decode_k, 4.0);
}

// ---- the equivalence contract for the new layer type ----------------------

TEST(TransformerEquivalenceTest, RandomizedPhaseSweepAnalyticMatchesCycle) {
  // Every transformer phase shape, randomized over heads/seq/KV depth and
  // array geometry, memory hierarchy on and off: the analytic backend's
  // outputs and every cost counter (cycles, stalls, DRAM bytes, energy)
  // must EXACTLY equal the cycle backend's measurement — the contract that
  // lets the serving layer price transformer traffic analytically.
  Rng rng(20260808);
  const std::vector<int> sides = {4, 8, 12, 16};
  for (int iter = 0; iter < 8; ++iter) {
    arch::ArrayConfig cfg;
    cfg.rows = sides[rng.next_below(sides.size())];
    cfg.cols = sides[rng.next_below(sides.size())];
    cfg.supported_k = {1};
    for (const int k : {2, 4}) {
      if (cfg.rows % k == 0 && cfg.cols % k == 0) cfg.supported_k.push_back(k);
    }
    if (iter % 2 == 0) {
      cfg.mem.enabled = true;
      cfg.mem.spad_bytes = 1 << 13;
      cfg.mem.dram_bytes_per_cycle = 4;
    }
    cfg.validate();
    engine::EngineBuilder builder;
    builder.config(cfg);
    auto analytic = builder.build("analytic");
    auto cycle = builder.build("cycle");

    TransformerConfig tc;
    tc.n_heads = static_cast<int>(rng.next_in(1, 4));
    tc.d_model = tc.n_heads * static_cast<int>(rng.next_in(2, 6));
    tc.d_ff = static_cast<int>(rng.next_in(4, 24));
    const std::int64_t seq = rng.next_in(1, 10);
    const std::int64_t kv = rng.next_in(1, 14);
    for (const TransformerPhase phase : transformer_phases()) {
      const gemm::GemmShape shape =
          transformer_phase_shape(tc, phase, seq, kv);
      const int k =
          cfg.supported_k[rng.next_below(cfg.supported_k.size())];
      const std::string label = std::string(transformer_phase_name(phase)) +
                                " seq=" + std::to_string(seq) +
                                " kv=" + std::to_string(kv) +
                                " k=" + std::to_string(k) +
                                (cfg.mem.enabled ? " mem" : "");
      const gemm::Mat32 a = gemm::random_matrix(rng, shape.t, shape.n, -9, 9);
      const gemm::Mat32 b = gemm::random_matrix(rng, shape.n, shape.m, -9, 9);
      engine::GemmRequest request;
      request.a = &a;
      request.b = &b;
      request.k = k;
      const engine::RunResult fr = analytic->run_gemm(request);
      const engine::RunResult er = cycle->run_gemm(request);
      ASSERT_TRUE(fr.out.has_value()) << label;
      ASSERT_TRUE(er.out.has_value()) << label;
      const gemm::Mat64 want = gemm::reference_gemm(a, b);
      EXPECT_EQ(gemm::first_mismatch(*fr.out, want), "") << label;
      EXPECT_EQ(gemm::first_mismatch(*er.out, want), "") << label;
      EXPECT_TRUE(engine::exactly_equal(fr.cost, er.cost)) << label;

      // The closed form against the measured run.
      const engine::CostEstimate fast = analytic->evaluate(shape, k);
      const engine::CostEstimate& exact = er.cost;
      EXPECT_EQ(fast.cycles, exact.cycles) << label;
      EXPECT_EQ(fast.stall_cycles, exact.stall_cycles) << label;
      EXPECT_EQ(fast.dram_bytes, exact.dram_bytes) << label;
      EXPECT_EQ(fast.spad_peak_bytes, exact.spad_peak_bytes) << label;
      EXPECT_TRUE(engine::exactly_equal(fast, exact)) << label;
    }
  }
}

}  // namespace
}  // namespace af::nn

namespace af::serve {
namespace {

// Synthetic mode sweep: entries (k, time_ps) with the fastest flagged best.
std::vector<arch::ModeSweepEntry> make_sweep(
    const std::vector<std::pair<int, double>>& modes) {
  std::vector<arch::ModeSweepEntry> out;
  double best = modes.front().second;
  for (const auto& m : modes) best = std::min(best, m.second);
  for (const auto& [k, t] : modes) {
    arch::ModeSweepEntry e;
    e.decision.k = k;
    e.decision.time_ps = t;
    e.is_best = (t == best);
    out.push_back(e);
  }
  return out;
}

TEST(ReconfigPolicyTest, RegistryListsBothPolicies) {
  const std::vector<std::string> names = reconfig_policy_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "argmin");  // sorted — the README drift contract
  EXPECT_EQ(names[1], "sticky");
  for (const std::string& n : names) {
    EXPECT_FALSE(reconfig_policy_description(n).empty()) << n;
  }
  EXPECT_EQ(parse_reconfig_policy("argmin"), ReconfigPolicyKind::kArgmin);
  EXPECT_EQ(parse_reconfig_policy("sticky"), ReconfigPolicyKind::kSticky);
  EXPECT_THROW(parse_reconfig_policy("greedy"), Error);
}

TEST(ReconfigPolicyTest, ArgminChasesEveryRequestAndCountsThrash) {
  ReconfigPolicy p;
  p.kind = ReconfigPolicyKind::kArgmin;
  const auto decode = make_sweep({{1, 900.0}, {2, 600.0}, {4, 400.0}});
  const auto prefill = make_sweep({{1, 300.0}, {2, 500.0}, {4, 800.0}});
  EXPECT_EQ(p.decide(decode, 1e6), 4);  // first adoption is free
  EXPECT_EQ(p.switches, 0);
  // Interleaved prefill/decode: argmin flips the stream mode every time,
  // no matter how large the drain price is.
  EXPECT_EQ(p.decide(prefill, 1e6), 1);
  EXPECT_EQ(p.decide(decode, 1e6), 4);
  EXPECT_EQ(p.decide(prefill, 1e6), 1);
  EXPECT_EQ(p.switches, 3);
  EXPECT_EQ(p.holds, 0);
}

TEST(ReconfigPolicyTest, StickyHoldsUntilAccumulatedWinPaysTheDrain) {
  ReconfigPolicy p;
  p.kind = ReconfigPolicyKind::kSticky;
  p.switch_margin = 2.0;
  const auto decode = make_sweep({{1, 900.0}, {2, 600.0}, {4, 400.0}});
  const auto prefill = make_sweep({{1, 300.0}, {2, 500.0}, {4, 800.0}});
  EXPECT_EQ(p.decide(prefill, 1000.0), 1);  // fresh stream adopts for free
  EXPECT_EQ(p.switches, 0);
  // Decode requests prefer k=4, winning 900-400 = 500 ps each over the
  // stream mode; the switch needs 2 x 1000 ps accumulated, i.e. 4 requests.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(p.decide(decode, 1000.0), 1) << "held request " << i;
  }
  EXPECT_EQ(p.holds, 3);
  EXPECT_EQ(p.decide(decode, 1000.0), 4);  // 4 x 500 >= 2000: switch fires
  EXPECT_EQ(p.switches, 1);
  // Established on k=4 now; a single prefill request cannot drag it back.
  EXPECT_EQ(p.decide(prefill, 1000.0), 4);
  EXPECT_EQ(p.holds, 4);
}

TEST(ReconfigPolicyTest, StickyChallengerRunResetsOnAgreement) {
  ReconfigPolicy p;
  p.kind = ReconfigPolicyKind::kSticky;
  p.switch_margin = 2.0;
  const auto decode = make_sweep({{1, 900.0}, {4, 400.0}});
  const auto prefill = make_sweep({{1, 300.0}, {4, 800.0}});
  EXPECT_EQ(p.decide(prefill, 1000.0), 1);
  EXPECT_EQ(p.decide(decode, 1000.0), 1);  // pending win 500
  EXPECT_GT(p.pending_win_ps, 0.0);
  EXPECT_EQ(p.decide(prefill, 1000.0), 1);  // agreement breaks the run
  EXPECT_DOUBLE_EQ(p.pending_win_ps, 0.0);
  // The challenger must rebuild its case from zero.
  EXPECT_EQ(p.decide(decode, 1000.0), 1);
  EXPECT_EQ(p.decide(decode, 1000.0), 1);
  EXPECT_EQ(p.decide(decode, 1000.0), 1);
  EXPECT_EQ(p.decide(decode, 1000.0), 4);
  EXPECT_EQ(p.switches, 1);
}

TEST(ReconfigPolicyTest, StickyAdoptsFreshOrForeignStreamForFree) {
  ReconfigPolicy p;
  p.kind = ReconfigPolicyKind::kSticky;
  const auto decode = make_sweep({{1, 900.0}, {4, 400.0}});
  EXPECT_EQ(p.decide(decode, 1e9), 4);  // no established mode: free
  EXPECT_EQ(p.switches, 0);
  // The stream mode vanished from the sweep (different shard geometry):
  // adopt the new optimum for free rather than holding a phantom mode.
  const auto foreign = make_sweep({{2, 700.0}, {8, 500.0}});
  EXPECT_EQ(p.decide(foreign, 1e9), 8);
  EXPECT_EQ(p.switches, 0);
  p.reset();
  EXPECT_EQ(p.stream_k, 0);
  EXPECT_EQ(p.decide(decode, 1e9), 4);
  EXPECT_EQ(p.switches, 0);
}

TEST(ReconfigPolicyTest, ZeroMarginSwitchesOnAnyWin) {
  ReconfigPolicy p;
  p.kind = ReconfigPolicyKind::kSticky;
  p.switch_margin = 0.0;
  const auto decode = make_sweep({{1, 900.0}, {4, 400.0}});
  const auto prefill = make_sweep({{1, 300.0}, {4, 800.0}});
  EXPECT_EQ(p.decide(prefill, 1e12), 1);
  EXPECT_EQ(p.decide(decode, 1e12), 4);  // any positive win >= 0 x drain
  EXPECT_EQ(p.switches, 1);
}

}  // namespace
}  // namespace af::serve
