// design_sweep: single-threaded design-space exploration, no server.
//
// Each round first characterizes six PE variants at gate level (input bits
// {8, 16, 32} x {Booth, Wallace}), then walks 100 design points: array
// sides 16..256 x mode sets {1}, {1,2}, {1,2,4}, {1,2,4,8} x memory (off,
// or a 64 MiB scratchpad at four DRAM bandwidths).  At each point
// InferenceRunner::run prices the three paper CNNs plus a transformer
// prefill and decode pass, and Engine::evaluate_batch prices the same
// shapes.  Every point has a new cost fingerprint, so nothing one point
// puts in the round's shared cost cache helps another (only repeated
// layers within a point hit), the opposite of cost_open.
// Time goes to hw, nn, the closed forms and mem; no thread hands work to
// another, so this is the steadiest workload.  Its latency is that of a
// round, one pass over the whole design space: what a user running the
// sweep waits for.  (A single point's time is bimodal, magic memory
// against DMA-scheduled, so its median would jump between the two.)
//
// The 64 MiB scratchpad is the smallest power-of-four size on which every
// model fits on every side: ResNet-34's stem throws with 1 MiB on every
// side, with 4 MiB from 32x32 up and with 16 MiB at 128x128 and 256x256.

#include <algorithm>
#include <map>

#include "bench.h"
#include "engine/cost_cache.h"
#include "engine/engine.h"
#include "hw/energy_characterization.h"
#include "nn/mapper.h"
#include "nn/models.h"
#include "nn/runner.h"
#include "nn/transformer.h"

namespace afb {
namespace {

constexpr std::int64_t kSpadBytes = std::int64_t{64} << 20;
// Sized so the gate-level step takes about a third of a round.
constexpr int kCharacterizeCycles = 768;
constexpr int kSetupBuilds = 10;  // timed builds of the inputs per round

struct Golden {
  int side;
  int max_k;
  double time_ps;    // sum over the five models of arrayflex_time_ps
  double energy_pj;  // sum of arrayflex_energy_pj
};

// generic28nm, magic memory: recorded from the commit that added this
// benchmark (ResNet-34 alone at 256x256 {1,2,4} is 178.82 us).  Any change
// to these sums is a change to the cost model, not to its speed.
constexpr Golden kGolden[] = {
    {128, 1, 1252697777.7777779, 37253463302.280525},
    {128, 2, 1038343856.2091503, 26433591018.283165},
    {128, 4, 1020598562.0915035, 24769517445.449291},
    {128, 8, 1020598562.0915035, 24769517445.449291},
    {256, 1, 667297222.22222233, 79365240476.842697},
    {256, 2, 539012483.66013062, 53964348762.881012},
    {256, 4, 526016979.4584499, 48187797675.544662},
    {256, 8, 526016979.4584499, 48187797675.544662},
};

struct State {
  std::vector<nn::Model> models;
  std::vector<gemm::GemmShape> shapes;  // every layer of every model, in order
  std::vector<arch::ArrayConfig> points;
};

std::unique_ptr<State> make_state() {
  auto st = std::make_unique<State>();
  st->models = nn::paper_models();
  const nn::TransformerConfig transformer;  // d_model 512, 8 heads, 1 block
  st->models.push_back(nn::prefill_model(transformer, 512));
  st->models.push_back(nn::decode_model(transformer, 512));
  for (const nn::Model& m : st->models) {
    for (const nn::Layer& l : m.layers) st->shapes.push_back(nn::gemm_shape(l));
  }
  const std::vector<std::vector<int>> mode_sets = {{1}, {1, 2}, {1, 2, 4}, {1, 2, 4, 8}};
  for (int side : {16, 32, 64, 128, 256}) {
    for (const std::vector<int>& modes : mode_sets) {
      for (std::int64_t bandwidth : {0, 4, 16, 64, 256}) {
        arch::ArrayConfig c = arch::ArrayConfig::square_with_modes(side, modes);
        if (bandwidth > 0) {
          c.mem.enabled = true;
          c.mem.spad_bytes = kSpadBytes;
          c.mem.dram_bytes_per_cycle = bandwidth;
        }
        st->points.push_back(c);
      }
    }
  }
  return st;
}

// The runner's per-layer choice and the batched estimate must describe the
// same execution.
bool agrees(const nn::LayerReport& layer, const engine::CostEstimate& e,
            bool memory) {
  if (e.k != layer.arrayflex.k) return false;
  if (!memory) {
    return e.cycles == layer.arrayflex.cycles && e.time_ps == layer.arrayflex.time_ps;
  }
  return e.stall_cycles == layer.stall_cycles && e.dram_bytes == layer.dram_bytes &&
         e.spad_peak_bytes == layer.spad_peak_bytes &&
         e.cycles == layer.arrayflex.cycles + layer.stall_cycles;
}

}  // namespace

void run_design_sweep(const Options& opt, Report& report) {
  const std::vector<std::pair<int, hw::MultiplierStyle>> variants = {
      {8, hw::MultiplierStyle::kBooth},  {8, hw::MultiplierStyle::kWallace},
      {16, hw::MultiplierStyle::kBooth}, {16, hw::MultiplierStyle::kWallace},
      {32, hw::MultiplierStyle::kBooth}, {32, hw::MultiplierStyle::kWallace}};

  // Rates are medians over rounds, not totals over the run: on a shared
  // host a burst of interference then slows a few rounds, not the result.
  Samples round_ms, round_cpu_us, run_ms, batch_ns_per_shape, characterize_s;
  // The inputs are rebuilt before every round, and setup_s is the median
  // over rounds of each round's median build.  A 30 us build ends inside
  // one of the host's slow or fast spells, which last seconds, so timing
  // every build before the run read 30 or 50 us depending on the moment.
  Samples round_setup_s;
  std::unique_ptr<State> st;
  auto rebuild = [&] {
    Samples builds;
    for (int i = 0; i < kSetupBuilds; ++i) {
      st = nullptr;
      const Clock::time_point t0 = Clock::now();
      st = make_state();
      builds.add(seconds_between(t0, Clock::now()));
    }
    round_setup_s.add(builds.median());
  };
  double gate_evals = 0.0;
  std::int64_t points = 0, rounds = 0, hits = 0, misses = 0;
  std::map<std::pair<int, int>, std::pair<double, double>> totals;  // golden sums
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  // Whole rounds only, so every run has the same hw : nn share of time.
  while (Clock::now() < deadline) {
    rebuild();
    Span round_span("design_sweep.round", static_cast<std::uint64_t>(rounds));
    const Clock::time_point round_start = Clock::now();
    const double round_cpu0 = process_cpu_s();
    for (std::size_t v = 0; v < variants.size(); ++v) {
      Span span("hw.characterize_energy", v);
      hw::EnergyCharacterizationOptions o;
      o.input_bits = variants[v].first;
      o.multiplier = variants[v].second;
      o.cycles = kCharacterizeCycles;
      o.seed = opt.seed * 1000 + static_cast<std::uint64_t>(rounds) * 8 + v;
      const Clock::time_point t0 = Clock::now();
      const hw::CharacterizedEnergy e = hw::characterize_energy(o);
      const double secs = seconds_between(t0, Clock::now());
      characterize_s.add(secs);
      gate_evals += static_cast<double>(e.cells) * e.lane_cycles;
      report.check(e.lane_cycles == 64.0 * kCharacterizeCycles && e.params.e_mult_fj > 0,
                   "design_sweep: characterize_energy returned no measurement");
    }
    auto cache = std::make_shared<engine::CostCache>();
    for (const arch::ArrayConfig& config : st->points) {
      Span span("design_point", static_cast<std::uint64_t>(points));
      std::shared_ptr<engine::Engine> eng =
          engine::EngineBuilder().config(config).cost_cache(cache).build("analytic");
      nn::InferenceRunner runner(eng);
      std::vector<nn::ModelReport> reports;
      for (const nn::Model& m : st->models) {
        Span run_span("nn.run");
        reports.push_back(runner.run(m));
        const double us = run_span.end();
        if (tracing()) run_ms.add(1e-3 * us);
      }
      Span batch_span("engine.evaluate_batch");
      const std::vector<engine::CostEstimate> batch = eng->evaluate_batch(st->shapes, 0);
      const double batch_us = batch_span.end();
      if (tracing()) batch_ns_per_shape.add(1e3 * batch_us / static_cast<double>(batch.size()));
      ++points;

      std::size_t i = 0;
      bool ok = batch.size() == st->shapes.size();
      for (const nn::ModelReport& r : reports) {
        for (const nn::LayerReport& l : r.layers) {
          ok = ok && agrees(l, batch[i++], config.mem.enabled);
        }
      }
      report.check(ok, "design_sweep: evaluate_batch disagrees with the runner at " +
                           config.to_string());
      if (rounds == 0 && !config.mem.enabled && config.rows >= 128) {
        auto& [time, energy] = totals[{config.rows, config.max_k()}];
        for (const nn::ModelReport& r : reports) {
          time += r.arrayflex_time_ps;
          energy += r.arrayflex_energy_pj;
        }
      }
    }
    hits += cache->hits();
    misses += cache->misses();
    round_ms.add(ms_between(round_start, Clock::now()));
    round_cpu_us.add(1e6 * (process_cpu_s() - round_cpu0));
    ++rounds;
  }
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");

  for (const Golden& g : kGolden) {
    const auto it = totals.find({g.side, g.max_k});
    report.check(it != totals.end() && it->second.first == g.time_ps &&
                     it->second.second == g.energy_pj,
                 "design_sweep: " + std::to_string(g.side) + "x" +
                     std::to_string(g.side) + " totals differ from the golden values");
  }
  for (const auto& [key, sums] : totals) {
    report.note("golden." + std::to_string(key.first) + ".k" + std::to_string(key.second) +
                    ".time_ps", sums.first, "ps");
    report.note("golden." + std::to_string(key.first) + ".k" + std::to_string(key.second) +
                    ".energy_pj", sums.second, "pJ");
  }

  const auto per_round = static_cast<double>(st->points.size());
  report.attempted = points;
  report.failed = 0;
  report.e2e("setup_s", round_setup_s.median(), "s", rounds);
  report.e2e("ops_per_s", 1e3 * per_round / round_ms.median(), "ops/s", rounds);
  report.e2e("lat_p50_ms", round_ms.median(), "ms", rounds);
  report.layer("lat_p90_ms", round_ms.quantile(0.9), "ms", rounds);
  report.layer("lat_p99_ms", round_ms.quantile(0.99), "ms", rounds);
  report.e2e("cpu_us_per_op", round_cpu_us.median() / per_round, "us", rounds);
  report.note("rounds", static_cast<double>(rounds), "count");

  if (!tracing()) return;
  const double lookups = static_cast<double>(hits + misses);
  report.layer("engine.cache_hit_ratio", static_cast<double>(hits) / std::max(1.0, lookups),
               "ratio", hits + misses);
  report.note("hw.characterize_s", characterize_s.mean(), "s",
              static_cast<std::int64_t>(characterize_s.size()));
  report.note("hw.gate_evals_per_s",
              gate_evals / (characterize_s.mean() * static_cast<double>(characterize_s.size())),
              "evals/s");
  report.layer("nn.run_ms", run_ms.mean(), "ms", static_cast<std::int64_t>(run_ms.size()));
  report.layer("engine.evaluate_batch_ns_per_shape", batch_ns_per_shape.mean(), "ns",
               static_cast<std::int64_t>(batch_ns_per_shape.size()));

  ReplayInputs replay;
  replay.config = arch::ArrayConfig::square(16);
  replay.shapes = st->shapes;
  replay.gemms = operands_for(st->shapes, 4, opt.seed);
  replay.models = st->models;
  replay.through_server = true;
  replay_layers(replay, report);
}

}  // namespace afb
