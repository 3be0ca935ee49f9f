// PERF — google-benchmark microbenchmarks of the cycle-accurate simulator
// and the gate-level infrastructure (methodology sanity; not a paper
// figure).  Useful for keeping the simulator fast enough for the
// property-test sweeps.
//
// Besides the google-benchmark suite, main() self-measures the tiled
// run_gemm path across {side, k, threads} and writes the MACs/s table to
// BENCH_sim_throughput.json so the simulator's perf trajectory is tracked
// across PRs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/array.h"
#include "arch/latency.h"
#include "engine/engine.h"
#include "gemm/multiply.h"
#include "gemm/reference.h"
#include "mem/tile_scheduler.h"
#include "hw/builders/multiplier.h"
#include "hw/netlist.h"
#include "hw/netlist_sim.h"
#include "hw/sta.h"
#include "sim/stats.h"
#include "util/rng.h"

namespace {

using namespace af;

arch::ArrayConfig config_for(int side, int num_threads = 1) {
  arch::ArrayConfig cfg;
  cfg.rows = cfg.cols = side;
  cfg.supported_k = {1, 2, 4};
  cfg.sim.num_threads = num_threads;
  cfg.validate();
  return cfg;
}

void BM_TileSimulation(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const arch::ArrayConfig cfg = config_for(side);
  arch::SystolicArray array(cfg);
  Rng rng(1);
  const std::int64_t t = 32;
  const gemm::Mat32 a = gemm::random_matrix(rng, t, side, -100, 100);
  const gemm::Mat32 b = gemm::random_matrix(rng, side, side, -100, 100);
  std::int64_t macs = 0;
  for (auto _ : state) {
    gemm::Mat64 acc(t, side);
    const arch::TileRunStats stats = array.run_tile(a, b, k, &acc);
    macs += stats.activity.mult_ops;
    benchmark::DoNotOptimize(acc);
  }
  state.counters["MACs/s"] = benchmark::Counter(
      static_cast<double>(macs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TileSimulation)
    ->Args({16, 1})
    ->Args({16, 4})
    ->Args({32, 1})
    ->Args({32, 4})
    ->Args({64, 4});

// Tiled GEMM with tile-level parallelism: the output is cut into C-wide
// column stripes dispatched across SimOptions::num_threads workers.  The
// GEMM is sized to 8 column stripes so 1/2/4 threads all have work.
void BM_ThreadedGemm(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  arch::SystolicArray array(config_for(side, threads));
  Rng rng(4);
  const std::int64_t t = 32;
  const gemm::Mat32 a = gemm::random_matrix(rng, t, 2 * side, -100, 100);
  const gemm::Mat32 b = gemm::random_matrix(rng, 2 * side, 8 * side, -100, 100);
  std::int64_t macs = 0;
  for (auto _ : state) {
    gemm::Mat64 out;
    const arch::TileRunStats stats = array.run_gemm(a, b, k, &out);
    macs += stats.activity.mult_ops;
    benchmark::DoNotOptimize(out);
  }
  state.counters["MACs/s"] = benchmark::Counter(
      static_cast<double>(macs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ThreadedGemm)
    ->Args({32, 1, 1})
    ->Args({32, 1, 2})
    ->Args({32, 1, 4})
    ->Args({32, 4, 1})
    ->Args({32, 4, 4})
    ->UseRealTime();

// The engine facade's fidelity knob, microbenchmarked: the same GEMM
// executed through engine::make("cycle") (full simulation) vs
// engine::make("analytic") with and without outputs.  cost-only analytic
// runs never touch the operands — that gap is the serving layer's
// orders-of-magnitude cost-estimation speedup (bench_serving measures it
// end to end).
void BM_EngineRunGemm(benchmark::State& state) {
  const bool analytic = state.range(0) != 0;
  const bool want_output = state.range(1) != 0;
  engine::EngineBuilder builder;
  builder.config(config_for(32));
  auto eng = builder.build(analytic ? "analytic" : "cycle");
  Rng rng(4);
  const gemm::Mat32 a = gemm::random_matrix(rng, 32, 64, -100, 100);
  const gemm::Mat32 b = gemm::random_matrix(rng, 64, 256, -100, 100);
  engine::GemmRequest request;
  request.a = &a;
  request.b = &b;
  request.k = 4;
  request.want_output = want_output;
  std::int64_t macs = 0;
  for (auto _ : state) {
    const engine::RunResult run = eng->run_gemm(request);
    macs += run.cost.activity.mult_ops;
    benchmark::DoNotOptimize(run.cost.energy_pj);
  }
  state.counters["MACs/s"] = benchmark::Counter(
      static_cast<double>(macs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineRunGemm)
    ->ArgNames({"analytic", "out"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({1, 0});

// The golden-model GEMM and the served-output kernel on the same operands.
void BM_Gemm(benchmark::State& state,
             gemm::Mat64 (*gemm_fn)(const gemm::Mat32&, const gemm::Mat32&)) {
  const std::int64_t n = state.range(0);
  Rng rng(2);
  const gemm::Mat32 a = gemm::random_matrix(rng, 32, n, -100, 100);
  const gemm::Mat32 b = gemm::random_matrix(rng, n, n, -100, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gemm_fn(a, b));
  }
  state.counters["MACs/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * 32 * n * n),
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_Gemm, reference_gemm, &gemm::reference_gemm)
    ->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_Gemm, multiply, &gemm::multiply)->Arg(64)->Arg(128);

void BM_AnalyticLatencyModel(benchmark::State& state) {
  const arch::ArrayConfig cfg = config_for(128);
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (const int k : {1, 2, 4}) {
      sink += arch::total_latency_cycles({512, 2304, 196}, cfg, k);
    }
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_AnalyticLatencyModel);

void BM_WallaceMultiplierBuild(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    hw::Netlist nl;
    const hw::Bus a = nl.new_bus(width);
    const hw::Bus b = nl.new_bus(width);
    benchmark::DoNotOptimize(hw::build_wallace_multiplier(nl, a, b));
    state.counters["cells"] = static_cast<double>(nl.num_cells());
  }
}
BENCHMARK(BM_WallaceMultiplierBuild)->Arg(8)->Arg(16)->Arg(32);

void BM_MultiplierNetlistSim(benchmark::State& state) {
  hw::Netlist nl;
  const hw::Bus a = nl.new_bus(32);
  const hw::Bus b = nl.new_bus(32);
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  nl.bind_output("p", hw::build_wallace_multiplier(nl, a, b));
  hw::NetlistSim sim(nl);
  Rng rng(3);
  for (auto _ : state) {
    sim.set_input_u64("a", rng.next_u64() & 0xFFFFFFFFu);
    sim.set_input_u64("b", rng.next_u64() & 0xFFFFFFFFu);
    sim.eval();
    benchmark::DoNotOptimize(sim.get_u64("p"));
  }
}
BENCHMARK(BM_MultiplierNetlistSim);

void BM_StaOnMultiplier(benchmark::State& state) {
  hw::Netlist nl;
  const hw::Bus a = nl.new_bus(32);
  const hw::Bus b = nl.new_bus(32);
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  nl.bind_output("p", hw::build_wallace_multiplier(nl, a, b));
  const hw::Technology tech;
  for (auto _ : state) {
    hw::Sta sta(nl, tech);
    benchmark::DoNotOptimize(sta.run().min_period_ps);
  }
}
BENCHMARK(BM_StaOnMultiplier);

// ---- JSON perf tracker -----------------------------------------------------

struct ThroughputPoint {
  int side;
  int k;
  int threads;
  sim::RunningStat macs_per_s;  // one sample per repetition
};

// One simulated roofline point: the analytic engine evaluated with the
// memory hierarchy at `bytes_per_cycle` of DRAM bandwidth.
struct RooflinePoint {
  double factor;  // multiple of the compute-balanced bandwidth
  std::int64_t bytes_per_cycle;
  std::int64_t cycles;
  std::int64_t stall_cycles;
  std::int64_t dram_bytes;
  double macs_per_cycle;
};

// Bandwidth sweep from 0.25x to 8x of the compute-balanced point (the
// bytes/cycle at which streaming the compulsory A+B+C traffic takes
// exactly as long as the compute).  Below 1x the stream is the makespan
// and stalls dominate (the bandwidth roof); above it the memory model
// costs nothing (the compute roof) — the JSON section pins that knee so
// perf tracking can see the memory model drifting.
std::vector<RooflinePoint> roofline_sweep() {
  const gemm::GemmShape shape{256, 256, 64};
  arch::ArrayConfig cfg = config_for(32);
  const std::int64_t compute = arch::total_latency_cycles(shape, cfg, 4);
  const std::int64_t compulsory = mem::projected_gemm_bytes(shape, cfg);
  const std::int64_t balanced =
      std::max<std::int64_t>(1, (compulsory + compute - 1) / compute);
  const std::int64_t macs = shape.t * shape.n * shape.m;
  std::vector<RooflinePoint> points;
  for (const double factor : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    cfg.mem.enabled = true;
    cfg.mem.spad_bytes = std::int64_t{1} << 18;  // 256 KiB
    cfg.mem.dram_bytes_per_cycle = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(factor * static_cast<double>(balanced)));
    cfg.mem.dram_latency_cycles = 64;
    engine::EngineBuilder builder;
    builder.config(cfg);
    const engine::CostEstimate cost =
        builder.build("analytic")->evaluate(shape, 4);
    points.push_back({factor, cfg.mem.dram_bytes_per_cycle, cost.cycles,
                      cost.stall_cycles, cost.dram_bytes,
                      static_cast<double>(macs) /
                          static_cast<double>(cost.cycles)});
  }
  return points;
}

// Self-measured MACs/s sweep over {side, k, threads} on the threaded
// cycle-accurate path — driven through the engine facade, like every other
// consumer since the API redesign — written as BENCH_sim_throughput.json
// (silently skipped on read-only checkouts, like sim::CsvReport).
void write_throughput_json(const std::string& path) {
  std::vector<ThroughputPoint> points;
  sim::RunningStat overall;
  for (const int side : {16, 32}) {
    for (const int k : {1, 4}) {
      for (const int threads : {1, 2, 4}) {
        engine::EngineBuilder builder;
        builder.config(config_for(side, threads));
        auto eng = builder.build("cycle");
        Rng rng(7);
        const std::int64_t t = 32;
        const gemm::Mat32 a = gemm::random_matrix(rng, t, 2 * side, -100, 100);
        const gemm::Mat32 b =
            gemm::random_matrix(rng, 2 * side, 8 * side, -100, 100);
        engine::GemmRequest request;
        request.a = &a;
        request.b = &b;
        request.k = k;
        ThroughputPoint p{side, k, threads, {}};
        for (int rep = 0; rep < 3; ++rep) {
          const auto t0 = std::chrono::steady_clock::now();
          const engine::RunResult run = eng->run_gemm(request);
          const auto t1 = std::chrono::steady_clock::now();
          const double secs = std::chrono::duration<double>(t1 - t0).count();
          if (secs > 0) {
            p.macs_per_s.add(
                static_cast<double>(run.cost.activity.mult_ops) / secs);
          }
        }
        overall.merge(p.macs_per_s);
        points.push_back(std::move(p));
      }
    }
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"sim_throughput\",\n  \"unit\": \"MACs/s\",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ThroughputPoint& p = points[i];
    json << "    {\"side\": " << p.side << ", \"k\": " << p.k
         << ", \"threads\": " << p.threads
         << ", \"macs_per_s\": " << p.macs_per_s.mean()
         << ", \"best_macs_per_s\": " << p.macs_per_s.max()
         << ", \"stddev\": " << p.macs_per_s.stddev()
         << ", \"reps\": " << p.macs_per_s.count() << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  const std::vector<RooflinePoint> roofline = roofline_sweep();
  json << "  ],\n  \"roofline\": [\n";
  for (std::size_t i = 0; i < roofline.size(); ++i) {
    const RooflinePoint& p = roofline[i];
    json << "    {\"bandwidth_factor\": " << p.factor
         << ", \"dram_bytes_per_cycle\": " << p.bytes_per_cycle
         << ", \"cycles\": " << p.cycles
         << ", \"stall_cycles\": " << p.stall_cycles
         << ", \"dram_bytes\": " << p.dram_bytes
         << ", \"macs_per_cycle\": " << p.macs_per_cycle << "}"
         << (i + 1 < roofline.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"overall_mean_macs_per_s\": " << overall.mean() << "\n}\n";

  std::ofstream out(path);
  if (!out) {
    std::cerr << "note: could not write " << path << "\n";
    return;
  }
  out << json.str();
  std::cout << "wrote " << path << " (" << points.size()
            << " configs, overall mean " << overall.mean() << " MACs/s)\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Listing/dry-run invocations shouldn't trigger the measurement sweep.
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_list_tests", 0) == 0) {
      list_only = true;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!list_only) write_throughput_json("BENCH_sim_throughput.json");
  return 0;
}
