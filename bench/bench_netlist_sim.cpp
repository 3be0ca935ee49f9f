// PERF — gate-level simulation engine throughput tracker.
//
// Measures toggle-counted gate-evals/s and toggles/s on two representative
// netlists (the 16x16 Wallace multiplier and the k=4 collapsed column) for
// three engine configurations:
//
//   reference   — the seed algorithm: full topological order, scalar;
//   event1      — compiled event-driven wavefront, one active lane;
//   event64     — event-driven + 64-lane bit-parallel (64 stimulus vectors
//                 per eval).
//
// "Gate-evals/s" prices every applied stimulus vector at one evaluation of
// the whole netlist (the work the reference engine actually performs), so
// the event-driven/bit-parallel rates are directly comparable speedups over
// the seed.  Results go to BENCH_netlist_sim.json in the working
// directory: a single-shot microbenchmark of the gate-level engine, as
// bench_sim_throughput is of the architecture simulator.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "hw/builders/multiplier.h"
#include "hw/builders/pe_datapath.h"
#include "hw/compiled_netlist.h"
#include "hw/netlist.h"
#include "hw/netlist_sim.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace {

using namespace af;
using hw::NetlistSim;
using hw::SimEngine;

constexpr int kLanes = NetlistSim::kLanes;

struct Result {
  std::string design;
  std::string engine;
  int cells = 0;
  std::int64_t vectors = 0;
  double seconds = 0.0;
  std::uint64_t toggles = 0;
  double gate_evals_per_s() const {
    return seconds > 0
               ? static_cast<double>(vectors) * cells / seconds
               : 0.0;
  }
  double toggles_per_s() const {
    return seconds > 0 ? static_cast<double>(toggles) / seconds : 0.0;
  }
};

double now_to(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- 16x16 multiplier: combinational, driven through eval() ---------------

hw::Netlist build_mul16() {
  hw::Netlist nl;
  const hw::Bus a = nl.new_bus(16);
  const hw::Bus b = nl.new_bus(16);
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  nl.bind_output("p", hw::build_wallace_multiplier(nl, a, b));
  return nl;
}

Result run_mul16(const hw::CompiledNetlist& cn, SimEngine engine, int lanes,
                 std::int64_t vectors, std::uint64_t* checksum) {
  NetlistSim sim(cn, engine);
  if (lanes > 1) sim.set_active_lanes(lanes);
  Rng rng(11);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  if (lanes == 1) {
    for (std::int64_t v = 0; v < vectors; ++v) {
      sim.set_input_u64("a", rng.next_u64() & 0xFFFF);
      sim.set_input_u64("b", rng.next_u64() & 0xFFFF);
      sim.eval();
      sink += sim.get_u64("p");
    }
  } else {
    std::vector<std::uint64_t> xs(static_cast<std::size_t>(lanes));
    std::vector<std::uint64_t> ys(static_cast<std::size_t>(lanes));
    for (std::int64_t v = 0; v < vectors; v += lanes) {
      for (auto& x : xs) x = rng.next_u64() & 0xFFFF;
      for (auto& y : ys) y = rng.next_u64() & 0xFFFF;
      sim.set_input_lanes("a", xs);
      sim.set_input_lanes("b", ys);
      sim.eval();
      sink += sim.get_u64_lane("p", static_cast<int>(v / lanes) % lanes);
    }
  }
  Result r;
  r.design = "mul16";
  r.cells = cn.num_cells();
  r.vectors = vectors;
  r.seconds = now_to(t0);
  r.toggles = sim.total_toggles();
  *checksum += sink;
  return r;
}

// --- collapsed column k=4: sequential, driven through step() --------------

hw::Netlist build_column() {
  hw::Netlist nl;
  hw::build_collapsed_column(nl, /*k=*/4, /*use_csa=*/true, {8, 16});
  return nl;
}

Result run_column(const hw::CompiledNetlist& cn, SimEngine engine, int lanes,
                  std::int64_t vectors, std::uint64_t* checksum) {
  NetlistSim sim(cn, engine);
  if (lanes > 1) sim.set_active_lanes(lanes);
  Rng rng(13);
  // Stationary weights, streaming activations (the array's steady state).
  for (int i = 0; i < 4; ++i) {
    sim.set_input_u64(format("w_in%d", i), rng.next_u64() & 0xFF);
    sim.set_input_u64(format("a_in%d", i), 0);
  }
  sim.set_input_u64("s_in", 0);
  sim.set_input_u64("c_in", 0);
  sim.step();
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  if (lanes == 1) {
    for (std::int64_t v = 0; v < vectors; ++v) {
      for (int i = 0; i < 4; ++i) {
        sim.set_input_u64(format("a_in%d", i), rng.next_u64() & 0xFF);
      }
      sim.step();
      sink += sim.get_u64("psum_out");
    }
  } else {
    std::vector<std::uint64_t> xs(static_cast<std::size_t>(lanes));
    for (std::int64_t v = 0; v < vectors; v += lanes) {
      for (int i = 0; i < 4; ++i) {
        for (auto& x : xs) x = rng.next_u64() & 0xFF;
        sim.set_input_lanes(format("a_in%d", i), xs);
      }
      sim.step();
      sink += sim.get_u64_lane("psum_out", static_cast<int>(v / lanes) % lanes);
    }
  }
  Result r;
  r.design = "column_k4";
  r.cells = cn.num_cells();
  r.vectors = vectors;
  r.seconds = now_to(t0);
  r.toggles = sim.total_toggles();
  *checksum += sink;
  return r;
}

void write_json(const std::vector<Result>& results, double speedup_mul16,
                double speedup_column, const std::string& path) {
  std::ostringstream json;
  json << "{\n  \"bench\": \"netlist_sim\",\n"
       << "  \"unit\": \"gate-evals/s\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    json << "    {\"design\": \"" << r.design << "\", \"engine\": \""
         << r.engine << "\", \"cells\": " << r.cells
         << ", \"vectors\": " << r.vectors << ", \"seconds\": " << r.seconds
         << ", \"gate_evals_per_s\": " << r.gate_evals_per_s()
         << ", \"toggles\": " << r.toggles
         << ", \"toggles_per_s\": " << r.toggles_per_s() << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"speedup_event64_vs_reference\": {\"mul16\": "
       << speedup_mul16 << ", \"column_k4\": " << speedup_column << "}\n}\n";

  std::ofstream out(path);
  if (!out) {
    std::cerr << "note: could not write " << path << "\n";
    return;
  }
  out << json.str();
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // --quick shrinks the stimulus 16x: used by the sanitized CI job, where
  // instrumentation makes the full sweep needlessly slow.
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  const int shift = quick ? 4 : 0;

  // Equivalence spot-check before timing anything: the engines must agree.
  {
    const hw::Netlist nl = build_mul16();
    hw::CompiledNetlist cn(nl);
    NetlistSim ref(cn, SimEngine::kReferenceFullOrder);
    NetlistSim evt(cn, SimEngine::kEventDriven);
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t a = rng.next_u64() & 0xFFFF;
      const std::uint64_t b = rng.next_u64() & 0xFFFF;
      ref.set_input_u64("a", a);
      evt.set_input_u64("a", a);
      ref.set_input_u64("b", b);
      evt.set_input_u64("b", b);
      ref.eval();
      evt.eval();
      AF_CHECK(ref.get_u64("p") == evt.get_u64("p") &&
                   ref.get_u64("p") == a * b,
               "engine mismatch on mul16");
    }
    AF_CHECK(ref.total_toggles() == evt.total_toggles(),
             "toggle mismatch on mul16");
  }

  std::vector<Result> results;
  std::uint64_t checksum = 0;

  {
    const hw::Netlist nl = build_mul16();
    hw::CompiledNetlist cn(nl);
    const std::int64_t vectors = 1 << (16 - shift);
    Result ref = run_mul16(cn, SimEngine::kReferenceFullOrder, 1, vectors,
                           &checksum);
    ref.engine = "reference";
    Result ev1 = run_mul16(cn, SimEngine::kEventDriven, 1, vectors, &checksum);
    ev1.engine = "event1";
    Result ev64 =
        run_mul16(cn, SimEngine::kEventDriven, kLanes, vectors, &checksum);
    ev64.engine = "event64";
    results.push_back(ref);
    results.push_back(ev1);
    results.push_back(ev64);
  }
  {
    const hw::Netlist nl = build_column();
    hw::CompiledNetlist cn(nl);
    const std::int64_t vectors = 1 << (15 - shift);
    Result ref = run_column(cn, SimEngine::kReferenceFullOrder, 1, vectors,
                            &checksum);
    ref.engine = "reference";
    Result ev1 = run_column(cn, SimEngine::kEventDriven, 1, vectors, &checksum);
    ev1.engine = "event1";
    Result ev64 =
        run_column(cn, SimEngine::kEventDriven, kLanes, vectors, &checksum);
    ev64.engine = "event64";
    results.push_back(ref);
    results.push_back(ev1);
    results.push_back(ev64);
  }

  std::printf("%-10s %-10s %8s %9s %10s %14s %14s\n", "design", "engine",
              "cells", "vectors", "seconds", "gate-evals/s", "toggles/s");
  for (const Result& r : results) {
    std::printf("%-10s %-10s %8d %9lld %10.4f %14.3e %14.3e\n",
                r.design.c_str(), r.engine.c_str(), r.cells,
                static_cast<long long>(r.vectors), r.seconds,
                r.gate_evals_per_s(), r.toggles_per_s());
  }
  const double speedup_mul16 =
      results[2].gate_evals_per_s() / results[0].gate_evals_per_s();
  const double speedup_column =
      results[5].gate_evals_per_s() / results[3].gate_evals_per_s();
  std::printf("event64 speedup vs reference: mul16 %.1fx, column_k4 %.1fx\n",
              speedup_mul16, speedup_column);
  (void)checksum;

  write_json(results, speedup_mul16, speedup_column,
             "BENCH_netlist_sim.json");
  return 0;
}
