// Prints the engine::make backend registry and the serving policy
// registries — the machine-checkable sources of truth behind the README's
// "Execution engines" and policy tables.  The one-key-per-line
// flags feed ctest readme_registries (tests/readme_registries.sh), which
// fails when a registry and its README table disagree.
//
//   $ ./engine_info                # human-readable backend matrix
//   $ ./engine_info --names        # one engine key per line (README
//                                  # "Execution engines" table)
//   $ ./engine_info --policies     # one overload-policy key per line
//                                  # (README "Overload policies" table)
//   $ ./engine_info --memory       # one MemoryConfig knob per line
//                                  # (README "Memory hierarchy" table)
//   $ ./engine_info --reconfig-policies
//                                  # one reconfiguration-policy key per
//                                  # line (README "Reconfiguration
//                                  # policies" table)

#include <iostream>
#include <string>

#include "arch/config.h"
#include "engine/engine.h"
#include "gemm/reference.h"
#include "serve/server.h"

using namespace af;

int main(int argc, char** argv) {
  const std::string flag = argc > 1 ? argv[1] : "";
  const bool names_only = flag == "--names";
  if (flag == "--policies") {
    for (const std::string& name : serve::overload_policy_names()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (flag == "--memory") {
    for (const std::string& name : arch::MemoryConfig::knob_names()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (flag == "--reconfig-policies") {
    for (const std::string& name : serve::reconfig_policy_names()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  const std::vector<std::string> names = engine::registered_backends();
  if (names_only) {
    for (const std::string& name : names) std::cout << name << "\n";
    return 0;
  }

  std::cout << "engine::make registry (" << names.size() << " backends)\n\n";
  for (const std::string& name : names) {
    auto eng = engine::EngineBuilder().square(16).build(name);
    std::cout << "  \"" << name << "\"\n"
              << "    " << engine::backend_description(name) << "\n"
              << "    measures: " << (eng->measures() ? "yes" : "no")
              << "  (run_gemm "
              << (eng->measures() ? "simulates cycle by cycle"
                                  : "answers from closed forms")
              << ")\n";
    // A tiny probe so the matrix shows live numbers, not just prose.
    const gemm::GemmShape shape{32, 32, 16};
    const engine::CostEstimate est = eng->evaluate(shape, 2);
    std::cout << "    probe (M=32 N=32 T=16, k=2): " << est.cycles
              << " cycles, " << est.energy_pj << " pJ\n\n";
  }
  std::cout << "All backends return bit-identical outputs and exactly equal\n"
               "cycle/activity/energy numbers (tests/engine_test.cpp); they\n"
               "differ only in how the numbers are produced and how fast.\n";

  std::cout << "\nserve overload policies ("
            << serve::overload_policy_names().size() << " policies)\n\n";
  for (const std::string& name : serve::overload_policy_names()) {
    std::cout << "  \"" << name << "\"\n"
              << "    " << serve::overload_policy_description(name) << "\n";
  }

  std::cout << "\nserve reconfiguration policies ("
            << serve::reconfig_policy_names().size() << " policies)\n\n";
  for (const std::string& name : serve::reconfig_policy_names()) {
    std::cout << "  \"" << name << "\"\n"
              << "    " << serve::reconfig_policy_description(name) << "\n";
  }
  std::cout << "\nThe policy stamps each admitted GEMM's pipeline mode k; the\n"
               "executing shard drains its array only when consecutive\n"
               "batches disagree (tests/serve_test.cpp pins both policies).\n";
  return 0;
}
