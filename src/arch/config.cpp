#include "arch/config.h"

#include <algorithm>

#include "util/math.h"
#include "util/status.h"
#include "util/strings.h"

namespace af::arch {

const char* reuse_strategy_name(ReuseStrategy strategy) {
  switch (strategy) {
    case ReuseStrategy::kAuto:
      return "auto";
    case ReuseStrategy::kAStationary:
      return "a_stationary";
    case ReuseStrategy::kBStationary:
      return "b_stationary";
    case ReuseStrategy::kOutputStationary:
      return "output_stationary";
  }
  AF_CHECK(false, "unknown ReuseStrategy value "
                      << static_cast<int>(strategy));
}

ReuseStrategy parse_reuse_strategy(const std::string& name) {
  for (const ReuseStrategy s :
       {ReuseStrategy::kAuto, ReuseStrategy::kAStationary,
        ReuseStrategy::kBStationary, ReuseStrategy::kOutputStationary}) {
    if (name == reuse_strategy_name(s)) return s;
  }
  AF_CHECK(false, "unknown reuse strategy \""
                      << name
                      << "\" (known: \"auto\", \"a_stationary\", "
                         "\"b_stationary\", \"output_stationary\")");
}

void MemoryConfig::validate() const {
  if (!enabled) return;  // disabled knobs are never read
  AF_CHECK(spad_bytes > 0,
           "mem.spad_bytes must be positive, got " << spad_bytes);
  AF_CHECK(dram_bytes_per_cycle > 0,
           "mem.dram_bytes_per_cycle must be positive, got "
               << dram_bytes_per_cycle);
  AF_CHECK(dram_latency_cycles >= 0,
           "mem.dram_latency_cycles must be >= 0, got "
               << dram_latency_cycles);
}

std::string MemoryConfig::to_string() const {
  if (!enabled) return "magic memory";
  return format("spad %lld B, DRAM %lld B/cyc + %lld cyc latency, reuse %s",
                static_cast<long long>(spad_bytes),
                static_cast<long long>(dram_bytes_per_cycle),
                static_cast<long long>(dram_latency_cycles),
                reuse_strategy_name(reuse));
}

std::vector<std::string> MemoryConfig::knob_names() {
  // Sorted: ctest readme_registries diffs this listing (via `engine_info
  // --memory`) against the README's "Memory hierarchy" knob table.
  return {"dram_bytes_per_cycle", "dram_latency_cycles", "enabled", "reuse",
          "spad_bytes"};
}

void ArrayConfig::validate() const {
  AF_CHECK(rows > 0 && cols > 0, "array dimensions must be positive, got "
                                     << rows << "x" << cols);
  AF_CHECK(input_bits >= 2 && input_bits <= 32,
           "input_bits must be in [2,32], got " << input_bits);
  AF_CHECK(acc_bits >= 2 * input_bits && acc_bits <= 64,
           "acc_bits must be in [2*input_bits, 64], got " << acc_bits);
  AF_CHECK(!supported_k.empty(), "at least one pipeline mode is required");
  AF_CHECK(std::find(supported_k.begin(), supported_k.end(), 1) !=
               supported_k.end(),
           "normal pipeline mode (k=1) must be supported");
  for (const int k : supported_k) {
    AF_CHECK(k >= 1, "pipeline mode must be >= 1, got " << k);
    AF_CHECK(divides(k, rows) && divides(k, cols),
             "collapse depth k=" << k << " must divide both R=" << rows
                                 << " and C=" << cols);
  }
  AF_CHECK(sim.num_threads >= 0,
           "sim.num_threads must be >= 0 (0 = all hardware threads), got "
               << sim.num_threads);
  mem.validate();
}

bool ArrayConfig::supports(int k) const {
  return std::find(supported_k.begin(), supported_k.end(), k) !=
         supported_k.end();
}

int ArrayConfig::max_k() const {
  return *std::max_element(supported_k.begin(), supported_k.end());
}

std::string ArrayConfig::to_string() const {
  std::string modes;
  for (const int k : supported_k) {
    if (!modes.empty()) modes += ",";
    modes += std::to_string(k);
  }
  std::string out = format("%dx%d SA (k in {%s}, %d-bit ops, %d-bit acc)",
                           rows, cols, modes.c_str(), input_bits, acc_bits);
  if (mem.enabled) out += ", " + mem.to_string();
  return out;
}

ArrayConfig ArrayConfig::square(int side) {
  ArrayConfig cfg;
  cfg.rows = side;
  cfg.cols = side;
  cfg.supported_k.clear();
  for (const int k : {1, 2, 4}) {
    if (divides(k, side)) cfg.supported_k.push_back(k);
  }
  cfg.validate();
  return cfg;
}

ArrayConfig ArrayConfig::square_with_modes(int side, std::vector<int> modes) {
  ArrayConfig cfg;
  cfg.rows = side;
  cfg.cols = side;
  cfg.supported_k = std::move(modes);
  cfg.validate();
  return cfg;
}

}  // namespace af::arch
