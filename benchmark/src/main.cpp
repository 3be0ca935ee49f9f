// arrayflex_bench: one workload per process, every metric by name with its
// unit, correctness checked on every run.
//
//   arrayflex_bench --workload NAME --seed N [--seconds S] [--trace FILE]
//                   [--json FILE] [--commit SHA]
//   arrayflex_bench --list-metrics
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace the per-layer metrics.
// --json FILE also writes the full record (all three metric groups plus
// the run's settings) for compare.py.  Exit status: 0 when every check
// passed, 1 when a check failed, 2 on bad arguments.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "bench.h"

#ifndef AFB_BUILD_TYPE
#define AFB_BUILD_TYPE "unknown"
#endif

namespace {

using afb::Metric;
using afb::Options;
using afb::Report;

const std::map<std::string, void (*)(const Options&, Report&)>& workloads() {
  static const std::map<std::string, void (*)(const Options&, Report&)> table = {
      {"cost_open", afb::run_cost_open},
      {"transformer_fleet", afb::run_transformer_fleet},
      {"cycle_validate", afb::run_cycle_validate},
      {"design_sweep", afb::run_design_sweep},
  };
  return table;
}

std::string workload_list() {
  std::string out;
  for (const auto& [name, fn] : workloads()) {
    out += (out.empty() ? "" : ", ") + name;
  }
  return out;
}

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: arrayflex_bench --workload NAME --seed N "
               "[--seconds S] [--trace FILE] [--json FILE] [--commit SHA]\n"
               "       arrayflex_bench --list-metrics\nworkloads: %s\n",
               error.c_str(), workload_list().c_str());
  std::exit(2);
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

std::string metrics_object(const std::vector<Metric>& metrics, bool samples) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"";
    if (samples && m.samples > 0) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

// Metrics in the order BENCHMARK.json lists them; false if one is missing.
bool ordered(const std::vector<Metric>& have,
             const std::vector<std::string>& names, std::vector<Metric>& out) {
  for (const std::string& name : names) {
    bool found = false;
    for (const Metric& m : have) {
      if (m.name == name) {
        out.push_back(m);
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "error: metric %s was not measured\n", name.c_str());
      return false;
    }
  }
  return true;
}

void print_group(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %-22s %s", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
    if (m.samples > 0) std::printf("  (n=%lld)", static_cast<long long>(m.samples));
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string json_path, commit = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const std::string& n : afb::end_to_end_names()) std::printf("end_to_end %s\n", n.c_str());
      for (const std::string& n : afb::per_layer_names()) std::printf("per_layer %s\n", n.c_str());
      for (const auto& [name, fn] : workloads()) std::printf("workload %s\n", name.c_str());
      return 0;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0 && opt.seconds <= 600)) {
        usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      opt.trace_file = value;
    } else if (arg == "--json") {
      json_path = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  const auto it = workloads().find(opt.workload);
  if (it == workloads().end()) usage("unknown --workload '" + opt.workload + "'");
  if (!have_seed) usage("--seed is required");

  const unsigned threads = std::thread::hardware_concurrency();
  std::printf("workload %s  seed %llu  seconds %g  traced %s  build %s  "
              "hardware_threads %u  commit %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.traced() ? "yes" : "no", AFB_BUILD_TYPE, threads,
              commit.c_str());
  std::fflush(stdout);

  Report report;
  if (opt.traced()) afb::trace_enable();
  try {
    it->second(opt, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: workload %s threw: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  report.note("failed_frac",
              static_cast<double>(report.failed) /
                  static_cast<double>(std::max<std::int64_t>(1, report.attempted)),
              "ratio");
  if (opt.traced()) {
    const std::int64_t written = afb::trace_write(opt.trace_file);
    report.check(written >= 0, "could not write trace file " + opt.trace_file);
    report.note("trace.spans", static_cast<double>(written), "count");
    report.note("trace.spans_dropped", static_cast<double>(afb::trace_dropped()), "count");
  }

  std::vector<Metric> e2e, layers;
  if (!ordered(report.end_to_end, afb::end_to_end_names(), e2e)) return 1;
  if (opt.traced() && !ordered(report.per_layer, afb::per_layer_names(), layers)) {
    return 1;
  }
  print_group("end-to-end", e2e);
  print_group("workload-specific", report.extra);
  print_group("per-layer", opt.traced() ? layers : report.per_layer);
  for (const std::string& f : report.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("correct %s  attempted %lld  failed %lld  checks failed %lld\n",
              report.correct() ? "yes" : "no",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              static_cast<long long>(report.failed_checks));

  const std::string head = std::string("\"correct\": ") +
                           (report.correct() ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(report.attempted) +
                           ", \"failed\": " + std::to_string(report.failed);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::string failures = "[";
    for (const std::string& m : report.failures) {
      failures += (failures.size() > 1 ? ", \"" : "\"") + escape(m) + "\"";
    }
    failures += "]";
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
                 "\"traced\": %s, \"build_type\": \"%s\", \"hardware_threads\": %u, "
                 "\"commit\": \"%s\", %s, \"failures\": %s,\n \"end_to_end\": %s,\n"
                 " \"per_layer\": %s,\n \"extra\": %s}\n",
                 opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                 number(opt.seconds).c_str(), opt.traced() ? "true" : "false",
                 AFB_BUILD_TYPE, threads, escape(commit).c_str(), head.c_str(),
                 failures.c_str(), metrics_object(e2e, true).c_str(),
                 metrics_object(layers, true).c_str(),
                 metrics_object(report.extra, true).c_str());
    std::fclose(f);
  }
  std::printf("{%s, \"metrics\": %s}\n", head.c_str(),
              metrics_object(opt.traced() ? layers : e2e, false).c_str());
  return report.correct() ? 0 : 1;
}
