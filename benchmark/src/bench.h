// Shared pieces of the arrayflex_bench workloads: clocks, exact sample
// quantiles, the metric report, and the in-memory span recorder behind
// --trace.
//
// The benchmark links against the arrayflex library and calls only its
// public API; everything here lives in the benchmark's own namespace.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/config.h"
#include "gemm/matrix.h"
#include "gemm/reference.h"
#include "nn/models.h"

namespace af::engine {}
namespace af::fleet {}
namespace af::hw {}
namespace af::mem {}
namespace af::serve {}

namespace afb {

namespace arch = af::arch;
namespace engine = af::engine;
namespace fleet = af::fleet;
namespace gemm = af::gemm;
namespace hw = af::hw;
namespace mem = af::mem;
namespace nn = af::nn;
namespace serve = af::serve;

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
double ms_between(Clock::time_point a, Clock::time_point b);
double process_cpu_s();
double thread_cpu_s();
// Each workload reports it right after its measured window, so neither
// the checks nor the traced run's replay count.
double peak_rss_mb();

// All samples of one quantity; quantiles are exact (nearest rank over the
// sorted samples), never read from a histogram.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void merge(const Samples& other);
  std::size_t size() const { return values_.size(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double max() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;  // 0 = not a sample statistic
};

// Everything one invocation reports.  `end_to_end` and `per_layer` hold the
// metrics named in BENCHMARK.json (every workload reports all of them);
// `extra` holds the workload-specific numbers that are printed but not part
// of the machine-read result.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> extra;
  std::vector<std::string> failures;  // the first few failed checks' messages
  std::int64_t failed_checks = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void e2e(std::string name, double value, std::string unit,
           std::int64_t samples = 0);
  void layer(std::string name, double value, std::string unit,
             std::int64_t samples = 0);
  void note(std::string name, double value, std::string unit,
            std::int64_t samples = 0);
  // Records a failed correctness check.
  void check(bool ok, const std::string& what);
  bool correct() const { return failed_checks == 0; }
};

// The metric names BENCHMARK.json lists; main() refuses to print a result
// that misses one.
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  // BENCHMARK.json run_seconds
  std::string trace_file;  // empty = untraced run
  bool traced() const { return !trace_file.empty(); }
};

// ---------------------------------------------------------------- tracing
//
// Spans are kept in per-thread buffers and written once, after the run, as
// Chrome trace-event JSON (opens offline in Perfetto).  With tracing off a
// Span reads no clock and records nothing.
class Span {
 public:
  Span(const char* name, std::uint64_t request = 0);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Closes the span (idempotent); returns its duration in microseconds, or
  // 0 with tracing off.
  double end();

 private:
  const char* name_;
  std::uint64_t request_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::int64_t start_ns_ = 0;
  bool open_ = false;
};

void trace_enable();
bool tracing();
void trace_thread_name(const std::string& name);
// Writes every recorded span; returns the number written.
std::int64_t trace_write(const std::string& path);
std::int64_t trace_dropped();

// Runs make() at least 3 times and until 0.5 s of set-up have passed (at
// most 1000 times), destroying the previous result first; reports the
// median as setup_s and returns the last result.
template <typename Make>
auto timed_setup(Report& report, Make make) -> decltype(make()) {
  Samples times;
  double total = 0.0;
  decltype(make()) state;
  while (times.size() < 3 || (total < 0.5 && times.size() < 1000)) {
    state = nullptr;
    const Clock::time_point t0 = Clock::now();
    state = make();
    const double secs = seconds_between(t0, Clock::now());
    times.add(secs);
    total += secs;
  }
  report.e2e("setup_s", times.median(), "s", static_cast<std::int64_t>(times.size()));
  return state;
}

// --------------------------------------------------------- layer replay
//
// The traced run's second half: after the timed window, the workload's
// recorded inputs go through the lower layers one call at a time, so each
// layer's cost is measured on this workload's inputs without the serving
// machinery around it.
struct ReplayGemm {
  gemm::Mat32 a;
  std::shared_ptr<const gemm::Mat32> b;
};

struct ReplayInputs {
  arch::ArrayConfig config;             // the array the workload served on
  std::vector<gemm::GemmShape> shapes;  // served shapes, in order
  std::vector<ReplayGemm> gemms;        // operands, when the workload had them
  std::vector<nn::Model> models;        // models whose layers it served
  // Set by a workload that does not call serve::Server itself
  // (transformer_fleet, design_sweep): its shapes are then also priced
  // through a one-shard server, so serve.submit_us exists on every workload.
  bool through_server = false;
};

// Reports engine.evaluate_ns, engine.evaluate_batch_ns_per_shape,
// arch.run_gemm_macs_per_s, gemm.reference_gemm_us, nn.run_ms and
// mem.plan_us (plus serve.* when through_server is set).
void replay_layers(const ReplayInputs& inputs, Report& report);

// Synthesizes operands for cost-only shapes (the replay needs matrices).
std::vector<ReplayGemm> operands_for(const std::vector<gemm::GemmShape>& shapes,
                                     std::size_t limit, std::uint64_t seed);

// ------------------------------------------------------------ workloads
void run_cost_open(const Options& options, Report& report);
void run_transformer_fleet(const Options& options, Report& report);
void run_cycle_validate(const Options& options, Report& report);
void run_design_sweep(const Options& options, Report& report);

}  // namespace afb
