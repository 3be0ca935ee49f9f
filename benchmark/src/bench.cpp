#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <mutex>
#include <set>
#include <tuple>

#include "arch/latency.h"
#include "engine/engine.h"
#include "gemm/reference.h"
#include "gemm/tiling.h"
#include "mem/tile_scheduler.h"
#include "nn/runner.h"
#include "serve/server.h"
#include "util/rng.h"

namespace afb {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

namespace {
double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve,
// so a benchmark started from a large parent process (a Python harness)
// would report the parent's size.  VmHWM belongs to this process image.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

// ----------------------------------------------------------------- Samples

void Samples::merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  const std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * n)));  // nearest rank, 1-based
  return values_[std::min(rank, values_.size()) - 1];
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::max() const { return quantile(1.0); }

// ------------------------------------------------------------------ Report

void Report::e2e(std::string name, double value, std::string unit,
                 std::int64_t samples) {
  end_to_end.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::layer(std::string name, double value, std::string unit,
                   std::int64_t samples) {
  per_layer.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::note(std::string name, double value, std::string unit,
                  std::int64_t samples) {
  extra.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_checks;
  if (failures.size() < 8) failures.push_back(what);
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "setup_s", "ops_per_s", "lat_p50_ms", "cpu_us_per_op", "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "lat_p90_ms",          "lat_p99_ms",
      "serve.submit_us.p50", "serve.submit_us.p99",
      "serve.queue_ms.p50",  "serve.queue_ms.p99",
      "engine.cache_hit_ratio", "engine.evaluate_ns",
      "engine.evaluate_batch_ns_per_shape", "arch.run_gemm_macs_per_s",
      "gemm.reference_gemm_us", "nn.run_ms", "mem.plan_us"};
  return names;
}

// ----------------------------------------------------------------- tracing

namespace {

struct SpanRecord {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t request;
  std::uint32_t id;
  std::uint32_t parent;
};

struct SpanBuffer {
  int tid = 0;
  std::string name;
  std::vector<SpanRecord> spans;
};

// A traced cost_open run issues millions of spans, most in its saturated
// phases; the trace keeps the first kMaxSpans and counts the rest.
constexpr std::int64_t kMaxSpans = 400000;

std::atomic<bool> g_tracing{false};
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<SpanBuffer>> g_buffers;  // guarded by the mutex
std::atomic<std::uint32_t> g_next_span{1};
std::atomic<std::int64_t> g_recorded{0};
std::atomic<std::int64_t> g_dropped{0};
const Clock::time_point g_epoch = Clock::now();
thread_local SpanBuffer* tl_buffer = nullptr;
thread_local std::uint32_t tl_current = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

SpanBuffer& local_buffer() {
  if (tl_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<SpanBuffer>());
    tl_buffer = g_buffers.back().get();
    tl_buffer->tid = static_cast<int>(g_buffers.size());
  }
  return *tl_buffer;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Span::Span(const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  open_ = true;
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = tl_current;
  tl_current = id_;
  start_ns_ = now_ns();
}

double Span::end() {
  if (!open_) return 0.0;
  open_ = false;
  const std::int64_t end_ns = now_ns();
  tl_current = parent_;
  if (g_recorded.fetch_add(1, std::memory_order_relaxed) < kMaxSpans) {
    local_buffer().spans.push_back(
        {name_, start_ns_, end_ns, request_, id_, parent_});
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  return 1e-3 * static_cast<double>(end_ns - start_ns_);
}

void trace_enable() { g_tracing.store(true); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

void trace_thread_name(const std::string& name) {
  if (tracing()) local_buffer().name = name;
}

std::int64_t trace_dropped() { return g_dropped.load(); }

std::int64_t trace_write(const std::string& path) {
  // Called after every workload thread has joined: the buffers are no
  // longer written.
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  std::int64_t written = 0;
  for (const auto& buffer : g_buffers) {
    const std::string thread =
        buffer->name.empty() ? "thread-" + std::to_string(buffer->tid)
                             : buffer->name;
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", buffer->tid, json_escape(thread).c_str());
    first = false;
    for (const SpanRecord& s : buffer->spans) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"request\":%llu,\"id\":%u,\"parent\":%u}}",
                   s.name, buffer->tid, 1e-3 * static_cast<double>(s.start_ns),
                   1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                   static_cast<unsigned long long>(s.request), s.id, s.parent);
      ++written;
    }
  }
  std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":%lld}}\n",
               static_cast<long long>(trace_dropped()));
  const bool ok = std::fclose(f) == 0;
  return ok ? written : -1;
}

// ------------------------------------------------------------ layer replay

std::vector<ReplayGemm> operands_for(const std::vector<gemm::GemmShape>& shapes,
                                     std::size_t limit, std::uint64_t seed) {
  af::Rng rng(seed);
  std::vector<ReplayGemm> out;
  for (const gemm::GemmShape& s : shapes) {
    if (out.size() >= limit) break;
    ReplayGemm g;
    g.a = gemm::random_matrix(rng, s.t, s.n, -64, 64);
    g.b = std::make_shared<const gemm::Mat32>(
        gemm::random_matrix(rng, s.n, s.m, -64, 64));
    out.push_back(std::move(g));
  }
  return out;
}

namespace {

// Calls fn(i) for i = 0, 1, ... until `count` calls or `budget_s` seconds,
// whichever comes first (at least one call).  Returns {calls, seconds}.
template <typename Fn>
std::pair<std::size_t, double> timed_loop(std::size_t count, double budget_s,
                                          Fn fn) {
  const Clock::time_point t0 = Clock::now();
  std::size_t i = 0;
  double elapsed = 0.0;
  while (i < count) {
    fn(i++);
    elapsed = seconds_between(t0, Clock::now());
    if (elapsed >= budget_s) break;
  }
  return {i, elapsed};
}

std::vector<gemm::GemmShape> distinct(const std::vector<gemm::GemmShape>& in,
                                      std::size_t limit) {
  std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> seen;
  std::vector<gemm::GemmShape> out;
  for (const gemm::GemmShape& s : in) {
    if (out.size() >= limit) break;
    if (seen.insert({s.m, s.n, s.t}).second) out.push_back(s);
  }
  return out;
}

bool reported(const Report& report, const std::string& name) {
  return std::any_of(report.per_layer.begin(), report.per_layer.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void replay_through_server(const ReplayInputs& in, Report& report) {
  Span span("replay.serve");
  serve::ServerOptions options;
  options.num_shards = 1;
  serve::Server server(in.config, options);
  Samples submit_us, queue_ms;
  serve::SubmitOptions cost_only;
  cost_only.want_output = false;
  for (const gemm::GemmShape& s : distinct(in.shapes, 256)) {
    gemm::Mat32 a(s.t, s.n);
    auto b = std::make_shared<const gemm::Mat32>(s.n, s.m);
    const Clock::time_point t0 = Clock::now();
    std::future<serve::GemmResult> f =
        server.submit_gemm("replay", std::move(a), std::move(b), cost_only);
    submit_us.add(1e6 * seconds_between(t0, Clock::now()));
    queue_ms.add(f.get().queue_ms);
  }
  const auto n = static_cast<std::int64_t>(submit_us.size());
  report.layer("serve.submit_us.p50", submit_us.quantile(0.5), "us", n);
  report.layer("serve.submit_us.p99", submit_us.quantile(0.99), "us", n);
  if (!reported(report, "serve.queue_ms.p50")) {
    report.layer("serve.queue_ms.p50", queue_ms.quantile(0.5), "ms", n);
    report.layer("serve.queue_ms.p99", queue_ms.quantile(0.99), "ms", n);
  }
}

}  // namespace

void replay_layers(const ReplayInputs& in, Report& report) {
  Span span("replay");
  constexpr std::size_t kMaxShapes = 100000;
  const std::size_t shape_count = std::min(in.shapes.size(), kMaxShapes);
  const engine::EngineBuilder builder = engine::EngineBuilder().config(in.config);

  if (in.through_server) replay_through_server(in, report);

  {
    Span s("replay.engine.evaluate_cached");
    std::shared_ptr<engine::Engine> eng = builder.build("analytic");
    const auto [calls, secs] = timed_loop(shape_count, 1e9, [&](std::size_t i) {
      eng->evaluate_cached(in.shapes[i], 0);
    });
    report.layer("engine.evaluate_ns", 1e9 * secs / static_cast<double>(calls),
                 "ns", static_cast<std::int64_t>(calls));
  }
  if (!reported(report, "engine.evaluate_batch_ns_per_shape")) {
    Span s("replay.engine.evaluate_batch");
    std::shared_ptr<engine::Engine> eng = builder.build("analytic");
    constexpr std::size_t kChunk = 64;
    const std::size_t chunks = (shape_count + kChunk - 1) / kChunk;
    const double secs = timed_loop(chunks, 1e9, [&](std::size_t c) {
      const std::size_t first = c * kChunk;
      const std::size_t n = std::min(kChunk, shape_count - first);
      eng->evaluate_batch(
          std::span<const gemm::GemmShape>(in.shapes.data() + first, n), 0);
    }).second;
    report.layer("engine.evaluate_batch_ns_per_shape",
                 1e9 * secs / static_cast<double>(shape_count), "ns",
                 static_cast<std::int64_t>(shape_count));
  }
  {
    Span s("replay.arch.run_gemm");
    std::shared_ptr<engine::Engine> cycle = builder.build("cycle");
    double macs = 0.0;
    const auto [calls, secs] = timed_loop(in.gemms.size(), 1.0, [&](std::size_t i) {
      const ReplayGemm& g = in.gemms[i];
      engine::GemmRequest request;
      request.a = &g.a;
      request.b = g.b.get();
      cycle->run_gemm(request);
      macs += static_cast<double>(g.a.rows() * g.a.cols() * g.b->cols());
    });
    report.layer("arch.run_gemm_macs_per_s", macs / secs, "MACs/s",
                 static_cast<std::int64_t>(calls));
  }
  {
    Span s("replay.gemm.reference_gemm");
    const auto [calls, secs] = timed_loop(in.gemms.size(), 0.5, [&](std::size_t i) {
      gemm::reference_gemm(in.gemms[i].a, *in.gemms[i].b);
    });
    report.layer("gemm.reference_gemm_us",
                 1e6 * secs / static_cast<double>(calls), "us",
                 static_cast<std::int64_t>(calls));
  }
  if (!reported(report, "nn.run_ms")) {
    Span s("replay.nn.run");
    const auto [calls, secs] =
        timed_loop(std::size_t{1} << 30, 0.3, [&](std::size_t i) {
          nn::InferenceRunner runner(builder.build("analytic"));
          runner.run(in.models[i % in.models.size()]);
        });
    report.layer("nn.run_ms", 1e3 * secs / static_cast<double>(calls), "ms",
                 static_cast<std::int64_t>(calls));
  }
  {
    Span s("replay.mem.plan");
    arch::ArrayConfig config = in.config;
    config.mem.enabled = true;
    config.mem.spad_bytes = std::int64_t{64} << 20;
    const mem::TileScheduler scheduler(config);
    const std::vector<gemm::GemmShape> shapes = distinct(in.shapes, 4096);
    std::vector<std::int64_t> per_tile;
    for (const gemm::GemmShape& shape : shapes) {
      per_tile.push_back(arch::total_latency_cycles(shape, config, 1) /
                         gemm::tile_count(shape, config.rows, config.cols));
    }
    // Several passes so the time per call is not one clock tick.
    const auto [calls, secs] =
        timed_loop(shapes.size() * 64, 0.3, [&](std::size_t i) {
          scheduler.plan(shapes[i % shapes.size()], per_tile[i % shapes.size()]);
        });
    report.layer("mem.plan_us", 1e6 * secs / static_cast<double>(calls), "us",
                 static_cast<std::int64_t>(calls));
  }
}

}  // namespace afb
