// transformer_fleet: closed-loop chat sessions against a 2-server fleet.
//
// Two client threads each keep 8 sessions in flight.  A session sends its
// prompt (every prefill phase GEMM at once), then runs 16-64 decode steps;
// a step submits all of its phase GEMMs and waits for them before the
// next.  Every session shares one weight bundle, so same-phase decode
// GEMMs fuse on the servers.  The prefill/decode mix moves the best
// pipeline mode over time, which the "sticky" reconfiguration policy
// rides.  This exercises fleet routing, the ticket's copy of `a`, the
// collector hop, batching and fusion, and reference_gemm on small shapes.
//
// Activations come from pools made at set-up (one prefill set per prompt
// length, a ring of decode sets), so the clients only submit and wait.

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <thread>

#include "bench.h"
#include "fleet/fleet.h"
#include "gemm/reference.h"
#include "nn/transformer.h"
#include "serve/transformer_traffic.h"
#include "util/rng.h"

namespace afb {
namespace {

constexpr int kClients = 2;
constexpr int kSessionsPerClient = 8;
constexpr std::int64_t kKvLen = 512;
constexpr std::int64_t kPromptStep = 32;  // prompts are 32, 64, ..., 512
constexpr int kPromptLengths = 16;
constexpr int kDecodePool = 64;
constexpr int kMinDecode = 16;
constexpr int kMaxDecode = 64;
constexpr int kPlans = 1 << 14;
constexpr std::uint64_t kCheckEvery = 64;

struct Plan {
  int prompt = 0;  // index into State::prefill
  int decode_steps = 0;
  int decode_first = 0;  // first decode pool entry; steps walk the ring
};

struct State {
  serve::TransformerWeights weights;
  std::vector<std::vector<serve::PhaseGemm>> prefill;  // per prompt length
  std::vector<std::vector<serve::PhaseGemm>> decode;   // ring of steps
  std::vector<Plan> plans;
  std::unique_ptr<fleet::Fleet> fleet;
};

nn::TransformerConfig model_config() {
  nn::TransformerConfig c;
  c.d_model = 64;
  c.n_heads = 2;
  c.d_ff = 256;
  c.n_blocks = 1;
  return c;
}

std::vector<int> shuffled_deck(int lo, int hi, af::Rng& rng) {
  std::vector<int> deck;
  for (int v = lo; v <= hi; ++v) deck.push_back(v);
  for (std::size_t i = deck.size(); i > 1; --i) {
    std::swap(deck[i - 1], deck[rng.next_below(i)]);
  }
  return deck;
}

std::unique_ptr<State> make_state(const Options& opt) {
  auto st = std::make_unique<State>();
  af::Rng rng(opt.seed);
  st->weights = serve::make_transformer_weights(model_config(), kKvLen, rng);
  for (int i = 1; i <= kPromptLengths; ++i) {
    st->prefill.push_back(serve::prefill_gemms(st->weights, i * kPromptStep, rng));
  }
  for (int i = 0; i < kDecodePool; ++i) {
    st->decode.push_back(serve::decode_gemms(st->weights, rng));
  }
  // Prompt lengths and decode counts are drawn as shuffled decks (every
  // value once per deck), so any run of sessions has nearly the same mix
  // whatever the seed.
  std::vector<int> prompts, decodes;
  for (int i = 0; i < kPlans; ++i) {
    if (prompts.empty()) prompts = shuffled_deck(0, kPromptLengths - 1, rng);
    if (decodes.empty()) decodes = shuffled_deck(kMinDecode, kMaxDecode, rng);
    Plan p;
    p.prompt = prompts.back();
    p.decode_steps = decodes.back();
    p.decode_first = static_cast<int>(rng.next_below(kDecodePool));
    prompts.pop_back();
    decodes.pop_back();
    st->plans.push_back(p);
  }
  std::vector<fleet::FleetServerSpec> specs(2);
  for (fleet::FleetServerSpec& spec : specs) {
    spec.config = arch::ArrayConfig::square(16);
    spec.options.num_shards = 1;
    spec.options.reconfig_policy = "sticky";
    spec.options.reconfig_cycles = 2048;
  }
  fleet::FleetOptions options;
  options.router = "affinity";
  st->fleet = std::make_unique<fleet::Fleet>(std::move(specs), options);
  return st;
}

std::uint64_t hash_matrix(const gemm::Mat64& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<std::uint64_t>(m.rows());
  for (std::int64_t v : m.data()) {
    h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
  }
  return h;
}

// A sampled output: which pooled GEMM produced it and its digest.
struct OutputCheck {
  const serve::PhaseGemm* gemm = nullptr;
  std::uint64_t digest = 0;
};

struct ClientResult {
  Samples ttft_ms, tbt_ms, submit_us, hop_ms, queue_ms, batch_requests, fused_rows;
  std::int64_t tokens = 0;
  std::int64_t gemms = 0;
  std::int64_t failed = 0;
  std::int64_t sessions = 0;
  double cpu_s = 0.0;
  Clock::time_point last_done;
  std::vector<OutputCheck> checks;
  std::vector<gemm::GemmShape> shapes;  // served shapes (traced runs)
};

struct Slot {
  int plan = -1;  // -1 = idle
  int step = 0;   // 0 = prefill in flight, i = decode step i in flight
  Clock::time_point start, last_done;
  std::vector<const serve::PhaseGemm*> gemms;
  std::vector<std::future<serve::GemmResult>> pending;
  std::vector<Clock::time_point> submitted;
};

void client_loop(State& st, int client, Clock::time_point deadline,
                 std::atomic<int>& next_plan, ClientResult& out) {
  trace_thread_name("client-" + std::to_string(client));
  const double cpu0 = thread_cpu_s();
  std::vector<Slot> slots(kSessionsPerClient);
  std::vector<std::string> tenants;
  for (int s = 0; s < kSessionsPerClient; ++s) {
    tenants.push_back("session-" + std::to_string(client) + "-" + std::to_string(s));
  }
  std::uint64_t results_seen = 0;

  auto submit_step = [&](Slot& slot, int s, const std::vector<serve::PhaseGemm>& step) {
    slot.gemms.clear();
    slot.pending.clear();
    slot.submitted.clear();
    for (const serve::PhaseGemm& g : step) {
      Span span("fleet.submit_gemm", static_cast<std::uint64_t>(slot.plan));
      slot.submitted.push_back(Clock::now());
      try {
        slot.pending.push_back(st.fleet->submit_gemm(tenants[static_cast<std::size_t>(s)], g.a, g.b));
      } catch (const std::exception&) {
        std::promise<serve::GemmResult> refused;
        refused.set_exception(std::current_exception());
        slot.pending.push_back(refused.get_future());
      }
      slot.gemms.push_back(&g);
      const double us = span.end();
      if (tracing()) {
        out.submit_us.add(us);
        out.shapes.push_back({g.b->cols(), g.b->rows(), g.a.rows()});
      }
    }
  };
  auto ready = [](std::future<serve::GemmResult>& f) {
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  };

  while (true) {
    bool busy = false, progress = false;
    for (int s = 0; s < kSessionsPerClient; ++s) {
      Slot& slot = slots[static_cast<std::size_t>(s)];
      if (slot.plan < 0) {
        if (Clock::now() >= deadline) continue;
        slot.plan = next_plan.fetch_add(1) % kPlans;
        slot.step = 0;
        slot.start = Clock::now();
        ++out.sessions;
        submit_step(slot, s, st.prefill[static_cast<std::size_t>(
                                 st.plans[static_cast<std::size_t>(slot.plan)].prompt)]);
        progress = true;
      }
      busy = true;
      if (!std::all_of(slot.pending.begin(), slot.pending.end(), ready)) continue;
      const Clock::time_point now = Clock::now();
      progress = true;
      bool ok = true;
      for (std::size_t g = 0; g < slot.pending.size(); ++g) {
        ++out.gemms;
        try {
          const serve::GemmResult r = slot.pending[g].get();
          if (++results_seen % kCheckEvery == 0) {
            out.checks.push_back({slot.gemms[g], hash_matrix(r.out)});
          }
          if (tracing()) {
            out.hop_ms.add(ms_between(slot.submitted[g], now) - r.latency_ms);
            out.queue_ms.add(r.queue_ms);
            out.batch_requests.add(static_cast<double>(r.batch_requests));
            out.fused_rows.add(static_cast<double>(r.fused_rows));
          }
        } catch (const std::exception&) {
          ++out.failed;
          ok = false;
        }
      }
      const Plan& plan = st.plans[static_cast<std::size_t>(slot.plan)];
      if (slot.step == 0) {
        out.ttft_ms.add(ms_between(slot.start, now));
        out.tokens += (plan.prompt + 1) * kPromptStep;
      } else {
        if (slot.step > 1) out.tbt_ms.add(ms_between(slot.last_done, now));
        out.tokens += 1;
      }
      slot.last_done = now;
      out.last_done = now;
      if (!ok || slot.step == plan.decode_steps || now >= deadline) {
        slot.plan = -1;
        slot.pending.clear();
        continue;
      }
      ++slot.step;
      submit_step(slot, s, st.decode[static_cast<std::size_t>(
                               (plan.decode_first + slot.step) % kDecodePool)]);
    }
    if (!busy) break;
    if (!progress) {
      // Nothing finished this pass: block briefly on one pending GEMM.
      for (Slot& slot : slots) {
        auto it = std::find_if(slot.pending.begin(), slot.pending.end(),
                               [&](auto& f) { return !ready(f); });
        if (it != slot.pending.end()) {
          it->wait_for(std::chrono::microseconds(50));
          break;
        }
      }
    }
  }
  out.cpu_s = thread_cpu_s() - cpu0;
}

}  // namespace

void run_transformer_fleet(const Options& opt, Report& report) {
  std::unique_ptr<State> st =
      timed_setup(report, [&] { return make_state(opt); });

  std::atomic<int> next_plan{0};
  std::vector<ClientResult> results(kClients);
  const double cpu0 = process_cpu_s();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, std::ref(*st), c, deadline,
                           std::ref(next_plan), std::ref(results[static_cast<std::size_t>(c)]));
    }
    for (std::thread& t : clients) t.join();
  }
  const double cpu_s = process_cpu_s() - cpu0;
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");

  ClientResult all;
  Clock::time_point end = start;
  double client_cpu = 0.0;
  for (const ClientResult& r : results) {
    all.ttft_ms.merge(r.ttft_ms);
    all.tbt_ms.merge(r.tbt_ms);
    all.submit_us.merge(r.submit_us);
    all.hop_ms.merge(r.hop_ms);
    all.queue_ms.merge(r.queue_ms);
    all.batch_requests.merge(r.batch_requests);
    all.fused_rows.merge(r.fused_rows);
    all.tokens += r.tokens;
    all.gemms += r.gemms;
    all.failed += r.failed;
    all.sessions += r.sessions;
    all.checks.insert(all.checks.end(), r.checks.begin(), r.checks.end());
    all.shapes.insert(all.shapes.end(), r.shapes.begin(), r.shapes.end());
    end = std::max(end, r.last_done);
    client_cpu += r.cpu_s;
  }
  const double elapsed = seconds_between(start, end);
  const double tokens = static_cast<double>(std::max<std::int64_t>(1, all.tokens));
  const fleet::FleetStats fs = st->fleet->stats();
  double sim_ps = 0.0, reconfig_ps = 0.0;
  std::int64_t mode_switches = 0, hits = 0, misses = 0;
  for (const fleet::FleetServerSummary& s : fs.servers) {
    for (const serve::ShardSnapshot& sh : s.stats.shards) {
      sim_ps += sh.busy_time_ps + sh.reconfig_time_ps;
      reconfig_ps += sh.reconfig_time_ps;
      mode_switches += sh.mode_switches;
    }
    hits += s.stats.cost_cache_hits;
    misses += s.stats.cost_cache_misses;
  }

  const auto tbt_n = static_cast<std::int64_t>(all.tbt_ms.size());
  const auto ttft_n = static_cast<std::int64_t>(all.ttft_ms.size());
  report.attempted = all.gemms;
  report.failed = all.failed;
  report.e2e("ops_per_s", tokens / elapsed, "ops/s", all.tokens);
  report.e2e("lat_p50_ms", all.tbt_ms.quantile(0.5), "ms", tbt_n);
  report.layer("lat_p90_ms", all.tbt_ms.quantile(0.9), "ms", tbt_n);
  report.layer("lat_p99_ms", all.tbt_ms.quantile(0.99), "ms", tbt_n);
  report.e2e("cpu_us_per_op", 1e6 * (cpu_s - client_cpu) / tokens, "us", all.tokens);
  report.note("ttft_p50_ms", all.ttft_ms.quantile(0.5), "ms", ttft_n);
  report.note("ttft_p95_ms", all.ttft_ms.quantile(0.95), "ms", ttft_n);
  report.note("tbt_p50_ms", all.tbt_ms.quantile(0.5), "ms", tbt_n);
  report.note("tbt_p99_ms", all.tbt_ms.quantile(0.99), "ms", tbt_n);
  report.note("sim_tokens_per_s", tokens / (sim_ps * 1e-12), "tokens/s", all.tokens);
  report.note("sessions", static_cast<double>(all.sessions), "count");
  report.note("gemms", static_cast<double>(all.gemms), "count");

  // Correctness: sampled outputs against reference_gemm, balanced books.
  std::map<const serve::PhaseGemm*, std::uint64_t> expected;
  for (const OutputCheck& c : all.checks) {
    auto [it, fresh] = expected.try_emplace(c.gemm, 0);
    if (fresh) it->second = hash_matrix(gemm::reference_gemm(c.gemm->a, *c.gemm->b));
    report.check(it->second == c.digest,
                 "transformer_fleet: output differs from reference_gemm");
  }
  report.check(!all.checks.empty(), "transformer_fleet: no output was checked");
  report.check(fs.submitted == fs.resolved_ok + fs.resolved_err,
               "transformer_fleet: fleet books do not balance");
  report.check(fs.resolve_double_sets == 0,
               "transformer_fleet: a ticket resolved twice");
  report.check(fs.failovers == 0, "transformer_fleet: unexpected failover");
  std::int64_t book_ok = 0;
  for (const auto& [tenant, book] : fs.tenants) book_ok += book.ok;
  report.check(book_ok == fs.resolved_ok,
               "transformer_fleet: tenant books do not sum to the fleet's");
  report.note("checked_outputs", static_cast<double>(all.checks.size()), "count");

  if (!tracing()) return;
  const auto n = static_cast<std::int64_t>(all.submit_us.size());
  const auto q_n = static_cast<std::int64_t>(all.queue_ms.size());
  report.layer("serve.queue_ms.p50", all.queue_ms.quantile(0.5), "ms", q_n);
  report.layer("serve.queue_ms.p99", all.queue_ms.quantile(0.99), "ms", q_n);
  report.layer("engine.cache_hit_ratio",
               static_cast<double>(hits) / std::max<double>(1.0, static_cast<double>(hits + misses)),
               "ratio", hits + misses);
  report.note("serve.batch_requests.mean", all.batch_requests.mean(), "requests", q_n);
  report.note("serve.fused_rows.mean", all.fused_rows.mean(), "rows", q_n);
  report.note("serve.mode_switches", static_cast<double>(mode_switches), "count");
  report.note("serve.reconfig_ms", reconfig_ps * 1e-9, "ms (simulated)");
  report.note("fleet.submit_us.p50", all.submit_us.quantile(0.5), "us", n);
  report.note("fleet.submit_us.p99", all.submit_us.quantile(0.99), "us", n);
  report.note("fleet.hop_ms.p50", all.hop_ms.quantile(0.5), "ms", q_n);
  report.note("fleet.hop_ms.p99", all.hop_ms.quantile(0.99), "ms", q_n);
  double placed_max = 0.0, placed_min = 1e300;
  for (const fleet::FleetServerSummary& s : fs.servers) {
    placed_max = std::max(placed_max, static_cast<double>(s.placed));
    placed_min = std::min(placed_min, static_cast<double>(s.placed));
  }
  report.note("fleet.placed_skew", placed_max / std::max(1.0, placed_min), "ratio");
  report.note("fleet.failovers", static_cast<double>(fs.failovers), "count");

  ReplayInputs replay;
  replay.config = arch::ArrayConfig::square(16);
  replay.shapes = std::move(all.shapes);
  for (const auto* pool : {&st->decode, &st->prefill}) {
    for (const std::vector<serve::PhaseGemm>& step : *pool) {
      for (const serve::PhaseGemm& g : step) replay.gemms.push_back({g.a, g.b});
    }
  }
  const nn::TransformerConfig config = model_config();
  replay.models = {nn::prefill_model(config, 272), nn::decode_model(config, kKvLen)};
  replay.through_server = true;
  replay_layers(replay, report);
}

}  // namespace afb
