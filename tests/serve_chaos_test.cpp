// Robustness suite: the typed error taxonomy, the chaos fault-injection
// backend, deadlines and the queue reaper, overload admission policies,
// engine-fault retry + shard quarantine, and the chaos stress run the CI
// fault-injection job repeats under sanitizers.  The invariant under test
// everywhere: no accepted request is ever lost or double-served — every
// future resolves, with a value or an af::Error carrying a typed code.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "gemm/reference.h"
#include "nn/models.h"
#include "serve/dispatcher.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/status.h"

namespace af::serve {
namespace {

using std::chrono::milliseconds;

Request make_gemm_request(std::uint64_t id, const std::string& tenant) {
  Request r;
  r.kind = RequestKind::kGemm;
  r.id = id;
  r.tenant = tenant;
  r.decided_k = 1;
  return r;
}

// ---- error taxonomy -------------------------------------------------------

TEST(ErrorTaxonomyTest, CodesHaveStableNames) {
  EXPECT_STREQ(error_code_name(ErrorCode::kUnknown), "unknown");
  EXPECT_STREQ(error_code_name(ErrorCode::kInvalidArgument),
               "invalid_argument");
  EXPECT_STREQ(error_code_name(ErrorCode::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(error_code_name(ErrorCode::kOverloaded), "overloaded");
  EXPECT_STREQ(error_code_name(ErrorCode::kEngineFault), "engine_fault");
  EXPECT_STREQ(error_code_name(ErrorCode::kShutdown), "shutdown");
}

TEST(ErrorTaxonomyTest, ErrorCarriesItsCode) {
  const Error e("boom", ErrorCode::kEngineFault);
  EXPECT_EQ(e.code(), ErrorCode::kEngineFault);
  EXPECT_STREQ(e.what(), "boom");
  // Default construction stays kUnknown (pre-taxonomy throws still type).
  EXPECT_EQ(Error("x").code(), ErrorCode::kUnknown);
}

TEST(ErrorTaxonomyTest, ValidationFailuresAreInvalidArgument) {
  try {
    engine::make("no-such-backend", engine::EngineBuilder());
    FAIL() << "expected af::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

// ---- chaos engine ---------------------------------------------------------

TEST(ChaosEngineTest, ScheduledThrowsAreDeterministicAndReplayable) {
  engine::ChaosOptions chaos;
  chaos.throw_every_n = 3;
  engine::EngineBuilder builder;
  builder.square(8).chaos(chaos);
  const auto plain = engine::EngineBuilder().square(8).build("analytic");

  Rng rng(7);
  const gemm::Mat32 a = gemm::random_matrix(rng, 4, 8, -10, 10);
  const gemm::Mat32 w = gemm::random_matrix(rng, 8, 4, -10, 10);
  engine::GemmRequest req;
  req.a = &a;
  req.b = &w;
  req.k = 1;
  req.want_output = true;
  const engine::RunResult want = plain->run_gemm(req);

  // Two independently built chaos engines replay the identical schedule:
  // runs 3, 6, 9 throw kEngineFault, every other run matches the inner
  // engine exactly (outputs bit for bit, costs number for number).
  for (int build = 0; build < 2; ++build) {
    const auto engine = builder.build("chaos");
    EXPECT_EQ(engine->name(), "chaos");
    for (int run = 1; run <= 9; ++run) {
      if (run % 3 == 0) {
        try {
          engine->run_gemm(req);
          FAIL() << "run " << run << " should have thrown";
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kEngineFault) << "run " << run;
        }
      } else {
        const engine::RunResult got = engine->run_gemm(req);
        EXPECT_TRUE(engine::exactly_equal(got.cost, want.cost))
            << "run " << run;
        ASSERT_TRUE(got.out.has_value());
        EXPECT_TRUE(*got.out == *want.out) << "run " << run;
      }
    }
  }
}

TEST(ChaosEngineTest, WrongCostPerturbsEveryRunByOneCycle) {
  engine::ChaosOptions chaos;
  chaos.wrong_cost = true;
  engine::EngineBuilder builder;
  builder.square(8).chaos(chaos);
  const auto engine = builder.build("chaos");
  const auto plain = engine::EngineBuilder().square(8).build("analytic");

  Rng rng(9);
  const gemm::Mat32 a = gemm::random_matrix(rng, 3, 8, -5, 5);
  const gemm::Mat32 w = gemm::random_matrix(rng, 8, 3, -5, 5);
  engine::GemmRequest req;
  req.a = &a;
  req.b = &w;
  req.k = 2;
  req.want_output = false;
  const engine::RunResult want = plain->run_gemm(req);
  const engine::RunResult got = engine->run_gemm(req);
  // The minimal lie: +1 cycle, everything else intact — exactly what an
  // exact-equality audit replay must flag.
  EXPECT_EQ(got.cost.cycles, want.cost.cycles + 1);
  EXPECT_FALSE(engine::exactly_equal(got.cost, want.cost));
}

TEST(ChaosEngineTest, DefaultsInjectNothing) {
  engine::EngineBuilder builder;
  builder.square(8);  // default ChaosOptions: no fault switched on
  const auto chaos = builder.build("chaos");
  const auto plain = builder.build("analytic");
  EXPECT_FALSE(chaos->measures());  // transparent over the analytic inner

  Rng rng(3);
  const gemm::Mat32 a = gemm::random_matrix(rng, 5, 8, -20, 20);
  const gemm::Mat32 w = gemm::random_matrix(rng, 8, 6, -20, 20);
  engine::GemmRequest req;
  req.a = &a;
  req.b = &w;
  req.k = 1;
  req.want_output = true;
  const engine::RunResult got = chaos->run_gemm(req);
  const engine::RunResult want = plain->run_gemm(req);
  EXPECT_TRUE(engine::exactly_equal(got.cost, want.cost));
  ASSERT_TRUE(got.out.has_value());
  EXPECT_TRUE(*got.out == *want.out);
}

TEST(ChaosEngineTest, WrapsTheCycleBackendAndRefusesItself) {
  engine::ChaosOptions chaos;
  chaos.inner = "cycle";
  engine::EngineBuilder builder;
  builder.square(8).chaos(chaos);
  EXPECT_TRUE(builder.build("chaos")->measures());  // inner is ground truth

  chaos.inner = "chaos";
  builder.chaos(chaos);
  EXPECT_THROW(builder.build("chaos"), Error);
}

// ---- queue: timed push, reaper --------------------------------------------

TEST(RequestQueueRobustnessTest, TimedPushKeepsTheRequestOnRejection) {
  RequestQueue q(1);
  Request first = make_gemm_request(0, "t");
  EXPECT_EQ(q.push_until(first, Clock::now()), PushResult::kAccepted);

  Request second = make_gemm_request(1, "t");
  EXPECT_EQ(q.push_until(second, Clock::now() + milliseconds(2)),
            PushResult::kFull);
  // The rejected request is untouched: its promise still resolves.
  std::future<GemmResult> future = second.gemm_promise.get_future();
  second.gemm_promise.set_value(GemmResult{});
  EXPECT_EQ(future.wait_for(milliseconds(0)), std::future_status::ready);

  q.close();
  Request third = make_gemm_request(2, "t");
  EXPECT_EQ(q.push_until(third, Clock::now()), PushResult::kClosed);
}

TEST(RequestQueueRobustnessTest, ReaperRemovesOnlyOverdueRequests) {
  RequestQueue q(8);
  const Clock::time_point now = Clock::now();
  Request expired_a = make_gemm_request(0, "a");
  expired_a.deadline = now - milliseconds(5);
  Request live_a = make_gemm_request(1, "a");
  live_a.deadline = now + std::chrono::hours(1);
  Request expired_b = make_gemm_request(2, "b");
  expired_b.deadline = now - milliseconds(1);
  Request no_deadline = make_gemm_request(3, "b");
  ASSERT_EQ(q.push_until(expired_a, Clock::now()), PushResult::kAccepted);
  ASSERT_EQ(q.push_until(live_a, Clock::now()), PushResult::kAccepted);
  ASSERT_EQ(q.push_until(expired_b, Clock::now()), PushResult::kAccepted);
  ASSERT_EQ(q.push_until(no_deadline, Clock::now()), PushResult::kAccepted);

  std::vector<Request> reaped = q.remove_expired(Clock::now());
  ASSERT_EQ(reaped.size(), 2u);
  EXPECT_EQ(reaped[0].id, 0u);
  EXPECT_EQ(reaped[1].id, 2u);
  EXPECT_EQ(q.size(), 2u);
  // Reaping freed capacity and the survivors still pop in order.
  EXPECT_EQ(q.try_pop()->id, 1u);
  EXPECT_EQ(q.try_pop()->id, 3u);
  // A deadline-free backlog makes the next sweep a no-op fast path.
  EXPECT_TRUE(q.remove_expired(Clock::now()).empty());
}

// ---- overload latch -------------------------------------------------------

TEST(OverloadLatchTest, EntersAfterPatienceAndExitsInTheDeadZoneNever) {
  // The server's overload tick on synthetic samples: on when hot against
  // the limits, off when cool against half of them (patience 2 / 3 here).
  const Pressure at{.depth = 10.0, .wait_p99_ms = 50.0};
  const Pressure exit_at{.depth = 5.0, .wait_p99_ms = 25.0};
  util::Latch latch(2, 3);
  const auto update = [&](double depth, double wait_p99_ms) {
    const Pressure p{.depth = depth, .wait_p99_ms = wait_p99_ms};
    return latch.update(hot(p, at), cool(p, exit_at));
  };

  EXPECT_FALSE(update(12.0, 0.0));  // first hot tick: not yet
  EXPECT_TRUE(update(0.0, 60.0));   // second hot tick (either signal)
  // The dead zone (between half and full thresholds) holds the state.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(update(7.0, 30.0)) << i;
  }
  // Exit needs BOTH signals below half threshold for exit_patience ticks.
  EXPECT_TRUE(update(1.0, 1.0));
  EXPECT_TRUE(update(1.0, 1.0));
  EXPECT_FALSE(update(1.0, 1.0));
  // A single hot tick mid-exit resets the streak.
  EXPECT_FALSE(update(12.0, 0.0));
  EXPECT_TRUE(update(12.0, 0.0));
  EXPECT_TRUE(update(1.0, 1.0));
  EXPECT_TRUE(update(1.0, 1.0));
  EXPECT_TRUE(update(11.0, 0.0));  // streak broken: still overloaded
}

TEST(OverloadPolicyTest, RegistryNamesParseAndDescribe) {
  const std::vector<std::string> names = overload_policy_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "block");
  EXPECT_EQ(names[1], "degrade");
  EXPECT_EQ(names[2], "reject");
  for (const std::string& name : names) {
    EXPECT_FALSE(overload_policy_description(name).empty()) << name;
  }
  EXPECT_EQ(parse_overload_policy("block"), OverloadPolicy::kBlock);
  EXPECT_EQ(parse_overload_policy("reject"), OverloadPolicy::kReject);
  EXPECT_EQ(parse_overload_policy("degrade"), OverloadPolicy::kDegrade);
  EXPECT_THROW(parse_overload_policy("shed"), Error);
}

// ---- dispatcher failpoints ------------------------------------------------

TEST(DispatcherFailpointTest, DispatcherHitsTheNamedSites) {
  std::mutex mutex;
  std::vector<std::string> sites;
  DispatcherOptions opts;
  opts.max_shards = 2;
  opts.live_shards = 2;
  opts.max_batch = 1;
  opts.failpoint = [&](const char* site) {
    std::lock_guard<std::mutex> lock(mutex);
    sites.emplace_back(site);
  };
  Dispatcher d(opts);

  Request r = make_gemm_request(0, "tenant-x");
  const int home = static_cast<int>(affinity_hash(r) % 2);
  ASSERT_TRUE(d.submit(std::move(r)));
  // A worker on the OTHER shard must steal the request — passing through
  // the "steal" site on the way.
  const auto batch = d.next_batch(1 - home);
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->requests.size(), 1u);
  EXPECT_EQ(d.steals(), 1);

  // Banning the home shard drains through the "drain" site and reroutes
  // follow-up submissions, which the healthy shard then serves locally.
  Request queued = make_gemm_request(1, "tenant-x");
  ASSERT_TRUE(d.submit(std::move(queued)));
  d.set_banned(home, true);
  Request rerouted = make_gemm_request(2, "tenant-x");
  ASSERT_TRUE(d.submit(std::move(rerouted)));
  ASSERT_TRUE(d.next_batch(1 - home).has_value());
  ASSERT_TRUE(d.next_batch(1 - home).has_value());
  EXPECT_EQ(d.steals(), 1);  // both arrived in the healthy deque
  // Closed before `mutex` is taken below: the failpoint takes `mutex`
  // under the dispatcher's control lock, so the reverse order inverts it.
  d.close();

  std::lock_guard<std::mutex> lock(mutex);
  // Three client submissions, plus the drain re-entering the submit path
  // when the banned shard's queued request was rerouted.
  EXPECT_GE(std::count(sites.begin(), sites.end(), "submit"), 3);
  EXPECT_GE(std::count(sites.begin(), sites.end(), "steal"), 1);
  EXPECT_GE(std::count(sites.begin(), sites.end(), "drain"), 1);
}

// ---- server fixtures ------------------------------------------------------

class ServeChaosTest : public ::testing::Test {
 protected:
  static arch::ArrayConfig shard16() { return arch::ArrayConfig::square(16); }

  static std::shared_ptr<gemm::Mat32> random_weights(Rng& rng, std::int64_t n,
                                                     std::int64_t m) {
    return std::make_shared<gemm::Mat32>(
        gemm::random_matrix(rng, n, m, -50, 50));
  }
};

TEST_F(ServeChaosTest, ExpiredDeadlineFailsTypedAndBalancesTheBooks) {
  ServerOptions opts;
  opts.num_shards = 1;
  Server server(shard16(), opts);

  Rng rng(21);
  auto weights = random_weights(rng, 16, 8);
  SubmitOptions submit;
  submit.deadline_ms = 1e-6;  // already overdue by the time a worker looks
  auto future = server.submit_gemm(
      "deadline", gemm::random_matrix(rng, 3, 16, -10, 10), weights, submit);
  try {
    future.get();
    FAIL() << "expected kDeadlineExceeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.expired, 1);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].expired, 1);

  // A generous deadline changes nothing about a healthy request.
  submit.deadline_ms = 60e3;
  const GemmResult ok =
      server
          .submit_gemm("deadline", gemm::random_matrix(rng, 3, 16, -10, 10),
                       weights, submit)
          .get();
  EXPECT_GT(ok.cycles, 0);
  EXPECT_EQ(server.stats().expired, 1);
}

TEST_F(ServeChaosTest, RejectPolicyShedsUnderPressureAndServesTheRest) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 1;  // no coalescing: pressure shows up as queue depth
  opts.backend = "chaos";
  opts.chaos.delay_ms = 20.0;  // every run sleeps — a slow engine
  opts.overload_policy = "reject";
  opts.overload_at = {.depth = 1.0};  // only the instantaneous depth trips
  Server server(shard16(), opts);

  Rng rng(5);
  auto weights = random_weights(rng, 16, 8);
  std::vector<std::future<GemmResult>> accepted;
  int rejected = 0;
  for (int i = 0; i < 8; ++i) {
    try {
      accepted.push_back(server.submit_gemm(
          "bursty", gemm::random_matrix(rng, 2, 16, -10, 10), weights,
          SubmitOptions{}));
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1);          // the burst tripped admission
  EXPECT_LE(rejected, 7);          // but the first request always lands
  for (auto& f : accepted) EXPECT_GT(f.get().cycles, 0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.overload_policy, "reject");
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.submitted, 8 - rejected);
  EXPECT_EQ(stats.completed, stats.submitted);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].rejected, rejected);
}

TEST_F(ServeChaosTest, DegradePolicyServesCostOnlyUnderPressureThenRecovers) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 1;
  opts.backend = "chaos";
  opts.chaos.delay_ms = 20.0;
  opts.overload_policy = "degrade";
  opts.overload_at = {.depth = 1.0};
  Server server(shard16(), opts);

  Rng rng(6);
  auto weights = random_weights(rng, 16, 8);
  std::vector<std::future<GemmResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.submit_gemm(
        "bursty", gemm::random_matrix(rng, 2, 16, -10, 10), weights,
        SubmitOptions{}));  // want_output defaults to true
  }
  int degraded = 0;
  for (auto& f : futures) {
    const GemmResult r = f.get();
    EXPECT_GT(r.cycles, 0);  // cost fidelity survives degradation
    if (r.degraded) {
      ++degraded;
      EXPECT_EQ(r.out.rows(), 0);  // but the product was shed
    } else {
      EXPECT_EQ(r.out.rows(), 2);
    }
  }
  EXPECT_GE(degraded, 1);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.degraded, degraded);
  EXPECT_EQ(stats.rejected, 0);  // degrade admits everything
  EXPECT_EQ(stats.submitted, 8);
  EXPECT_EQ(stats.completed, 8);

  // Once the backlog clears the window resets and fidelity returns.
  bool recovered = false;
  for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
    std::this_thread::sleep_for(milliseconds(10));
    const GemmResult probe =
        server
            .submit_gemm("bursty", gemm::random_matrix(rng, 2, 16, -10, 10),
                         weights, SubmitOptions{})
            .get();
    recovered = !probe.degraded;
  }
  EXPECT_TRUE(recovered);
}

// ---- admission books, per submission kind ---------------------------------

// Every kind enters through the same admission steps, so every kind must
// keep the same books when admission refuses it: a refusal moves
// `rejected` by the logical requests it carried (a batch's shape count, 1
// otherwise) and the tenant's `rejected` by one, and never `submitted`.
enum class SubmitKind { kGemm, kBatch, kInference };

class AdmissionBooksTest : public ServeChaosTest,
                           public ::testing::WithParamInterface<SubmitKind> {
 protected:
  // Whichever future or ticket one submission returned.
  struct Accepted {
    std::future<GemmResult> gemm;
    BatchTicket batch;
    std::future<InferenceResult> inference;

    void wait() {
      if (gemm.valid()) gemm.get();
      if (batch.valid()) batch.get();
      if (inference.valid()) inference.get();
    }
  };

  std::int64_t logical_requests() const {
    return GetParam() == SubmitKind::kBatch ? 4 : 1;
  }

  // A fresh server, paused, so everything it accepts stays queued until
  // pause_serving(false) — the queue depth is exact, not a race with a
  // worker.
  static std::unique_ptr<Server> paused_server(ServerOptions opts,
                                               int shards = 1) {
    opts.num_shards = shards;
    auto server = std::make_unique<Server>(shard16(), opts);
    server->pause_serving(true);
    return server;
  }

  Accepted submit(Server& server, const SubmitOptions& options = {}) {
    Accepted out;
    switch (GetParam()) {
      case SubmitKind::kGemm:
        out.gemm = server.submit_gemm(
            kTenant, gemm::random_matrix(rng_, 2, 16, -10, 10), weights_,
            options);
        break;
      case SubmitKind::kBatch:
        out.batch = server.submit_gemm_batch(kTenant, shapes_, options);
        break;
      case SubmitKind::kInference:
        out.inference = server.submit_inference(kTenant, model_, options);
        break;
    }
    return out;
  }

  // The one submission behind `accepted` fails with `code`.
  static void expect_failure(Accepted& accepted, ErrorCode code) {
    try {
      accepted.wait();
      ADD_FAILURE() << "expected " << error_code_name(code);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), code) << error_code_name(e.code());
    }
  }

  // The second submission is refused with kOverloaded and books exactly
  // one refusal; the first is then served once the server resumes.
  void expect_overloaded_refusal(Server& server, Accepted first,
                                 const SubmitOptions& options) {
    const ServerStats before = server.stats();
    try {
      submit(server, options);
      ADD_FAILURE() << "expected kOverloaded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kOverloaded) << error_code_name(e.code());
    }
    const ServerStats after = server.stats();
    EXPECT_EQ(after.rejected, before.rejected + logical_requests());
    EXPECT_EQ(after.submitted, before.submitted);
    ASSERT_EQ(after.tenants.size(), 1u);
    EXPECT_EQ(after.tenants[0].rejected, 1);

    server.pause_serving(false);
    first.wait();
    const ServerStats done = server.stats();
    EXPECT_EQ(done.submitted, logical_requests());
    EXPECT_EQ(done.completed, done.submitted);
  }

  static constexpr const char* kTenant = "books";
  Rng rng_{83};
  std::shared_ptr<gemm::Mat32> weights_ = random_weights(rng_, 16, 8);
  std::vector<gemm::GemmShape> shapes_ = {
      {8, 16, 4}, {16, 16, 2}, {4, 32, 8}, {8, 8, 1}};
  std::shared_ptr<nn::Model> model_ =
      std::make_shared<nn::Model>(nn::mobilenet_v1());
};

std::string kind_name(const ::testing::TestParamInfo<SubmitKind>& info) {
  constexpr const char* kNames[] = {"Gemm", "Batch", "Inference"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(Kinds, AdmissionBooksTest,
                         ::testing::Values(SubmitKind::kGemm,
                                           SubmitKind::kBatch,
                                           SubmitKind::kInference),
                         kind_name);

TEST_P(AdmissionBooksTest, RejectPolicyRefusalBooksEveryLogicalRequest) {
  ServerOptions opts;
  opts.overload_policy = "reject";
  opts.overload_at = {.depth = 1.0};  // one queued request is pressure
  auto server = paused_server(opts);
  Accepted first = submit(*server);
  expect_overloaded_refusal(*server, std::move(first), {});
}

TEST_P(AdmissionBooksTest, AdmissionTimeoutRefusalBooksEveryLogicalRequest) {
  ServerOptions opts;
  opts.queue_capacity = 1;  // the first submission fills the one deque
  auto server = paused_server(opts);
  Accepted first = submit(*server);
  expect_overloaded_refusal(*server, std::move(first),
                            {.admission_timeout_ms = 0.0});
}

// A budget the steady clock cannot represent is no budget at all: such a
// deadline never expires and such an admission wait blocks until space
// frees.  (1e13 ms is past 2^63 ns: a bare conversion overflows the
// clock's rep.)
constexpr double kBeyondTheClockMs[] = {
    1e13, 1e16, 1e300, std::numeric_limits<double>::infinity()};

TEST_P(AdmissionBooksTest, DeadlineBeyondTheClockNeverExpires) {
  auto server = paused_server({});
  std::vector<Accepted> accepted;
  for (const double deadline_ms : kBeyondTheClockMs) {
    accepted.push_back(submit(*server, {.deadline_ms = deadline_ms}));
  }
  server->pause_serving(false);
  for (Accepted& a : accepted) EXPECT_NO_THROW(a.wait());
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.expired, 0);
  EXPECT_EQ(stats.completed, stats.submitted);
}

TEST_P(AdmissionBooksTest, AdmissionTimeoutBeyondTheClockWaitsForSpace) {
  for (const double timeout_ms : kBeyondTheClockMs) {
    ServerOptions opts;
    opts.queue_capacity = 1;  // the first submission fills the one deque
    auto server = paused_server(opts);
    Accepted first = submit(*server);
    Accepted second;
    std::exception_ptr error;
    std::atomic<bool> returned{false};
    std::thread client([&] {
      try {
        second = submit(*server, {.admission_timeout_ms = timeout_ms});
      } catch (...) {
        error = std::current_exception();
      }
      returned.store(true);
    });
    std::this_thread::sleep_for(milliseconds(30));
    EXPECT_FALSE(returned.load()) << timeout_ms << " ms did not wait";
    server->pause_serving(false);  // the first drains, space frees
    client.join();
    EXPECT_FALSE(error) << timeout_ms << " ms: submit threw";
    first.wait();
    if (!error) second.wait();
    EXPECT_EQ(server->stats().rejected, 0) << timeout_ms << " ms";
  }
}

TEST_P(AdmissionBooksTest, NanAdmissionTimeoutIsInvalid) {
  auto server = paused_server({});
  try {
    submit(*server,
           {.admission_timeout_ms = std::numeric_limits<double>::quiet_NaN()});
    ADD_FAILURE() << "expected kInvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument)
        << error_code_name(e.code());
  }
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.submitted, 0);
  EXPECT_EQ(stats.rejected, 0);
}

// A failure after admission books the same way: `expired` and `unserved`
// move by the logical requests settled (a batch's shapes; one per GEMM or
// inference), in step with `completed`.
TEST_P(AdmissionBooksTest, ExpiredDeadlineBooksEveryLogicalRequest) {
  auto server = paused_server({}, /*shards=*/2);
  Accepted overdue = submit(*server, {.deadline_ms = 1e-6});
  // Drains the paused server and joins its workers: the request is reaped
  // before the books are read, and no worker still holds the error the
  // client inspects.
  server->shutdown();
  expect_failure(overdue, ErrorCode::kDeadlineExceeded);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.submitted, logical_requests());
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.expired, logical_requests());
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].expired, 1);
}

TEST_P(AdmissionBooksTest, QuiesceBooksEveryStrandedLogicalRequest) {
  auto server = paused_server({}, /*shards=*/2);
  Accepted stranded = submit(*server);
  server->quiesce();
  expect_failure(stranded, ErrorCode::kUnavailable);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.submitted, logical_requests());
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.unserved, logical_requests());
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].faults, 1);
}

TEST_P(AdmissionBooksTest, ShutdownRefusesWithoutMovingABook) {
  auto server = paused_server({});
  server->shutdown();
  try {
    submit(*server);
    ADD_FAILURE() << "expected kShutdown";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kShutdown) << error_code_name(e.code());
  }
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.submitted, 0);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_TRUE(stats.tenants.empty());
}

TEST_F(ServeChaosTest, EngineFaultWithoutRetriesFailsTyped) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.backend = "chaos";
  opts.chaos.throw_every_n = 1;  // every run faults
  Server server(shard16(), opts);

  Rng rng(13);
  auto weights = random_weights(rng, 16, 8);
  auto future = server.submit_gemm(
      "doomed", gemm::random_matrix(rng, 2, 16, -10, 10), weights,
      SubmitOptions{});
  try {
    future.get();
    FAIL() << "expected kEngineFault";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kEngineFault);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_GE(stats.engine_faults, 1);
  EXPECT_EQ(stats.retries, 0);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].faults, 1);
}

TEST_F(ServeChaosTest, RetriesResubmitFaultedRequestsUntilServed) {
  ServerOptions opts;
  opts.num_shards = 2;
  opts.backend = "chaos";
  opts.chaos.throw_every_n = 3;  // each shard faults every third run
  opts.max_retries = 4;
  Server server(shard16(), opts);

  Rng rng(17);
  auto weights = random_weights(rng, 16, 8);
  for (int i = 0; i < 20; ++i) {
    gemm::Mat32 a = gemm::random_matrix(rng, 2, 16, -10, 10);
    const gemm::Mat64 want = gemm::reference_gemm(a, *weights);
    const GemmResult r =
        server.submit_gemm("persistent", std::move(a), weights,
                           SubmitOptions{})
            .get();  // sequential: a faulted run must recover via retry
    EXPECT_EQ(gemm::first_mismatch(r.out, want), "") << "request " << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 20);
  EXPECT_EQ(stats.completed, 20);
  EXPECT_GE(stats.engine_faults, 1);  // the schedule guarantees faults fired
  EXPECT_GE(stats.retries, 1);
  EXPECT_EQ(stats.promise_double_sets, 0);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].retries, stats.retries);
}

TEST_F(ServeChaosTest, QuarantineBenchesFaultyShardsAndRecoversThem) {
  ServerOptions opts;
  opts.num_shards = 2;
  opts.backend = "chaos";
  opts.chaos.throw_every_n = 3;
  opts.max_retries = 6;
  opts.quarantine_after_faults = 1;  // bench a shard on its first fault
  Server server(shard16(), opts);

  Rng rng(19);
  auto weights = random_weights(rng, 16, 8);
  for (int i = 0; i < 30; ++i) {
    const GemmResult r =
        server
            .submit_gemm("steady", gemm::random_matrix(rng, 2, 16, -10, 10),
                         weights, SubmitOptions{})
            .get();
    EXPECT_GT(r.cycles, 0) << "request " << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 30);
  EXPECT_EQ(stats.completed, 30);
  EXPECT_GE(stats.quarantines, 1);  // faults fired, so benches happened
  EXPECT_GE(stats.retries, 1);
  EXPECT_EQ(stats.promise_double_sets, 0);
  std::int64_t shard_faults = 0;
  for (const ShardSnapshot& s : stats.shards) shard_faults += s.engine_faults;
  EXPECT_EQ(shard_faults, stats.engine_faults);
}

// A cost batch whose own shapes fail validation fails alone: the batch
// answered before it in the same dispatch stays answered, exactly once.
// No plan fits a 4096 x 4096 x 512 GEMM's tiles in a 4 KB scratchpad,
// while a 16 x 16 x 1 GEMM fits.
TEST_F(ServeChaosTest, InvalidCostBatchFailsAloneAndSettlesNothingTwice) {
  arch::ArrayConfig config = shard16();
  config.mem.enabled = true;
  config.mem.spad_bytes = 4096;
  ServerOptions opts;
  opts.num_shards = 1;
  Server server(config, opts);

  const std::vector<gemm::GemmShape> fits{{.m = 16, .n = 16, .t = 1}};
  const std::vector<gemm::GemmShape> fits_nothing{
      {.m = 4096, .n = 4096, .t = 512}};
  server.pause_serving(true);  // both batches ride one dispatch
  BatchTicket a = server.submit_gemm_batch("a", fits, {.k = 1});
  BatchTicket b = server.submit_gemm_batch("b", fits_nothing, {.k = 1});
  server.pause_serving(false);

  const std::vector<engine::CostEstimate> got = a.get();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_GT(got[0].cycles, 0);
  try {
    b.get();
    FAIL() << "expected kInvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.promise_double_sets, 0);
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.completed, 2);
  ASSERT_EQ(stats.tenants.size(), 2u);
  for (const TenantSnapshot& t : stats.tenants) {
    const bool is_a = t.tenant == "a";
    EXPECT_EQ(t.requests, is_a ? 1 : 0) << t.tenant;
    EXPECT_EQ(t.faults, is_a ? 0 : 1) << t.tenant;
  }
}

// ---- server-scoped failpoints (the fleet layer's crash/stall hooks) -------

TEST_F(ServeChaosTest, PauseServingStallsPickupUntilResumed) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 1;
  Server server(shard16(), opts);
  Rng rng(71);
  auto weights = random_weights(rng, 16, 8);

  EXPECT_FALSE(server.serving_paused());
  server.pause_serving(true);
  EXPECT_TRUE(server.serving_paused());
  // Even a worker already waiting for work takes nothing while paused.
  auto parked = server.submit_gemm(
      "stall", gemm::random_matrix(rng, 1, 16, -5, 5), weights);
  std::this_thread::sleep_for(milliseconds(30));

  gemm::Mat32 a = gemm::random_matrix(rng, 2, 16, -10, 10);
  const gemm::Mat64 want = gemm::reference_gemm(a, *weights);
  auto stuck = server.submit_gemm("stall", std::move(a), weights);
  EXPECT_EQ(stuck.wait_for(milliseconds(50)), std::future_status::timeout)
      << "a paused server picked up new work";
  // The queued work is visible hardware load (the fleet router's signal).
  EXPECT_GT(server.backlog_cost_macs(), 0);

  server.pause_serving(false);
  EXPECT_FALSE(server.serving_paused());
  const GemmResult r = stuck.get();
  EXPECT_EQ(gemm::first_mismatch(r.out, want), "");
  EXPECT_GT(parked.get().cycles, 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.unserved, 0);
  // A no-op once the server is shut down: shutdown drained the queue and
  // nothing can be held any more.
  server.shutdown();
  server.pause_serving(true);
  EXPECT_FALSE(server.serving_paused());
}

TEST_F(ServeChaosTest, QuiesceStrandsQueuedWorkTypedAndNeverExecuted) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 1;
  Server server(shard16(), opts);
  Rng rng(67);
  auto weights = random_weights(rng, 16, 8);

  // Stall the worker, then queue work: a paused server picks none of it up.
  server.pause_serving(true);
  auto parked = server.submit_gemm(
      "doomed", gemm::random_matrix(rng, 1, 16, -5, 5), weights);
  std::this_thread::sleep_for(milliseconds(30));
  std::vector<std::future<GemmResult>> queued;
  for (int i = 0; i < 5; ++i) {
    queued.push_back(server.submit_gemm(
        "doomed", gemm::random_matrix(rng, 2, 16, -10, 10), weights));
  }
  // The crash failpoint: queued work is handed BACK (kUnavailable, never
  // executed — a fleet may re-admit it elsewhere without double-serving),
  // not served on the way down.
  server.quiesce();
  int unavailable = 0;
  for (auto& f : queued) {
    try {
      f.get();
      FAIL() << "a quiesced server served queued work";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kUnavailable) << error_code_name(e.code());
      ++unavailable;
    }
  }
  EXPECT_EQ(unavailable, 5);
  // The first request resolves too, stranded with the rest.
  try {
    EXPECT_GT(parked.get().cycles, 0);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 6);
  EXPECT_EQ(stats.completed, 6);  // failures included: the books balance
  EXPECT_GE(stats.unserved, 5);
  EXPECT_EQ(stats.promise_double_sets, 0);
  // Admission after the crash refuses loudly; quiesce and shutdown stay
  // idempotent and compatible in either order.
  EXPECT_THROW(server.submit_gemm(
                   "doomed", gemm::random_matrix(rng, 2, 16, -10, 10), weights),
               Error);
  server.quiesce();
  server.shutdown();
}

TEST_F(ServeChaosTest, LocalityAwareStealingAvoidsReconfigurationDrains) {
  ServerOptions opts;
  opts.num_shards = 2;
  opts.max_batch = 1;      // no coalescing: steals have many targets
  opts.backend = "chaos";  // every run sleeps, so the hot deque backs up
  opts.chaos.delay_ms = 1.0;
  Server server(shard16(), opts);

  Rng rng(73);
  auto weights = random_weights(rng, 16, 8);
  std::vector<std::future<GemmResult>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(server.submit_gemm(
        "hot", gemm::random_matrix(rng, 2, 16, -10, 10), weights, {.k = 1}));
  }
  for (auto& f : futures) EXPECT_GT(f.get().cycles, 0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 32);
  EXPECT_EQ(stats.completed, 32);
  // One tenant hashes to one deque, so the other shard lives off steals.
  EXPECT_GE(stats.steals, 2);
  // Every request is pinned to mode k=1: once the stealing shard has
  // configured k=1, the locality-aware first steal pass keeps finding
  // same-mode batches — stolen work that skips the reconfiguration drain.
  std::int64_t avoided = 0;
  for (const ShardSnapshot& s : stats.shards) avoided += s.steal_drains_avoided;
  EXPECT_GE(avoided, 1);
}

// The satellite stress run: chaos faults + retries + deadlines + autoscale
// + stealing, many concurrent clients.  Every future must resolve — a
// value or a typed af::Error — with the books balanced and zero
// double-served promises.  The CI fault-injection job repeats this binary
// under ASan/UBSan.
TEST_F(ServeChaosTest, ChaosStressLosesNothingAndDoubleServesNothing) {
  ServerOptions opts;
  opts.num_shards = 2;
  opts.min_shards = 1;
  opts.max_shards = 4;
  opts.max_batch = 4;
  opts.backend = "chaos";
  opts.chaos.throw_every_n = 7;
  opts.max_retries = 3;
  opts.quarantine_after_faults = 2;
  Server server(shard16(), opts);

  constexpr int kClients = 4;
  constexpr int kPerClient = 40;
  std::vector<std::vector<std::future<GemmResult>>> futures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + static_cast<std::uint64_t>(c));
      auto weights = random_weights(rng, 16, 8);
      for (int i = 0; i < kPerClient; ++i) {
        SubmitOptions submit;
        submit.want_output = (i % 4 == 0);
        if (i % 5 == 0) submit.deadline_ms = 50.0;  // some requests race it
        futures[static_cast<std::size_t>(c)].push_back(server.submit_gemm(
            "client-" + std::to_string(c),
            gemm::random_matrix(rng, 2 + i % 3, 16, -20, 20), weights,
            submit));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  int served = 0;
  int failed = 0;
  for (auto& per_client : futures) {
    for (auto& f : per_client) {
      // A lost request would hang forever; a bounded wait turns that into
      // a test failure instead.
      ASSERT_EQ(f.wait_for(std::chrono::seconds(60)),
                std::future_status::ready)
          << "request lost: its promise never resolved";
      try {
        const GemmResult r = f.get();
        EXPECT_GT(r.cycles, 0);
        ++served;
      } catch (const Error& e) {
        // Only the lifecycle's own taxonomy may surface.
        EXPECT_TRUE(e.code() == ErrorCode::kEngineFault ||
                    e.code() == ErrorCode::kDeadlineExceeded)
            << error_code_name(e.code());
        ++failed;
      }
    }
  }
  EXPECT_EQ(served + failed, kClients * kPerClient);
  EXPECT_GE(served, 1);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, stats.submitted);  // the books balance
  EXPECT_EQ(stats.promise_double_sets, 0);
  EXPECT_GE(stats.engine_faults, 1);
  std::int64_t tenant_total = 0;
  for (const TenantSnapshot& t : stats.tenants) {
    tenant_total += t.requests + t.expired + t.faults;
  }
  EXPECT_EQ(tenant_total, stats.submitted);
}

}  // namespace
}  // namespace af::serve
