// Fleet suite: placement determinism and spill, and the fleet's
// headline contract — no request ever lost or double-served, even when
// whole servers die mid-flight.  The chaos stress gate at the bottom is
// the CI fault-injection target: 4 servers, concurrent clients, a crash
// and a stall failpoint mid-run, and the books must still balance with
// every delivered product bit-identical to reference_gemm.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "fleet/fleet.h"
#include "fleet/router.h"
#include "gemm/reference.h"
#include "nn/models.h"
#include "serve/server.h"
#include "util/hysteresis.h"
#include "util/rng.h"
#include "util/status.h"

namespace af::fleet {
namespace {

using std::chrono::milliseconds;

// spill_factor = +inf: the router never leaves the consistent-hash home.
constexpr double kNeverSpill = std::numeric_limits<double>::infinity();

// A spill factor every loaded home exceeds: placement is pure power of two
// choices whenever the routable mean backlog is non-zero.
constexpr double kAlwaysSpill = 1e-9;

std::vector<ServerLoad> uniform_loads(int n) {
  std::vector<ServerLoad> loads(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    loads[static_cast<std::size_t>(i)].server = i;
    loads[static_cast<std::size_t>(i)].routable = true;
  }
  return loads;
}

// ---- affinity key ---------------------------------------------------------

TEST(RouterTest, AffinityKeyIsStableAndSpreads) {
  EXPECT_EQ(affinity_key("tenant-a"), affinity_key("tenant-a"));
  // 100 tenants should not collide (64-bit keys; a collision here means
  // the hash is broken, not unlucky).
  std::set<std::uint64_t> keys;
  for (int i = 0; i < 100; ++i) {
    keys.insert(affinity_key("tenant-" + std::to_string(i)));
  }
  EXPECT_EQ(keys.size(), 100u);
}

// ---- consistent hashing (spill_factor = +inf) -----------------------------

TEST(HashRouterTest, PlacementIsDeterministicAndBalanced) {
  Router router(kNeverSpill);
  const std::vector<ServerLoad> loads = uniform_loads(4);
  std::map<int, int> per_slot;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t key = affinity_key("tenant-" + std::to_string(i));
    const int slot = router.place(key, loads);
    ASSERT_GE(slot, 0);
    ASSERT_LT(slot, 4);
    EXPECT_EQ(slot, router.place(key, loads)) << "placement not stable";
    per_slot[slot] += 1;
  }
  // Virtual nodes keep the split roughly even: every slot sees traffic
  // well within 3x of a perfect quarter.
  for (const auto& [slot, count] : per_slot) {
    EXPECT_GT(count, 300) << "slot " << slot;
    EXPECT_LT(count, 3000) << "slot " << slot;
  }
}

TEST(HashRouterTest, ServerLeaveMovesOnlyItsOwnKeys) {
  Router router(kNeverSpill);
  std::vector<ServerLoad> loads = uniform_loads(4);
  constexpr int kKeys = 4000;
  std::vector<int> before(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    before[static_cast<std::size_t>(i)] =
        router.place(affinity_key("k" + std::to_string(i)), loads);
  }
  // Slot 2 leaves (health, not ring membership: the ring is static).
  loads[2].routable = false;
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const int now = router.place(affinity_key("k" + std::to_string(i)), loads);
    ASSERT_NE(now, 2) << "placed on the dead server";
    if (now != before[static_cast<std::size_t>(i)]) {
      // ONLY keys that lived on the dead slot may move...
      EXPECT_EQ(before[static_cast<std::size_t>(i)], 2);
      ++moved;
    }
  }
  // ...and all of its keys do move — i.e. ~1/N of the keyspace, no more.
  EXPECT_GT(moved, kKeys / 10);
  EXPECT_LT(moved, kKeys / 2);
  // The slot rejoins: every key goes home again (placement has no memory).
  loads[2].routable = true;
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(router.place(affinity_key("k" + std::to_string(i)), loads),
              before[static_cast<std::size_t>(i)]);
  }
}

// ---- power of two choices (every loaded home spills) ----------------------

TEST(P2cRouterTest, NeverPlacesOnAnUnroutableServer) {
  Router router(kAlwaysSpill);
  std::vector<ServerLoad> loads = uniform_loads(6);
  for (auto& load : loads) load.backlog_macs = 1000;
  loads[0].routable = false;  // dead
  loads[3].routable = false;  // quarantined
  loads[5].routable = false;  // draining
  for (int i = 0; i < 2000; ++i) {
    const int slot = router.place(static_cast<std::uint64_t>(i), loads);
    ASSERT_TRUE(slot == 1 || slot == 2 || slot == 4) << "picked " << slot;
  }
  for (auto& load : loads) load.routable = false;
  EXPECT_EQ(router.place(7, loads), -1);
}

TEST(P2cRouterTest, TwoServersAlwaysPickTheLighterOne) {
  Router router(kAlwaysSpill);
  std::vector<ServerLoad> loads = uniform_loads(2);
  loads[0].backlog_macs = 1 << 20;
  loads[1].backlog_macs = 1;
  // With two routable servers both draws always cover both candidates, so
  // p2c degenerates to exact least-loaded: deterministic.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(router.place(static_cast<std::uint64_t>(i), loads), 1);
  }
  loads[0].backlog_macs = 1;
  loads[1].backlog_macs = 1 << 20;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(router.place(static_cast<std::uint64_t>(i), loads), 0);
  }
}

// ---- hash home + load-aware spill (the default spill_factor) --------------

TEST(AffinityRouterTest, StaysHomeUntilTheHomeDrowns) {
  Router affinity(2.0);
  Router hash(kNeverSpill);
  std::vector<ServerLoad> loads = uniform_loads(3);
  const std::uint64_t key = affinity_key("sticky-tenant");
  const int home = hash.place(key, loads);

  // Balanced fleet: affinity == hash (locality wins).
  for (auto& load : loads) load.backlog_macs = 1000;
  EXPECT_EQ(affinity.place(key, loads), home);
  // Home moderately ahead but under spill_factor x mean: still home.
  loads[static_cast<std::size_t>(home)].backlog_macs = 1800;
  EXPECT_EQ(affinity.place(key, loads), home);
  // Home far past the spill threshold: placement leaves it.
  loads[static_cast<std::size_t>(home)].backlog_macs = 100000;
  const int spilled = affinity.place(key, loads);
  EXPECT_NE(spilled, home);
  ASSERT_GE(spilled, 0);
  EXPECT_TRUE(loads[static_cast<std::size_t>(spilled)].routable);
  // The same drowning home under spill_factor = +inf: pure hashing stays.
  EXPECT_EQ(hash.place(key, loads), home);
  // Dead home: spill even with zero backlog anywhere.
  for (auto& load : loads) load.backlog_macs = 0;
  loads[static_cast<std::size_t>(home)].routable = false;
  EXPECT_NE(affinity.place(key, loads), home);
}

TEST(AffinityRouterTest, RejectsANonPositiveSpillFactor) {
  EXPECT_THROW(Router{0.0}, Error);
  EXPECT_THROW(Router{std::numeric_limits<double>::quiet_NaN()}, Error);
}

// ---- fleet fixtures -------------------------------------------------------

class FleetTest : public ::testing::Test {
 protected:
  static FleetServerSpec small_spec(int shards = 1) {
    FleetServerSpec spec;
    spec.config = arch::ArrayConfig::square(16);
    spec.options.num_shards = shards;
    return spec;
  }

  static std::shared_ptr<gemm::Mat32> random_weights(Rng& rng, std::int64_t n,
                                                     std::int64_t m) {
    return std::make_shared<gemm::Mat32>(
        gemm::random_matrix(rng, n, m, -50, 50));
  }

  // A tenant whose consistent-hash home is `want` among `n` routable
  // servers — how tests steer traffic at a specific server.
  static std::string tenant_homed_at(int want, int n) {
    Router router(kNeverSpill);
    const std::vector<ServerLoad> loads = uniform_loads(n);
    for (int i = 0; i < 10000; ++i) {
      const std::string tenant = "homed-" + std::to_string(i);
      if (router.place(affinity_key(tenant), loads) == want) return tenant;
    }
    ADD_FAILURE() << "no tenant homed at server " << want;
    return "";
  }

  // Stalls `server` and PARKS its worker: a worker already blocked inside
  // next_batch when the stall lands still grabs one batch, so feed it a
  // sacrificial request (routed there via `tenant`) and give it time to
  // finish and park — everything submitted afterwards stays queued.  The
  // returned future is never lost: it resolves when the server is later
  // resumed, killed (failover) or shut down, so callers just keep it and
  // count it in the books.
  static std::future<serve::GemmResult> stall_and_park(
      Fleet& fleet, int server, const std::string& tenant, Rng& rng,
      const std::shared_ptr<gemm::Mat32>& weights) {
    fleet.stall_server(server);
    auto future = fleet.submit_gemm(
        tenant, gemm::random_matrix(rng, 1, 16, -5, 5), weights);
    std::this_thread::sleep_for(milliseconds(30));
    return future;
  }
};

TEST_F(FleetTest, RejectsAnyRouterButAffinity) {
  // One placement is left; its old registry name is the only one accepted.
  for (const char* name : {"hash", "p2c", "round-robin", ""}) {
    FleetOptions options;
    options.router = name;
    try {
      Fleet fleet({small_spec()}, options);
      ADD_FAILURE() << "router \"" << name << "\" accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument)
          << name << ": " << error_code_name(e.code());
    }
  }
  const FleetOptions defaults;
  EXPECT_EQ(defaults.router, "affinity");
  EXPECT_NO_THROW({ Fleet fleet({small_spec()}, defaults); });
}

// A budget the steady clock cannot represent is no budget at all: the
// deadline never expires and the admission wait lasts until space frees.
constexpr double kBeyondTheClockMs[] = {
    1e13, 1e300, std::numeric_limits<double>::infinity()};

TEST_F(FleetTest, DeadlineBeyondTheClockNeverExpires) {
  Fleet fleet({small_spec(), small_spec()});
  Rng rng(89);
  auto weights = random_weights(rng, 16, 8);
  for (const double deadline_ms : kBeyondTheClockMs) {
    const gemm::Mat32 a = gemm::random_matrix(rng, 2, 16, -5, 5);
    try {
      const serve::GemmResult r =
          fleet.submit_gemm("t", a, weights, {.deadline_ms = deadline_ms})
              .get();
      EXPECT_EQ(gemm::first_mismatch(r.out, gemm::reference_gemm(a, *weights)),
                "");
    } catch (const Error& e) {
      ADD_FAILURE() << deadline_ms << " ms: " << error_code_name(e.code());
    }
  }
  EXPECT_EQ(fleet.stats().resolved_ok, 3);
}

// Process CPU time (user + system, every thread) so far, in ms.
double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return 1e3 * static_cast<double>(tv.tv_sec) +
           1e-3 * static_cast<double>(tv.tv_usec);
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

TEST_F(FleetTest, IdleFleetSleeps) {
  // No hedging and no prober: with nothing pending, each collector waits
  // for its server to settle something instead of polling.
  Fleet fleet({small_spec(), small_spec()});
  Rng rng(97);
  auto weights = random_weights(rng, 16, 8);
  for (int i = 0; i < 4; ++i) {  // every thread has run once
    fleet.submit_gemm("t-" + std::to_string(i),
                      gemm::random_matrix(rng, 2, 16, -5, 5), weights)
        .get();
  }
  const double before = process_cpu_ms();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double used = process_cpu_ms() - before;
  EXPECT_LT(used, 10.0) << "an idle 2-server fleet used " << used
                        << " ms of CPU in 1 s";
}

TEST_F(FleetTest, ServesAcrossServersBitIdenticalAndBalanced) {
  std::vector<FleetServerSpec> specs(3, small_spec());
  specs[1].config = arch::ArrayConfig::square(8);  // heterogeneous on purpose
  Fleet fleet(std::move(specs));
  EXPECT_EQ(fleet.num_servers(), 3);

  Rng rng(31);
  auto weights = random_weights(rng, 16, 8);
  std::vector<std::future<serve::GemmResult>> futures;
  std::vector<gemm::Mat64> want;
  for (int i = 0; i < 24; ++i) {
    gemm::Mat32 a = gemm::random_matrix(rng, 2 + i % 3, 16, -20, 20);
    want.push_back(gemm::reference_gemm(a, *weights));
    futures.push_back(fleet.submit_gemm("tenant-" + std::to_string(i % 6),
                                        std::move(a), weights));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::GemmResult r = futures[i].get();
    EXPECT_EQ(gemm::first_mismatch(r.out, want[i]), "") << "request " << i;
  }
  fleet.shutdown();
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted, 24);
  EXPECT_EQ(stats.resolved_ok, 24);
  EXPECT_EQ(stats.resolved_err, 0);
  EXPECT_EQ(stats.resolve_double_sets, 0);
  std::int64_t placed = 0;
  for (const FleetServerSummary& s : stats.servers) placed += s.placed;
  EXPECT_EQ(placed, 24);
  std::int64_t tenant_submitted = 0;
  for (const auto& [tenant, book] : stats.tenants) {
    EXPECT_EQ(book.submitted, book.ok + book.err) << tenant;
    tenant_submitted += book.submitted;
  }
  EXPECT_EQ(tenant_submitted, 24);
}

TEST_F(FleetTest, SameTenantKeepsItsHomeServer) {
  // Locality is the point of the affinity router: one tenant's stream
  // lands on exactly one server when nothing is overloaded.
  Fleet fleet({small_spec(), small_spec(), small_spec(), small_spec()});
  Rng rng(33);
  auto weights = random_weights(rng, 16, 8);
  for (int i = 0; i < 12; ++i) {
    fleet
        .submit_gemm("one-tenant", gemm::random_matrix(rng, 2, 16, -10, 10),
                     weights)
        .get();
  }
  const FleetStats stats = fleet.stats();
  int servers_used = 0;
  for (const FleetServerSummary& s : stats.servers) {
    if (s.placed > 0) ++servers_used;
  }
  EXPECT_EQ(servers_used, 1);
}

TEST_F(FleetTest, KillServerFailsOverQueuedWorkWithoutLoss) {
  FleetOptions options;
  // Pin tenants to homes deterministically: never spill.
  options.spill_factor = kNeverSpill;
  Fleet fleet({small_spec(), small_spec()}, options);
  const std::string victim_tenant = tenant_homed_at(0, 2);
  const std::string other_tenant = tenant_homed_at(1, 2);

  // Stall the victim so its queue holds work, then crash it: everything
  // queued must fail over to the survivor and still serve.
  Rng rng(35);
  auto weights = random_weights(rng, 16, 8);
  auto parked = stall_and_park(fleet, 0, victim_tenant, rng, weights);
  std::vector<std::future<serve::GemmResult>> futures;
  std::vector<gemm::Mat64> want;
  for (int i = 0; i < 8; ++i) {
    gemm::Mat32 a = gemm::random_matrix(rng, 2, 16, -20, 20);
    want.push_back(gemm::reference_gemm(a, *weights));
    futures.push_back(fleet.submit_gemm(victim_tenant, std::move(a), weights));
  }
  fleet.kill_server(0);
  EXPECT_EQ(fleet.health(0), ServerHealth::kDead);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "request " << i << " lost in the failover";
    const serve::GemmResult r = futures[i].get();
    EXPECT_EQ(gemm::first_mismatch(r.out, want[i]), "") << "request " << i;
  }
  // The dead server stays dead to routing; the survivor serves new work.
  const serve::GemmResult after =
      fleet
          .submit_gemm(other_tenant, gemm::random_matrix(rng, 2, 16, -10, 10),
                       weights)
          .get();
  EXPECT_GT(after.cycles, 0);

  // The sacrificial park request is never lost either: served before the
  // worker parked, or failed over with the rest.
  EXPECT_GT(parked.get().cycles, 0);

  const FleetStats stats = fleet.stats();
  EXPECT_GE(stats.failovers, 1);
  EXPECT_EQ(stats.resolved_ok, 10);
  EXPECT_EQ(stats.resolved_err, 0);
  EXPECT_EQ(stats.resolve_double_sets, 0);
  ASSERT_EQ(stats.servers.size(), 2u);
  EXPECT_EQ(stats.servers[0].health, ServerHealth::kDead);
  // The victim's own books also closed: its unserved count is exactly
  // what failed over (never executed, so re-admission could not double).
  EXPECT_GE(stats.servers[0].stats.unserved, 1);
}

TEST_F(FleetTest, KillingEveryServerDeliversTypedUnavailable) {
  FleetOptions options;
  options.spill_factor = kNeverSpill;
  Fleet fleet({small_spec(), small_spec()}, options);
  Rng rng(37);
  auto weights = random_weights(rng, 16, 8);
  // Park BOTH workers so everything submitted below is still queued when
  // the servers die (the two sacrificial requests themselves resolve as a
  // value or as kUnavailable — counted below, never lost).
  auto parked0 = stall_and_park(fleet, 0, tenant_homed_at(0, 2), rng, weights);
  auto parked1 = stall_and_park(fleet, 1, tenant_homed_at(1, 2), rng, weights);
  std::vector<std::future<serve::GemmResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(fleet.submit_gemm(
        "doomed-" + std::to_string(i), gemm::random_matrix(rng, 2, 16, -10, 10),
        weights));
  }
  fleet.kill_server(0);
  fleet.kill_server(1);
  int unavailable = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready)
        << "request lost: promise never resolved";
    try {
      f.get();
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kUnavailable) << error_code_name(e.code());
      ++unavailable;
    }
  }
  EXPECT_EQ(unavailable, 6);  // nothing served, nothing lost, all typed
  int parked_ok = 0;
  for (auto* parked : {&parked0, &parked1}) {
    ASSERT_EQ(parked->wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    try {
      parked->get();
      ++parked_ok;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kUnavailable) << error_code_name(e.code());
    }
  }
  // And admission now refuses cleanly instead of hanging.
  try {
    fleet.submit_gemm("late", gemm::random_matrix(rng, 2, 16, -10, 10),
                      weights);
    FAIL() << "expected kUnavailable";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted, 8);
  EXPECT_EQ(stats.resolved_ok, parked_ok);
  EXPECT_EQ(stats.resolved_err, 8 - parked_ok);
  EXPECT_EQ(stats.resolve_double_sets, 0);
}

TEST_F(FleetTest, HedgingUnsticksAStalledServerFirstResultWins) {
  FleetOptions options;
  options.spill_factor = kNeverSpill;
  options.hedge_ms = 10.0;
  Fleet fleet({small_spec(), small_spec()}, options);
  const std::string stuck_tenant = tenant_homed_at(0, 2);

  Rng rng(41);
  auto weights = random_weights(rng, 16, 8);
  auto parked = stall_and_park(fleet, 0, stuck_tenant, rng, weights);
  std::vector<std::future<serve::GemmResult>> futures;
  std::vector<gemm::Mat64> want;
  for (int i = 0; i < 4; ++i) {
    gemm::Mat32 a = gemm::random_matrix(rng, 2, 16, -20, 20);
    want.push_back(gemm::reference_gemm(a, *weights));
    futures.push_back(fleet.submit_gemm(stuck_tenant, std::move(a), weights));
  }
  // The hedges fire after ~hedge_ms and land on the healthy server; the
  // stalled originals are still queued when the results come back.
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "hedge never rescued request " << i;
    const serve::GemmResult r = futures[i].get();
    EXPECT_EQ(gemm::first_mismatch(r.out, want[i]), "") << "request " << i;
  }
  {
    const FleetStats stats = fleet.stats();
    EXPECT_GE(stats.hedges, 1);
    EXPECT_GE(stats.hedge_wins, 1);
  }
  // Un-stall: the loser halves of the hedged pairs now execute, lose the
  // CAS, and are counted — not delivered twice.  The sacrificial park
  // request drains here too if the worker never picked it up.
  fleet.stall_server(0, false);
  EXPECT_GT(parked.get().cycles, 0);
  fleet.shutdown();
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted, 5);
  EXPECT_EQ(stats.resolved_ok, 5);
  EXPECT_EQ(stats.resolved_err, 0);
  EXPECT_EQ(stats.duplicate_results, stats.hedge_wins);
  EXPECT_EQ(stats.resolve_double_sets, 0);
  for (const auto& [tenant, book] : stats.tenants) {
    EXPECT_EQ(book.submitted, book.ok + book.err) << tenant;
  }
}

TEST_F(FleetTest, DrainThenRestartIsALosslessRollingRestart) {
  FleetOptions options;
  options.spill_factor = kNeverSpill;
  Fleet fleet({small_spec(), small_spec()}, options);
  const std::string tenant = tenant_homed_at(0, 2);

  Rng rng(43);
  auto weights = random_weights(rng, 16, 8);
  std::vector<std::future<serve::GemmResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(fleet.submit_gemm(
        tenant, gemm::random_matrix(rng, 2, 16, -10, 10), weights));
  }
  // Drain the home mid-stream: in-queue work either flushes (served by
  // the draining server) or fails over — nothing is lost either way.
  fleet.drain_server(0, /*flush_timeout_ms=*/2000.0);
  EXPECT_EQ(fleet.health(0), ServerHealth::kDead);
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    EXPECT_GT(f.get().cycles, 0);
  }
  // Second half of the rolling restart: a fresh server in the slot.
  fleet.restart_server(0);
  EXPECT_EQ(fleet.health(0), ServerHealth::kHealthy);
  EXPECT_GT(fleet
                .submit_gemm(tenant, gemm::random_matrix(rng, 2, 16, -10, 10),
                             weights)
                .get()
                .cycles,
            0);
  fleet.shutdown();
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted, 9);
  EXPECT_EQ(stats.resolved_ok, 9);
  EXPECT_EQ(stats.resolved_err, 0);
  EXPECT_EQ(stats.resolve_double_sets, 0);
  // Restarting a live server is refused loudly.
  EXPECT_THROW(fleet.restart_server(0), Error);
}

TEST_F(FleetTest, ProberMarksAStalledServerUnhealthyThenRecoversIt) {
  FleetOptions options;
  options.spill_factor = kNeverSpill;
  options.probe_interval_ms = 2.0;
  Fleet fleet({small_spec(), small_spec()}, options);

  fleet.stall_server(0);
  // The prober needs kUnhealthyAfter failed probes, each up to
  // kProbeTimeoutMs: well under this deadline.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (fleet.health(0) != ServerHealth::kUnhealthy &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(2));
  }
  ASSERT_EQ(fleet.health(0), ServerHealth::kUnhealthy);
  EXPECT_EQ(fleet.health(1), ServerHealth::kHealthy);

  // While unhealthy the slot takes no placements — even its home tenant
  // is rerouted to the healthy server.
  Rng rng(47);
  auto weights = random_weights(rng, 16, 8);
  const std::string tenant = tenant_homed_at(0, 2);
  const std::int64_t placed_before = fleet.stats().servers[0].placed;
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(fleet
                  .submit_gemm(tenant, gemm::random_matrix(rng, 2, 16, -10, 10),
                               weights)
                  .get()
                  .cycles,
              0);
  }
  EXPECT_EQ(fleet.stats().servers[0].placed, placed_before);

  // Un-stall: consecutive probe successes re-admit the slot.
  fleet.stall_server(0, false);
  while (fleet.health(0) != ServerHealth::kHealthy &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(2));
  }
  EXPECT_EQ(fleet.health(0), ServerHealth::kHealthy);
  const FleetStats stats = fleet.stats();
  EXPECT_GE(stats.probes_sent, 4);
  EXPECT_GE(stats.probe_failures, 2);
  EXPECT_GE(stats.unhealthy_transitions, 1);
  EXPECT_GE(stats.recoveries, 1);
}

TEST(FleetProberLatchTest, FailureAndSuccessStreaksFlipHealth) {
  // The prober's per-server state on a synthetic probe trace, updated as
  // the prober does: update(!ok, ok), on = unhealthy.  kUnhealthyAfter = 3
  // consecutive failures pull a server, kHealthyAfter = 2 consecutive
  // successes re-admit it; any opposite result starts the pending streak
  // over.
  util::Latch unhealthy(kUnhealthyAfter, kHealthyAfter);
  std::vector<bool> trace;
  for (const bool ok : {false, false, true, false, false, false, true, false,
                        true, true, false}) {
    trace.push_back(unhealthy.update(!ok, ok));
  }
  EXPECT_EQ(trace, (std::vector<bool>{false, false, false, false, false, true,
                                      true, true, true, false, false}));
  // restart_server clears the history: a fresh server needs the full
  // failure streak again.
  unhealthy.update(true, false);
  unhealthy.update(true, false);
  unhealthy.reset();
  EXPECT_FALSE(unhealthy.update(true, false));
  EXPECT_FALSE(unhealthy.update(true, false));
  EXPECT_TRUE(unhealthy.update(true, false));
}

TEST_F(FleetTest, OverloadComposesRejectAcrossTheFleet) {
  // One tiny stalled server: its queue fills, per-server admission
  // rejects, and with nothing else routable the fleet-level "reject"
  // policy surfaces a typed kOverloaded.
  FleetServerSpec spec = small_spec();
  spec.options.queue_capacity = 2;
  FleetOptions options;
  options.overload_policy = "reject";
  Fleet fleet({spec}, options);
  Rng rng(53);
  auto weights = random_weights(rng, 16, 8);
  auto parked = stall_and_park(fleet, 0, "bursty", rng, weights);

  std::vector<std::future<serve::GemmResult>> accepted;
  int rejected = 0;
  for (int i = 0; i < 6; ++i) {
    try {
      accepted.push_back(fleet.submit_gemm(
          "bursty", gemm::random_matrix(rng, 2, 16, -10, 10), weights));
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
      ++rejected;
    }
  }
  // Queue capacity 2, minus the slot the sacrificial park request holds if
  // the worker never picked it up: 1-2 accepted, the rest shed typed.
  EXPECT_GE(rejected, 4);
  EXPECT_LE(rejected, 5);
  EXPECT_EQ(static_cast<int>(accepted.size()), 6 - rejected);
  fleet.stall_server(0, false);
  for (auto& f : accepted) EXPECT_GT(f.get().cycles, 0);
  EXPECT_GT(parked.get().cycles, 0);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::int64_t>(accepted.size()) + 1);
  EXPECT_EQ(stats.resolved_ok, stats.submitted);
}

TEST_F(FleetTest, OverloadComposesBlockUntilSpaceFrees) {
  FleetServerSpec spec = small_spec();
  spec.options.queue_capacity = 2;
  FleetOptions options;
  options.overload_policy = "block";
  Fleet fleet({spec}, options);
  fleet.stall_server(0);

  Rng rng(59);
  auto weights = random_weights(rng, 16, 8);
  std::vector<std::future<serve::GemmResult>> futures;
  std::atomic<bool> all_submitted{false};
  std::thread client([&] {
    for (int i = 0; i < 6; ++i) {
      futures.push_back(fleet.submit_gemm(
          "patient", gemm::random_matrix(rng, 2, 16, -10, 10), weights));
    }
    all_submitted.store(true);
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(all_submitted.load());  // blocked on the full fleet
  fleet.stall_server(0, false);        // capacity frees as the queue drains
  client.join();
  EXPECT_TRUE(all_submitted.load());
  for (auto& f : futures) EXPECT_GT(f.get().cycles, 0);
  EXPECT_EQ(fleet.stats().resolved_ok, 6);
}

TEST_F(FleetTest, RoutesWholeInferencesAndFailsThemOver) {
  FleetOptions options;
  options.spill_factor = kNeverSpill;
  Fleet fleet({small_spec(), small_spec()}, options);
  const std::string tenant = tenant_homed_at(0, 2);
  auto model = std::make_shared<nn::Model>(nn::mobilenet_v1());

  // Healthy path first: the report arrives whole.
  const serve::InferenceResult ok = fleet.submit_inference(tenant, model).get();
  EXPECT_EQ(ok.report.layers.size(), model->layers.size());

  // Now strand one on a stalled (and parked) home and crash it: the
  // inference is re-admitted to the survivor and still delivers exactly
  // once.
  Rng rng(61);
  auto weights = random_weights(rng, 16, 8);
  auto parked = stall_and_park(fleet, 0, tenant, rng, weights);
  auto future = fleet.submit_inference(tenant, model);
  fleet.kill_server(0);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "inference lost in the failover";
  const serve::InferenceResult failed_over = future.get();
  EXPECT_EQ(failed_over.report.layers.size(), model->layers.size());
  EXPECT_GT(parked.get().cycles, 0);  // served pre-park or failed over
  const FleetStats stats = fleet.stats();
  EXPECT_GE(stats.failovers, 1);
  EXPECT_EQ(stats.resolved_ok, 3);
  EXPECT_EQ(stats.resolved_err, 0);
}

TEST_F(FleetTest, MalformedRequestsThrowInvalidArgumentAndBookNothing) {
  // A request every server refuses as malformed is the client's error, not
  // a dead fleet: the server's kInvalidArgument comes back, not
  // kUnavailable, and no ticket is booked.
  Fleet fleet({small_spec(), small_spec()});
  Rng rng(67);
  auto weights = random_weights(rng, 16, 8);
  const auto expect_invalid = [](const std::string& what, const auto& submit) {
    try {
      submit();
      ADD_FAILURE() << what << ": expected kInvalidArgument";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument)
          << what << ": " << error_code_name(e.code());
    }
  };
  expect_invalid("inner-dimension mismatch", [&] {
    fleet.submit_gemm("t", gemm::random_matrix(rng, 2, 12, -5, 5), weights);
  });
  expect_invalid("unknown backend", [&] {
    fleet.submit_gemm("t", gemm::random_matrix(rng, 2, 16, -5, 5), weights,
                      {.backend = "rtl"});
  });
  expect_invalid("unsupported mode", [&] {
    fleet.submit_gemm("t", gemm::random_matrix(rng, 2, 16, -5, 5), weights,
                      {.k = 3});
  });
  expect_invalid("empty model", [&] {
    fleet.submit_inference("t", std::make_shared<nn::Model>());
  });
  expect_invalid("NaN admission timeout", [&] {
    fleet.submit_gemm(
        "t", gemm::random_matrix(rng, 2, 16, -5, 5), weights,
        {.admission_timeout_ms = std::numeric_limits<double>::quiet_NaN()});
  });
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted, 0);
  EXPECT_EQ(stats.resolved(), 0);
  EXPECT_EQ(stats.rerouted_overload, 0);
}

TEST_F(FleetTest, HeterogeneousFleetPlacesAModeOnlySomeServersSupport) {
  // Slot 1 supports modes {1, 2} only.  For a tenant homed there, k = 4 is
  // invalid at the home but well-formed for the fleet: placement moves on
  // to the slot that supports it, every time.
  std::vector<FleetServerSpec> specs{small_spec(), small_spec()};
  specs[1].config.supported_k = {1, 2};
  FleetOptions options;
  options.spill_factor = kNeverSpill;
  Fleet fleet(std::move(specs), options);
  const std::string tenant = tenant_homed_at(1, 2);

  Rng rng(71);
  auto weights = random_weights(rng, 16, 8);
  for (int i = 0; i < 6; ++i) {
    gemm::Mat32 a = gemm::random_matrix(rng, 2, 16, -20, 20);
    const gemm::Mat64 want = gemm::reference_gemm(a, *weights);
    const serve::GemmResult r =
        fleet.submit_gemm(tenant, std::move(a), weights, {.k = 4}).get();
    EXPECT_EQ(r.k, 4);
    EXPECT_EQ(gemm::first_mismatch(r.out, want), "") << "request " << i;
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.servers[0].placed, 6);
  EXPECT_EQ(stats.servers[1].placed, 0);
  EXPECT_EQ(stats.rerouted_overload, 0);  // invalid there, not overloaded
  EXPECT_EQ(stats.resolved_ok, 6);
}

// The fleet's one ticket path branches on the request kind in three
// places: the Server submit it calls, the "degrade" policy (a GEMM retries
// cost-only, an inference waits) and the hedge scan (GEMMs only).  These
// pin the inference side of the last two, and the "reject" policy for it.

// A fleet of one stalled server whose one-request deque is already full:
// every further placement is rejected as overloaded until resume.
class FleetFullServerTest : public FleetTest {
 protected:
  std::unique_ptr<Fleet> full_fleet(const std::string& policy) {
    FleetServerSpec spec = small_spec();
    spec.options.queue_capacity = 1;
    FleetOptions options;
    options.overload_policy = policy;
    auto fleet = std::make_unique<Fleet>(
        std::vector<FleetServerSpec>{spec}, options);
    fleet->stall_server(0);
    filler_ = fleet->submit_gemm(
        "filler", gemm::random_matrix(rng_, 2, 16, -5, 5), weights_);
    return fleet;
  }

  Rng rng_{73};
  std::shared_ptr<gemm::Mat32> weights_ = random_weights(rng_, 16, 8);
  std::shared_ptr<nn::Model> model_ =
      std::make_shared<nn::Model>(nn::mobilenet_v1());
  std::future<serve::GemmResult> filler_;
};

TEST_F(FleetFullServerTest, RejectPolicyShedsAnInferenceAndBooksNothing) {
  auto fleet = full_fleet("reject");
  const FleetStats before = fleet->stats();
  try {
    fleet->submit_inference("reader", model_);
    ADD_FAILURE() << "expected kOverloaded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverloaded) << error_code_name(e.code());
  }
  const FleetStats after = fleet->stats();
  EXPECT_EQ(after.submitted, before.submitted);
  EXPECT_EQ(after.resolved(), before.resolved());
  EXPECT_EQ(after.degraded, 0);
  const auto book = after.tenants.find("reader");
  EXPECT_TRUE(book == after.tenants.end() || book->second.submitted == 0);
  fleet->stall_server(0, false);
  EXPECT_GT(filler_.get().cycles, 0);
}

TEST_F(FleetFullServerTest, DegradePolicyMakesAnInferenceWaitLikeBlock) {
  auto fleet = full_fleet("degrade");
  std::future<serve::InferenceResult> future;
  std::atomic<bool> admitted{false};
  std::thread client([&] {
    future = fleet->submit_inference("reader", model_);
    admitted.store(true);
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(admitted.load());  // waiting, neither shed nor degraded
  fleet->stall_server(0, false);
  client.join();
  ASSERT_TRUE(admitted.load());
  EXPECT_EQ(future.get().report.layers.size(), model_->layers.size());
  EXPECT_GT(filler_.get().cycles, 0);
  const FleetStats stats = fleet->stats();
  EXPECT_EQ(stats.degraded, 0);
  EXPECT_EQ(stats.resolved_ok, 2);
}

TEST_F(FleetFullServerTest, AdmissionTimeoutBeyondTheClockWaitsForSpace) {
  for (const double timeout_ms : kBeyondTheClockMs) {
    auto fleet = full_fleet("block");
    const gemm::Mat32 a = gemm::random_matrix(rng_, 2, 16, -5, 5);
    std::future<serve::GemmResult> future;
    std::exception_ptr error;
    std::atomic<bool> returned{false};
    std::thread client([&] {
      try {
        future = fleet->submit_gemm("patient", a, weights_,
                                    {.admission_timeout_ms = timeout_ms});
      } catch (...) {
        error = std::current_exception();
      }
      returned.store(true);
    });
    std::this_thread::sleep_for(milliseconds(50));
    EXPECT_FALSE(returned.load()) << timeout_ms << " ms did not wait";
    fleet->stall_server(0, false);  // capacity frees as the queue drains
    client.join();
    EXPECT_FALSE(error) << timeout_ms << " ms: submit threw";
    if (!error) EXPECT_GT(future.get().cycles, 0);
    EXPECT_GT(filler_.get().cycles, 0);
  }
}

TEST_F(FleetTest, InferenceIsNeverHedged) {
  FleetOptions options;
  options.spill_factor = kNeverSpill;
  options.hedge_ms = 10.0;
  Fleet fleet({small_spec(), small_spec()}, options);
  const std::string tenant = tenant_homed_at(0, 2);
  auto model = std::make_shared<nn::Model>(nn::mobilenet_v1());

  fleet.stall_server(0);
  auto future = fleet.submit_inference(tenant, model);
  // Three hedge periods stuck on the stalled home: a GEMM would have been
  // duplicated to server 1 by now; an inference is never duplicated.
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_EQ(future.wait_for(milliseconds(0)), std::future_status::timeout);
  EXPECT_EQ(fleet.stats().hedges, 0);

  fleet.stall_server(0, false);
  EXPECT_EQ(future.get().report.layers.size(), model->layers.size());
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.hedges, 0);
  EXPECT_EQ(stats.servers[1].placed, 0);
  EXPECT_EQ(stats.resolved_ok, 1);
}

// The tentpole gate, repeated under sanitizers by CI: 4 servers with
// chaos engines, autoscaling and stealing dispatch, 4 concurrent clients;
// one server crashes and another stalls (then recovers) mid-run.  Books
// must balance EXACTLY — every submitted ticket resolves exactly once,
// delivered products are bit-identical to reference_gemm, and the only
// error codes are the lifecycle's own.
TEST_F(FleetTest, FleetChaosStressLosesNothingAndDoubleServesNothing) {
  FleetServerSpec spec;
  spec.config = arch::ArrayConfig::square(16);
  spec.options.num_shards = 2;
  spec.options.min_shards = 1;
  spec.options.max_shards = 2;
  spec.options.max_batch = 4;
  spec.options.backend = "chaos";
  spec.options.chaos.throw_every_n = 9;
  spec.options.max_retries = 3;
  FleetOptions options;
  options.router = "affinity";
  options.hedge_ms = 25.0;
  options.probe_interval_ms = 5.0;
  Fleet fleet({spec, spec, spec, spec}, options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  struct Submitted {
    std::future<serve::GemmResult> future;
    gemm::Mat64 want;
    bool check_output = false;
  };
  std::vector<std::vector<Submitted>> per_client(kClients);
  std::atomic<int> refused{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(500 + static_cast<std::uint64_t>(c));
      auto weights = random_weights(rng, 16, 8);
      for (int i = 0; i < kPerClient; ++i) {
        serve::SubmitOptions submit;
        submit.want_output = (i % 3 == 0);
        if (i % 7 == 0) submit.deadline_ms = 250.0;
        gemm::Mat32 a = gemm::random_matrix(rng, 2 + i % 3, 16, -20, 20);
        Submitted entry;
        entry.check_output = submit.want_output;
        if (submit.want_output) entry.want = gemm::reference_gemm(a, *weights);
        try {
          entry.future = fleet.submit_gemm(
              "client-" + std::to_string(c) + "-" + std::to_string(i % 2),
              std::move(a), weights, submit);
          per_client[static_cast<std::size_t>(c)].push_back(std::move(entry));
        } catch (const Error& e) {
          // Admission refusals are loud and typed, never silent drops.
          EXPECT_TRUE(e.code() == ErrorCode::kOverloaded ||
                      e.code() == ErrorCode::kUnavailable)
              << error_code_name(e.code());
          refused.fetch_add(1);
        }
        if (i % 8 == 7) std::this_thread::sleep_for(milliseconds(1));
      }
    });
  }
  // Fire the failpoints while the clients are mid-burst.
  std::this_thread::sleep_for(milliseconds(10));
  fleet.kill_server(1);
  fleet.stall_server(2);
  std::this_thread::sleep_for(milliseconds(40));
  fleet.stall_server(2, false);
  for (std::thread& t : clients) t.join();

  int served = 0;
  int failed = 0;
  for (auto& entries : per_client) {
    for (Submitted& entry : entries) {
      ASSERT_EQ(entry.future.wait_for(std::chrono::seconds(120)),
                std::future_status::ready)
          << "request lost: its promise never resolved";
      try {
        const serve::GemmResult r = entry.future.get();
        EXPECT_GT(r.cycles, 0);
        if (entry.check_output && !r.degraded) {
          EXPECT_EQ(gemm::first_mismatch(r.out, entry.want), "");
        }
        ++served;
      } catch (const Error& e) {
        EXPECT_TRUE(e.code() == ErrorCode::kEngineFault ||
                    e.code() == ErrorCode::kDeadlineExceeded ||
                    e.code() == ErrorCode::kUnavailable)
            << error_code_name(e.code());
        ++failed;
      }
    }
  }
  fleet.shutdown();

  const FleetStats stats = fleet.stats();
  // THE no-loss identity: every accepted ticket resolved exactly once.
  EXPECT_EQ(stats.submitted + refused.load(), kClients * kPerClient);
  EXPECT_EQ(served + failed, stats.submitted);
  EXPECT_EQ(stats.resolved_ok, served);
  EXPECT_EQ(stats.resolved_err, failed);
  EXPECT_EQ(stats.resolve_double_sets, 0);
  EXPECT_GE(served, 1);
  // Per-tenant books close too (probe traffic is not ticketed).
  for (const auto& [tenant, book] : stats.tenants) {
    EXPECT_EQ(book.submitted, book.ok + book.err) << tenant;
  }
  // The killed server's own books also balanced: nothing vanished inside.
  for (const FleetServerSummary& s : stats.servers) {
    EXPECT_EQ(s.stats.submitted, s.stats.completed) << "server " << s.server;
    EXPECT_EQ(s.stats.promise_double_sets, 0) << "server " << s.server;
  }
  EXPECT_EQ(stats.servers[1].health, ServerHealth::kDead);
}

}  // namespace
}  // namespace af::fleet
