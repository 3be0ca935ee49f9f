// Multi-tenant serving layer: queue semantics, batch formation, same-weight
// fusion, served inference, tenant/shard accounting, and a concurrent
// multi-client stress run (the CI sanitizer job repeats this binary to
// shake out ordering-dependent races).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/clocking.h"
#include "arch/optimizer.h"
#include "gemm/reference.h"
#include "mem/tile_scheduler.h"
#include "nn/models.h"
#include "nn/runner.h"
#include "nn/transformer.h"
#include "serve/dispatcher.h"
#include "serve/queue.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/transformer_traffic.h"
#include "util/rng.h"

namespace af::serve {
namespace {

Request make_gemm_request(std::uint64_t id, int k) {
  Request r;
  r.kind = RequestKind::kGemm;
  r.id = id;
  r.decided_k = k;
  return r;
}

Request make_tenant_request(std::uint64_t id, const std::string& tenant,
                            std::int64_t drr_cost) {
  Request r;
  r.kind = RequestKind::kGemm;
  r.id = id;
  r.tenant = tenant;
  r.drr_cost = drr_cost;
  return r;
}

TEST(RequestQueueTest, FifoOrderAndBoundedCapacity) {
  RequestQueue q(2);
  ASSERT_TRUE(q.push(make_gemm_request(0, 1)));
  ASSERT_TRUE(q.push(make_gemm_request(1, 1)));
  EXPECT_EQ(q.size(), 2u);

  // A third push blocks until a slot frees up.
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    q.push(make_gemm_request(2, 1));
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());

  auto r0 = q.try_pop();
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->id, 0u);
  producer.join();
  EXPECT_TRUE(third_pushed.load());

  EXPECT_EQ(q.try_pop()->id, 1u);
  EXPECT_EQ(q.try_pop()->id, 2u);
}

TEST(RequestQueueTest, CloseDrainsThenSignalsShutdown) {
  RequestQueue q(8);
  ASSERT_TRUE(q.push(make_gemm_request(0, 1)));
  q.close();
  EXPECT_FALSE(q.push(make_gemm_request(1, 1)));  // admission refused
  ASSERT_TRUE(q.try_pop().has_value());           // accepted work drains
  EXPECT_FALSE(q.try_pop().has_value());          // then nothing is left
}

TEST(RequestQueueTest, PopIfTakesFirstMatchLeavingOthersInPlace) {
  RequestQueue q(8);
  ASSERT_TRUE(q.push(make_gemm_request(0, 1)));
  ASSERT_TRUE(q.push(make_gemm_request(1, 2)));
  ASSERT_TRUE(q.push(make_gemm_request(2, 1)));

  auto taken =
      q.pop_all_if([](const Request& r) { return r.decided_k == 2; }, 1);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].id, 1u);
  EXPECT_TRUE(
      q.pop_all_if([](const Request& r) { return r.decided_k == 4; }, 1)
          .empty());
  EXPECT_EQ(q.try_pop()->id, 0u);
  EXPECT_EQ(q.try_pop()->id, 2u);
}

TEST(AssembleBatchTest, CoalescesSameModeAcrossIncompatibleMiddle) {
  RequestQueue q(8);
  ASSERT_TRUE(q.push(make_gemm_request(0, 1)));
  ASSERT_TRUE(q.push(make_gemm_request(1, 2)));
  ASSERT_TRUE(q.push(make_gemm_request(2, 1)));
  ASSERT_TRUE(q.push(make_gemm_request(3, 1)));
  q.close();

  const Batch b1 = assemble_batch(q.try_pop().value(), q, /*max_batch=*/8);
  EXPECT_EQ(b1.k, 1);
  ASSERT_EQ(b1.requests.size(), 3u);  // ids 0, 2, 3 — id 1 kept its place
  EXPECT_EQ(b1.requests[0].id, 0u);
  EXPECT_EQ(b1.requests[1].id, 2u);
  EXPECT_EQ(b1.requests[2].id, 3u);

  const Batch b2 = assemble_batch(q.try_pop().value(), q, 8);
  EXPECT_EQ(b2.k, 2);
  EXPECT_EQ(b2.requests.size(), 1u);
  EXPECT_FALSE(q.try_pop().has_value());
}

// ---- deficit round-robin fairness (serve/queue.h) -------------------------

TEST(RequestQueueTest, DrrInterleavesTenantsByCost) {
  // Tenant "whale" floods requests costing a full quantum each; tenant
  // "minnow" queues requests at 1/4 quantum.  DRR must give both the same
  // cost share: each whale request is matched by ~4 minnow requests, so
  // the minnow is never starved behind the flood (the old FIFO-head
  // scheduler would have served all whales first).
  constexpr std::int64_t kQuantum = 1000;
  RequestQueue q(64, kQuantum);
  std::uint64_t id = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.push(make_tenant_request(id++, "whale", kQuantum)));
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.push(make_tenant_request(id++, "minnow", kQuantum / 4)));
  }
  q.close();

  std::vector<std::string> order;
  while (auto r = q.try_pop()) order.push_back(r->tenant);
  ASSERT_EQ(order.size(), 11u);
  // After any whale request, the next whale needs a fresh quantum — and
  // the minnow's backlog absorbs the intervening rounds — so whales are
  // separated by minnow service while both are backlogged.
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    if (order[i] == "whale" && i + 1 < order.size() && order[i + 1] == "whale") {
      // Two adjacent whales are only legal once the minnow backlog drained.
      for (std::size_t j = i + 1; j < order.size(); ++j) {
        EXPECT_EQ(order[j], "whale") << "whale burst before minnow drained";
      }
      break;
    }
  }
  // The first half of the schedule must already contain minnow traffic.
  const auto first_minnow =
      std::find(order.begin(), order.end(), "minnow") - order.begin();
  EXPECT_LT(first_minnow, 2) << "minnow starved behind the whale flood";
}

TEST(RequestQueueTest, DrrWithinTenantStaysFifo) {
  RequestQueue q(16, /*quantum=*/100);
  ASSERT_TRUE(q.push(make_tenant_request(0, "a", 10)));
  ASSERT_TRUE(q.push(make_tenant_request(1, "a", 10)));
  ASSERT_TRUE(q.push(make_tenant_request(2, "a", 10)));
  q.close();
  EXPECT_EQ(q.try_pop()->id, 0u);
  EXPECT_EQ(q.try_pop()->id, 1u);
  EXPECT_EQ(q.try_pop()->id, 2u);
}

TEST(RequestQueueTest, PopIfChargesTheRidersOwnTenant) {
  RequestQueue q(16, /*quantum=*/100);
  ASSERT_TRUE(q.push(make_tenant_request(0, "a", 10)));
  ASSERT_TRUE(q.push(make_tenant_request(1, "b", 60)));
  // Coalescing "b"'s request charges b's deficit (negative now — it
  // borrowed against future rounds), not a's.
  const auto is_b = [](const Request& r) { return r.tenant == "b"; };
  auto taken = q.pop_all_if(is_b, 1);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].id, 1u);
  EXPECT_EQ(q.deficit("a"), 0);
  // b went empty and retired: DRR forgets non-backlogged tenants, debt
  // included.
  EXPECT_EQ(q.deficit("b"), 0);
  ASSERT_TRUE(q.push(make_tenant_request(2, "b", 60)));
  ASSERT_EQ(q.pop_all_if(is_b, 1).size(), 1u);
  EXPECT_EQ(q.deficit("b"), 0);  // retired again once empty
}

TEST(RequestQueueTest, PopAllIfSingleSweepTakesSameSetAsRepeatedPopIf) {
  // One sweep of 3 must take exactly the requests (and in exactly the
  // order) that three sweeps of 1 take, with the same deficit charges —
  // two identically filled queues, drained both ways.
  const auto fill = [](RequestQueue& q) {
    std::uint64_t id = 0;
    for (const auto& [tenant, k] :
         std::vector<std::pair<std::string, int>>{{"a", 1},
                                                  {"b", 2},
                                                  {"a", 2},
                                                  {"c", 1},
                                                  {"b", 1},
                                                  {"a", 1},
                                                  {"c", 2}}) {
      Request r = make_tenant_request(id++, tenant, 10);
      r.decided_k = k;
      ASSERT_TRUE(q.push(std::move(r)));
    }
  };
  RequestQueue swept(16, 100), looped(16, 100);
  fill(swept);
  fill(looped);
  const auto is_k1 = [](const Request& r) { return r.decided_k == 1; };

  std::vector<std::uint64_t> swept_ids;
  for (Request& r : swept.pop_all_if(is_k1, 3)) swept_ids.push_back(r.id);
  std::vector<std::uint64_t> looped_ids;
  for (int i = 0; i < 3; ++i) {
    std::vector<Request> r = looped.pop_all_if(is_k1, 1);
    ASSERT_EQ(r.size(), 1u);
    looped_ids.push_back(r[0].id);
  }
  EXPECT_EQ(swept_ids, looped_ids);
  for (const std::string& tenant : {"a", "b", "c"}) {
    EXPECT_EQ(swept.deficit(tenant), looped.deficit(tenant)) << tenant;
  }
  EXPECT_EQ(swept.size(), looped.size());
}

TEST(AssembleBatchTest, OnePassCoalescingPinsBatchCompositionAndFusedRuns) {
  // Regression pin for the single-sweep bucketing: a canned mode pattern
  // must form exactly the same batches (count = dispatches = fused-run
  // upper bound) the per-rider rescan produced.
  RequestQueue q(16);
  const std::vector<int> modes = {1, 1, 2, 1, 2, 2, 1, 1, 2, 1};
  for (std::size_t i = 0; i < modes.size(); ++i) {
    ASSERT_TRUE(q.push(make_gemm_request(i, modes[i])));
  }
  q.close();

  const Batch b1 = assemble_batch(q.try_pop().value(), q, /*max_batch=*/8);
  EXPECT_EQ(b1.k, 1);
  std::vector<std::uint64_t> ids1;
  for (const Request& r : b1.requests) ids1.push_back(r.id);
  EXPECT_EQ(ids1, (std::vector<std::uint64_t>{0, 1, 3, 6, 7, 9}));

  const Batch b2 = assemble_batch(q.try_pop().value(), q, 8);
  EXPECT_EQ(b2.k, 2);
  std::vector<std::uint64_t> ids2;
  for (const Request& r : b2.requests) ids2.push_back(r.id);
  EXPECT_EQ(ids2, (std::vector<std::uint64_t>{2, 4, 5, 8}));

  // Two dispatches for ten requests: the whole backlog coalesced into one
  // batch per (mode) bucket.
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(AssembleBatchTest, MaxBatchOneDisablesCoalescing) {
  RequestQueue q(8);
  ASSERT_TRUE(q.push(make_gemm_request(0, 1)));
  ASSERT_TRUE(q.push(make_gemm_request(1, 1)));
  q.close();
  EXPECT_EQ(assemble_batch(q.try_pop().value(), q, /*max_batch=*/1)
                .requests.size(),
            1u);
  EXPECT_EQ(assemble_batch(q.try_pop().value(), q, 1).requests.size(), 1u);
}

// ---- dispatch layer (serve/dispatcher.h) ----------------------------------

// `count` distinct tenant names whose affinity home is `home` on a
// `homes`-slot dispatcher (probed through the exposed routing hash, so the
// tests cannot rot if the hash changes).
std::vector<std::string> tenants_homed_at(int home, int homes, int count = 1) {
  std::vector<std::string> out;
  for (int i = 0; static_cast<int>(out.size()) < count; ++i) {
    const Request probe =
        make_tenant_request(0, "tenant-" + std::to_string(i), 1);
    if (affinity_hash(probe) % static_cast<std::size_t>(homes) ==
        static_cast<std::size_t>(home)) {
      out.push_back(probe.tenant);
    }
  }
  return out;
}

DispatcherOptions two_slots() {
  DispatcherOptions opts;
  opts.max_shards = 2;
  opts.live_shards = 2;
  return opts;
}

TEST(DispatcherTest, StartsWithTheLivePrefixAndNothingQueued) {
  DispatcherOptions opts = two_slots();
  const Dispatcher d(opts);
  EXPECT_EQ(d.live_shards(), 2);
  EXPECT_EQ(d.depth(), 0u);
  EXPECT_FALSE(d.paused());
  opts.live_shards = 3;  // beyond the slot space
  EXPECT_THROW(Dispatcher{opts}, Error);
}

TEST(DispatcherTest, StealingRoutesByAffinityAndStealsWholeRounds) {
  Dispatcher d(two_slots());
  // Two tenants whose affinity hashes land on DIFFERENT homes.
  const std::string home0 = tenants_homed_at(0, 2)[0];
  const std::string home1 = tenants_homed_at(1, 2)[0];
  // home1's stream runs in a DIFFERENT pipeline mode, so it can neither
  // join home0's batch nor ride its top-up — it must be STOLEN whole.
  for (int i = 0; i < 3; ++i) {
    Request r0 = make_tenant_request(i, home0, 1);
    r0.decided_k = 1;
    ASSERT_TRUE(d.submit(std::move(r0)));
    Request r1 = make_tenant_request(10 + i, home1, 1);
    r1.decided_k = 2;
    ASSERT_TRUE(d.submit(std::move(r1)));
  }
  EXPECT_EQ(d.depth(), 6u);

  // Shard 0's own deque holds home0's whole stream — one batch.
  auto own = d.next_batch(0);
  ASSERT_TRUE(own.has_value());
  EXPECT_EQ(own->requests.size(), 3u);
  for (const Request& r : own->requests) EXPECT_EQ(r.tenant, home0);

  // Shard 0 is dry now; it must steal home1's entire round from shard 1.
  auto stolen = d.next_batch(0);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->requests.size(), 3u);
  for (const Request& r : stolen->requests) EXPECT_EQ(r.tenant, home1);
  EXPECT_EQ(d.steals(), 1);
  EXPECT_EQ(d.depth(), 0u);
}

TEST(DispatcherTest, ShortRoundsTopUpWithCompatibleRidersAcrossDeques) {
  Dispatcher d(two_slots());
  const std::string home0 = tenants_homed_at(0, 2)[0];
  const std::string home1 = tenants_homed_at(1, 2)[0];
  // Same mode everywhere: home1's stream is eligible to ride home0's
  // batch, so a single dispatch coalesces BOTH deques — partitioning must
  // not fragment batches one pooled queue would have formed.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(d.submit(make_tenant_request(i, home0, 1)));
    ASSERT_TRUE(d.submit(make_tenant_request(10 + i, home1, 1)));
  }
  auto batch = d.next_batch(0);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 6u);
  EXPECT_EQ(d.depth(), 0u);
  EXPECT_EQ(d.steals(), 0);  // riders are coalescing, not steals
}

// A request on weight matrix `w` projecting 1000 DRAM bytes alone and 400
// when it fuses with a same-weight member already aboard.
Request same_weight_request(std::uint64_t id, const std::string& tenant,
                            std::shared_ptr<const gemm::Mat32> w) {
  Request r = make_tenant_request(id, tenant, 1);
  r.b = std::move(w);
  r.drr_bytes = 1000;
  r.drr_rider_bytes = 400;
  return r;
}

TEST(DispatcherTest, TopUpChargesFusedRidersTheirPrivateBytes) {
  // Affinity routing puts other tenants' same-weight requests in other
  // deques, so cross-tenant fusion riders arrive through the top-up sweep.
  // It must charge them like the local sweep does: 1000 for the head, then
  // 400 per fused rider, so all three fit an 1800-byte budget wherever the
  // riders queue.
  DispatcherOptions opts = two_slots();
  opts.max_batch_bytes = 1800;
  const std::string home0 = tenants_homed_at(0, 2)[0];
  const std::string home1 = tenants_homed_at(1, 2)[0];
  auto w = std::make_shared<const gemm::Mat32>(4, 4);

  Dispatcher local(opts);
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(local.submit(same_weight_request(i, home0, w)));
  }
  auto one_deque = local.next_batch(0);
  ASSERT_TRUE(one_deque.has_value());
  EXPECT_EQ(one_deque->requests.size(), 3u);

  Dispatcher split(opts);
  ASSERT_TRUE(split.submit(same_weight_request(0, home0, w)));
  ASSERT_TRUE(split.submit(same_weight_request(1, home1, w)));
  ASSERT_TRUE(split.submit(same_weight_request(2, home1, w)));
  auto topped_up = split.next_batch(0);
  ASSERT_TRUE(topped_up.has_value());
  EXPECT_EQ(topped_up->requests.size(), 3u);
  EXPECT_EQ(split.depth(), 0u);
}

TEST(DispatcherTest, TopUpContinuesFromTheBudgetTheLocalSweepLeft) {
  // The local sweep fuses one rider (1000 + 400 of 1800), so the top-up
  // has 400 bytes left: one more fused rider fits, the next keeps its
  // queue position.
  DispatcherOptions opts = two_slots();
  opts.max_batch_bytes = 1800;
  const std::string home0 = tenants_homed_at(0, 2)[0];
  const std::string home1 = tenants_homed_at(1, 2)[0];
  auto w = std::make_shared<const gemm::Mat32>(4, 4);
  Dispatcher d(opts);
  ASSERT_TRUE(d.submit(same_weight_request(0, home0, w)));
  ASSERT_TRUE(d.submit(same_weight_request(1, home0, w)));
  ASSERT_TRUE(d.submit(same_weight_request(2, home1, w)));
  ASSERT_TRUE(d.submit(same_weight_request(3, home1, w)));
  auto batch = d.next_batch(0);
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->requests.size(), 3u);
  EXPECT_EQ(batch->requests[0].id, 0u);
  EXPECT_EQ(batch->requests[1].id, 1u);
  EXPECT_EQ(batch->requests[2].id, 2u);
  EXPECT_EQ(d.depth(), 1u);
}

TEST(DispatcherTest, ScaleDownDrainsRetiredDequesIntoTheLiveSet) {
  Dispatcher d(two_slots());
  const std::string home1 = tenants_homed_at(1, 2)[0];
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(d.submit(make_tenant_request(i, home1, 1)));
  }

  d.set_live_shards(1);
  // The retired worker exits; nothing was lost — shard 0 now owns the
  // drained backlog.
  EXPECT_FALSE(d.next_batch(1).has_value());
  EXPECT_EQ(d.depth(), 4u);
  auto batch = d.next_batch(0);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 4u);

  d.close();
  EXPECT_FALSE(d.next_batch(0).has_value());
}

TEST(DispatcherTest, StolenRoundsKeepDrrSharesWithinOneRequest) {
  // Four tenants with equal MAC volume in different request sizes, all
  // homed on slot 0 of a two-slot dispatcher.  Slot 1 owns nothing, so
  // every one of its dispatches steals a round from slot 0, and the
  // quantum sits below the bigger requests, so tenants interleave across
  // rounds.  Stealing changes which worker executes a round, never whose
  // turn it is: while all four are backlogged, each tenant's share of the
  // dispatched MACs stays within one (the largest) request of 1/4.
  DispatcherOptions opts = two_slots();
  opts.max_batch = 1;
  opts.drr_quantum = 64;
  Dispatcher d(opts);
  const std::vector<std::string> tenants = tenants_homed_at(0, 2, 4);
  const std::vector<std::int64_t> sizes = {64, 128, 256, 512};
  constexpr std::int64_t kMacsPerTenant = 4096;
  std::map<std::string, int> left;
  std::uint64_t id = 0;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    left[tenants[t]] = static_cast<int>(kMacsPerTenant / sizes[t]);
    for (int i = 0; i < left[tenants[t]]; ++i) {
      ASSERT_TRUE(d.submit(make_tenant_request(id++, tenants[t], sizes[t])));
    }
  }

  std::map<std::string, std::int64_t> served;
  std::int64_t total = 0;
  int dispatches = 0;
  const auto all_backlogged = [&] {
    return std::all_of(left.begin(), left.end(),
                       [](const auto& kv) { return kv.second > 0; });
  };
  while (all_backlogged()) {
    const int shard = dispatches++ % 2;
    std::optional<Batch> batch = d.next_batch(shard);
    ASSERT_TRUE(batch.has_value());
    ASSERT_EQ(batch->requests.size(), 1u);
    EXPECT_EQ(batch->stolen, shard == 1);
    const Request& r = batch->requests.front();
    served[r.tenant] += r.drr_cost;
    total += r.drr_cost;
    --left[r.tenant];
    for (const std::string& t : tenants) {
      EXPECT_LE(std::abs(4 * served[t] - total), 4 * sizes.back())
          << t << " after " << dispatches << " dispatches";
    }
  }
  EXPECT_GT(dispatches, 16);
  EXPECT_EQ(d.steals(), dispatches / 2);
}

// A thread blocked in next_batch(shard).  Joined on destruction; a worker
// still parked then (its test already failed by timeout) is first released
// through set_paused(false) and close(), so a missing wake fails the test
// instead of hanging the suite.
class Worker {
 public:
  Worker(Dispatcher& d, int shard)
      : d_(d),
        thread_([this, shard] { done_.set_value(d_.next_batch(shard)); }) {}
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
  ~Worker() {
    if (batch_.valid() &&
        batch_.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      d_.set_paused(false);
      d_.close();
    }
    thread_.join();
  }

  // Waits up to 10 s for next_batch to return; false on timeout.
  bool returned() {
    return batch_.wait_for(std::chrono::seconds(10)) ==
           std::future_status::ready;
  }
  bool still_parked() {
    return batch_.wait_for(std::chrono::seconds(0)) ==
           std::future_status::timeout;
  }
  std::optional<Batch> batch() { return batch_.get(); }

 private:
  Dispatcher& d_;
  std::promise<std::optional<Batch>> done_;
  std::future<std::optional<Batch>> batch_ = done_.get_future();
  std::thread thread_;
};

DispatcherOptions counting_parks(std::atomic<int>& parks) {
  DispatcherOptions opts = two_slots();
  opts.failpoint = [&parks](const char* site) {
    if (std::string(site) == "park") parks.fetch_add(1);
  };
  return opts;
}

// A two-slot dispatcher counting its "park" failpoint passes.
struct ParkCounter {
  std::atomic<int> parks{0};
  Dispatcher d{counting_parks(parks)};

  // Waits until `n` parks happened, then a little longer so the last
  // parker is asleep inside its wait, not merely past the failpoint.
  void await_parks(int n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (parks.load() < n && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(parks.load(), n);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
};

TEST(DispatcherTest, IdleWorkersParkOnceEachInsteadOfPolling) {
  // An idle worker sleeps until something happens: over 50 ms each of two
  // workers passes the "park" site once, where a 500 us poll would pass it
  // about 100 times.
  ParkCounter idle;
  Worker w0(idle.d, 0);
  Worker w1(idle.d, 1);
  idle.await_parks(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(idle.parks.load(), 2);
  idle.d.close();
  for (Worker* w : {&w0, &w1}) {
    ASSERT_TRUE(w->returned()) << "close left a parked worker asleep";
    EXPECT_FALSE(w->batch().has_value());
  }
}

TEST(DispatcherTest, SubmitWakesAParkedThiefWhenTheHomeWorkerIsAbsent) {
  // Only slot 0 has a worker, and it is parked; the request homes at slot
  // 1.  The submit must wake slot 0's worker, which steals it — with no
  // idle poll, a missing cross-wake would leave the request queued.
  ParkCounter idle;
  Worker thief(idle.d, 0);
  idle.await_parks(1);
  ASSERT_TRUE(idle.d.submit(
      make_tenant_request(7, tenants_homed_at(1, 2)[0], 1)));
  ASSERT_TRUE(thief.returned()) << "the submit never woke the parked worker";
  const std::optional<Batch> batch = thief.batch();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->requests.size(), 1u);
  EXPECT_EQ(batch->requests[0].id, 7u);
  EXPECT_TRUE(batch->stolen);
}

TEST(DispatcherTest, ScaleDownAndCloseReleaseParkedWorkers) {
  ParkCounter idle;
  Worker retiring(idle.d, 1);
  Worker staying(idle.d, 0);
  idle.await_parks(2);
  idle.d.set_live_shards(1);
  ASSERT_TRUE(retiring.returned())
      << "set_live_shards left a retired worker parked";
  EXPECT_FALSE(retiring.batch().has_value());
  // The scale-down woke slot 0 too; it found nothing and parked again.
  idle.await_parks(3);
  EXPECT_TRUE(staying.still_parked());
  idle.d.close();
  ASSERT_TRUE(staying.returned()) << "close left a parked worker asleep";
  EXPECT_FALSE(staying.batch().has_value());
}

// set_paused(true) waits out a scan that read "not paused" before it.  The
// worker is held inside its steal scan (the "steal" failpoint) until the
// request submitted after set_paused returned is queued, or for 100 ms when
// set_paused is (correctly) still waiting for the scan to end; the scan
// may take the request queued before the pause, never the later one,
// which would otherwise ride along as a compatible same-tenant rider.
TEST(DispatcherTest, PauseWaitsOutAScanThatBeganBeforeIt) {
  std::atomic<bool> in_scan{false};
  std::atomic<bool> late_queued{false};
  DispatcherOptions opts = two_slots();
  opts.failpoint = [&](const char* site) {
    if (std::string(site) != "steal") return;
    in_scan.store(true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
    while (!late_queued.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Dispatcher d(opts);
  const std::string tenant = tenants_homed_at(1, 2)[0];
  ASSERT_TRUE(d.submit(make_tenant_request(1, tenant, 1)));
  Worker thief(d, 0);
  while (!in_scan.load()) std::this_thread::yield();
  d.set_paused(true);
  ASSERT_TRUE(d.submit(make_tenant_request(2, tenant, 1)));
  late_queued.store(true);
  ASSERT_TRUE(thief.returned());
  const std::optional<Batch> batch = thief.batch();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->requests.size(), 1u)
      << "a request submitted after set_paused(true) was handed out";
  EXPECT_EQ(batch->requests[0].id, 1u);
  EXPECT_EQ(d.depth(), 1u);
}

TEST(DispatcherTest, PausedDispatcherHandsOutNothingAndClosesWithoutDraining) {
  ParkCounter idle;
  Dispatcher& d = idle.d;
  d.set_paused(true);
  const std::string tenant = tenants_homed_at(0, 2)[0];
  ASSERT_TRUE(d.submit(make_tenant_request(1, tenant, 1)));
  {
    Worker held(d, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_TRUE(held.still_parked()) << "a paused dispatcher handed out work";
    d.set_paused(false);
    ASSERT_TRUE(held.returned()) << "unpausing left the worker parked";
    ASSERT_TRUE(held.batch().has_value());
  }
  // Closed while paused: the worker exits and the backlog stays queued
  // for drain_remaining (the crash path).
  d.set_paused(true);
  ASSERT_TRUE(d.submit(make_tenant_request(2, tenant, 1)));
  {
    Worker stranded(d, 0);
    d.close();
    ASSERT_TRUE(stranded.returned());
    EXPECT_FALSE(stranded.batch().has_value());
  }
  const std::vector<Request> left = d.drain_remaining();
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].id, 2u);
}

class ServeTest : public ::testing::Test {
 protected:
  static arch::ArrayConfig shard16() { return arch::ArrayConfig::square(16); }

  static std::shared_ptr<gemm::Mat32> random_weights(Rng& rng,
                                                     std::int64_t n,
                                                     std::int64_t m) {
    return std::make_shared<gemm::Mat32>(
        gemm::random_matrix(rng, n, m, -50, 50));
  }
};

// pause_serving(true) must hold back everything submitted after it
// returns, even while the workers of a fresh server are still mid-scan
// (not yet parked): quiesce then strands the GEMM with kUnavailable
// instead of a worker having served it.
TEST_F(ServeTest, PauseHoldsWorkSubmittedAfterItReturns) {
  Rng rng(18);
  auto weights = random_weights(rng, 16, 16);
  int served = 0;
  for (int i = 0; i < 2000; ++i) {
    ServerOptions opts;
    opts.num_shards = 2;
    Server server(shard16(), opts);
    server.pause_serving(true);
    std::future<GemmResult> future = server.submit_gemm(
        "t", gemm::random_matrix(rng, 2, 16, -10, 10), weights);
    server.quiesce();
    try {
      future.get();
      ++served;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kUnavailable)
          << error_code_name(e.code());
    }
  }
  EXPECT_EQ(served, 0) << "GEMMs served despite a pause before submit";
}

// Core correctness must hold identically on every registered backend: the
// analytic engine's outputs come from the reference GEMM and its costs
// from the exactness-pinned closed forms, so a client cannot tell the
// backends apart by results — only by throughput.
class ServeBackendTest : public ServeTest,
                         public ::testing::WithParamInterface<std::string> {};

INSTANTIATE_TEST_SUITE_P(Backends, ServeBackendTest,
                         ::testing::Values("analytic", "cycle"),
                         [](const auto& info) { return info.param; });

TEST_P(ServeBackendTest, GemmResultsMatchReference) {
  ServerOptions opts;
  opts.num_shards = 2;
  opts.max_batch = 4;
  opts.backend = GetParam();
  Server server(shard16(), opts);

  Rng rng(42);
  auto weights = random_weights(rng, 32, 24);
  std::vector<gemm::Mat32> inputs;
  std::vector<std::future<GemmResult>> futures;
  for (int i = 0; i < 10; ++i) {
    inputs.push_back(gemm::random_matrix(rng, 4 + i % 3, 32, -50, 50));
    futures.push_back(server.submit_gemm("tenant-a", inputs.back(), weights));
  }
  for (int i = 0; i < 10; ++i) {
    GemmResult r = futures[static_cast<std::size_t>(i)].get();
    const gemm::Mat64 want = gemm::reference_gemm(
        inputs[static_cast<std::size_t>(i)], *weights);
    EXPECT_EQ(gemm::first_mismatch(r.out, want), "") << "request " << i;
    EXPECT_GT(r.energy_pj, 0.0);
    EXPECT_GT(r.time_ps, 0.0);
    EXPECT_GE(r.latency_ms, r.queue_ms);
    EXPECT_EQ(r.backend, GetParam());
    EXPECT_EQ(r.measured, GetParam() == "cycle");
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 10);
  EXPECT_EQ(stats.completed, 10);
  for (const ShardSnapshot& s : stats.shards) {
    EXPECT_EQ(s.backend, GetParam());
  }
}

TEST_P(ServeBackendTest, CostOnlyTrafficSkipsOutputs) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.backend = GetParam();
  Server server(shard16(), opts);

  Rng rng(11);
  auto weights = random_weights(rng, 32, 24);
  GemmResult r = server
                     .submit_gemm("pricer", gemm::random_matrix(rng, 6, 32,
                                                                -50, 50),
                                  weights, {.k = 2, .want_output = false})
                     .get();
  EXPECT_EQ(r.out.rows(), 0);  // no product computed for cost-only traffic
  EXPECT_GT(r.cycles, 0);
  EXPECT_GT(r.energy_pj, 0.0);
  EXPECT_EQ(r.k, 2);

  // The cost of a cost-only request equals the cost of the same request
  // with outputs — fidelity of the estimate never depends on the flag.
  GemmResult full = server
                        .submit_gemm("pricer", gemm::random_matrix(rng, 6, 32,
                                                                   -50, 50),
                                     weights, {.k = 2, .want_output = true})
                        .get();
  EXPECT_EQ(full.cycles, r.cycles);
  EXPECT_EQ(full.time_ps, r.time_ps);
  EXPECT_EQ(full.out.rows(), 6);

  // A burst mixing cost-only and output-wanting requests over the same
  // weights/shape/mode: whether or not the scheduler fuses them, each
  // request's out honours ITS OWN flag (a cost-only rider in a fused run
  // must come back empty; its neighbours still get their exact rows).
  std::vector<gemm::Mat32> inputs;
  std::vector<std::future<GemmResult>> futures;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(gemm::random_matrix(rng, 5, 32, -50, 50));
    futures.push_back(server.submit_gemm("pricer", inputs.back(), weights,
                                         {.k = 1, .want_output = i % 2 == 0}));
  }
  for (int i = 0; i < 4; ++i) {
    GemmResult burst = futures[static_cast<std::size_t>(i)].get();
    if (i % 2 == 0) {
      const gemm::Mat64 want = gemm::reference_gemm(
          inputs[static_cast<std::size_t>(i)], *weights);
      EXPECT_EQ(gemm::first_mismatch(burst.out, want), "") << "burst " << i;
    } else {
      EXPECT_EQ(burst.out.rows(), 0) << "burst " << i;
    }
  }
}

TEST_F(ServeTest, AuditedAnalyticServingAgreesWithCycleAccurateReplays) {
  // The acceptance scenario: serve analytically, replay EVERY fused run on
  // the cycle-accurate audit engine, and demand exact agreement — outputs
  // bit for bit, cycles and counters number for number.
  ServerOptions opts;
  opts.num_shards = 2;
  opts.max_batch = 4;
  opts.backend = "analytic";
  opts.audit_fraction = 1.0;
  Server server(shard16(), opts);

  Rng rng(404);
  auto weights = random_weights(rng, 48, 24);
  std::vector<gemm::Mat32> inputs;
  std::vector<std::future<GemmResult>> futures;
  for (int i = 0; i < 16; ++i) {
    inputs.push_back(gemm::random_matrix(rng, 3 + i % 4, 48, -60, 60));
    futures.push_back(server.submit_gemm("audited", inputs.back(), weights,
                                         {.k = (i % 2 == 0) ? 1 : 2}));
  }
  for (int i = 0; i < 16; ++i) {
    GemmResult r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.backend, "analytic");
    EXPECT_FALSE(r.measured);
    EXPECT_TRUE(r.audited) << "audit_fraction=1 must replay every fused run";
    const gemm::Mat64 want = gemm::reference_gemm(
        inputs[static_cast<std::size_t>(i)], *weights);
    EXPECT_EQ(gemm::first_mismatch(r.out, want), "") << "request " << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.audit_runs(), 0);
  EXPECT_EQ(stats.audit_mismatches(), 0)
      << "cycle-accurate replays disagreed with analytic serving";
}

TEST_F(ServeTest, FractionalAuditSamplesDeterministically) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 1;  // one fused run per request: exact audit arithmetic
  opts.backend = "analytic";
  opts.audit_fraction = 0.25;
  Server server(shard16(), opts);

  Rng rng(7);
  auto weights = random_weights(rng, 16, 16);
  int audited = 0;
  for (int i = 0; i < 8; ++i) {
    GemmResult r =
        server
            .submit_gemm("t", gemm::random_matrix(rng, 4, 16, -10, 10),
                         weights)
            .get();
    if (r.audited) ++audited;
  }
  // credit 0.25/run crosses 1.0 on runs 4 and 8.
  EXPECT_EQ(audited, 2);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.audit_runs(), 2);
  EXPECT_EQ(stats.audit_mismatches(), 0);
}

TEST_F(ServeTest, ServedSharesEqualizeUnderDrr) {
  // Two tenants, same aggregate backlog cost in very different request
  // sizes; after the books close their attributed hardware shares must
  // both be visible and sum to 1.
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 1;
  Server server(shard16(), opts);

  Rng rng(88);
  auto weights = random_weights(rng, 32, 32);
  std::vector<std::future<GemmResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.submit_gemm(
        "big", gemm::random_matrix(rng, 32, 32, -20, 20), weights));
    for (int j = 0; j < 4; ++j) {
      futures.push_back(server.submit_gemm(
          "small", gemm::random_matrix(rng, 8, 32, -20, 20), weights));
    }
  }
  for (auto& f : futures) f.get();

  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  double share_sum = 0.0;
  for (const TenantSnapshot& t : stats.tenants) {
    EXPECT_GT(t.served_share, 0.0) << t.tenant;
    EXPECT_LT(t.served_share, 1.0) << t.tenant;
    share_sum += t.served_share;
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-12);
}

TEST_F(ServeTest, SameWeightRequestsFuseBehindAPlug) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 8;
  Server server(shard16(), opts);

  Rng rng(7);
  // Everything is submitted under a pause, so DRR alone decides the
  // schedule.  The k=4 plug (8.4M MACs) cannot afford its head on the first
  // 1M-MAC quantum, so tenant-b's k=1 trio dispatches first as ONE batch —
  // the plug's mode keeps it out — and, sharing weights and shape, fuses
  // into a single hardware run of 3 x 5 stacked rows.  The plug follows,
  // one mode switch later.
  server.pause_serving(true);
  auto plug_weights = random_weights(rng, 128, 128);
  gemm::Mat32 plug_a = gemm::random_matrix(rng, 512, 128, -4, 4);
  auto plug_future =
      server.submit_gemm("plug", std::move(plug_a), plug_weights, {.k = 4});

  auto weights = random_weights(rng, 32, 16);
  std::vector<gemm::Mat32> inputs;
  std::vector<std::future<GemmResult>> futures;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(gemm::random_matrix(rng, 5, 32, -50, 50));
    futures.push_back(
        server.submit_gemm("tenant-b", inputs.back(), weights, {.k = 1}));
  }
  server.pause_serving(false);

  EXPECT_EQ(plug_future.get().batch_requests, 1);
  for (int i = 0; i < 3; ++i) {
    GemmResult r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.k, 1);
    EXPECT_EQ(r.batch_requests, 3);
    EXPECT_EQ(r.fused_rows, 15);
    const gemm::Mat64 want = gemm::reference_gemm(
        inputs[static_cast<std::size_t>(i)], *weights);
    EXPECT_EQ(gemm::first_mismatch(r.out, want), "") << "request " << i;
  }
  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].requests, 4);
  EXPECT_EQ(stats.shards[0].batches, 2);
  EXPECT_EQ(stats.shards[0].fused_runs, 2);
  EXPECT_EQ(stats.shards[0].mode_switches, 1);
  EXPECT_EQ(stats.shards[0].current_k, 4);
}

TEST_F(ServeTest, ModeSwitchAccounting) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 1;
  Server server(shard16(), opts);

  Rng rng(3);
  auto weights = random_weights(rng, 16, 16);
  const auto submit_and_wait = [&](int k) {
    server
        .submit_gemm("t", gemm::random_matrix(rng, 4, 16, -10, 10), weights,
                     {.k = k})
        .get();
  };
  submit_and_wait(1);  // initial configuration: free, not a switch
  submit_and_wait(2);
  submit_and_wait(1);

  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].mode_switches, 2);
  EXPECT_GT(stats.shards[0].reconfig_time_ps, 0.0);
  EXPECT_GT(stats.shards[0].reconfig_energy_pj, 0.0);
  EXPECT_EQ(stats.shards[0].current_k, 1);
  EXPECT_EQ(stats.shards[0].busy_ps_by_mode.size(), 2u);
}

TEST_F(ServeTest, InferenceBitIdenticalToDirectRun) {
  ServerOptions opts;
  opts.num_shards = 3;
  Server server(shard16(), opts);

  auto model = std::make_shared<nn::Model>(nn::convnext_tiny());
  InferenceResult result = server.submit_inference("tenant-i", model).get();

  const nn::InferenceRunner direct(
      engine::EngineBuilder().config(shard16()).build("analytic"));
  const nn::ModelReport want = direct.run(*model);

  ASSERT_EQ(result.report.layers.size(), want.layers.size());
  for (std::size_t i = 0; i < want.layers.size(); ++i) {
    const nn::LayerReport& got = result.report.layers[i];
    const nn::LayerReport& ref = want.layers[i];
    EXPECT_EQ(got.name, ref.name);
    EXPECT_EQ(got.arrayflex.k, ref.arrayflex.k) << ref.name;
    EXPECT_EQ(got.arrayflex.time_ps, ref.arrayflex.time_ps) << ref.name;
    EXPECT_EQ(got.conventional.time_ps, ref.conventional.time_ps) << ref.name;
    EXPECT_EQ(got.arrayflex_power.energy_pj, ref.arrayflex_power.energy_pj)
        << ref.name;
  }
  EXPECT_EQ(result.report.arrayflex_time_ps, want.arrayflex_time_ps);
  EXPECT_EQ(result.report.conventional_time_ps, want.conventional_time_ps);
  EXPECT_EQ(result.report.arrayflex_energy_pj, want.arrayflex_energy_pj);
  EXPECT_EQ(result.report.conventional_energy_pj, want.conventional_energy_pj);
  EXPECT_EQ(result.report.mode_histogram(), want.mode_histogram());
}

TEST_P(ServeBackendTest, StressManyClientsManyShardsWithBatching) {
  // The acceptance workload: >= 4 concurrent client threads, >= 2 shards,
  // batching enabled, every single result verified against the reference
  // GEMM, and the books must balance afterwards — on both backends.
  ServerOptions opts;
  opts.num_shards = 2;
  opts.max_batch = 8;
  opts.sim_threads = 2;  // exercise the shared simulation pool too
  opts.backend = GetParam();
  Server server(shard16(), opts);

  constexpr int kClients = 4;
  constexpr int kPerClient = 24;
  Rng weight_rng(99);
  auto shared_weights = random_weights(weight_rng, 48, 32);
  auto model = std::make_shared<nn::Model>(nn::mobilenet_v1());

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + static_cast<std::uint64_t>(c));
      const std::string tenant = "tenant-" + std::to_string(c);
      for (int i = 0; i < kPerClient; ++i) {
        if (i % 8 == 7) {
          // Sprinkle whole-model inferences between the GEMM traffic.
          InferenceResult r = server.submit_inference(tenant, model).get();
          if (r.report.layers.size() != model->layers.size()) ++failures;
          continue;
        }
        gemm::Mat32 a = gemm::random_matrix(rng, 3 + i % 5, 48, -30, 30);
        const gemm::Mat64 want = gemm::reference_gemm(a, *shared_weights);
        GemmResult r =
            server.submit_gemm(tenant, std::move(a), shared_weights).get();
        if (gemm::first_mismatch(r.out, want) != "") ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  ASSERT_EQ(stats.shards.size(), 2u);
  ASSERT_EQ(stats.tenants.size(), static_cast<std::size_t>(kClients));
  for (const TenantSnapshot& t : stats.tenants) {
    EXPECT_EQ(t.requests, kPerClient) << t.tenant;
    EXPECT_GT(t.energy_pj, 0.0) << t.tenant;
    EXPECT_GT(t.macs, 0) << t.tenant;
    EXPECT_LE(t.p50_latency_ms, t.p99_latency_ms) << t.tenant;
    EXPECT_LE(t.p99_latency_ms, t.max_latency_ms + 1e-9) << t.tenant;
    EXPECT_GT(t.mean_latency_ms, 0.0) << t.tenant;
  }
  std::int64_t shard_requests = 0;
  for (const ShardSnapshot& s : stats.shards) {
    shard_requests += s.requests;
    EXPECT_GE(s.batches, 0);
  }
  // Every GEMM request and every inference landed on some shard.
  EXPECT_GE(shard_requests, stats.completed);
}

TEST_F(ServeTest, ShutdownDrainsAcceptedWorkAndRefusesNew) {
  ServerOptions opts;
  opts.num_shards = 2;
  Server server(shard16(), opts);

  Rng rng(5);
  auto weights = random_weights(rng, 16, 16);
  std::vector<std::future<GemmResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.submit_gemm(
        "t", gemm::random_matrix(rng, 4, 16, -10, 10), weights));
  }
  server.shutdown();
  for (auto& f : futures) {
    EXPECT_NO_THROW(f.get());  // accepted work completed before stop
  }
  EXPECT_THROW(server.submit_gemm(
                   "t", gemm::random_matrix(rng, 4, 16, -10, 10), weights),
               Error);
}

TEST_F(ServeTest, TenantTimeAndEnergyBooksBalanceForGemms) {
  ServerOptions opts;
  opts.num_shards = 2;
  opts.max_batch = 4;
  Server server(shard16(), opts);

  Rng rng(17);
  auto weights = random_weights(rng, 32, 32);
  std::vector<std::future<GemmResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(server.submit_gemm(
        "tenant-" + std::to_string(i % 3),
        gemm::random_matrix(rng, 4, 32, -20, 20), weights));
  }
  for (auto& f : futures) f.get();

  // Share-weighted attribution: per-tenant sums reproduce the shards'
  // actual spend even when requests rode fused runs.
  const ServerStats stats = server.stats();
  double tenant_time = 0.0, tenant_energy = 0.0;
  for (const TenantSnapshot& t : stats.tenants) {
    tenant_time += t.sim_time_ps;
    tenant_energy += t.energy_pj;
  }
  double shard_time = 0.0, shard_energy = 0.0;
  for (const ShardSnapshot& s : stats.shards) {
    shard_time += s.busy_time_ps;
    shard_energy += s.energy_pj;
  }
  EXPECT_NEAR(tenant_time, shard_time, 1e-6 * shard_time);
  EXPECT_NEAR(tenant_energy, shard_energy, 1e-6 * shard_energy);
}

TEST_F(ServeTest, FailingRequestDeliversExceptionWithoutKillingServer) {
  ServerOptions opts;
  opts.num_shards = 2;
  Server server(shard16(), opts);

  // A layer with zero output positions (built raw — the factory would
  // reject it) passes submit-time validation but throws inside the
  // analytic evaluation (tile T must be positive).
  auto poisoned = std::make_shared<nn::Model>();
  poisoned->name = "poisoned";
  nn::Layer bad;
  bad.name = "bad";
  bad.kind = nn::LayerKind::kConv;
  bad.in_channels = 8;
  bad.out_channels = 8;
  bad.kernel_h = bad.kernel_w = 3;
  bad.in_h = bad.in_w = 2;  // out_h = out_w = 0
  poisoned->layers.push_back(bad);
  auto failed = server.submit_inference("tenant-x", poisoned);
  EXPECT_THROW(failed.get(), Error);

  // The worker survived: subsequent requests are served normally.
  Rng rng(23);
  auto weights = random_weights(rng, 16, 16);
  gemm::Mat32 a = gemm::random_matrix(rng, 4, 16, -10, 10);
  const gemm::Mat64 want = gemm::reference_gemm(a, *weights);
  GemmResult ok = server.submit_gemm("tenant-x", std::move(a), weights).get();
  EXPECT_EQ(gemm::first_mismatch(ok.out, want), "");

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.completed, 2);  // the failure resolved its future too
}

TEST_F(ServeTest, CoalescedInferenceSplitsEnergy) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 4;
  Server server(shard16(), opts);

  auto model = std::make_shared<nn::Model>(nn::mobilenet_v1());
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(
        server.submit_inference("tenant-" + std::to_string(i), model));
  }
  std::vector<InferenceResult> results;
  for (auto& f : futures) results.push_back(f.get());

  // All requesters see the same (full-price) report...
  for (const InferenceResult& r : results) {
    EXPECT_EQ(r.report.arrayflex_energy_pj,
              results[0].report.arrayflex_energy_pj);
    EXPECT_EQ(r.report.layers.size(), model->layers.size());
  }
  // ...but the tenants' attributed energy sums to at most what the
  // hardware actually spent (a coalesced run is charged once, split).
  const ServerStats stats = server.stats();
  double attributed = 0.0;
  for (const TenantSnapshot& t : stats.tenants) attributed += t.energy_pj;
  double spent = 0.0;
  for (const ShardSnapshot& s : stats.shards) spent += s.energy_pj;
  EXPECT_LE(attributed, spent * (1.0 + 1e-9));
  EXPECT_GT(attributed, 0.0);
}

// ---- per-request fidelity routing -----------------------------------------

TEST_F(ServeTest, PerRequestBackendOverrideRoutesAndRejects) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 4;
  opts.backend = "analytic";
  opts.audit_fraction = 1.0;  // overrides must bypass the sampled audit
  Server server(shard16(), opts);

  Rng rng(31337);
  auto weights = random_weights(rng, 32, 24);

  // Default: the shard's analytic engine.
  gemm::Mat32 a0 = gemm::random_matrix(rng, 5, 32, -40, 40);
  const gemm::Mat64 want0 = gemm::reference_gemm(a0, *weights);
  GemmResult base = server.submit_gemm("t", std::move(a0), weights).get();
  EXPECT_EQ(base.backend, "analytic");
  EXPECT_FALSE(base.measured);

  // Override: this one request runs cycle-accurately on the analytic
  // server — measured ground truth on demand, no audit replay (it IS the
  // ground truth).
  gemm::Mat32 a1 = gemm::random_matrix(rng, 5, 32, -40, 40);
  const gemm::Mat64 want1 = gemm::reference_gemm(a1, *weights);
  GemmResult exact = server
                         .submit_gemm("t", std::move(a1), weights,
                                      {.k = 2, .backend = "cycle"})
                         .get();
  EXPECT_EQ(exact.backend, "cycle");
  EXPECT_TRUE(exact.measured);
  EXPECT_FALSE(exact.audited);
  EXPECT_EQ(gemm::first_mismatch(exact.out, want1), "");
  EXPECT_EQ(gemm::first_mismatch(base.out, want0), "");

  // A mixed burst honours each request's own fidelity.
  std::vector<std::future<GemmResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.submit_gemm(
        "t", gemm::random_matrix(rng, 4, 32, -40, 40), weights,
        {.k = 1, .backend = i % 2 == 0 ? "cycle" : ""}));
  }
  for (int i = 0; i < 4; ++i) {
    GemmResult r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.backend, i % 2 == 0 ? "cycle" : "analytic") << i;
    EXPECT_EQ(r.measured, i % 2 == 0) << i;
  }

  // Unregistered names are rejected at admission with the registry listed.
  EXPECT_THROW(server.submit_gemm("t", gemm::random_matrix(rng, 4, 32, -1, 1),
                                  weights, {.k = 0, .backend = "rtl"}),
               Error);
}

// ---- work stealing, end to end --------------------------------------------

TEST_F(ServeTest, StealingStressBooksMatchTheSubmittedInputs) {
  // The randomized 4-client x 4-shard stress: every output bit-identical to
  // the reference GEMM, and every tenant's books equal to what it
  // submitted — 32 requests and the sum of T x 48 x 32 MACs.
  ServerOptions opts;
  opts.num_shards = 4;
  opts.max_batch = 8;
  opts.backend = "analytic";
  Server server(arch::ArrayConfig::square(16), opts);

  constexpr int kClients = 4;
  constexpr int kPerClient = 32;
  const auto rows = [](int i) { return std::int64_t{2} + i % 5; };
  Rng weight_rng(2077);
  auto weights = std::make_shared<gemm::Mat32>(
      gemm::random_matrix(weight_rng, 48, 32, -60, 60));

  std::atomic<std::int64_t> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(42000 + static_cast<std::uint64_t>(c));
      const std::string tenant = "stress-" + std::to_string(c);
      std::vector<gemm::Mat32> inputs;
      std::vector<std::future<GemmResult>> futures;
      for (int i = 0; i < kPerClient; ++i) {
        inputs.push_back(gemm::random_matrix(rng, rows(i), 48, -60, 60));
        futures.push_back(server.submit_gemm(
            tenant, inputs.back(), weights, {.k = (i % 3 == 0) ? 2 : 1}));
      }
      for (int i = 0; i < kPerClient; ++i) {
        GemmResult r = futures[static_cast<std::size_t>(i)].get();
        const gemm::Mat64 want = gemm::reference_gemm(
            inputs[static_cast<std::size_t>(i)], *weights);
        if (gemm::first_mismatch(r.out, want) != "") mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, stats.submitted);
  std::int64_t macs_per_tenant = 0;
  for (int i = 0; i < kPerClient; ++i) macs_per_tenant += rows(i) * 48 * 32;
  ASSERT_EQ(stats.tenants.size(), static_cast<std::size_t>(kClients));
  for (const TenantSnapshot& t : stats.tenants) {
    EXPECT_EQ(t.requests, kPerClient) << t.tenant;
    EXPECT_EQ(t.macs, macs_per_tenant) << t.tenant;
  }
}

TEST_F(ServeTest, StealingSpreadsAHotTenantAcrossShards) {
  // One tenant's whole stream hashes to ONE home deque.  Submitted under a
  // pause, all 24 requests sit there before any worker looks; on resume
  // the other three shards must steal it — the motivation's "idle shards
  // drain hot tenants without serializing every submission through one
  // lock".  With max_batch 1 every request dispatches alone, so each one
  // served off the home shard is exactly one steal.  Each run sleeps 2 ms
  // (chaos around cycle): a sub-millisecond run would let the home worker
  // legally drain all 24 before the woken workers get a core.
  ServerOptions opts;
  opts.num_shards = 4;
  opts.max_batch = 1;
  opts.backend = "chaos";
  opts.chaos.inner = "cycle";
  opts.chaos.delay_rate = 1.0;
  opts.chaos.delay_ms = 2.0;
  Server server(shard16(), opts);

  Rng rng(555);
  auto weights = random_weights(rng, 96, 96);
  std::vector<gemm::Mat32> inputs;
  std::vector<std::future<GemmResult>> futures;
  server.pause_serving(true);
  for (int i = 0; i < 24; ++i) {
    inputs.push_back(gemm::random_matrix(rng, 8, 96, -30, 30));
    futures.push_back(server.submit_gemm("hot", inputs.back(), weights));
  }
  server.pause_serving(false);
  for (int i = 0; i < 24; ++i) {
    GemmResult r = futures[static_cast<std::size_t>(i)].get();
    const gemm::Mat64 want = gemm::reference_gemm(
        inputs[static_cast<std::size_t>(i)], *weights);
    EXPECT_EQ(gemm::first_mismatch(r.out, want), "") << i;
  }

  const ServerStats stats = server.stats();
  Request probe;
  probe.kind = RequestKind::kGemm;
  probe.tenant = "hot";
  const std::size_t home = affinity_hash(probe) % 4;
  std::int64_t served = 0;
  for (const ShardSnapshot& s : stats.shards) served += s.requests;
  EXPECT_EQ(served, 24);
  EXPECT_GT(stats.steals, 0);
  EXPECT_EQ(stats.shards[home].requests, 24 - stats.steals);
}

// ---- queue-pressure autoscaling -------------------------------------------

TEST(LatencyWindowTest, NearestRankP99RoundsUpOnSmallWindows) {
  // The autoscaler's pressure signal: a tiny window must surface its slow
  // sample (nearest-rank p99 of n=2 is the MAX), or trickle traffic with
  // long waits would never trip the grow threshold.
  LatencyWindow window;
  window.sample(0.02);
  window.sample(80.0);
  LatencyWindow::Stats stats = window.drain();
  EXPECT_EQ(stats.count, 2);
  EXPECT_EQ(stats.p99_ms, 80.0);
  EXPECT_EQ(stats.max_ms, 80.0);
  // drain resets the window.
  EXPECT_EQ(window.drain().count, 0);
  // 200 samples: nearest-rank p99 is the 198th order statistic.
  for (int i = 1; i <= 200; ++i) window.sample(static_cast<double>(i));
  EXPECT_EQ(window.drain().p99_ms, 198.0);
}

// The autoscaler's control tick exactly as Server::control_loop runs it on
// synthetic Pressure samples: both streaks tick every time, the grow
// streak on hot(grow_at), the shrink streak on cool(shrink_at) outside
// the grow band, and a firing streak moves the pool one shard within
// [1, 4].
struct ScalerTrace {
  Pressure grow_at;
  Pressure shrink_at;
  util::Streak grow{3};
  util::Streak shrink{3};

  int tick(int live, const Pressure& p) {
    const bool pressured = hot(p, grow_at);
    const bool up = grow.tick(pressured);
    const bool down = shrink.tick(!pressured && cool(p, shrink_at));
    if (up && live < 4) return live + 1;
    if (down && live > 1) return live - 1;
    return live;
  }
};

TEST(AutoscaleHysteresisTest, SquareWaveLoadDoesNotFlap) {
  const ServerOptions defaults;  // depth and wait terms on
  ScalerTrace scaler{defaults.grow_at, defaults.shrink_at};

  // A square wave faster than either patience: pressure, idle, pressure,
  // idle...  Each flank resets the opposite streak, so the pool must not
  // move once.
  int live = 2;
  for (int tick = 0; tick < 100; ++tick) {
    const double depth = (tick % 2 == 0) ? 100.0 : 0.0;
    const int want = scaler.tick(live, {.depth = depth});
    ASSERT_EQ(want, live) << "flapped at tick " << tick;
  }

  // Sustained pressure grows — one shard per grow_patience ticks, capped.
  std::vector<int> trace;
  for (int tick = 0; tick < 12; ++tick) {
    live = scaler.tick(live, {.depth = 100.0});
    trace.push_back(live);
  }
  EXPECT_EQ(trace, (std::vector<int>{2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4}));

  // Sustained idle shrinks the same way, floored at min_shards.
  trace.clear();
  for (int tick = 0; tick < 12; ++tick) {
    live = scaler.tick(live, {.depth = 0.0});
    trace.push_back(live);
  }
  EXPECT_EQ(trace, (std::vector<int>{4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1, 1}));

  // The p99 wait signal alone also counts as pressure.
  live = 1;
  scaler.grow.reset();
  for (int tick = 0; tick < 3; ++tick) {
    live = scaler.tick(live, {.wait_p99_ms = 1e3});
  }
  EXPECT_EQ(live, 2);
}

TEST(AutoscaleHysteresisTest, BacklogCostSquareWaveDoesNotFlapEither) {
  // The hardware-pressure term obeys the same hysteresis contract as the
  // wait: a square wave of queued MACs faster than either patience never
  // moves the pool, sustained pressure walks it one shard per patience
  // window.  The wait term is off, the depth term stays on.
  ScalerTrace scaler{{.depth = 4.0, .backlog_macs = 1e6},
                     {.depth = 0.5, .backlog_macs = 1e5}};

  int live = 2;
  for (int tick = 0; tick < 100; ++tick) {
    const double backlog = (tick % 2 == 0) ? 5e6 : 0.0;
    const int want = scaler.tick(live, {.backlog_macs = backlog});
    ASSERT_EQ(want, live) << "flapped at tick " << tick;
  }

  // Sustained backlog grows one shard per grow_patience ticks, capped.
  std::vector<int> trace;
  for (int tick = 0; tick < 12; ++tick) {
    live = scaler.tick(live, {.backlog_macs = 5e6});
    trace.push_back(live);
  }
  EXPECT_EQ(trace, (std::vector<int>{2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4}));

  // Sustained idle shrinks the same way, floored at min_shards.
  trace.clear();
  for (int tick = 0; tick < 12; ++tick) {
    live = scaler.tick(live, {.backlog_macs = 0.0});
    trace.push_back(live);
  }
  EXPECT_EQ(trace, (std::vector<int>{4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1, 1}));

  // With the wait term off, an enormous p99 with an idle backlog is
  // simulation-host noise, not array pressure.
  live = 2;
  scaler.grow.reset();
  scaler.shrink.reset();
  for (int tick = 0; tick < 3; ++tick) {
    const int want = scaler.tick(live, {.wait_p99_ms = 1e3});
    EXPECT_LE(want, live) << "wall-clock wait moved a MAC-scaled pool up";
    live = want;
  }
}

TEST_F(ServeTest, AutoscalerGrowsUnderLoadAndShrinksWhenIdle) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.min_shards = 1;
  opts.max_shards = 4;
  opts.backend = "cycle";  // slow enough that a burst builds real depth
  opts.max_batch = 1;
  opts.control_interval_ms = 5.0;
  opts.grow_at.depth = 2.0;
  opts.grow_patience = 1;
  opts.shrink_patience = 2;
  Server server(shard16(), opts);
  EXPECT_EQ(server.num_shards(), 1);

  Rng rng(808);
  auto weights = random_weights(rng, 128, 128);
  std::vector<gemm::Mat32> inputs;
  std::vector<std::future<GemmResult>> futures;
  for (int i = 0; i < 48; ++i) {
    inputs.push_back(gemm::random_matrix(rng, 16, 128, -20, 20));
    futures.push_back(server.submit_gemm("burst", inputs.back(), weights));
  }
  for (int i = 0; i < 48; ++i) {
    GemmResult r = futures[static_cast<std::size_t>(i)].get();
    const gemm::Mat64 want = gemm::reference_gemm(
        inputs[static_cast<std::size_t>(i)], *weights);
    EXPECT_EQ(gemm::first_mismatch(r.out, want), "") << i;
  }
  {
    const ServerStats stats = server.stats();
    EXPECT_GE(stats.scale_ups, 1) << "queue pressure never grew the pool";
  }

  // Idle: the pool must come back down to min_shards (poll with a generous
  // deadline — the autoscaler needs shrink_patience quiet ticks per step).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.num_shards() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.live_shards, 1) << "pool failed to shrink when idle";
  EXPECT_GE(stats.scale_downs, 1);
  EXPECT_EQ(stats.submitted, stats.completed);
  int live_count = 0;
  for (const ShardSnapshot& s : stats.shards) live_count += s.live ? 1 : 0;
  EXPECT_EQ(live_count, 1);

  // A retired slot can be re-grown and served through again.
  std::vector<std::future<GemmResult>> again;
  for (int i = 0; i < 16; ++i) {
    again.push_back(server.submit_gemm(
        "burst", gemm::random_matrix(rng, 16, 128, -20, 20), weights));
  }
  for (auto& f : again) EXPECT_NO_THROW(f.get());
}

TEST_F(ServeTest, AutoscaleStressNeverDropsOrDoubleServesAcrossScaleEvents) {
  // Bursts and idle valleys while the autoscaler grows and shrinks under
  // them: every future must resolve exactly once with the exact product,
  // and the books must balance — no request dropped in a scale-down drain,
  // none served twice off a stolen deque.
  ServerOptions opts;
  opts.num_shards = 2;
  opts.min_shards = 1;
  opts.max_shards = 4;
  opts.backend = "cycle";
  opts.control_interval_ms = 2.0;
  opts.grow_at.depth = 2.0;
  opts.grow_patience = 1;
  opts.shrink_patience = 2;
  Server server(shard16(), opts);

  Rng rng(909);
  auto weights = random_weights(rng, 96, 64);
  std::int64_t expected = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::vector<gemm::Mat32> inputs;
    std::vector<std::future<GemmResult>> futures;
    for (int i = 0; i < 24; ++i) {
      inputs.push_back(gemm::random_matrix(rng, 8, 96, -30, 30));
      futures.push_back(server.submit_gemm(
          "cycle-" + std::to_string(cycle), inputs.back(), weights));
      ++expected;
    }
    for (int i = 0; i < 24; ++i) {
      GemmResult r = futures[static_cast<std::size_t>(i)].get();
      const gemm::Mat64 want = gemm::reference_gemm(
          inputs[static_cast<std::size_t>(i)], *weights);
      EXPECT_EQ(gemm::first_mismatch(r.out, want), "")
          << "cycle " << cycle << " request " << i;
    }
    // Idle valley: long enough for at least one shrink tick at this
    // interval/patience, so the next burst hits a scaled-down pool.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, expected);
  EXPECT_EQ(stats.completed, expected);
  EXPECT_GE(stats.scale_ups + stats.scale_downs, 1)
      << "autoscaler never moved — the stress exercised nothing";
  std::int64_t shard_requests = 0;
  for (const ShardSnapshot& s : stats.shards) shard_requests += s.requests;
  EXPECT_EQ(shard_requests, expected) << "a request was lost or double-served";
}

TEST(AssembleBatchTest, ByteBudgetCapsRidersButTheHeadAlwaysDispatches) {
  const auto sized = [](std::uint64_t id, std::int64_t bytes) {
    Request r = make_gemm_request(id, 1);
    r.drr_bytes = bytes;
    return r;
  };
  RequestQueue q(16);
  ASSERT_TRUE(q.push(sized(0, 500)));
  ASSERT_TRUE(q.push(sized(1, 300)));
  ASSERT_TRUE(q.push(sized(2, 300)));
  ASSERT_TRUE(q.push(sized(3, 300)));

  // Budget 1000: head (500) + one 300-byte rider fit; the next rider
  // would overflow and keeps its queue position (no charge, no loss).
  Batch b1 = assemble_batch(q.try_pop().value(), q, /*max_batch=*/8,
                            /*max_batch_bytes=*/1000);
  ASSERT_EQ(b1.requests.size(), 2u);
  EXPECT_EQ(b1.requests[0].id, 0u);
  EXPECT_EQ(b1.requests[1].id, 1u);

  // The skipped riders form the next batch under a fresh budget.
  Batch b2 = assemble_batch(q.try_pop().value(), q, 8, 1000);
  ASSERT_EQ(b2.requests.size(), 2u);
  EXPECT_EQ(b2.requests[0].id, 2u);
  EXPECT_EQ(b2.requests[1].id, 3u);

  // A head alone past the whole budget still dispatches — the cap shapes
  // coalescing, it never strands admitted work.
  ASSERT_TRUE(q.push(sized(4, 5000)));
  ASSERT_TRUE(q.push(sized(5, 10)));
  Batch b3 = assemble_batch(q.try_pop().value(), q, 8, 1000);
  ASSERT_EQ(b3.requests.size(), 1u);
  EXPECT_EQ(b3.requests[0].id, 4u);
  EXPECT_EQ(q.size(), 1u);  // the small rider waits for the next batch
}

TEST(AutoscaleHysteresisTest, BacklogBytesSignalFollowsTheSameHysteresis) {
  ScalerTrace scaler{{.depth = 4.0, .backlog_bytes = 1e6},
                     {.depth = 0.5, .backlog_bytes = 1e5}};

  // A byte square wave faster than either patience never moves the pool.
  int live = 2;
  for (int tick = 0; tick < 100; ++tick) {
    const double bytes = (tick % 2 == 0) ? 5e6 : 0.0;
    ASSERT_EQ(scaler.tick(live, {.backlog_bytes = bytes}), live)
        << "flapped at tick " << tick;
  }

  // Sustained queued traffic grows one shard per patience window, capped.
  std::vector<int> trace;
  for (int tick = 0; tick < 12; ++tick) {
    live = scaler.tick(live, {.backlog_bytes = 5e6});
    trace.push_back(live);
  }
  EXPECT_EQ(trace, (std::vector<int>{2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4}));

  // Idle bytes shrink the same way, floored at min_shards.
  trace.clear();
  for (int tick = 0; tick < 12; ++tick) {
    live = scaler.tick(live, {});
    trace.push_back(live);
  }
  EXPECT_EQ(trace, (std::vector<int>{4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1, 1}));

  // With the MAC and wait terms off, neither moves the pool.
  live = 2;
  scaler.grow.reset();
  scaler.shrink.reset();
  for (int tick = 0; tick < 3; ++tick) {
    const int want =
        scaler.tick(live, {.wait_p99_ms = 1e3, .backlog_macs = 1e12});
    EXPECT_LE(want, live) << "a non-byte term moved a byte-scaled pool";
    live = want;
  }
}

TEST_F(ServeTest, AutoscalePressureLimitsAreValidated) {
  const auto rejects = [](const std::function<void(ServerOptions&)>& edit) {
    ServerOptions opts;
    opts.num_shards = 1;
    opts.max_shards = 2;  // autoscaling on: grow_at / shrink_at are live
    edit(opts);
    EXPECT_THROW(Server(shard16(), opts), Error);
  };
  // Negative or NaN terms, on any of the three limits.
  rejects([](ServerOptions& o) { o.grow_at.depth = -1.0; });
  rejects([](ServerOptions& o) { o.shrink_at.wait_p99_ms = std::nan(""); });
  rejects([](ServerOptions& o) { o.overload_at.backlog_macs = -1.0; });
  // Every term off while the consumer runs.
  rejects([](ServerOptions& o) { o.grow_at = {}; });
  rejects([](ServerOptions& o) { o.shrink_at = {}; });
  rejects([](ServerOptions& o) {
    o.overload_policy = "reject";
    o.overload_at = {};
  });
  // A shrink limit at or above the grow limit on a term both enable.
  rejects([](ServerOptions& o) { o.shrink_at.depth = o.grow_at.depth; });
  rejects([](ServerOptions& o) { o.shrink_at.wait_p99_ms = 50.0; });

  // Off is fine where nothing consumes the limit, and a term enabled on
  // one side only is not ordered.
  ServerOptions fixed;
  fixed.num_shards = 1;
  fixed.grow_at = {};
  fixed.shrink_at = {};
  fixed.overload_at = {};
  EXPECT_NO_THROW(Server(shard16(), fixed));
  ServerOptions one_sided;
  one_sided.num_shards = 1;
  one_sided.max_shards = 2;
  one_sided.grow_at = {.depth = 4.0, .backlog_macs = 1e6};
  one_sided.shrink_at = {.depth = 0.5, .wait_p99_ms = 1.0};
  EXPECT_NO_THROW(Server(shard16(), one_sided));
}

// Bandwidth-starved memory hierarchy + a wall-clock-slow engine: the queued
// backlog named by `term` (bytes or MACs; every other overload term off)
// trips reject admission, and every served result carries the starved
// config's nonzero stall/traffic counters.
void expect_backlog_trips_reject(double Pressure::*term) {
  arch::ArrayConfig config = arch::ArrayConfig::square(16);
  config.mem.enabled = true;
  config.mem.spad_bytes = 12288;
  config.mem.dram_bytes_per_cycle = 1;  // the DRAM stream IS the makespan
  config.mem.dram_latency_cycles = 8;
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 1;
  opts.backend = "chaos";
  opts.chaos.delay_rate = 1.0;  // every run sleeps — backlog builds
  opts.chaos.delay_ms = 20.0;
  opts.overload_policy = "reject";
  opts.overload_at = {};
  opts.overload_at.*term = 1.0;  // any queued byte / MAC is pressure
  Server server(config, opts);

  Rng rng(77);
  auto weights = std::make_shared<gemm::Mat32>(
      gemm::random_matrix(rng, 64, 64, -50, 50));
  std::vector<std::future<GemmResult>> accepted;
  int rejected = 0;
  for (int i = 0; i < 8; ++i) {
    try {
      accepted.push_back(server.submit_gemm(
          "bandwidth-hog", gemm::random_matrix(rng, 8, 64, -10, 10), weights));
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1) << "the queued backlog never tripped admission";
  EXPECT_LE(rejected, 7);  // the first request always lands
  for (auto& f : accepted) {
    const GemmResult r = f.get();
    EXPECT_GT(r.dram_bytes, 0);
    EXPECT_GT(r.stall_cycles, 0) << "starved bandwidth produced no stalls";
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.backlog_bytes, 0);  // everything drained
  EXPECT_EQ(stats.backlog_macs, 0);
}

TEST_F(ServeTest, ByteBacklogPressureTripsRejectAdmissionEndToEnd) {
  expect_backlog_trips_reject(&Pressure::backlog_bytes);
}

TEST_F(ServeTest, MacBacklogPressureTripsRejectAdmissionEndToEnd) {
  expect_backlog_trips_reject(&Pressure::backlog_macs);
}

TEST_F(ServeTest, DegradeModeServesOnAShrunkScratchpad) {
  // degrade_spad_fraction < 1: degraded traffic runs on an engine whose
  // scratchpad is half-sized, where the A-stationary resident plan no
  // longer fits — so degraded results move strictly MORE than the
  // compulsory A+B+C traffic while full-fidelity results move exactly it.
  arch::ArrayConfig config = shard16();
  config.mem.enabled = true;
  config.mem.spad_bytes = 12288;
  config.mem.dram_bytes_per_cycle = 64;  // compute-bound: minimal-traffic
  config.mem.dram_latency_cycles = 8;    // plans win the kAuto pick
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 1;
  opts.backend = "chaos";
  opts.chaos.delay_rate = 1.0;
  opts.chaos.delay_ms = 20.0;
  opts.overload_policy = "degrade";
  opts.overload_at = {.depth = 1.0};
  opts.degrade_spad_fraction = 0.5;
  Server server(config, opts);

  Rng rng(78);
  auto weights = random_weights(rng, 64, 64);
  const gemm::GemmShape shape{64, 64, 8};
  const std::int64_t compulsory = mem::projected_gemm_bytes(shape, config);
  std::vector<std::future<GemmResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.submit_gemm(
        "bursty", gemm::random_matrix(rng, 8, 64, -10, 10), weights));
  }
  int degraded = 0;
  for (auto& f : futures) {
    const GemmResult r = f.get();
    EXPECT_GT(r.cycles, 0);
    if (r.degraded) {
      ++degraded;
      EXPECT_GT(r.dram_bytes, compulsory)
          << "the shrunk scratchpad did not change the memory plan";
    } else {
      EXPECT_EQ(r.dram_bytes, compulsory);
    }
  }
  EXPECT_GE(degraded, 1) << "pressure never degraded a request";
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.degraded, degraded);
  EXPECT_EQ(stats.rejected, 0);  // degrade admits everything
}

// ---- transformer serving traffic (serve/transformer_traffic.h) ------------

TEST_F(ServeTest, TransformerDecodeStreamFusesBitIdentically) {
  // Three decode steps of one model stream their phase GEMMs through the
  // server.  Same phase => same shared weight matrix (the bundle reuses
  // shared_ptrs), so skinny T=1 rows from DIFFERENT steps fuse along T —
  // and every request's slice of the fused product must still be
  // bit-identical to its standalone reference GEMM.
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 64;
  Server server(shard16(), opts);

  Rng rng(411);
  // Submitted under a pause, the decode steps all queue before the shard
  // looks; DRR serves the decoder's stream ahead of the 67M-MAC k=4 plug
  // (whose head no single quantum affords) as ONE batch.
  server.pause_serving(true);
  auto plug_weights = random_weights(rng, 256, 256);
  auto plug_future = server.submit_gemm(
      "plug", gemm::random_matrix(rng, 1024, 256, -4, 4), plug_weights,
      {.k = 4});

  nn::TransformerConfig tc;
  tc.d_model = 8;
  tc.n_heads = 2;
  tc.d_ff = 16;
  tc.n_blocks = 1;
  const TransformerWeights weights = make_transformer_weights(tc, 6, rng);
  constexpr int kSteps = 3;
  std::vector<PhaseGemm> gemms;
  std::vector<std::future<GemmResult>> futures;
  for (int step = 0; step < kSteps; ++step) {
    for (PhaseGemm& g : decode_gemms(weights, rng)) {
      futures.push_back(server.submit_gemm("decoder", g.a, g.b, {.k = 1}));
      gemms.push_back(std::move(g));
    }
  }
  server.pause_serving(false);
  plug_future.get();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const GemmResult r = futures[i].get();
    EXPECT_EQ(r.k, 1);
    EXPECT_EQ(r.batch_requests, kSteps * 8);
    EXPECT_EQ(r.fused_rows, kSteps);  // one row from every decode step
    const gemm::Mat64 want = gemm::reference_gemm(gemms[i].a, *gemms[i].b);
    EXPECT_EQ(gemm::first_mismatch(r.out, want), "")
        << "phase " << nn::transformer_phase_name(gemms[i].phase) << " step "
        << i;
  }
  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  // 8 distinct weight matrices per step (qkv, 2x K^T, 2x V, out, up, down):
  // the one decode batch fuses its 24 requests into 8 hardware runs, then
  // the plug runs alone.
  EXPECT_EQ(stats.shards[0].requests, 1 + kSteps * 8);
  EXPECT_EQ(stats.shards[0].batches, 2);
  EXPECT_EQ(stats.shards[0].fused_runs, 1 + 8);
  EXPECT_EQ(stats.shards[0].mode_switches, 1);
}

// ---- runtime reconfiguration policy, end to end ---------------------------

TEST_F(ServeTest, ReconfigStickyHoldsStreamModeWhereArgminThrashes) {
  // An interleaved prefill/decode stream whose two shapes prefer different
  // modes.  The argmin policy reconfigures the shard at every boundary;
  // sticky (with a margin the interleave never accumulates past, since
  // every prefill resets the challenger run) holds the stream mode and
  // pays ZERO drains.
  const arch::CalibratedClockModel clock = arch::CalibratedClockModel::date23();
  const arch::PipelineOptimizer opt(shard16(), clock);
  const gemm::GemmShape fat{16, 16, 512};
  const gemm::GemmShape skinny{16, 16, 1};
  ASSERT_NE(opt.best_mode(fat).k, opt.best_mode(skinny).k)
      << "shapes must disagree on the optimal mode for this test to bite";

  const auto drive = [&](const std::string& policy, double margin) {
    ServerOptions opts;
    opts.num_shards = 1;
    opts.max_batch = 1;
    opts.reconfig_policy = policy;
    opts.reconfig_switch_margin = margin;
    Server server(shard16(), opts);
    Rng rng(909);
    auto weights = random_weights(rng, 16, 16);
    for (int i = 0; i < 3; ++i) {
      // Submit-and-wait keeps admission order == service order.
      server
          .submit_gemm("t", gemm::random_matrix(rng, 512, 16, -5, 5), weights)
          .get();
      server
          .submit_gemm("t", gemm::random_matrix(rng, 1, 16, -5, 5), weights)
          .get();
    }
    return server.stats();
  };

  const ServerStats argmin = drive("argmin", 2.0);
  EXPECT_EQ(argmin.reconfig_policy, "argmin");
  EXPECT_EQ(argmin.reconfig_holds, 0);
  // The argmin default keeps the historical LOCK-FREE admission path, so
  // its policy counters stay at zero; the thrash shows up where it costs —
  // the shard's mode switches and drain time.
  EXPECT_EQ(argmin.reconfig_stream_switches, 0);
  ASSERT_EQ(argmin.shards.size(), 1u);
  EXPECT_EQ(argmin.shards[0].mode_switches, 5);
  EXPECT_GT(argmin.shards[0].reconfig_time_ps, 0.0);

  const ServerStats sticky = drive("sticky", 100.0);
  EXPECT_EQ(sticky.reconfig_policy, "sticky");
  EXPECT_EQ(sticky.reconfig_stream_switches, 0);
  EXPECT_EQ(sticky.reconfig_holds, 3);  // every decode held on the stream mode
  ASSERT_EQ(sticky.shards.size(), 1u);
  EXPECT_EQ(sticky.shards[0].mode_switches, 0);
  EXPECT_EQ(sticky.shards[0].reconfig_time_ps, 0.0);
}

// One transformer serving stream, identical for every policy it is served
// under:
// 1. Arrival ramp: the early half of the sessions prefill their full
//    `ramp_seq`-token prompts back to back (a fat regime, where any static
//    deep-collapse mode bleeds).
// 2. Decode regime: sessions * decode_per_prefill decode steps (T = 1, a
//    deep-collapse regime, where any static shallow mode bleeds), with the
//    late sessions' `followup_seq`-token follow-up prompts, split into
//    `chunk_seq`-token chunks, interleaved one GEMM at a time between
//    decode steps: chunked prefill under continuous batching.  Per-request
//    argmin pays two drains around each such isolated fatter GEMM; sticky
//    holds the stream mode and serves it slightly off-optimal.
// All sessions share one weight bundle, so same-phase decode steps carry
// identical B pointers and fuse.
std::vector<PhaseGemm> build_mix_stream(const TransformerWeights& weights,
                                        int sessions, int decode_per_prefill,
                                        std::int64_t ramp_seq,
                                        std::int64_t followup_seq,
                                        std::int64_t chunk_seq, Rng& rng) {
  std::vector<PhaseGemm> stream;
  const int early = decode_per_prefill > 0 ? (sessions + 1) / 2 : sessions;
  for (int s = 0; s < early; ++s) {
    for (PhaseGemm& g : prefill_gemms(weights, ramp_seq, rng)) {
      stream.push_back(std::move(g));
    }
  }
  if (decode_per_prefill <= 0) return stream;

  std::vector<PhaseGemm> decodes;
  for (int i = 0; i < sessions * decode_per_prefill; ++i) {
    for (PhaseGemm& g : decode_gemms(weights, rng)) {
      decodes.push_back(std::move(g));
    }
  }
  std::vector<PhaseGemm> chunks;
  for (int s = early; s < sessions; ++s) {
    for (std::int64_t done = 0; done < followup_seq; done += chunk_seq) {
      for (PhaseGemm& g : prefill_gemms(
               weights, std::min(chunk_seq, followup_seq - done), rng)) {
        chunks.push_back(std::move(g));
      }
    }
  }
  const std::size_t gap =
      chunks.empty() ? decodes.size() + 1
                     : std::max<std::size_t>(1, decodes.size() / chunks.size());
  std::size_t ci = 0;
  for (std::size_t i = 0; i < decodes.size(); ++i) {
    stream.push_back(std::move(decodes[i]));
    if ((i + 1) % gap == 0 && ci < chunks.size()) {
      stream.push_back(std::move(chunks[ci++]));
    }
  }
  while (ci < chunks.size()) stream.push_back(std::move(chunks[ci++]));
  return stream;
}

TEST_F(ServeTest, ReconfigStickyBeatsEveryStaticModeOnDecodeMixes) {
  // ArrayFlex's claim at serve time: choosing the mode per request, with
  // hysteresis against the drain, serves more requests per SIMULATED
  // second than any fixed pipeline.  Drains are priced at a meaty 2048
  // cycles and land in the same denominator as busy time, so a policy
  // wins only by spending less array time per request.  Submitted whole
  // under a pause, the schedule is exact and the score deterministic.
  struct Point {
    std::int64_t submitted = 0;
    std::int64_t completed = 0;
    std::int64_t mode_switches = 0;
    double sim_ps = 0.0;  // busy + reconfiguration time
    double sim_requests_per_s() const {
      return static_cast<double>(completed) / (sim_ps * 1e-12);
    }
  };
  // static_k > 0 pins every request to that mode; 0 defers to `policy`.
  const auto serve_mix = [&](int decode_per_prefill, int static_k,
                             const std::string& policy) {
    nn::TransformerConfig tc;
    tc.d_model = 64;
    tc.n_heads = 2;
    tc.d_ff = 256;
    tc.n_blocks = 1;
    Rng rng(4242);
    const TransformerWeights weights =
        make_transformer_weights(tc, /*kv_len=*/512, rng);
    std::vector<PhaseGemm> stream =
        build_mix_stream(weights, /*sessions=*/8, decode_per_prefill,
                         /*ramp_seq=*/512, /*followup_seq=*/64,
                         /*chunk_seq=*/32, rng);

    ServerOptions opts;
    opts.num_shards = 1;
    opts.max_batch = 8;
    opts.queue_capacity = stream.size();  // a paused submit must not block
    opts.reconfig_cycles = 2048;
    opts.reconfig_policy = policy;
    opts.reconfig_switch_margin = 4.0;
    Server server(shard16(), opts);
    server.pause_serving(true);
    std::vector<std::future<GemmResult>> futures;
    for (PhaseGemm& g : stream) {
      futures.push_back(server.submit_gemm(
          "mix", std::move(g.a), g.b, {.k = static_k, .want_output = false}));
    }
    server.pause_serving(false);
    for (auto& f : futures) f.get();

    const ServerStats stats = server.stats();
    Point p;
    p.submitted = stats.submitted;
    p.completed = stats.completed;
    for (const ShardSnapshot& shard : stats.shards) {
      p.mode_switches += shard.mode_switches;
      p.sim_ps += shard.busy_time_ps + shard.reconfig_time_ps;
    }
    EXPECT_EQ(p.submitted, static_cast<std::int64_t>(stream.size()));
    return p;
  };

  for (const int decode_per_prefill : {8, 32}) {
    SCOPED_TRACE("mix 1:" + std::to_string(decode_per_prefill));
    const Point sticky = serve_mix(decode_per_prefill, 0, "sticky");
    const Point argmin = serve_mix(decode_per_prefill, 0, "argmin");
    EXPECT_EQ(sticky.completed, sticky.submitted);
    EXPECT_EQ(argmin.completed, argmin.submitted);
    EXPECT_GT(sticky.sim_requests_per_s(), argmin.sim_requests_per_s());
    EXPECT_LT(sticky.mode_switches, argmin.mode_switches);
    for (const int k : {1, 2, 4}) {
      const Point fixed = serve_mix(decode_per_prefill, k, "argmin");
      EXPECT_EQ(fixed.completed, fixed.submitted) << "static k=" << k;
      EXPECT_GT(sticky.sim_requests_per_s(), fixed.sim_requests_per_s())
          << "static k=" << k;
    }
  }
}

TEST(ReconfigServerOptionsTest, UnknownPolicyRejectedAtConstruction) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.reconfig_policy = "thrash";
  EXPECT_THROW(Server(arch::ArrayConfig::square(16), opts), Error);
  ServerOptions neg;
  neg.num_shards = 1;
  neg.reconfig_switch_margin = -1.0;
  EXPECT_THROW(Server(arch::ArrayConfig::square(16), neg), Error);
}

// ---- fused-rider byte budgeting (the double-charge regression) ------------

TEST(AssembleBatchTest, FusedRiderBytesChargeOnlyPrivateRows) {
  // Requests sharing the head's weight matrix will fuse in the executor
  // (one B stream for the stack), so the byte budget must charge them
  // their private A+C rows only.  Under the old full-charge accounting
  // this backlog admitted ONE rider; fused-aware charging admits both
  // same-weight riders and correctly keeps the foreign-weight one out.
  auto w = std::make_shared<const gemm::Mat32>(4, 4);
  auto w2 = std::make_shared<const gemm::Mat32>(4, 4);
  const auto sized = [](std::uint64_t id,
                        std::shared_ptr<const gemm::Mat32> b,
                        std::int64_t full, std::int64_t rider) {
    Request r = make_gemm_request(id, 1);
    r.b = std::move(b);
    r.drr_bytes = full;
    r.drr_rider_bytes = rider;
    return r;
  };
  RequestQueue q(16);
  ASSERT_TRUE(q.push(sized(0, w, 1000, 400)));   // head: full charge
  ASSERT_TRUE(q.push(sized(1, w, 1000, 400)));   // fuses: rider charge
  ASSERT_TRUE(q.push(sized(2, w, 1000, 400)));   // fuses: rider charge
  ASSERT_TRUE(q.push(sized(3, w2, 1000, 400)));  // foreign weights: full
  Batch b = assemble_batch(q.try_pop().value(), q, /*max_batch=*/8,
                           /*max_batch_bytes=*/2000);
  // 1000 (head) + 400 + 400 fits; the foreign-weight request needs a full
  // 1000 against the remaining 200 and keeps its queue position.
  ASSERT_EQ(b.requests.size(), 3u);
  EXPECT_EQ(b.requests[0].id, 0u);
  EXPECT_EQ(b.requests[1].id, 1u);
  EXPECT_EQ(b.requests[2].id, 2u);
  EXPECT_EQ(q.size(), 1u);

  // A rider admitted at full charge registers ITS weights too: later
  // same-weight riders in the same sweep pay only their private rows.
  RequestQueue q2(16);
  ASSERT_TRUE(q2.push(sized(0, w, 1000, 400)));
  ASSERT_TRUE(q2.push(sized(1, w2, 1000, 300)));
  ASSERT_TRUE(q2.push(sized(2, w2, 1000, 300)));
  Batch b2 = assemble_batch(q2.try_pop().value(), q2, 8,
                            /*max_batch_bytes=*/2300);
  // 1000 + 1000 (w2 boards) + 300 (w2 rider) == 2300: all admitted.
  EXPECT_EQ(b2.requests.size(), 3u);
  EXPECT_EQ(q2.size(), 0u);
}

TEST(RequestQueueTest, FusedRidersAreChargedOnce) {
  // Regression: a DRR pop (try_pop) composed with the coalescing sweep
  // (pop_all_if) must charge each rider's own deficit exactly once — no
  // double MAC charge, and the byte backlog mirror returns to zero once
  // the tenant drains.
  constexpr std::int64_t kQuantum = 100;
  RequestQueue q(16, kQuantum);
  const auto sized = [](std::uint64_t id, std::int64_t cost,
                        std::int64_t bytes) {
    Request r = make_tenant_request(id, "u", cost);
    r.drr_bytes = bytes;
    return r;
  };
  for (std::uint64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE(q.push(sized(id, 60, 250)));
  }
  EXPECT_EQ(q.approx_bytes(), 1000);

  ASSERT_TRUE(q.try_pop().has_value());  // credits a quantum, serves
  const std::int64_t after_pop = q.deficit("u");
  const std::int64_t bytes_after_pop = q.approx_bytes();
  EXPECT_EQ(bytes_after_pop, 750);

  auto riders =
      q.pop_all_if([](const Request& r) { return r.decided_k == 1; }, 2);
  ASSERT_EQ(riders.size(), 2u);
  // Each rider charged exactly its own cost, once — against the deficit
  // the pop left behind.
  EXPECT_EQ(q.deficit("u"), after_pop - 2 * 60);
  EXPECT_EQ(q.approx_bytes(), 250);

  ASSERT_TRUE(q.try_pop().has_value());
  EXPECT_EQ(q.approx_bytes(), 0);
  EXPECT_EQ(q.approx_cost(), 0);
  EXPECT_EQ(q.deficit("u"), 0);  // drained tenants retire, debts included
}

}  // namespace
}  // namespace af::serve
