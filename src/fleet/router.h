// Placement of the fleet layer: which server a request lands on.
//
// The Router sees only ServerLoad records — slot index, routability
// (healthy AND admitting), and the server's queued simulated work in MACs
// (the dispatcher's lock-free backlog-cost mirror, serve::Server::
// backlog_cost_macs) — never the servers themselves, so placement is a pure
// function of (key, loads) plus the router's own seeded state and can be
// unit-tested without a single server thread (tests/fleet_test.cpp).
//
// One placement, two stages:
//   home   consistent hashing on the affinity key over a ring of virtual
//          nodes — tenant/model locality for fusion: the same tenant's
//          weight matrices keep landing on the same server, and when one
//          server leaves only ~1/N of keys move (pinned by
//          tests/fleet_test.cpp).
//   spill  power of two choices: when the home's backlog exceeds
//          spill_factor x the routable mean, two seeded draws among the
//          routable servers, lower backlog_macs wins — locality until the
//          home is the bottleneck, balance after.  spill_factor = +inf
//          never spills (pure consistent hashing).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace af::fleet {

// One server slot as the router sees it.  `routable` folds health and
// admission together: quarantined (unhealthy), draining, dead or
// shut-down slots are all simply not placement candidates.
struct ServerLoad {
  int server = -1;
  bool routable = false;
  std::int64_t backlog_macs = 0;
};

struct RouterOptions {
  // Virtual nodes per server slot on the consistent-hash ring.  More
  // replicas flatten the key distribution; 64 keeps the ring a few KB.
  int replicas = 64;
  // Seeds the ring point hashes and the spill draws; placement is a
  // deterministic replay for a fixed seed and load sequence.
  std::uint64_t seed = 0x8096c1f7ab5a3d21ULL;
  // Spill off the hash home when its backlog exceeds spill_factor x the
  // mean routable backlog (and that mean is non-zero).  Must be positive;
  // +inf never spills.
  double spill_factor = 2.0;
};

class Router {
 public:
  explicit Router(const RouterOptions& options = {});

  // Picks the slot for `key` given this instant's loads, or -1 when no
  // slot is routable.  Never returns an unroutable slot (pinned by
  // tests/fleet_test.cpp).  Not thread-safe: the ring builds lazily.
  int place(std::uint64_t key, const std::vector<ServerLoad>& loads);

 private:
  struct RingPoint {
    std::uint64_t point;
    int slot;
  };

  // The key's consistent-hash home among the routable slots, or -1.
  int home(std::uint64_t key, const std::vector<ServerLoad>& loads);
  // Power of two choices among the routable slots, or -1.
  int spill(const std::vector<ServerLoad>& loads);
  // (Re)builds the ring when the slot COUNT changes (fleets are fixed-size
  // slot arrays; membership churn is the routable flag, not the count).
  void ensure_ring(int slots);

  RouterOptions options_;
  std::vector<RingPoint> ring_;
  int ring_slots_ = -1;
  std::uint64_t draws_ = 0;  // spill draws so far
};

// The affinity key of a tenant (and optionally the weight matrix it is
// submitting against): requests sharing a key hash to the same home
// server, so same-weight fusion keeps working across a fleet.
std::uint64_t affinity_key(const std::string& tenant);

}  // namespace af::fleet
