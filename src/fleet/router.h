// Placement of the fleet layer: which server a request lands on.
//
// The Router sees only ServerLoad records — slot index, routability
// (healthy AND admitting), and the server's queued simulated work in MACs
// (the dispatcher's lock-free backlog-cost mirror, serve::Server::
// backlog_cost_macs) — never the servers themselves, so placement is a pure
// function of (key, loads) plus the router's own draw counter and can be
// unit-tested without a single server thread (tests/fleet_test.cpp).  One
// fixed seed hashes the ring and the draws: every run places alike.
//
// One placement, two stages:
//   home   consistent hashing on the affinity key over a ring of virtual
//          nodes — tenant/model locality for fusion: the same tenant's
//          weight matrices keep landing on the same server, and when one
//          server leaves only ~1/N of keys move (pinned by
//          tests/fleet_test.cpp).
//   spill  power of two choices: when the home's backlog exceeds
//          spill_factor x the routable mean, two hashed draws among the
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

class Router {
 public:
  // Spill off the hash home when its backlog exceeds spill_factor x the
  // mean routable backlog (and that mean is non-zero).  Must be positive;
  // +inf never spills.
  explicit Router(double spill_factor);

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

  double spill_factor_;
  std::vector<RingPoint> ring_;
  int ring_slots_ = -1;
  std::uint64_t draws_ = 0;  // spill draws so far
};

// The affinity key of a tenant (and optionally the weight matrix it is
// submitting against): requests sharing a key hash to the same home
// server, so same-weight fusion keeps working across a fleet.
std::uint64_t affinity_key(const std::string& tenant);

}  // namespace af::fleet
