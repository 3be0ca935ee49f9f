// Placement policies of the fleet layer: which server a request lands on.
//
// A Router sees only ServerLoad records — slot index, routability (healthy
// AND admitting), and the server's queued simulated work in MACs (the
// dispatcher's lock-free backlog-cost mirror, serve::Server::
// backlog_cost_macs) — never the servers themselves, so every policy is a
// pure function of (key, loads) plus its own seeded state and can be
// unit-tested without a single server thread (tests/fleet_test.cpp).
//
// Registry, mirroring the engine/dispatcher/overload-policy name
// contracts (the README's router table must list exactly these; ctest
// readme_registries diffs the two):
//   "hash"      consistent hashing on the affinity key over a ring of
//               virtual nodes — tenant/model locality for fusion: the same
//               tenant's weight matrices keep landing on the same server,
//               and when one server leaves only ~1/N of keys move (pinned
//               by tests/fleet_test.cpp).
//   "p2c"       power-of-two-choices: two seeded draws among routable
//               servers, lower backlog_macs wins — near-optimal load
//               balance with two loads read per placement.
//   "affinity"  the default: consistent-hash home first, spilling to p2c
//               when the home is unroutable or its backlog exceeds
//               spill_factor x the routable mean — locality until the home
//               is the bottleneck, balance after.

#pragma once

#include <cstdint>
#include <memory>
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
  // Seeds the ring point hashes and the p2c draws; placement is a
  // deterministic replay for a fixed seed and load sequence.
  std::uint64_t seed = 0x8096c1f7ab5a3d21ULL;
  // "affinity" only: spill off the hash home when its backlog exceeds
  // spill_factor x the mean routable backlog (and that mean is non-zero).
  double spill_factor = 2.0;
};

class Router {
 public:
  virtual ~Router() = default;

  virtual const std::string& name() const = 0;

  // Picks the slot for `key` given this instant's loads, or -1 when no
  // slot is routable.  Never returns an unroutable slot (pinned by
  // tests/fleet_test.cpp across every registered policy).
  virtual int place(std::uint64_t key, const std::vector<ServerLoad>& loads) = 0;
};

// The affinity key of a tenant (and optionally the weight matrix it is
// submitting against): requests sharing a key hash to the same home
// server, so same-weight fusion keeps working across a fleet.
std::uint64_t affinity_key(const std::string& tenant);

// String-keyed factory — the one place router names resolve.  Like
// engine::make, the names returned by registered_routers() are a public
// contract: the README's router table must list exactly these (ctest
// readme_registries diffs the two).
std::unique_ptr<Router> make_router(const std::string& name,
                                    const RouterOptions& options = {});
std::vector<std::string> registered_routers();
// One-line human description per router (the README matrix source).
std::string router_description(const std::string& name);
// The registry keys quoted and comma-joined — the one formatter behind
// unknown-router error messages (mirrors engine::registered_backend_list).
std::string registered_router_list();

}  // namespace af::fleet
