#include "fleet/router.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "util/rng.h"
#include "util/status.h"

namespace af::fleet {
namespace {

// --- "hash": consistent hashing over a ring of virtual nodes ---------------
//
// Ring points are a pure function of (seed, slot, replica), NOT of the
// routable set — so the ring never rebuilds.  A placement walks clockwise
// from the key's position until it meets a routable slot; when a slot
// leaves (unroutable), exactly the keys whose walk first met that slot
// move to their next ring neighbour — the ~1/N stability the fleet's
// fusion locality depends on.
class HashRouter final : public Router {
 public:
  explicit HashRouter(const RouterOptions& options) : options_(options) {
    AF_CHECK(options_.replicas > 0,
             "router replicas must be positive, got " << options_.replicas);
  }

  const std::string& name() const override {
    static const std::string kName = "hash";
    return kName;
  }

  int place(std::uint64_t key, const std::vector<ServerLoad>& loads) override {
    ensure_ring(static_cast<int>(loads.size()));
    if (ring_.empty()) return -1;
    const std::uint64_t point = splitmix64(options_.seed ^ splitmix64(key));
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), point,
        [](const RingPoint& p, std::uint64_t v) { return p.point < v; });
    for (std::size_t step = 0; step < ring_.size(); ++step) {
      if (it == ring_.end()) it = ring_.begin();
      const int slot = it->slot;
      if (slot < static_cast<int>(loads.size()) && loads[slot].routable) {
        return slot;
      }
      ++it;
    }
    return -1;  // nothing routable
  }

 private:
  struct RingPoint {
    std::uint64_t point;
    int slot;
  };

  // (Re)builds the ring when the slot COUNT changes (fleets are fixed-size
  // slot arrays; membership churn is the routable flag, not the count).
  void ensure_ring(int slots) {
    if (slots == ring_slots_) return;
    ring_.clear();
    ring_.reserve(static_cast<std::size_t>(slots) *
                  static_cast<std::size_t>(options_.replicas));
    for (int s = 0; s < slots; ++s) {
      for (int r = 0; r < options_.replicas; ++r) {
        const std::uint64_t point = splitmix64(
            options_.seed ^
            (static_cast<std::uint64_t>(s) * 0x100000001b3ULL +
             static_cast<std::uint64_t>(r)));
        ring_.push_back(RingPoint{point, s});
      }
    }
    std::sort(ring_.begin(), ring_.end(),
              [](const RingPoint& a, const RingPoint& b) {
                if (a.point != b.point) return a.point < b.point;
                return a.slot < b.slot;
              });
    ring_slots_ = slots;
  }

  RouterOptions options_;
  std::vector<RingPoint> ring_;
  int ring_slots_ = -1;
};

// --- "p2c": power of two choices on backlog cost ---------------------------
class P2cRouter final : public Router {
 public:
  explicit P2cRouter(const RouterOptions& options) : options_(options) {}

  const std::string& name() const override {
    static const std::string kName = "p2c";
    return kName;
  }

  int place(std::uint64_t key, const std::vector<ServerLoad>& loads) override {
    (void)key;  // load-blind of the key: pure balance, no locality
    std::vector<int> routable;
    routable.reserve(loads.size());
    for (const ServerLoad& l : loads) {
      if (l.routable) routable.push_back(l.server);
    }
    if (routable.empty()) return -1;
    if (routable.size() == 1) return routable[0];
    const std::uint64_t draw = draws_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t r1 = splitmix64(options_.seed ^ (2 * draw));
    const std::uint64_t r2 = splitmix64(options_.seed ^ (2 * draw + 1));
    const int a = routable[r1 % routable.size()];
    int b = routable[r2 % routable.size()];
    if (a == b) b = routable[(r2 + 1) % routable.size()];
    return loads[b].backlog_macs < loads[a].backlog_macs ? b : a;
  }

 private:
  RouterOptions options_;
  std::atomic<std::uint64_t> draws_{0};
};

// --- "affinity": hash home with load-aware spill to p2c --------------------
class AffinityRouter final : public Router {
 public:
  explicit AffinityRouter(const RouterOptions& options)
      : hash_(options), p2c_(options), spill_factor_(options.spill_factor) {
    AF_CHECK(spill_factor_ > 0.0,
             "router spill_factor must be positive, got " << spill_factor_);
  }

  const std::string& name() const override {
    static const std::string kName = "affinity";
    return kName;
  }

  int place(std::uint64_t key, const std::vector<ServerLoad>& loads) override {
    const int home = hash_.place(key, loads);
    if (home < 0) return -1;
    // Spill when the home is drowning relative to its routable peers: the
    // fusion-locality win is worth a longer queue, but not an unbounded one.
    std::int64_t total = 0;
    int routable = 0;
    for (const ServerLoad& l : loads) {
      if (!l.routable) continue;
      total += l.backlog_macs;
      ++routable;
    }
    if (routable > 1) {
      const double mean =
          static_cast<double>(total) / static_cast<double>(routable);
      if (mean > 0.0 &&
          static_cast<double>(loads[home].backlog_macs) > spill_factor_ * mean) {
        const int spill = p2c_.place(key, loads);
        if (spill >= 0) return spill;
      }
    }
    return home;
  }

 private:
  HashRouter hash_;
  P2cRouter p2c_;
  double spill_factor_;
};

struct RouterEntry {
  const char* name;
  const char* description;
  std::unique_ptr<Router> (*create)(const RouterOptions&);
};

// Definition order is presentation order (engine_info --routers, README).
const RouterEntry kRegistry[] = {
    {"affinity",
     "consistent-hash home per tenant key, spilling to p2c when the home's "
     "backlog exceeds spill_factor x the routable mean (default)",
     [](const RouterOptions& o) -> std::unique_ptr<Router> {
       return std::make_unique<AffinityRouter>(o);
     }},
    {"hash",
     "consistent hashing over a ring of virtual nodes -- tenant/model "
     "locality; ~1/N keys move when a server leaves",
     [](const RouterOptions& o) -> std::unique_ptr<Router> {
       return std::make_unique<HashRouter>(o);
     }},
    {"p2c",
     "power of two choices: two seeded draws among routable servers, lower "
     "backlog_macs wins -- pure load balance, no locality",
     [](const RouterOptions& o) -> std::unique_ptr<Router> {
       return std::make_unique<P2cRouter>(o);
     }},
};

}  // namespace

std::uint64_t affinity_key(const std::string& tenant) {
  // FNV-1a over the tenant bytes, finalized through splitmix64 — stable
  // across runs and platforms (std::hash is neither).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : tenant) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return splitmix64(h);
}

std::unique_ptr<Router> make_router(const std::string& name,
                                    const RouterOptions& options) {
  for (const RouterEntry& entry : kRegistry) {
    if (name == entry.name) return entry.create(options);
  }
  AF_CHECK(false, "unknown router \"" << name << "\"; registered routers: "
                                      << registered_router_list());
  return nullptr;
}

std::vector<std::string> registered_routers() {
  std::vector<std::string> names;
  for (const RouterEntry& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

std::string router_description(const std::string& name) {
  for (const RouterEntry& entry : kRegistry) {
    if (name == entry.name) return entry.description;
  }
  AF_CHECK(false, "unknown router \"" << name << "\"; registered routers: "
                                      << registered_router_list());
  return "";
}

std::string registered_router_list() {
  std::ostringstream out;
  bool first = true;
  for (const RouterEntry& entry : kRegistry) {
    if (!first) out << ", ";
    out << '"' << entry.name << '"';
    first = false;
  }
  return out.str();
}

}  // namespace af::fleet
