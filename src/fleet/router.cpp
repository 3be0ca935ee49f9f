#include "fleet/router.h"

#include <algorithm>

#include "util/rng.h"
#include "util/status.h"

namespace af::fleet {

// Virtual nodes per server slot on the consistent-hash ring: enough to
// flatten the key distribution while the ring stays a few KB.
constexpr int kReplicas = 64;
// Seeds the ring point hashes and the spill draws.
constexpr std::uint64_t kSeed = 0x8096c1f7ab5a3d21ULL;

Router::Router(double spill_factor) : spill_factor_(spill_factor) {
  AF_CHECK(spill_factor_ > 0.0,
           "router spill_factor must be positive, got " << spill_factor_);
}

int Router::place(std::uint64_t key, const std::vector<ServerLoad>& loads) {
  const int slot = home(key, loads);
  if (slot < 0) return -1;
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
    if (mean > 0.0 && static_cast<double>(loads[slot].backlog_macs) >
                          spill_factor_ * mean) {
      const int spilled = spill(loads);
      if (spilled >= 0) return spilled;
    }
  }
  return slot;
}

// Ring points are a pure function of (slot, replica), NOT of the
// routable set — so the ring never rebuilds.  A placement walks clockwise
// from the key's position until it meets a routable slot; when a slot
// leaves (unroutable), exactly the keys whose walk first met that slot
// move to their next ring neighbour — the ~1/N stability the fleet's
// fusion locality depends on.
int Router::home(std::uint64_t key, const std::vector<ServerLoad>& loads) {
  ensure_ring(static_cast<int>(loads.size()));
  if (ring_.empty()) return -1;
  const std::uint64_t point = splitmix64(kSeed ^ splitmix64(key));
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

int Router::spill(const std::vector<ServerLoad>& loads) {
  std::vector<int> routable;
  routable.reserve(loads.size());
  for (const ServerLoad& l : loads) {
    if (l.routable) routable.push_back(l.server);
  }
  if (routable.empty()) return -1;
  if (routable.size() == 1) return routable[0];
  const std::uint64_t draw = draws_++;
  const std::uint64_t r1 = splitmix64(kSeed ^ (2 * draw));
  const std::uint64_t r2 = splitmix64(kSeed ^ (2 * draw + 1));
  const int a = routable[r1 % routable.size()];
  int b = routable[r2 % routable.size()];
  if (a == b) b = routable[(r2 + 1) % routable.size()];
  return loads[b].backlog_macs < loads[a].backlog_macs ? b : a;
}

void Router::ensure_ring(int slots) {
  if (slots == ring_slots_) return;
  ring_.clear();
  ring_.reserve(static_cast<std::size_t>(slots) * kReplicas);
  for (int s = 0; s < slots; ++s) {
    for (int r = 0; r < kReplicas; ++r) {
      const std::uint64_t point = splitmix64(
          kSeed ^ (static_cast<std::uint64_t>(s) * 0x100000001b3ULL +
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

}  // namespace af::fleet
