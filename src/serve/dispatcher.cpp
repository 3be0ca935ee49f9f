#include "serve/dispatcher.h"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <thread>
#include <utility>

#include "util/rng.h"
#include "util/status.h"

namespace af::serve {
namespace {

// Seed of the steal scan's victim randomization.
constexpr std::uint64_t kStealSeed = 0x517cc1b727220a95ULL;

}  // namespace

// One shard's deque plus the state its worker parks on.
struct Dispatcher::Slot {
  explicit Slot(const DispatcherOptions& o)
      : queue(o.queue_capacity, o.drr_quantum) {}

  RequestQueue queue;
  // Quarantined (set_banned): skipped by submit routing, still covered by
  // the steal scan.  Read lock-free on the submit hot path.
  std::atomic<bool> banned{false};
  // Pipeline mode this shard's array is configured in (0 until the
  // executor publishes one) — the steal scan's locality preference.
  std::atomic<int> mode{0};
  // Both guarded by park_mutex: `parked` while the worker sleeps on `wake`,
  // `signalled` once someone woke it, so later submits wake another worker.
  std::mutex park_mutex;
  std::condition_variable wake;
  bool parked = false;
  bool signalled = false;
  // Dispatch counter driving the periodic retired-slot probe: its own
  // cache line, touched only by this slot's worker.
  alignas(64) std::uint32_t probe_seq = 0;
};

Dispatcher::Dispatcher(const DispatcherOptions& options)
    : max_batch_(options.max_batch),
      max_batch_bytes_(options.max_batch_bytes),
      live_(options.live_shards),
      rng_state_(kStealSeed),
      failpoint_(options.failpoint) {
  AF_CHECK(options.max_shards >= 1, "dispatcher needs a slot");
  AF_CHECK(options.live_shards >= 1 &&
               options.live_shards <= options.max_shards,
           "live_shards must be in [1, max_shards]");
  slots_.reserve(static_cast<std::size_t>(options.max_shards));
  for (int i = 0; i < options.max_shards; ++i) {
    slots_.push_back(std::make_unique<Slot>(options));
  }
}

Dispatcher::~Dispatcher() = default;

SubmitResult Dispatcher::submit_until(Request& r, Clock::time_point deadline) {
  if (failpoint_) failpoint_("submit");
  const int home = route(r);
  switch (
      slots_[static_cast<std::size_t>(home)]->queue.push_until(r, deadline)) {
    case PushResult::kAccepted:
      wake_for(home);
      return SubmitResult::kAccepted;
    case PushResult::kFull:
      return SubmitResult::kWouldBlock;
    case PushResult::kClosed:
      break;
  }
  return SubmitResult::kClosed;
}

std::optional<Batch> Dispatcher::next_batch(int shard) {
  for (;;) {
    const int live_now = live_.load(std::memory_order_acquire);
    if (shard >= live_now) {
      // A submit that raced the scale-down may have spent its wake on this
      // retiring worker: pass it on so the work does not wait.
      if (approx_depth() > 0) wake_for(0);
      return std::nullopt;
    }
    // The scan is announced before paused_ is read and retracted after the
    // pop, so set_paused(true) can wait out every scan that read "not
    // paused" (seq_cst on both sides): once it returns, no scan hands out
    // work, not even work submitted later.
    scanning_.fetch_add(1);
    const bool paused = paused_.load();
    std::optional<Batch> batch;
    if (!paused) batch = scan(shard, live_now);
    scanning_.fetch_sub(1);
    if (batch) return batch;
    if (closed_.load(std::memory_order_acquire) && (paused || depth() == 0)) {
      return std::nullopt;
    }
    park(shard);
  }
}

std::optional<Batch> Dispatcher::scan(int shard, int live_now) {
  Slot& me = *slots_[static_cast<std::size_t>(shard)];
  const int n = static_cast<int>(slots_.size());
  // Anti-starvation sweep: a submit that raced a scale-down can land in a
  // retired deque AFTER its drain, and under sustained saturation no live
  // worker ever runs dry to steal it.  Every 64th dispatch, probe the
  // retired slots — a relaxed-load hint each, so the orphan's wait is
  // bounded by ~64 dispatch times instead of the next load dip.
  if ((me.probe_seq++ & 63u) == 0) {
    for (int s = live_now; s < n; ++s) {
      if (slots_[static_cast<std::size_t>(s)]->queue.approx_size() == 0) {
        continue;
      }
      if (std::optional<Batch> batch = round_from(s, /*stolen=*/true)) {
        return batch;
      }
    }
  }
  // Own deque first: affinity keeps a tenant's coalescable stream here.
  if (std::optional<Batch> batch = round_from(shard, /*stolen=*/false)) {
    return batch;
  }
  // Dry: steal a whole DRR round from a random victim.  The scan covers
  // every slot — retired ones included, so a submission that raced a
  // scale-down is still served.  Two passes for pipeline-mode locality:
  // the first only takes victims whose pending round is in the mode THIS
  // shard's array is already configured in (peek_mode hint), so the
  // stolen batch skips the reconfiguration drain; the second takes
  // anyone.  The first pass is skipped while the thief has no mode yet.
  const int start = static_cast<int>(
      splitmix64(rng_state_.fetch_add(1, std::memory_order_relaxed)) %
      static_cast<std::uint64_t>(n));
  const int my_mode = me.mode.load(std::memory_order_relaxed);
  for (int pass = my_mode > 0 ? 0 : 1; pass < 2; ++pass) {
    for (int i = 0; i < n; ++i) {
      const int victim = (start + i) % n;
      if (victim == shard) continue;
      RequestQueue& q = slots_[static_cast<std::size_t>(victim)]->queue;
      // Lock-free emptiness hint first: a dry victim costs a relaxed
      // load, not a mutex round-trip.
      if (q.approx_size() == 0) continue;
      if (pass == 0 && q.peek_mode() != my_mode) continue;
      if (failpoint_) failpoint_("steal");
      if (std::optional<Batch> batch = round_from(victim, /*stolen=*/true)) {
        return batch;
      }
    }
  }
  return std::nullopt;
}

std::optional<Batch> Dispatcher::round_from(int from, bool stolen) {
  RequestQueue& q = slots_[static_cast<std::size_t>(from)]->queue;
  std::optional<Request> head = q.try_pop();
  if (!head) return std::nullopt;
  if (stolen) steals_.fetch_add(1, std::memory_order_relaxed);
  // A stolen round's riders come from the VICTIM's deque: the unit moved
  // is its whole DRR round, so fairness moves with the work.
  Batch batch =
      assemble_batch(std::move(*head), q, max_batch_, max_batch_bytes_);
  batch.stolen = stolen;
  top_up(batch, from);
  return batch;
}

void Dispatcher::park(int shard) {
  if (failpoint_) failpoint_("park");
  Slot& me = *slots_[static_cast<std::size_t>(shard)];
  std::unique_lock<std::mutex> lock(me.park_mutex);
  me.parked = true;
  parked_.fetch_add(1);
  // Re-checked AFTER the park is published: a submit's push either lands
  // before this check's deque lock (and is seen here) or after it, and
  // then its read of parked_ sees this worker and signals — no lost wake.
  if (!has_news(shard)) {
    me.wake.wait(lock, [&] { return me.signalled; });
  }
  me.parked = false;
  me.signalled = false;
  parked_.fetch_sub(1);
}

bool Dispatcher::has_news(int shard) const {
  if (closed_.load() || shard >= live_.load()) return true;
  return !paused_.load() && depth() > 0;
}

bool Dispatcher::signal(Slot& slot) {
  {
    std::lock_guard<std::mutex> lock(slot.park_mutex);
    if (!slot.parked || slot.signalled) return false;
    slot.signalled = true;
  }
  slot.wake.notify_one();
  return true;
}

void Dispatcher::wake_for(int home) {
  // Every worker busy (the loaded steady state): one load, no scan.
  if (parked_.load() == 0) return;
  const int n = static_cast<int>(slots_.size());
  for (int i = 0; i < n; ++i) {
    if (signal(*slots_[static_cast<std::size_t>((home + i) % n)])) return;
  }
}

void Dispatcher::wake_all() {
  for (auto& slot : slots_) signal(*slot);
}

void Dispatcher::rehome(int shard) {
  for (Request& r :
       slots_[static_cast<std::size_t>(shard)]->queue.drain_all()) {
    if (failpoint_) failpoint_("drain");
    submit(std::move(r));
  }
}

void Dispatcher::set_live_shards(int live) {
  // Serialized against close(): a close landing mid-drain would make the
  // re-submits below fail and silently destroy accepted requests (their
  // clients' promises with them).  Holding the control mutex, the drain
  // completes before close marks the queues — workers keep popping
  // throughout, so the blocking re-submits always make progress.
  std::lock_guard<std::mutex> control(control_mutex_);
  AF_CHECK(live >= 1 && live <= static_cast<int>(slots_.size()),
           "live shard count must be in [1, max_shards]");
  AF_CHECK(!closed_.load(), "set_live_shards after close");
  const int old = live_.exchange(live, std::memory_order_acq_rel);
  // Scale-down: every orphan of a retired deque rehashes onto the
  // surviving live set; then parked retiring workers wake to exit.
  for (int s = live; s < old; ++s) rehome(s);
  wake_all();
}

void Dispatcher::set_banned(int shard, bool banned) {
  // Shares the control mutex with set_live_shards/close: the drain's
  // blocking re-submits must never race a close, which would silently
  // destroy accepted requests (same reasoning as the scale-down drain).
  std::lock_guard<std::mutex> control(control_mutex_);
  AF_CHECK(shard >= 0 && shard < static_cast<int>(slots_.size()),
           "set_banned shard " << shard << " out of range");
  if (closed_.load()) return;  // the shutdown drain supersedes quarantine
  slots_[static_cast<std::size_t>(shard)]->banned.store(
      banned, std::memory_order_release);
  // Rehome the quarantined deque's backlog so nothing waits behind a
  // worker that stopped serving.  A submission racing this drain may still
  // land here (stale flag read); the steal scan covers every slot, banned
  // included, so it is served.
  if (banned) rehome(shard);
}

void Dispatcher::set_paused(bool paused) {
  paused_.store(paused);
  if (!paused) {
    wake_all();
    return;
  }
  // Waits out the scans that read paused_ before the store (see
  // next_batch); they end with a pop or a miss, never a wait.
  while (scanning_.load() != 0) std::this_thread::yield();
}

void Dispatcher::close() {
  // Waits for any in-flight scale-down drain (see set_live_shards).
  std::lock_guard<std::mutex> control(control_mutex_);
  // Queues close FIRST, closed_ flips LAST: workers exit on
  // closed_ && depth()==0, so once they can observe closed_, no push can
  // succeed anymore and anything accepted earlier is still visible in some
  // queue's depth — an accepted request never strands behind exited
  // workers.
  for (auto& slot : slots_) slot->queue.close();
  closed_.store(true, std::memory_order_release);
  wake_all();
}

std::size_t Dispatcher::depth() const {
  std::size_t total = 0;
  for (const auto& slot : slots_) total += slot->queue.size();
  return total;
}

std::size_t Dispatcher::approx_depth() const {
  std::size_t total = 0;
  for (const auto& slot : slots_) total += slot->queue.approx_size();
  return total;
}

std::int64_t Dispatcher::approx_cost() const {
  std::int64_t total = 0;
  for (const auto& slot : slots_) total += slot->queue.approx_cost();
  return total;
}

std::int64_t Dispatcher::approx_bytes() const {
  std::int64_t total = 0;
  for (const auto& slot : slots_) total += slot->queue.approx_bytes();
  return total;
}

std::vector<Request> Dispatcher::drain_remaining() {
  // The control mutex orders this after any in-flight scale-down or
  // quarantine drain — their blocking re-submits land in some queue
  // before we sweep, so nothing slips between the drains.
  std::lock_guard<std::mutex> control(control_mutex_);
  AF_CHECK(closed_.load(), "drain_remaining before close");
  std::vector<Request> out;
  for (auto& slot : slots_) {
    for (Request& r : slot->queue.drain_all()) out.push_back(std::move(r));
  }
  return out;
}

void Dispatcher::set_shard_mode(int shard, int k) {
  AF_CHECK(shard >= 0 && shard < static_cast<int>(slots_.size()),
           "set_shard_mode shard " << shard << " out of range");
  slots_[static_cast<std::size_t>(shard)]->mode.store(
      k, std::memory_order_relaxed);
}

// Affinity routing with quarantine and retry steering: the hash picks the
// home among the live prefix; a banned (quarantined) home — or the shard
// that just failed this request (Request::avoid_shard) — is stepped over
// by linear probing.  When every live slot except the failing one is
// banned, the avoid preference yields first; when every live slot is
// banned outright, the raw home takes the push and the backlog waits there
// (served meanwhile by the steal scan, which covers every slot) until a
// probe recovers some shard.
int Dispatcher::route(const Request& r) const {
  const int live = std::max(1, live_.load(std::memory_order_acquire));
  const int home =
      static_cast<int>(affinity_hash(r) % static_cast<std::size_t>(live));
  const auto open = [&](int s) {
    return !slots_[static_cast<std::size_t>(s)]->banned.load(
        std::memory_order_acquire);
  };
  for (int i = 0; i < live; ++i) {
    const int candidate = (home + i) % live;
    if (open(candidate) && candidate != r.avoid_shard) return candidate;
  }
  for (int i = 0; i < live; ++i) {
    const int candidate = (home + i) % live;
    if (open(candidate)) return candidate;
  }
  return home;
}

// A round that came up short of max_batch tops up with compatible riders
// from the other deques (skipping `swept`, already coalesced).  Riders are
// charged to their own tenants' deficits in their own queues, so
// partitioned deques never cost batching efficiency: a short local round
// pays a few extra probes exactly when the worker was about to go stealing
// anyway, and deep deques (the loaded case) never probe at all.  The byte
// budget continues across deques under the local sweep's rule
// (RiderFilter): fused riders pay their private bytes wherever they queue.
void Dispatcher::top_up(Batch& batch, int swept) {
  // An expired-only batch (the popped head was overdue) has no front() to
  // match riders against — the worker just resolves the expiries.
  if (batch.requests.empty()) return;
  int budget = max_batch_ - static_cast<int>(batch.requests.size());
  if (budget <= 0) return;
  RiderFilter filter(batch, max_batch_bytes_);
  for (std::size_t i = 0; i < slots_.size() && budget > 0; ++i) {
    if (static_cast<int>(i) == swept) continue;
    RequestQueue& q = slots_[i]->queue;
    if (q.approx_size() == 0) continue;
    std::vector<Request> riders = q.pop_all_if(
        [&](const Request& r) { return filter.admit(r); }, budget);
    budget -= static_cast<int>(riders.size());
    for (Request& r : riders) batch.requests.push_back(std::move(r));
  }
}

std::size_t affinity_hash(const Request& r) {
  if (r.kind == RequestKind::kGemm || r.kind == RequestKind::kGemmBatch) {
    // Batched cost queries share the GEMM rule: a tenant's stream lands in
    // one deque, where same-backend batch requests coalesce locally.
    return std::hash<std::string>{}(r.tenant);
  }
  // Model pointers are aligned, so mix the bits before the modulo.
  return static_cast<std::size_t>(
      splitmix64(reinterpret_cast<std::uintptr_t>(r.model.get())));
}

}  // namespace af::serve
