#include "serve/queue.h"

#include <algorithm>

#include "util/status.h"

namespace af::serve {
namespace {

std::int64_t deadline_ns(Clock::time_point deadline) {
  if (deadline == Clock::time_point::max()) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             deadline.time_since_epoch())
      .count();
}

}  // namespace

RequestQueue::RequestQueue(std::size_t capacity, std::int64_t quantum)
    : capacity_(capacity), quantum_(quantum) {
  AF_CHECK(capacity > 0, "request queue needs a positive capacity");
  AF_CHECK(quantum > 0, "DRR quantum must be positive");
}

bool RequestQueue::push(Request r) {
  return push_until(r, Clock::time_point::max()) == PushResult::kAccepted;
}

PushResult RequestQueue::push_until(Request& r, Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto admissible = [this] { return closed_ || total_ < capacity_; };
  if (deadline == Clock::time_point::max()) {
    not_full_.wait(lock, admissible);
  } else if (!not_full_.wait_until(lock, deadline, admissible)) {
    return PushResult::kFull;
  }
  if (closed_) return PushResult::kClosed;
  TenantQueue& tq = tenants_[r.tenant];
  if (tq.items.empty()) ring_.push_back(r.tenant);  // newly backlogged
  const std::int64_t dl = deadline_ns(r.deadline);
  if (dl < earliest_deadline_ns_.load(std::memory_order_relaxed)) {
    earliest_deadline_ns_.store(dl, std::memory_order_relaxed);
  }
  cost_total_ += r.drr_cost;
  bytes_total_ += r.drr_bytes;
  tq.items.push_back(std::move(r));
  ++total_;
  approx_size_.store(total_, std::memory_order_relaxed);
  approx_cost_.store(cost_total_, std::memory_order_relaxed);
  approx_bytes_.store(bytes_total_, std::memory_order_relaxed);
  return PushResult::kAccepted;
}

Request RequestQueue::take_front_locked() {
  const std::string tenant = ring_[ring_pos_];
  TenantQueue& tq = tenants_[tenant];
  Request r = std::move(tq.items.front());
  tq.items.pop_front();
  tq.deficit -= r.drr_cost;
  --total_;
  cost_total_ -= r.drr_cost;
  bytes_total_ -= r.drr_bytes;
  approx_size_.store(total_, std::memory_order_relaxed);
  approx_cost_.store(cost_total_, std::memory_order_relaxed);
  approx_bytes_.store(bytes_total_, std::memory_order_relaxed);
  retire_if_empty_locked(tenant);
  return r;
}

void RequestQueue::retire_if_empty_locked(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || !it->second.items.empty()) return;
  tenants_.erase(it);  // deficit (and any borrow debt) resets with the backlog
  const auto ring_it = std::find(ring_.begin(), ring_.end(), tenant);
  if (ring_it != ring_.end()) {
    const std::size_t idx =
        static_cast<std::size_t>(ring_it - ring_.begin());
    ring_.erase(ring_it);
    if (idx < ring_pos_) --ring_pos_;  // keep the DRR position stable
  }
}

std::optional<Request> RequestQueue::try_pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (total_ == 0) return std::nullopt;
  Request r = pop_drr_locked();
  lock.unlock();
  not_full_.notify_one();
  return r;
}

Request RequestQueue::pop_drr_locked() {
  // Deficit round-robin: visit backlogged tenants in ring order.  Arriving
  // at a tenant credits its deficit with one quantum (once per visit); a
  // tenant whose deficit covers its head request is served and keeps the
  // pointer while the remaining deficit covers the next head (the DRR
  // burst); otherwise the pointer moves on, the accumulated deficit kept.
  // A full fruitless circle (every tenant credited once, nobody servable)
  // fast-forwards whole rounds in one arithmetic step instead of spinning
  // — a head request costing thousands of quanta dispatches in O(ring)
  // work under the lock, with shares identical to circling that many
  // times.
  std::size_t fruitless = 0;
  for (;;) {
    if (ring_pos_ >= ring_.size()) ring_pos_ = 0;
    // Copied, not referenced: serving may retire the tenant and erase its
    // ring slot out from under a reference.
    const std::string tenant = ring_[ring_pos_];
    TenantQueue& tq = tenants_[tenant];
    const std::int64_t cost = tq.items.front().drr_cost;
    if (tq.deficit >= cost) {
      Request r = take_front_locked();
      // take_front_locked may have retired the tenant (ring entry and
      // TenantQueue gone); otherwise decide whether the burst continues.
      const auto it = tenants_.find(tenant);
      if (it != tenants_.end() &&
          it->second.deficit < it->second.items.front().drr_cost) {
        it->second.credited = false;
        ++ring_pos_;
      }
      return r;
    }
    if (!tq.credited) {
      tq.credited = true;
      tq.deficit += quantum_;
      continue;  // retry this tenant with the fresh credit
    }
    tq.credited = false;  // visit over; keep the accumulated deficit
    ++ring_pos_;
    if (++fruitless >= ring_.size()) {
      fruitless = 0;
      // Nobody is servable after one quantum each: credit the minimum
      // number of whole rounds that makes some head affordable, to every
      // ring member at once (exactly what that many more circles would
      // have done).
      std::int64_t min_rounds = 0;
      for (const std::string& name : ring_) {
        const TenantQueue& t = tenants_[name];
        const std::int64_t shortfall =
            t.items.front().drr_cost - t.deficit;
        const std::int64_t rounds =
            shortfall <= 0 ? 0 : (shortfall + quantum_ - 1) / quantum_;
        if (min_rounds == 0 || rounds < min_rounds) min_rounds = rounds;
        if (rounds == 0) break;
      }
      if (min_rounds > 0) {
        for (const std::string& name : ring_) {
          tenants_[name].deficit += min_rounds * quantum_;
        }
      }
    }
  }
}

std::vector<Request> RequestQueue::pop_all_if(
    const std::function<bool(const Request&)>& pred, int max_take) {
  std::vector<Request> out;
  if (max_take <= 0) return out;
  std::unique_lock<std::mutex> lock(mutex_);
  // Snapshot the scan order up front: taking a tenant's last request
  // retires it and shifts ring slots under an index-based walk.
  std::vector<std::string> order;
  order.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    order.push_back(ring_[(ring_pos_ + i) % ring_.size()]);
  }
  for (const std::string& tenant : order) {
    if (static_cast<int>(out.size()) >= max_take) break;
    const auto found = tenants_.find(tenant);
    if (found == tenants_.end()) continue;
    TenantQueue& tq = found->second;
    // Erase-as-you-go and stop the moment the budget fills: the common
    // take is a contiguous run at the FRONT of a tenant's FIFO (a stream
    // of same-mode requests), so this touches O(taken) requests and leaves
    // the rest of the backlog unmoved.
    for (auto it = tq.items.begin();
         it != tq.items.end() && static_cast<int>(out.size()) < max_take;) {
      if (pred(*it)) {
        // The rider pays its own way: charging the cost here (possibly
        // driving the deficit negative) keeps long-run DRR shares intact
        // even when coalescing jumps the round-robin order.
        tq.deficit -= it->drr_cost;
        --total_;
        cost_total_ -= it->drr_cost;
        bytes_total_ -= it->drr_bytes;
        approx_size_.store(total_, std::memory_order_relaxed);
        approx_cost_.store(cost_total_, std::memory_order_relaxed);
        approx_bytes_.store(bytes_total_, std::memory_order_relaxed);
        out.push_back(std::move(*it));
        it = tq.items.erase(it);
      } else {
        ++it;
      }
    }
    retire_if_empty_locked(tenant);
  }
  if (!out.empty()) {
    lock.unlock();
    not_full_.notify_all();
  }
  return out;
}

std::vector<Request> RequestQueue::drain_all() {
  std::vector<Request> out;
  std::unique_lock<std::mutex> lock(mutex_);
  for (const std::string& tenant : ring_) {
    TenantQueue& tq = tenants_[tenant];
    for (Request& r : tq.items) out.push_back(std::move(r));
  }
  tenants_.clear();
  ring_.clear();
  ring_pos_ = 0;
  total_ = 0;
  cost_total_ = 0;
  bytes_total_ = 0;
  approx_size_.store(0, std::memory_order_relaxed);
  approx_cost_.store(0, std::memory_order_relaxed);
  approx_bytes_.store(0, std::memory_order_relaxed);
  earliest_deadline_ns_.store(std::numeric_limits<std::int64_t>::max(),
                              std::memory_order_relaxed);
  if (!out.empty()) {
    lock.unlock();
    not_full_.notify_all();
  }
  return out;
}

void RequestQueue::refresh_deadline_hint_locked() {
  std::int64_t earliest = std::numeric_limits<std::int64_t>::max();
  for (const auto& [tenant, tq] : tenants_) {
    for (const Request& r : tq.items) {
      earliest = std::min(earliest, deadline_ns(r.deadline));
    }
  }
  earliest_deadline_ns_.store(earliest, std::memory_order_relaxed);
}

std::vector<Request> RequestQueue::remove_expired(Clock::time_point now) {
  std::vector<Request> out;
  // Lock-free fast path: nothing queued can be overdue.  The hint is a
  // lower bound (pops leave it stale-low), so a miss here only costs an
  // occasional fruitless locked sweep, never a missed expiry.
  if (earliest_deadline_ns_.load(std::memory_order_relaxed) >
      deadline_ns(now)) {
    return out;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  // Snapshot the scan order: taking a tenant's last request retires it and
  // shifts ring slots under an index-based walk (same as pop_all_if).
  std::vector<std::string> order;
  order.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    order.push_back(ring_[(ring_pos_ + i) % ring_.size()]);
  }
  for (const std::string& tenant : order) {
    const auto found = tenants_.find(tenant);
    if (found == tenants_.end()) continue;
    TenantQueue& tq = found->second;
    for (auto it = tq.items.begin(); it != tq.items.end();) {
      if (it->expired(now)) {
        // No deficit charge: DRR debts measure service received, and an
        // expired request was never served.
        --total_;
        cost_total_ -= it->drr_cost;
        bytes_total_ -= it->drr_bytes;
        approx_size_.store(total_, std::memory_order_relaxed);
        approx_cost_.store(cost_total_, std::memory_order_relaxed);
        approx_bytes_.store(bytes_total_, std::memory_order_relaxed);
        out.push_back(std::move(*it));
        it = tq.items.erase(it);
      } else {
        ++it;
      }
    }
    retire_if_empty_locked(tenant);
  }
  refresh_deadline_hint_locked();
  if (!out.empty()) {
    lock.unlock();
    not_full_.notify_all();
  }
  return out;
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::optional<int> RequestQueue::peek_mode() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (total_ == 0 || ring_.empty()) return std::nullopt;
  const std::size_t pos = ring_pos_ < ring_.size() ? ring_pos_ : 0;
  const auto it = tenants_.find(ring_[pos]);
  if (it == tenants_.end() || it->second.items.empty()) return std::nullopt;
  const Request& head = it->second.items.front();
  if (head.kind != RequestKind::kGemm) return std::nullopt;
  return head.decided_k;
}

std::int64_t RequestQueue::deficit(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.deficit;
}

}  // namespace af::serve
