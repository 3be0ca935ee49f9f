#include "serve/tenant_stats.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace af::serve {

void TenantAccountant::record(const std::string& tenant, bool is_inference,
                              double latency_ms, double queue_ms,
                              double energy_pj, double sim_time_ps,
                              std::int64_t macs) {
  std::lock_guard<std::mutex> lock(mutex_);
  Account& acc = accounts_[tenant];
  (is_inference ? acc.infer_requests : acc.gemm_requests) += 1;
  acc.macs += macs;
  acc.energy_pj += energy_pj;
  acc.sim_time_ps += sim_time_ps;
  acc.latency_ms.add(latency_ms);
  acc.queue_ms.add(queue_ms);
  acc.latency_hist.add(latency_ms);
}

void TenantAccountant::record_error(const std::string& tenant,
                                    ErrorCode code) {
  std::lock_guard<std::mutex> lock(mutex_);
  Account& acc = accounts_[tenant];
  switch (code) {
    case ErrorCode::kOverloaded:
      acc.rejected += 1;
      break;
    case ErrorCode::kDeadlineExceeded:
      acc.expired += 1;
      break;
    default:
      acc.faults += 1;
      break;
  }
}

void TenantAccountant::record_retry(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mutex_);
  accounts_[tenant].retries += 1;
}

void TenantAccountant::record_degraded(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mutex_);
  accounts_[tenant].degraded += 1;
}

std::vector<TenantSnapshot> TenantAccountant::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TenantSnapshot> out;
  out.reserve(accounts_.size());
  double total_sim_time_ps = 0.0;
  for (const auto& [name, acc] : accounts_) {
    total_sim_time_ps += acc.sim_time_ps;
  }
  for (const auto& [name, acc] : accounts_) {
    TenantSnapshot s;
    s.tenant = name;
    s.gemm_requests = acc.gemm_requests;
    s.infer_requests = acc.infer_requests;
    s.requests = acc.gemm_requests + acc.infer_requests;
    s.rejected = acc.rejected;
    s.expired = acc.expired;
    s.faults = acc.faults;
    s.retries = acc.retries;
    s.degraded = acc.degraded;
    s.macs = acc.macs;
    s.energy_pj = acc.energy_pj;
    s.sim_time_ps = acc.sim_time_ps;
    s.served_share =
        total_sim_time_ps > 0 ? acc.sim_time_ps / total_sim_time_ps : 0.0;
    if (acc.latency_ms.count() > 0) {
      s.mean_latency_ms = acc.latency_ms.mean();
      s.max_latency_ms = acc.latency_ms.max();
      // The histogram's within-bucket interpolation can stray past the
      // observed extrema by up to one bucket width; the RunningStat knows
      // them exactly, so clamp the estimates into the true range.
      const auto clamped = [&](double q) {
        return std::clamp(acc.latency_hist.quantile(q), acc.latency_ms.min(),
                          acc.latency_ms.max());
      };
      s.p50_latency_ms = clamped(0.50);
      s.p99_latency_ms = clamped(0.99);
    }
    if (acc.queue_ms.count() > 0) {
      s.mean_queue_ms = acc.queue_ms.mean();
      s.max_queue_ms = acc.queue_ms.max();
    }
    out.push_back(std::move(s));
  }
  return out;
}

void LatencyWindow::sample(double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back(ms);
}

LatencyWindow::Stats LatencyWindow::drain() {
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    samples.swap(samples_);
  }
  Stats stats;
  stats.count = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return stats;
  // Nearest-rank p99: ceil(0.99 * n) - 1.  Small windows round UP to the
  // worst samples (n = 2 must report the max, not the min) — an autoscaler
  // watching trickle traffic must still see a slow request's wait.
  const std::size_t idx = static_cast<std::size_t>(std::min<double>(
      static_cast<double>(samples.size() - 1),
      std::ceil(0.99 * static_cast<double>(samples.size())) - 1.0));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  stats.p99_ms = samples[idx];
  stats.max_ms = *std::max_element(samples.begin(), samples.end());
  return stats;
}

}  // namespace af::serve
