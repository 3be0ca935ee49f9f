#include "serve/tenant_stats.h"

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
    if (acc.latency_ms.count() > 0) {  // record() fills both or neither
      s.mean_latency_ms = acc.latency_ms.mean();
      s.max_latency_ms = acc.latency_ms.max();
      s.p50_latency_ms = acc.latency_ms.quantile(0.50);
      s.p99_latency_ms = acc.latency_ms.quantile(0.99);
      s.mean_queue_ms = acc.queue_ms.mean();
      s.max_queue_ms = acc.queue_ms.max();
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace af::serve
