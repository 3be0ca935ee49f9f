// Runtime dataflow reconfiguration policy: which pipeline mode k a served
// GEMM stream runs in.
//
// Switching an ArrayFlex shard between modes drains the pipeline
// (Server::prepare_mode bills reconfig_cycles at the new mode's clock plus
// the leakage burned while no work flows), so the per-request Eq. 6 argmin
// is NOT free at serve time: a stream that interleaves fat-T prefill GEMMs
// (shallow-pipeline optimal) with skinny-T decode GEMMs (deep-pipeline
// optimal) pays a drain at every phase boundary.  The policy decides, per
// admitted request, whether chasing the request's own optimum is worth the
// drain it would trigger — the serve-time analogue of Flex-TPU's
// runtime-reconfigurable dataflow.
//
// Registered policies (engine_info --reconfig-policies; the README's
// "Reconfiguration policies" table mirrors these names, ctest
// readme_registries diffs the two):
//
//   "argmin"  stateless per-request Eq. 6 argmin — today's admission
//             behaviour, optimal per GEMM, oblivious to drain cost.
//   "sticky"  hysteresis (the autoscaler pattern one level down): the
//             stream holds its established mode until the ACCUMULATED
//             projected win of requests preferring another mode exceeds
//             switch_margin x drain cost; any request whose own argmin
//             matches the stream mode resets the accumulation.  Decode
//             spam between prefills no longer drags the array through a
//             drain pair per interleave.
//
// The struct is a pure state machine (like util::Streak / util::Latch in
// util/hysteresis.h): decide() consumes one request's per-mode cost sweep
// and the drain price, returns the mode to stamp, and mutates only its own
// counters — unit-testable on synthetic streams without threads, clocks or
// engines.  The Server serializes calls under its admission mutex; batch
// assembly then groups requests by the stamped mode exactly as before
// (serve::compatible), so the policy's choice IS the batch's mode.

#pragma once

#include <string>
#include <vector>

#include "arch/optimizer.h"

namespace af::serve {

enum class ReconfigPolicyKind { kArgmin, kSticky };

// Throws af::Error{kInvalidArgument} with the registry listed on unknown
// names (the engine/dispatcher/overload-policy registry idiom).
ReconfigPolicyKind parse_reconfig_policy(const std::string& name);
// Sorted registry keys (the README drift-check contract).
std::vector<std::string> reconfig_policy_names();
// One-line human description per policy (the README table source).
std::string reconfig_policy_description(const std::string& name);

struct ReconfigPolicy {
  ReconfigPolicyKind kind = ReconfigPolicyKind::kArgmin;
  // A switch fires once the accumulated projected win reaches
  // switch_margin x drain_ps: the drain must pay for itself this many
  // times over before the stream moves.  >= 0; 0 switches on any win.
  double switch_margin = 2.0;

  // One admitted GEMM: `modes` is the request's per-mode cost sweep
  // (arch::PipelineOptimizer::sweep — every supported k with Tabs), and
  // `drain_ps` the simulated cost of reconfiguring to a new mode now.
  // Returns the mode to stamp on the request.
  int decide(const std::vector<arch::ModeSweepEntry>& modes, double drain_ps);

  // --- state (stream-scoped; reset() between independent streams) ---------
  int stream_k = 0;             // established mode, 0 = none yet
  double pending_win_ps = 0.0;  // accumulated win of the challenger mode
  std::int64_t switches = 0;    // decisions that moved the stream mode
  std::int64_t holds = 0;       // requests held on stream_k against their
                                // own argmin (the drains NOT paid)

  void reset();
};

}  // namespace af::serve
