// Transformer-block workloads lowered onto the GEMM facade.
//
// A decoder block is six GEMM phases (X(T x M) = A(T x N) x B(N x M)):
//
//   kQkvProj      T x d_model      by  d_model x 3*d_model   (fused Q,K,V)
//   kAttnScore    T x head_dim     by  head_dim x kv_len     (Q x K^T, per head)
//   kAttnContext  T x kv_len       by  kv_len x head_dim     (S x V,   per head)
//   kOutProj      T x d_model      by  d_model x d_model
//   kMlpUp        T x d_model      by  d_model x d_ff
//   kMlpDown      T x d_ff         by  d_ff x d_model
//
// T is the number of token rows flowing through the block: the prompt
// length during PREFILL, 1 during DECODE.  kv_len is the attention span —
// how many cached key/value rows the score and context GEMMs reduce over.
// Softmax/layernorm/residual work is element-wise and does not touch the
// array; like im2col overhead for the CNNs, it is outside the model.
//
// Every phase becomes an nn::Layer (LayerKind::kGemm, one layer PER HEAD
// for the attention GEMMs — heads are independent hardware runs), so a
// transformer stack is an ordinary nn::Model: InferenceRunner::run prices
// it per phase (mode choice, power, and — with ArrayConfig::mem enabled —
// dram/stall/spad footprints), serve::Server::submit_inference serves it,
// and the exact analytic==cycle equivalence contract holds because nothing
// but standard GemmShape evaluations ever reach the engine.
//
// The KV cache is the transformer's resident memory traffic: the score and
// context layers' B matrices ARE cache panels (head_dim x kv_len and
// kv_len x head_dim), so their DRAM bytes flow through mem::TileScheduler
// like any weight tile.  kv_cache_report gives the closed-form size/traffic
// summary (resident bytes, growth per decoded token, bytes streamed and
// appended per decode step) at the config's operand width.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/config.h"
#include "gemm/tiling.h"
#include "nn/models.h"
#include "nn/runner.h"

namespace af::nn {

enum class TransformerPhase {
  kQkvProj,
  kAttnScore,
  kAttnContext,
  kOutProj,
  kMlpUp,
  kMlpDown,
};

// Stable short name ("qkv_proj", "attn_score", ...) — also the phase tag
// embedded in generated layer names and the key of totals_by_phase.
const char* transformer_phase_name(TransformerPhase phase);

// The six phases in block execution order.
std::vector<TransformerPhase> transformer_phases();

struct TransformerConfig {
  int d_model = 512;
  int n_heads = 8;
  int d_ff = 2048;
  int n_blocks = 1;

  int head_dim() const { return d_model / n_heads; }

  // Throws af::Error{kInvalidArgument} on inconsistent geometry
  // (d_model not divisible by n_heads, non-positive dims).
  void validate() const;
};

// GEMM shape of one phase at `seq_t` token rows attending over `kv_len`
// cached positions.  Attention phases return the PER-HEAD shape (a block
// runs n_heads of them).
gemm::GemmShape transformer_phase_shape(const TransformerConfig& config,
                                        TransformerPhase phase,
                                        std::int64_t seq_t,
                                        std::int64_t kv_len);

// The layer list of one block: qkv, n_heads x score, n_heads x context,
// out_proj, mlp_up, mlp_down.  Layer names are
// "blk<index>.<phase>[.h<head>]".
std::vector<Layer> transformer_block_layers(const TransformerConfig& config,
                                            std::int64_t seq_t,
                                            std::int64_t kv_len,
                                            int block_index);

// A whole stack (config.n_blocks blocks) as an ordinary nn::Model.
Model transformer_model(const TransformerConfig& config, std::int64_t seq_t,
                        std::int64_t kv_len, std::string name = "");

// Prefill: the prompt's seq_len rows attend over themselves
// (seq_t = kv_len = seq_len; fat-T GEMMs).
Model prefill_model(const TransformerConfig& config, std::int64_t seq_len);

// One decode step: a single token row attends over a kv_len-deep cache
// (seq_t = 1; skinny-T GEMMs — the same-weight fusion fodder in serving).
Model decode_model(const TransformerConfig& config, std::int64_t kv_len);

// Closed-form KV-cache size and per-step traffic at the array's operand
// width (ArrayConfig::input_bits), summed over blocks and heads.
struct KvCacheReport {
  std::int64_t resident_bytes = 0;    // K+V held at depth kv_len
  std::int64_t bytes_per_token = 0;   // cache growth per decoded token
  std::int64_t read_bytes_per_step = 0;   // K^T + V panels streamed per step
  std::int64_t write_bytes_per_step = 0;  // new K,V rows appended per step
};
KvCacheReport kv_cache_report(const TransformerConfig& config,
                              const arch::ArrayConfig& array,
                              std::int64_t kv_len);

// Per-phase aggregation of a transformer ModelReport (layer names carry
// their phase tag): summed time/energy/MACs/footprints and the max
// scratchpad peak, keyed by transformer_phase_name.  Layers without a
// phase tag (a mixed model) land under "other".
struct PhaseTotals {
  int layers = 0;
  std::int64_t macs = 0;
  double arrayflex_time_ps = 0.0;
  double arrayflex_energy_pj = 0.0;
  std::int64_t dram_bytes = 0;
  std::int64_t stall_cycles = 0;
  std::int64_t spad_peak_bytes = 0;
};
std::map<std::string, PhaseTotals> totals_by_phase(const ModelReport& report);

}  // namespace af::nn
