#include "arch/array.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "arch/sparse.h"
#include "gemm/multiply.h"
#include "util/math.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace af::arch {
namespace {

// Modular 64-bit accumulate (matches the RTL adders).
std::int64_t add_mod(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

}  // namespace

ActivityCounters& ActivityCounters::operator+=(const ActivityCounters& o) {
  mult_ops += o.mult_ops;
  csa_ops += o.csa_ops;
  cpa_ops += o.cpa_ops;
  hreg_writes += o.hreg_writes;
  vreg_writes += o.vreg_writes;
  wreg_writes += o.wreg_writes;
  acc_writes += o.acc_writes;
  hreg_bypassed_bit_cycles += o.hreg_bypassed_bit_cycles;
  vreg_bypassed_bit_cycles += o.vreg_bypassed_bit_cycles;
  streaming_cycles += o.streaming_cycles;
  return *this;
}

ActivityCounters& ActivityCounters::operator*=(std::int64_t factor) {
  mult_ops *= factor;
  csa_ops *= factor;
  cpa_ops *= factor;
  hreg_writes *= factor;
  vreg_writes *= factor;
  wreg_writes *= factor;
  acc_writes *= factor;
  hreg_bypassed_bit_cycles *= factor;
  vreg_bypassed_bit_cycles *= factor;
  streaming_cycles *= factor;
  return *this;
}

TileRunStats& TileRunStats::operator+=(const TileRunStats& o) {
  total_cycles += o.total_cycles;
  preload_cycles += o.preload_cycles;
  activity += o.activity;
  return *this;
}

SystolicArray::SystolicArray(const ArrayConfig& config,
                             util::ThreadPool* pool)
    : config_(config), pool_(pool) {
  config_.validate();
}

TileRunStats SystolicArray::run_tile(const gemm::Mat32& a,
                                     const gemm::Mat32& b, int k,
                                     gemm::Mat64* acc,
                                     const CycleObserver& observer) {
  AF_CHECK(config_.supports(k), "mode k=" << k << " not supported");
  return run_tile_asym(a, b, k, k, acc, observer);
}

TileRunStats SystolicArray::run_tile_asym(const gemm::Mat32& a,
                                          const gemm::Mat32& b, int k_v,
                                          int k_h, gemm::Mat64* acc,
                                          const CycleObserver& observer) {
  const std::int64_t rows = config_.rows;
  const std::int64_t cols = config_.cols;
  AF_CHECK(k_v >= 1 && divides(k_v, rows),
           "vertical collapse k_v=" << k_v << " must divide R=" << rows);
  AF_CHECK(k_h >= 1 && divides(k_h, cols),
           "horizontal collapse k_h=" << k_h << " must divide C=" << cols);
  AF_CHECK(a.cols() == rows, "tile A must have R=" << rows << " columns, got "
                                                   << a.cols());
  AF_CHECK(b.rows() == rows && b.cols() == cols,
           "tile B must be " << rows << "x" << cols << ", got " << b.rows()
                             << "x" << b.cols());
  const std::int64_t t_dim = a.rows();
  AF_CHECK(t_dim > 0, "tile T dimension must be positive");
  AF_CHECK(acc != nullptr && acc->rows() == t_dim && acc->cols() == cols,
           "accumulator must be T x C");

  TileRunStats stats;

  // ---- Weight preload: one row of B enters the north edge per cycle and
  // shifts down, taking exactly R cycles (paper Section II) during which
  // every one of the R*C weight registers latches — accounted in closed
  // form instead of emulating the O(R^2*C) shift.  The array then holds B
  // in place: the streaming epoch reads B's own row-major storage as the
  // weight plane.
  stats.preload_cycles = rows;
  stats.activity.wreg_writes = rows * rows * cols;
#ifndef NDEBUG
  {
    // Debug builds re-emulate the R-cycle shift and verify it lands every
    // B element on its stationary register (guards the closed-form
    // accounting above against scheduling regressions).
    gemm::Mat32 shifted(rows, cols);
    for (std::int64_t cycle = 0; cycle < rows; ++cycle) {
      for (std::int64_t r = rows - 1; r >= 1; --r) {
        for (std::int64_t c = 0; c < cols; ++c) {
          shifted.at(r, c) = shifted.at(r - 1, c);
        }
      }
      for (std::int64_t c = 0; c < cols; ++c) {
        shifted.at(0, c) = b.at(rows - 1 - cycle, c);
      }
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < cols; ++c) {
        AF_ASSERT(shifted.at(r, c) == b.at(r, c),
                  "weight preload misplaced B[" << r << "][" << c << "]");
      }
    }
  }
#endif

  // ---- Streaming epoch.
  const std::int64_t h_groups = cols / k_h;  // column groups (broadcast k_h)
  const std::int64_t v_groups = rows / k_v;  // row groups (collapse k_v)
  // Last output: tag T-1 resolved at the bottom-right cell, i.e. relative
  // cycle (T-1) + (C/k_h - 1) + (R/k_v - 1) — Eq. 3 minus the preload term.
  const std::int64_t streaming_cycles = t_dim + v_groups + h_groups - 2;

  // Activation plane, R x C row-major like the weights: act[r][c] is the
  // word PE (r, c) multiplies this cycle.  Column group cg sees the west
  // edge of cg cycles ago (a registered hop between groups, transparent
  // within one), so each cycle the plane shifts k_h columns east with one
  // memmove; a row's last k_h words spill into the next row's first k_h,
  // which the west edge then overwrites.
  std::vector<std::int32_t> act(static_cast<std::size_t>(rows * cols), 0);
  // Vertical boundary registers: row vg holds the partial sums resolved
  // below row group vg, consumed by group vg+1 the next cycle.  Row groups
  // run bottom-up, so each reads its input row before the group above
  // overwrites it.
  std::vector<std::int64_t> psum(
      static_cast<std::size_t>((v_groups - 1) * cols), 0);
#ifndef NDEBUG
  // Tag planes for skew verification, laid out like the value planes.  A
  // psum slot's tag fixes the cycle that wrote it, so a stale slot fails.
  std::vector<std::int64_t> act_tag(act.size(), -1);
  std::vector<std::int64_t> psum_tag(psum.size(), -1);
#endif

  std::vector<std::int32_t> west(static_cast<std::size_t>(rows), 0);
  std::vector<std::int64_t> south_values(static_cast<std::size_t>(cols), 0);
  std::vector<std::uint8_t> south_valid(static_cast<std::size_t>(cols), 0);

  const std::int32_t* a_data = a.data().data();
  const std::int32_t* w = b.data().data();
  std::int64_t* acc_data = acc->mutable_data();
  std::int64_t cells = 0;         // valid (column group, row group) cells
  std::int64_t bottom_cells = 0;  // of which in the bottom row group
  std::int64_t hreg_cells = 0;    // of which latch horizontal registers

  for (std::int64_t cycle = 0; cycle < streaming_cycles; ++cycle) {
    // (1) Horizontal latch, then west-edge injection into column group 0:
    //     A[t][r] enters at relative cycle t + floor(r/k_v) — "the first
    //     (and last) elements of matrix A arrive in batches of k words"
    //     (paper Section III).
    std::memmove(act.data() + k_h, act.data(),
                 (act.size() - static_cast<std::size_t>(k_h)) *
                     sizeof(std::int32_t));
#ifndef NDEBUG
    std::memmove(act_tag.data() + k_h, act_tag.data(),
                 (act_tag.size() - static_cast<std::size_t>(k_h)) *
                     sizeof(std::int64_t));
#endif
    for (std::int64_t vg = 0; vg < v_groups; ++vg) {
      const std::int64_t t = cycle - vg;
      const bool live = t >= 0 && t < t_dim;
      for (std::int64_t r = vg * k_v; r < (vg + 1) * k_v; ++r) {
        const std::int32_t x = live ? a_data[t * rows + r] : 0;
        west[static_cast<std::size_t>(r)] = x;
        std::fill_n(act.data() + r * cols, k_h, x);
#ifndef NDEBUG
        std::fill_n(act_tag.data() + r * cols, k_h, live ? t : -1);
#endif
      }
    }
    std::fill(south_valid.begin(), south_valid.end(), 0);

    // (2) Combinational propagate.  Cell (cg, vg) of the group grid
    //     processes tag = cycle - cg - vg, so a row group's cells whose
    //     tag lands in [0, T) are one run of column groups: one kernel call
    //     over one contiguous column range, no per-cell validity tests.
    for (std::int64_t vg = v_groups - 1; vg >= 0; --vg) {
      const std::int64_t cg_lo =
          std::max<std::int64_t>(0, cycle - vg - t_dim + 1);
      const std::int64_t cg_hi =
          std::min<std::int64_t>(h_groups - 1, cycle - vg);
      if (cg_lo > cg_hi) continue;
      const std::int64_t n = cg_hi - cg_lo + 1;
      cells += n;
      // Every valid cell outside the last column group latches its k_v
      // activations into the next group's horizontal registers.
      hreg_cells += cg_hi == h_groups - 1 ? n - 1 : n;
      const bool bottom = vg == v_groups - 1;
      const std::int64_t lo = cg_lo * k_h;
      const std::int64_t hi = (cg_hi + 1) * k_h;
      const std::int64_t r0 = vg * k_v;
      std::int64_t* dst =
          bottom ? south_values.data() : psum.data() + vg * cols;
#ifndef NDEBUG
      for (std::int64_t c = lo; c < hi; ++c) {
        const std::int64_t tag = cycle - vg - c / k_h;
        if (vg > 0) {
          AF_ASSERT(psum_tag[static_cast<std::size_t>((vg - 1) * cols + c)] ==
                        tag,
                    "psum tag skew at vg=" << vg << " c=" << c);
        }
        for (std::int64_t r = r0; r < r0 + k_v; ++r) {
          const std::int64_t stream_tag =
              act_tag[static_cast<std::size_t>(r * cols + c)];
          AF_ASSERT(stream_tag == tag, "activation tag skew: expected "
                                           << tag << ", got " << stream_tag
                                           << " at r=" << r << " c=" << c);
        }
        if (!bottom) psum_tag[static_cast<std::size_t>(vg * cols + c)] = tag;
      }
#endif
      // Transparent reduction through the k_v rows of this group: the
      // chain of 3:2 compressions resolved by the boundary CPA equals the
      // modular sum of the incoming psum and the k_v products (a 3:2
      // compression preserves sum + carry mod 2^64, which hw_builders_test's
      // CsaProperty.PreservesSumModuloWidth/64 checks at gate level), so the
      // kernel accumulates directly.
      gemm::column_mac(act.data() + r0 * cols, w + r0 * cols, cols, k_v,
                       vg > 0 ? psum.data() + (vg - 1) * cols : nullptr, dst,
                       lo, hi);
      if (bottom) {
        // South accumulators: column group cg retires tag cycle - vg - cg.
        bottom_cells += n;
        for (std::int64_t cg = cg_lo; cg <= cg_hi; ++cg) {
          std::int64_t* acc_row = acc_data + (cycle - vg - cg) * cols;
          for (std::int64_t c = cg * k_h; c < (cg + 1) * k_h; ++c) {
            acc_row[c] = add_mod(acc_row[c],
                                 south_values[static_cast<std::size_t>(c)]);
          }
        }
        std::fill(south_valid.begin() + lo, south_valid.begin() + hi, 1);
      }
    }

    if (observer) {
      CycleSnapshot snap;
      snap.relative_cycle = cycle;
      snap.west_inputs = &west;
      snap.south_values = &south_values;
      snap.south_valid = &south_valid;
      observer(snap);
    }
  }

  // Activity, accounted per valid cell instead of per MAC: every cell
  // performs k_v*k_h multiplies + compressions and k_h boundary resolves;
  // bottom-group cells retire k_h outputs, the rest latch k_h boundary
  // registers.  Clock-gated (transparent) register bits are a
  // per-streaming-cycle constant: each row keeps C/k_h - 1 of its C - 1
  // activation registers active, each column keeps R/k_v of its R psum
  // registers active.
  stats.activity.mult_ops = cells * k_v * k_h;
  stats.activity.csa_ops = cells * k_v * k_h;
  stats.activity.cpa_ops = cells * k_h;
  stats.activity.hreg_writes = hreg_cells * k_v;
  stats.activity.vreg_writes = (cells - bottom_cells) * k_h;
  stats.activity.acc_writes = bottom_cells * k_h;
  stats.activity.hreg_bypassed_bit_cycles =
      rows * (cols - h_groups) * config_.input_bits * streaming_cycles;
  stats.activity.vreg_bypassed_bit_cycles =
      cols * (rows - v_groups) * config_.acc_bits * streaming_cycles;
  stats.activity.streaming_cycles = streaming_cycles;
  stats.total_cycles = stats.preload_cycles + streaming_cycles;
  const std::int64_t outputs_written = bottom_cells * k_h;
  AF_CHECK(outputs_written == t_dim * cols,
           "streaming epoch retired " << outputs_written << " outputs, want "
                                      << t_dim * cols);
  return stats;
}

// Shared tiled-execution loop; `skip_zero_tiles` implements the block-sparse
// sequencer of Section V's future-work discussion.  The output is cut into
// C-wide column stripes — each stripe owns a disjoint set of output columns
// and iterates N innermost (so the accumulators finish one column group
// before moving on) — which makes stripes the unit of parallel dispatch:
// no two workers ever touch the same output element, and per-stripe stats
// reduce with plain integer adds, so threaded runs are bit-identical to
// serial ones.
TileRunStats SystolicArray::run_tiled(const gemm::Mat32& a,
                                      const gemm::Mat32& b, int k,
                                      gemm::Mat64* out, bool skip_zero_tiles) {
  AF_CHECK(a.cols() == b.rows(), "GEMM inner-dimension mismatch: "
                                     << a.cols() << " vs " << b.rows());
  AF_CHECK(out != nullptr, "output matrix required");
  const std::int64_t rows = config_.rows;
  const std::int64_t cols = config_.cols;
  const gemm::GemmShape shape{b.cols(), a.cols(), a.rows()};
  *out = gemm::Mat64(shape.t, shape.m);

  std::unique_ptr<TileOccupancy> occupancy;
  if (skip_zero_tiles) {
    occupancy = std::make_unique<TileOccupancy>(
        TileOccupancy::from_matrix(b, config_.rows, config_.cols));
  }
  const std::int64_t row_tiles = ceil_div(shape.n, rows);  // along N
  const std::int64_t col_tiles = ceil_div(shape.m, cols);  // along M

  // The zero-padded A panels are shared read-only by every stripe; extract
  // them once instead of once per tile.
  std::vector<gemm::Mat32> a_panels;
  a_panels.reserve(static_cast<std::size_t>(row_tiles));
  for (std::int64_t rt = 0; rt < row_tiles; ++rt) {
    a_panels.push_back(a.block_padded(0, rt * rows, shape.t, rows));
  }

  const auto run_stripe = [&](std::int64_t ct, TileRunStats* stripe_stats) {
    const std::int64_t m0 = ct * cols;
    const std::int64_t m_extent = std::min(cols, shape.m - m0);
    for (std::int64_t rt = 0; rt < row_tiles; ++rt) {
      if (occupancy != nullptr && !occupancy->is_nonzero(rt, ct)) {
        continue;  // all-zero weight tile: contributes nothing, costs nothing
      }
      const gemm::Mat32 b_block =
          b.block_padded(rt * rows, m0, rows, cols);
      gemm::Mat64 acc(shape.t, cols);
      *stripe_stats += run_tile(a_panels[static_cast<std::size_t>(rt)],
                                b_block, k, &acc);
      for (std::int64_t t = 0; t < shape.t; ++t) {
        for (std::int64_t m = 0; m < m_extent; ++m) {
          out->at(t, m0 + m) = add_mod(out->at(t, m0 + m), acc.at(t, m));
        }
      }
    }
  };

  std::vector<TileRunStats> per_stripe(static_cast<std::size_t>(col_tiles));
  util::ThreadPool::run_n(pool_, col_tiles, [&](std::int64_t ct) {
    run_stripe(ct, &per_stripe[static_cast<std::size_t>(ct)]);
  });
  TileRunStats stats;
  for (const TileRunStats& s : per_stripe) stats += s;
  return stats;
}

TileRunStats SystolicArray::run_gemm(const gemm::Mat32& a, const gemm::Mat32& b,
                                     int k, gemm::Mat64* out) {
  return run_tiled(a, b, k, out, /*skip_zero_tiles=*/false);
}

TileRunStats SystolicArray::run_gemm_sparse(const gemm::Mat32& a,
                                            const gemm::Mat32& b, int k,
                                            gemm::Mat64* out) {
  return run_tiled(a, b, k, out, /*skip_zero_tiles=*/true);
}

}  // namespace af::arch
