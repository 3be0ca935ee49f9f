#include "mem/tile_scheduler.h"

#include <algorithm>
#include <vector>

#include "util/status.h"

namespace af::mem {
namespace {

// One transfer size: the DRAM bytes it moves and the cycles it holds the
// channel (MemoryModel::transfer_cycles).
struct Move {
  std::int64_t bytes = 0;
  std::int64_t cycles = 0;
};

// One outer-loop group with at least one executed visit: the column group
// (M-outer strategies) or the row group (a_stationary), and the
// group-sized burst that brings in its resident operand.
struct Group {
  std::int64_t key = 0;
  Move burst;
};

// The DMA timeline between two visits, and the plan's running counters.
// Every update of the times is a max-plus one (a max of sums), so it
// commutes with adding one constant to all three; the counters only add.
struct Timeline {
  std::int64_t dma_free = 0;  // when the channel is next free
  std::int64_t end1 = 0;      // compute end of the last visit
  std::int64_t end2 = 0;      // ... and of the one before
  std::int64_t transfers = 0;
  std::int64_t read_bytes = 0;
  std::int64_t write_bytes = 0;
};

// The steady-state jump.  If the stretch from `before` to `now` moved the
// three times by one common d, and the next `run` stretches apply the same
// updates, each of them moves the times by d again and the counters by the
// same amounts: so apply all `run` at once and return d.  Returns 0 (times
// untouched) when the times moved unevenly; d is never 0, since every
// stretch computes at least one visit.
std::int64_t jump(Timeline& now, const Timeline& before, std::int64_t run) {
  const std::int64_t d = now.end1 - before.end1;
  if (now.dma_free - before.dma_free != d || now.end2 - before.end2 != d) {
    return 0;
  }
  now.dma_free += run * d;
  now.end1 += run * d;
  now.end2 += run * d;
  now.transfers += run * (now.transfers - before.transfers);
  now.read_bytes += run * (now.read_bytes - before.read_bytes);
  now.write_bytes += run * (now.write_bytes - before.write_bytes);
  return d;
}

}  // namespace

TileScheduler::TileScheduler(const arch::ArrayConfig& config)
    : config_(config), model_(config) {
  AF_CHECK(config.mem.enabled,
           "TileScheduler needs an enabled MemoryConfig (disabled = magic "
           "memory, nothing to schedule)");
}

std::int64_t TileScheduler::min_spad_bytes(
    const gemm::GemmShape& shape, arch::ReuseStrategy strategy) const {
  const std::int64_t in_b = model_.input_bytes();
  const std::int64_t acc_b = model_.acc_bytes();
  // Working-set maxima over the DENSE tile grid — buffers are provisioned
  // statically, they cannot depend on which tiles happen to be zero.
  const std::int64_t rows = std::min<std::int64_t>(config_.rows, shape.n);
  const std::int64_t cols = std::min<std::int64_t>(config_.cols, shape.m);
  const std::int64_t max_a = shape.t * rows * in_b;       // one A panel
  const std::int64_t max_b = rows * cols * in_b;          // one B tile
  const std::int64_t max_bg = shape.n * cols * in_b;      // one B column group
  const std::int64_t max_c = shape.t * cols * acc_b;      // one C group
  const std::int64_t sum_c = shape.t * shape.m * acc_b;   // the whole C
  switch (strategy) {
    case arch::ReuseStrategy::kOutputStationary:
      return 2 * max_a + 2 * max_b + max_c;
    case arch::ReuseStrategy::kBStationary:
      return 2 * max_bg + 2 * max_a + max_c;
    case arch::ReuseStrategy::kAStationary:
      // Resident output (sum_c) when it fits, else spill buffers (2 max_c).
      return 2 * max_a + 2 * max_b + std::min(sum_c, 2 * max_c);
    case arch::ReuseStrategy::kAuto:
      return std::min(
          {min_spad_bytes(shape, arch::ReuseStrategy::kAStationary),
           min_spad_bytes(shape, arch::ReuseStrategy::kBStationary),
           min_spad_bytes(shape, arch::ReuseStrategy::kOutputStationary)});
  }
  AF_CHECK(false, "unknown ReuseStrategy value "
                      << static_cast<int>(strategy));
}

MemoryPlan TileScheduler::plan(const gemm::GemmShape& shape,
                               std::int64_t per_tile_cycles,
                               const arch::TileOccupancy* occupancy) const {
  AF_CHECK(shape.m > 0 && shape.n > 0 && shape.t > 0,
           "GEMM shape must be positive, got m=" << shape.m
                                                 << " n=" << shape.n
                                                 << " t=" << shape.t);
  AF_CHECK(per_tile_cycles > 0, "per_tile_cycles must be positive, got "
                                    << per_tile_cycles);
  if (occupancy != nullptr) {
    occupancy->check_grid(shape, config_.rows, config_.cols);
  }
  const arch::ReuseStrategy want = config_.mem.reuse;
  if (occupancy != nullptr && occupancy->nonzero_tiles() == 0) {
    // Every tile is skipped: nothing computes, nothing moves.
    MemoryPlan empty;
    empty.strategy = want == arch::ReuseStrategy::kAuto
                         ? arch::ReuseStrategy::kOutputStationary
                         : want;
    return empty;
  }
  const std::int64_t spad = config_.mem.spad_bytes;
  if (want != arch::ReuseStrategy::kAuto) {
    AF_CHECK(min_spad_bytes(shape, want) <= spad,
             "reuse strategy " << arch::reuse_strategy_name(want)
                               << " needs at least "
                               << min_spad_bytes(shape, want)
                               << " scratchpad bytes for shape (m=" << shape.m
                               << ", n=" << shape.n << ", t=" << shape.t
                               << "), config has " << spad);
    return plan_one(shape, want, per_tile_cycles, occupancy);
  }
  MemoryPlan best;
  bool have = false;
  for (const arch::ReuseStrategy s : {arch::ReuseStrategy::kAStationary,
                                      arch::ReuseStrategy::kBStationary,
                                      arch::ReuseStrategy::kOutputStationary}) {
    if (min_spad_bytes(shape, s) > spad) continue;
    MemoryPlan p = plan_one(shape, s, per_tile_cycles, occupancy);
    if (!have || p.total_cycles < best.total_cycles ||
        (p.total_cycles == best.total_cycles &&
         p.dram_bytes() < best.dram_bytes())) {
      best = p;
      have = true;
    }
  }
  AF_CHECK(have, "no reuse strategy fits " << spad
                                           << " scratchpad bytes for shape (m="
                                           << shape.m << ", n=" << shape.n
                                           << ", t=" << shape.t
                                           << "); smallest workable scratchpad is "
                                           << min_spad_bytes(
                                                  shape,
                                                  arch::ReuseStrategy::kAuto));
  return best;
}

MemoryPlan TileScheduler::plan_one(const gemm::GemmShape& shape,
                                   arch::ReuseStrategy strategy,
                                   std::int64_t per_tile_cycles,
                                   const arch::TileOccupancy* occupancy) const {
  const std::int64_t array_rows = config_.rows;
  const std::int64_t array_cols = config_.cols;
  const std::int64_t row_tiles = (shape.n + array_rows - 1) / array_rows;
  const std::int64_t col_tiles = (shape.m + array_cols - 1) / array_cols;
  const std::int64_t in_b = model_.input_bytes();
  const std::int64_t acc_b = model_.acc_bytes();
  // Operand sizes take two values per axis, the interior tile's and the
  // (possibly narrower) last tile's: price each once.  Index 1 = edge.
  const auto edge = [](std::int64_t index, std::int64_t count) {
    return index + 1 == count ? 1 : 0;
  };
  const auto move = [&](std::int64_t bytes) {
    return Move{bytes, model_.transfer_cycles(bytes)};
  };
  const std::int64_t n_ext[2] = {std::min(array_rows, shape.n),
                                 shape.n - (row_tiles - 1) * array_rows};
  const std::int64_t m_ext[2] = {std::min(array_cols, shape.m),
                                 shape.m - (col_tiles - 1) * array_cols};
  Move a_move[2], c_move[2], b_move[2][2];
  for (int e = 0; e < 2; ++e) {
    a_move[e] = move(shape.t * n_ext[e] * in_b);
    c_move[e] = move(shape.t * m_ext[e] * acc_b);
    for (int f = 0; f < 2; ++f) b_move[e][f] = move(n_ext[e] * m_ext[f] * in_b);
  }

  const bool m_outer = strategy != arch::ReuseStrategy::kAStationary;
  const std::int64_t outer_count = m_outer ? col_tiles : row_tiles;
  const std::int64_t inner_count = m_outer ? row_tiles : col_tiles;
  std::vector<Group> groups;
  groups.reserve(static_cast<std::size_t>(outer_count));
  std::int64_t visits = 0;
  for (std::int64_t outer = 0; outer < outer_count; ++outer) {
    // Dense, every inner tile executes and b_stationary's burst is the
    // whole n x m_extent B panel; with an occupancy, count the executed.
    std::int64_t members = inner_count;
    std::int64_t b_group_bytes =
        shape.n * m_ext[edge(outer, col_tiles)] * in_b;
    if (occupancy != nullptr) {
      members = 0;
      b_group_bytes = 0;
      for (std::int64_t inner = 0; inner < inner_count; ++inner) {
        const std::int64_t i = m_outer ? inner : outer;
        const std::int64_t j = m_outer ? outer : inner;
        if (!occupancy->is_nonzero(i, j)) continue;
        ++members;
        b_group_bytes += b_move[edge(i, row_tiles)][edge(j, col_tiles)].bytes;
      }
    }
    if (members == 0) continue;  // fully skipped group: no traffic
    visits += members;
    Move burst;
    if (strategy == arch::ReuseStrategy::kBStationary) {
      burst = move(b_group_bytes);
    } else if (strategy == arch::ReuseStrategy::kAStationary) {
      burst = a_move[edge(outer, row_tiles)];
    }
    groups.push_back({outer, burst});
  }

  MemoryPlan out;
  out.strategy = strategy;
  if (visits == 0) return out;

  // a_stationary keeps the whole output resident when it fits; otherwise
  // partials spill after every visit and reload on every revisit.
  const std::int64_t a_stationary_resident_bytes =
      2 * shape.t * n_ext[0] * in_b +      // A buffers
      2 * n_ext[0] * m_ext[0] * in_b +     // B buffers
      shape.t * shape.m * acc_b;           // whole C
  const bool resident_c = strategy == arch::ReuseStrategy::kAStationary &&
                          a_stationary_resident_bytes <=
                              config_.mem.spad_bytes;
  out.spad_peak_bytes = resident_c ? a_stationary_resident_bytes
                                   : min_spad_bytes(shape, strategy);

  // Re-time compute against the in-order DMA channel in one pass, timing
  // each transfer as it is issued.  Only visit v's own fetches (issued
  // last) and the burst/drain issued just before v's group name v as
  // their consumer, and the channel's free time never decreases, so v's
  // operands are ready when its own fetches complete and
  // end[v] = max(end[v-1], ready[v]) + per_tile_cycles settles right
  // there.  Every "may not start before" gate is then a visit that has
  // already settled: the one two slots back (double buffers), the
  // previous group's last (group-granular buffers), the visit itself
  // (spills) or a column's last (resident writebacks).  End times are
  // positive, so 0 doubles as "no such visit".
  //
  // A dense grid jumps over runs of visits, and of groups, of one kind
  // (the header says why that is exact); a sparse one walks every
  // executed visit.
  const bool dense = occupancy == nullptr;
  Timeline t;
  std::vector<std::int64_t> col_end(m_outer ? 0 : col_tiles, 0);
  const auto issue = [&](const Move& m, std::int64_t not_before, bool write) {
    t.dma_free = std::max(t.dma_free, not_before) + m.cycles;
    ++t.transfers;
    (write ? t.write_bytes : t.read_bytes) += m.bytes;
  };
  const auto compute = [&] {
    t.end2 = t.end1;
    t.end1 = std::max(t.end1, t.dma_free) + per_tile_cycles;
  };
  const std::int64_t num_groups = static_cast<std::int64_t>(groups.size());
  for (std::int64_t gi = 0; gi < num_groups; ++gi) {
    const std::int64_t outer = groups[static_cast<std::size_t>(gi)].key;
    if (gi == 0 && strategy != arch::ReuseStrategy::kOutputStationary) {
      issue(groups[0].burst, 0, false);
    }
    const Timeline group_start = t;
    for (std::int64_t inner = 0; inner < inner_count; ++inner) {
      const std::int64_t i = m_outer ? inner : outer;
      const std::int64_t j = m_outer ? outer : inner;
      if (!dense && !occupancy->is_nonzero(i, j)) continue;
      const int ei = edge(i, row_tiles);
      const int ej = edge(j, col_tiles);
      const Timeline visit_start = t;
      if (m_outer) {
        // output_stationary / b_stationary: C(j) accumulates in a single
        // resident buffer; A (and, output_stationary, B) stream per visit.
        issue(a_move[ei], t.end2, false);
        if (strategy == arch::ReuseStrategy::kOutputStationary) {
          issue(b_move[ei][ej], t.end2, false);
        }
        compute();
      } else {
        // a_stationary: A(i) is resident for the group, B streams per
        // visit, spilled partials reload on a column's revisit.
        issue(b_move[ei][ej], t.end2, false);
        if (!resident_c && col_end[static_cast<std::size_t>(j)] > 0) {
          issue(c_move[ej], t.end2, false);  // reload
        }
        compute();
        if (!resident_c) issue(c_move[ej], t.end1, true);  // spill out
        col_end[static_cast<std::size_t>(j)] = t.end1;
      }
      // Dense, the visits before the group's last are of one kind: the
      // same tile sizes, and (a_stationary) every column reloads or none.
      const std::int64_t run = inner_count - 2 - inner;
      if (!dense || run <= 0) continue;
      const std::int64_t end1 = t.end1;
      const std::int64_t d = jump(t, visit_start, run);
      if (d == 0) continue;
      if (!m_outer) {
        for (std::int64_t q = 1; q <= run; ++q) {
          col_end[static_cast<std::size_t>(j + q)] = end1 + q * d;
        }
      }
      inner += run;
    }
    // Prefetch the next group's burst (b_stationary's B column group,
    // a_stationary's A panel) into the buffer freed when group gi-1
    // finished, at group_start.end1; M-outer, then drain C(j), which the
    // next group's first visit waits on.
    if (gi + 1 < num_groups &&
        strategy != arch::ReuseStrategy::kOutputStationary) {
      issue(groups[static_cast<std::size_t>(gi + 1)].burst, group_start.end1,
            false);
    }
    if (m_outer) issue(c_move[edge(outer, col_tiles)], t.end1, true);
    // Dense, groups 1 .. num_groups - 3 are of one kind: interior tiles,
    // an interior burst to prefetch, and (a_stationary) every column
    // reloads.  The timeline is a group's whole input, bar a_stationary's
    // column ends, which each skipped group moves by the same d.
    const std::int64_t group_run = num_groups - 3 - gi;
    if (!dense || gi == 0 || group_run <= 0) continue;
    const std::int64_t d = jump(t, group_start, group_run);
    if (d == 0) continue;
    for (std::int64_t& end : col_end) end += group_run * d;
    gi += group_run;
  }
  if (resident_c) {
    for (std::int64_t j = 0; j < col_tiles; ++j) {
      const std::int64_t last = col_end[static_cast<std::size_t>(j)];
      if (last > 0) issue(c_move[edge(j, col_tiles)], last, true);
    }
  }
  out.dma_transfers = t.transfers;
  out.dram_read_bytes = t.read_bytes;
  out.dram_write_bytes = t.write_bytes;
  out.compute_cycles = per_tile_cycles * visits;
  out.total_cycles = std::max(t.end1, t.dma_free);
  out.stall_cycles = out.total_cycles - out.compute_cycles;
  return out;
}

std::int64_t projected_gemm_bytes(const gemm::GemmShape& shape,
                                  const arch::ArrayConfig& config) {
  const std::int64_t in_b = (config.input_bits + 7) / 8;
  const std::int64_t acc_b = (config.acc_bits + 7) / 8;
  return shape.t * shape.n * in_b +   // activations A
         shape.n * shape.m * in_b +   // weights B
         shape.t * shape.m * acc_b;   // outputs C
}

std::int64_t projected_fused_rider_bytes(const gemm::GemmShape& shape,
                                         const arch::ArrayConfig& config) {
  const std::int64_t in_b = (config.input_bits + 7) / 8;
  const std::int64_t acc_b = (config.acc_bits + 7) / 8;
  return shape.t * shape.n * in_b +   // activations A (private rows)
         shape.t * shape.m * acc_b;   // outputs C (private rows)
}

}  // namespace af::mem
