#include "hw/builders/multiplier.h"

#include <vector>

#include "hw/builders/adders.h"
#include "util/status.h"
#include "util/strings.h"

namespace af::hw {
namespace {

// Compress a column multiset down to <= 2 bits per column with FA/HA
// counters, then resolve the final two rows with a Kogge-Stone CPA.  Shared
// by both multiplier styles.
Bus reduce_columns(Netlist& nl, std::vector<std::vector<NetId>> columns) {
  int stage = 0;
  const auto needs_reduction = [&columns]() {
    for (const auto& col : columns) {
      if (col.size() > 2) return true;
    }
    return false;
  };
  while (needs_reduction()) {
    std::vector<std::vector<NetId>> next(columns.size());
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const auto& col = columns[c];
      std::size_t i = 0;
      while (col.size() - i >= 3) {
        const NetId s = nl.new_net();
        const NetId co = nl.new_net();
        nl.add_cell(CellType::kFullAdder, format("r%d_fa_c%zu_%zu", stage, c, i),
                    {col[i], col[i + 1], col[i + 2]}, {s, co});
        next[c].push_back(s);
        if (c + 1 < next.size()) next[c + 1].push_back(co);
        i += 3;
      }
      if (col.size() - i == 2 && col.size() > 2) {
        const NetId s = nl.new_net();
        const NetId co = nl.new_net();
        nl.add_cell(CellType::kHalfAdder, format("r%d_ha_c%zu_%zu", stage, c, i),
                    {col[i], col[i + 1]}, {s, co});
        next[c].push_back(s);
        if (c + 1 < next.size()) next[c + 1].push_back(co);
        i += 2;
      }
      for (; i < col.size(); ++i) next[c].push_back(col[i]);
    }
    columns = std::move(next);
    ++stage;
    AF_ASSERT(stage < 64, "column reduction failed to converge");
  }
  const std::size_t width = columns.size();
  Bus row0(width);
  Bus row1(width);
  for (std::size_t c = 0; c < width; ++c) {
    row0[c] = columns[c].empty() ? nl.const0() : columns[c][0];
    row1[c] = columns[c].size() < 2 ? nl.const0() : columns[c][1];
  }
  return build_kogge_stone_adder(nl, row0, row1);
}

}  // namespace

Bus build_wallace_multiplier(Netlist& nl, const Bus& a, const Bus& b) {
  AF_CHECK(!a.empty() && !b.empty(), "multiplier operands must be non-empty");
  const int wa = static_cast<int>(a.size());
  const int wb = static_cast<int>(b.size());
  const int wp = wa + wb;
  ScopedName scope(nl, "mul");

  // columns[c] holds the nets of weight 2^c awaiting compression.
  std::vector<std::vector<NetId>> columns(static_cast<std::size_t>(wp));
  for (int i = 0; i < wb; ++i) {
    for (int j = 0; j < wa; ++j) {
      const NetId pp = nl.new_net();
      nl.add_cell(CellType::kAnd2, format("pp_%d_%d", i, j),
                  {a[static_cast<std::size_t>(j)], b[static_cast<std::size_t>(i)]},
                  {pp});
      columns[static_cast<std::size_t>(i + j)].push_back(pp);
    }
  }

  return reduce_columns(nl, std::move(columns));
}

Bus build_booth_multiplier(Netlist& nl, const Bus& a, const Bus& b) {
  AF_CHECK(!a.empty() && !b.empty(), "multiplier operands must be non-empty");
  const int wa = static_cast<int>(a.size());
  const int wb = static_cast<int>(b.size());
  const int wp = wa + wb;
  ScopedName scope(nl, "bmul");

  // b bit with zero extension (unsigned operand) and b[-1] = 0.
  const auto b_bit = [&](int j) -> NetId {
    if (j < 0 || j >= wb) return nl.const0();
    return b[static_cast<std::size_t>(j)];
  };
  // a bit with zero extension inside the partial-product field.
  const auto a_bit = [&](int j) -> NetId {
    if (j < 0 || j >= wa) return nl.const0();
    return a[static_cast<std::size_t>(j)];
  };

  const int digits = (wb + 2) / 2;  // ceil((wb+1)/2): top digit non-negative
  const int field = wa + 2;         // holds +/-2A including the sign bit
  std::vector<std::vector<NetId>> columns(static_cast<std::size_t>(wp));

  // Sign-extension prevention: extending sign bit s from position p to the
  // product MSB is worth -s * 2^p (mod 2^wp), which equals !s * 2^p plus the
  // constant -2^p.  We place one inverted sign net per digit and fold all
  // the -2^p constants into a single bit pattern added at the end.
  std::vector<bool> ext_const(static_cast<std::size_t>(wp), false);

  for (int i = 0; i < digits; ++i) {
    ScopedName digit_scope(nl, format("d%d", i));
    const NetId x2 = b_bit(2 * i + 1);
    const NetId x1 = b_bit(2 * i);
    const NetId x0 = b_bit(2 * i - 1);

    // Digit recoding: d = -2*x2 + x1 + x0.
    //   neg = x2, one = x1 XOR x0,
    //   two = (x2 & !x1 & !x0) | (!x2 & x1 & x0).
    const NetId neg = x2;
    const NetId one = nl.new_net();
    nl.add_cell(CellType::kXor2, "one", {x1, x0}, {one});
    const NetId x1_nor_x0 = nl.new_net();
    nl.add_cell(CellType::kNor2, "nor10", {x1, x0}, {x1_nor_x0});
    const NetId two_pos = nl.new_net();
    nl.add_cell(CellType::kAnd2, "two_p", {x2, x1_nor_x0}, {two_pos});
    const NetId x1_and_x0 = nl.new_net();
    nl.add_cell(CellType::kAnd2, "and10", {x1, x0}, {x1_and_x0});
    const NetId not_x2 = nl.new_net();
    nl.add_cell(CellType::kInv, "invx2", {x2}, {not_x2});
    const NetId two_neg = nl.new_net();
    nl.add_cell(CellType::kAnd2, "two_n", {not_x2, x1_and_x0}, {two_neg});
    const NetId two = nl.new_net();
    nl.add_cell(CellType::kOr2, "two", {two_pos, two_neg}, {two});

    // Partial-product field: ppb_j = ((one & a_j) | (two & a_{j-1})) ^ neg.
    NetId sign_net = kNoNet;
    for (int j = 0; j < field; ++j) {
      const int column = 2 * i + j;
      if (column >= wp) break;
      const NetId sel1 = nl.new_net();
      nl.add_cell(CellType::kAnd2, format("s1_%d", j), {one, a_bit(j)}, {sel1});
      const NetId sel2 = nl.new_net();
      nl.add_cell(CellType::kAnd2, format("s2_%d", j), {two, a_bit(j - 1)},
                  {sel2});
      const NetId mag = nl.new_net();
      nl.add_cell(CellType::kOr2, format("or_%d", j), {sel1, sel2}, {mag});
      const NetId ppb = nl.new_net();
      nl.add_cell(CellType::kXor2, format("pp_%d", j), {mag, neg}, {ppb});
      columns[static_cast<std::size_t>(column)].push_back(ppb);
      if (j == field - 1) sign_net = ppb;
    }
    // Replace the field's sign extension by !s at the top column plus a
    // -2^top constant (accumulated in ext_const), provided the extension
    // actually reaches into the product width.
    const int top = 2 * i + field - 1;
    if (sign_net != kNoNet && top + 1 < wp) {
      const NetId sign_inv = nl.new_net();
      nl.add_cell(CellType::kInv, "sext", {sign_net}, {sign_inv});
      // Swap the raw sign bit for its inversion in the top column.
      auto& top_col = columns[static_cast<std::size_t>(top)];
      AF_ASSERT(!top_col.empty() && top_col.back() == sign_net,
                "sign bit bookkeeping out of sync");
      top_col.back() = sign_inv;
      // Subtract 2^top (mod 2^wp): the borrow flips bits upward from `top`
      // and stops at the first bit that was set.
      for (auto j = static_cast<std::size_t>(top); j < ext_const.size(); ++j) {
        const bool was_set = ext_const[j];
        ext_const[j] = !was_set;
        if (was_set) break;
      }
    }
    // Two's-complement correction: +1 at the digit's weight when negative.
    if (2 * i < wp) {
      columns[static_cast<std::size_t>(2 * i)].push_back(neg);
    }
  }

  // Drop the accumulated extension constant into the columns.
  for (std::size_t j = 0; j < ext_const.size(); ++j) {
    if (ext_const[j]) columns[j].push_back(nl.const1());
  }

  return reduce_columns(nl, std::move(columns));
}

Bus build_multiplier(Netlist& nl, const Bus& a, const Bus& b,
                     MultiplierStyle style) {
  return style == MultiplierStyle::kWallace ? build_wallace_multiplier(nl, a, b)
                                            : build_booth_multiplier(nl, a, b);
}

}  // namespace af::hw
