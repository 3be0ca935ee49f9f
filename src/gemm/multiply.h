// The two exact integer kernels, in the tree's one file built at -O3.
//
// gemm::multiply computes the same X = A x B as gemm::reference_gemm, bit
// for bit (64-bit two's-complement wrap-around included).  On a CPU with
// AVX2 (asked once, with __builtin_cpu_supports) it runs a register-blocked
// micro-kernel: each 4-row x 8-column block of int64 sums stays in
// registers while A and B stream past, as an ArrayFlex PE holds its partial
// sum; leftover rows run in 1 x 32-column blocks, so a decode GEMV gains
// too.  Elsewhere (no AVX2, or not x86-64) it runs the portable kernel,
// detail::multiply_portable.  reference_gemm stays the golden model: the
// tests, the cycle engine and the benchmark's output checks compare
// against it, never against this.
//
// gemm::column_mac is one row group of the cycle-accurate array
// (arch::SystolicArray) for one cycle: each column's products summed down
// the group onto the partial sum arriving from above.  It is compiled with
// an AVX2 target clone the dynamic loader picks.
//
// Both live in this one file because it is the tree's one file built at
// -O3 (the -O2 default leaves the portable loops scalar) and the one file
// exempt from ThreadSanitizer (column_mac's ifunc resolver runs before the
// TSan runtime starts): keeping every such kernel here keeps one exception
// in the build.

#pragma once

#include <cstdint>

#include "gemm/matrix.h"

namespace af::gemm {

// X = A x B with 64-bit modular accumulation.  A is T x N, B is N x M.
// Exactly equal to reference_gemm(a, b) for every input.
Mat64 multiply(const Mat32& a, const Mat32& b);

namespace detail {

// The portable kernel multiply() runs without AVX2, callable directly so
// the tests check both kernels on any host.
Mat64 multiply_portable(const Mat32& a, const Mat32& b);

}  // namespace detail

// For every column c in [lo, hi), mod 2^64:
//   dst[c] = psum_in[c] + sum_{j < rows} act[j*stride + c] * w[j*stride + c]
// act and w are row-major planes `stride` columns wide; psum_in == nullptr
// reads as zeros.  dst must not overlap psum_in.
void column_mac(const std::int32_t* act, const std::int32_t* w,
                std::int64_t stride, std::int64_t rows,
                const std::int64_t* psum_in, std::int64_t* dst, std::int64_t lo,
                std::int64_t hi);

}  // namespace af::gemm
