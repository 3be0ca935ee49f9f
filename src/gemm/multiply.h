// Fast exact GEMM for served outputs.
//
// gemm::multiply computes the same X = A x B as gemm::reference_gemm, bit
// for bit (64-bit two's-complement wrap-around included), but streams rows
// of B through a vectorized inner loop instead of walking B's columns.
// reference_gemm stays the golden model: the tests, the cycle engine and
// the benchmark's output checks compare against it, never against this.

#pragma once

#include "gemm/matrix.h"

namespace af::gemm {

// X = A x B with 64-bit modular accumulation.  A is T x N, B is N x M.
// Exactly equal to reference_gemm(a, b) for every input.
Mat64 multiply(const Mat32& a, const Mat32& b);

}  // namespace af::gemm
