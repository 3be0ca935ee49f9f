#include "gemm/multiply.h"

#include <cstdint>

#include "gemm/reference.h"
#include "util/status.h"

// On x86-64 ELF targets the kernel is compiled twice, for AVX2 and for the
// baseline ISA; the dynamic loader picks the clone the CPU supports.  The
// arithmetic is integer-only, so every clone returns the same bits.
#if defined(__x86_64__) && defined(__ELF__)
#define AF_GEMM_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define AF_GEMM_CLONES
#endif

namespace af::gemm {
namespace {

// x (t x m, zeroed) += a (t x n) * b (n x m), all row-major.  Loop order
// t-n-m: the inner loop streams one row of B into one row of X, which the
// compiler vectorizes.  mac_mod accumulates in uint64, so the wrap-around
// is defined and identical to reference_gemm's.
AF_GEMM_CLONES
void multiply_rows(const std::int32_t* a, const std::int32_t* b,
                   std::int64_t* x, std::int64_t t, std::int64_t n,
                   std::int64_t m) {
  for (std::int64_t r = 0; r < t; ++r) {
    const std::int32_t* a_row = a + r * n;
    std::int64_t* x_row = x + r * m;
    for (std::int64_t k = 0; k < n; ++k) {
      const std::int32_t av = a_row[k];
      const std::int32_t* b_row = b + k * m;
      for (std::int64_t c = 0; c < m; ++c) {
        x_row[c] = mac_mod(x_row[c], av, b_row[c]);
      }
    }
  }
}

}  // namespace

Mat64 multiply(const Mat32& a, const Mat32& b) {
  AF_CHECK(a.cols() == b.rows(), "GEMM inner-dimension mismatch: "
                                     << a.cols() << " vs " << b.rows());
  Mat64 x(a.rows(), b.cols());
  multiply_rows(a.data().data(), b.data().data(), x.mutable_data(), a.rows(),
                a.cols(), b.cols());
  return x;
}

}  // namespace af::gemm
