// The tree's one -O3, ThreadSanitizer-exempt file (see multiply.h and
// CMakeLists.txt): a kernel that needs that treatment goes here rather than
// making a second such file.

#include "gemm/multiply.h"

#include <cstdint>

#include "gemm/reference.h"
#include "util/status.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

// On x86-64 ELF targets column_mac is compiled twice, for AVX2 and for the
// baseline ISA; the dynamic loader picks the clone the CPU supports.  The
// arithmetic is integer-only, so every clone returns the same bits.
#if defined(__x86_64__) && defined(__ELF__)
#define AF_GEMM_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define AF_GEMM_CLONES
#endif

namespace af::gemm {
namespace {

// x (t x m, zeroed) = a (t x n) * b (n x m), all row-major.
using Kernel = void (*)(const std::int32_t* a, const std::int32_t* b,
                        std::int64_t* x, std::int64_t t, std::int64_t n,
                        std::int64_t m);

// The portable kernel.  Loop order t-n-m: the inner loop streams one row of
// B into one row of X, which the compiler vectorizes.  mac_mod accumulates
// in uint64, so the wrap-around is defined and identical to
// reference_gemm's.
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

#if defined(__x86_64__)

#define AF_AVX2 __attribute__((target("avx2")))

// One R x 8V register block: x[r][c] for rows r < R and columns c < 8V.
// The R x 8V int64 sums stay in 2RV ymm registers for the whole reduction,
// so a MAC is one vpmuldq and one vpaddq, with no load or store of a
// partial sum.  vpmuldq multiplies the low (signed) int32 of each 64-bit
// lane, so the broadcast A value meets B's even int32 lanes as loaded and
// its odd lanes after a 32-bit shift; the store interleaves the two halves
// back into column order.  vpaddq wraps like mac_mod.
template <int R, int V>
AF_AVX2 void block(const std::int32_t* a, const std::int32_t* b,
                   std::int64_t* x, std::int64_t n, std::int64_t m) {
  __m256i even[R][V];  // columns 0, 2 | 4, 6 of each group of eight
  __m256i odd[R][V];   // columns 1, 3 | 5, 7
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      even[r][v] = _mm256_setzero_si256();
      odd[r][v] = _mm256_setzero_si256();
    }
  }
  for (std::int64_t k = 0; k < n; ++k) {
    __m256i av[R];
    for (int r = 0; r < R; ++r) av[r] = _mm256_set1_epi32(a[r * n + k]);
    for (int v = 0; v < V; ++v) {
      const __m256i bv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(b + k * m + 8 * v));
      const __m256i bv_odd = _mm256_srli_epi64(bv, 32);
      for (int r = 0; r < R; ++r) {
        even[r][v] = _mm256_add_epi64(even[r][v], _mm256_mul_epi32(av[r], bv));
        odd[r][v] =
            _mm256_add_epi64(odd[r][v], _mm256_mul_epi32(av[r], bv_odd));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      // lo holds columns 0, 1 | 4, 5 and hi 2, 3 | 6, 7.
      const __m256i lo = _mm256_unpacklo_epi64(even[r][v], odd[r][v]);
      const __m256i hi = _mm256_unpackhi_epi64(even[r][v], odd[r][v]);
      auto* out = reinterpret_cast<__m256i*>(x + r * m + 8 * v);
      _mm256_storeu_si256(out, _mm256_permute2x128_si256(lo, hi, 0x20));
      _mm256_storeu_si256(out + 1, _mm256_permute2x128_si256(lo, hi, 0x31));
    }
  }
}

// Columns [c0, m) of `rows` rows, one mac_mod at a time.
void column_tail(const std::int32_t* a, const std::int32_t* b, std::int64_t* x,
                 std::int64_t rows, std::int64_t n, std::int64_t m,
                 std::int64_t c0) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = c0; c < m; ++c) {
      std::int64_t acc = 0;
      for (std::int64_t k = 0; k < n; ++k) {
        acc = mac_mod(acc, a[r * n + k], b[k * m + c]);
      }
      x[r * m + c] = acc;
    }
  }
}

// Four rows at a time in 4 x 8 blocks; the last t % 4 rows one at a time in
// 1 x 32 blocks (a decode GEMV is all leftover row), then 1 x 8.  Columns
// past the last whole block go to column_tail.
AF_AVX2 void multiply_avx2(const std::int32_t* a, const std::int32_t* b,
                           std::int64_t* x, std::int64_t t, std::int64_t n,
                           std::int64_t m) {
  const std::int64_t m8 = m - m % 8;
  std::int64_t r = 0;
  for (; r + 4 <= t; r += 4) {
    for (std::int64_t c = 0; c < m8; c += 8) {
      block<4, 1>(a + r * n, b + c, x + r * m + c, n, m);
    }
    column_tail(a + r * n, b, x + r * m, 4, n, m, m8);
  }
  for (; r < t; ++r) {
    std::int64_t c = 0;
    for (; c + 32 <= m; c += 32) {
      block<1, 4>(a + r * n, b + c, x + r * m + c, n, m);
    }
    for (; c < m8; c += 8) block<1, 1>(a + r * n, b + c, x + r * m + c, n, m);
    column_tail(a + r * n, b, x + r * m, 1, n, m, m8);
  }
}

#endif  // __x86_64__

Mat64 run(const Mat32& a, const Mat32& b, Kernel kernel) {
  AF_CHECK(a.cols() == b.rows(), "GEMM inner-dimension mismatch: "
                                     << a.cols() << " vs " << b.rows());
  Mat64 x(a.rows(), b.cols());
  kernel(a.data().data(), b.data().data(), x.mutable_data(), a.rows(),
         a.cols(), b.cols());
  return x;
}

Kernel pick_kernel() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return multiply_avx2;
#endif
  return multiply_rows;
}

}  // namespace

Mat64 multiply(const Mat32& a, const Mat32& b) {
  static const Kernel kernel = pick_kernel();
  return run(a, b, kernel);
}

namespace detail {

Mat64 multiply_portable(const Mat32& a, const Mat32& b) {
  return run(a, b, multiply_rows);
}

}  // namespace detail

// One pass over [lo, hi) per row of the group, each a unit-stride loop the
// compiler vectorizes; dst stays in L1 between passes.
AF_GEMM_CLONES
void column_mac(const std::int32_t* act, const std::int32_t* w,
                std::int64_t stride, std::int64_t rows,
                const std::int64_t* __restrict psum_in,
                std::int64_t* __restrict dst, std::int64_t lo,
                std::int64_t hi) {
  if (psum_in == nullptr) {
    for (std::int64_t c = lo; c < hi; ++c) dst[c] = mac_mod(0, act[c], w[c]);
  } else {
    for (std::int64_t c = lo; c < hi; ++c) {
      dst[c] = mac_mod(psum_in[c], act[c], w[c]);
    }
  }
  for (std::int64_t j = 1; j < rows; ++j) {
    const std::int32_t* act_j = act + j * stride;
    const std::int32_t* w_j = w + j * stride;
    for (std::int64_t c = lo; c < hi; ++c) {
      dst[c] = mac_mod(dst[c], act_j[c], w_j[c]);
    }
  }
}

}  // namespace af::gemm
