// Dense row-major matrices for the GEMM substrate.
//
// The SA operates on 32-bit quantized operands and 64-bit accumulations
// (paper Section IV), so the two instantiations that matter are
// Matrix<int32_t> (operands) and Matrix<int64_t> (results).  Arithmetic is
// modular two's-complement, matching RTL truncation semantics.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace af::gemm {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::int64_t rows, std::int64_t cols, T fill = T{0})
      : rows_(checked_dim(rows, cols)), cols_(cols),
        data_(static_cast<std::size_t>(rows * cols), fill) {}

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }

  T& at(std::int64_t r, std::int64_t c) {
    AF_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
              "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  const T& at(std::int64_t r, std::int64_t c) const {
    AF_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
              "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  const std::vector<T>& data() const { return data_; }
  // Row-major storage, for kernels that write the whole matrix in place.
  T* mutable_data() { return data_.data(); }

  bool operator==(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
  }
  bool operator!=(const Matrix& o) const { return !(*this == o); }

  // Zero-padded copy with the given dimensions (must not shrink).
  Matrix padded(std::int64_t rows, std::int64_t cols) const {
    AF_CHECK(rows >= rows_ && cols >= cols_,
             "padded() cannot shrink a matrix");
    Matrix out(rows, cols);
    for (std::int64_t r = 0; r < rows_; ++r) {
      for (std::int64_t c = 0; c < cols_; ++c) out.at(r, c) = at(r, c);
    }
    return out;
  }

  // Submatrix [r0, r0+nr) x [c0, c0+nc), zero-padded where it runs past the
  // source bounds (used when extracting edge tiles).
  Matrix block_padded(std::int64_t r0, std::int64_t c0, std::int64_t nr,
                      std::int64_t nc) const {
    Matrix out(nr, nc);
    for (std::int64_t r = 0; r < nr; ++r) {
      for (std::int64_t c = 0; c < nc; ++c) {
        const std::int64_t sr = r0 + r;
        const std::int64_t sc = c0 + c;
        if (sr < rows_ && sc < cols_) out.at(r, c) = at(sr, sc);
      }
    }
    return out;
  }

 private:
  // Runs in the member initializer, so bad dims throw before data_ is
  // allocated.
  static std::int64_t checked_dim(std::int64_t rows, std::int64_t cols) {
    AF_CHECK(rows >= 0 && cols >= 0, "matrix dims must be non-negative");
    return rows;
  }

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<T> data_;
};

using Mat32 = Matrix<std::int32_t>;
using Mat64 = Matrix<std::int64_t>;

// Uniformly random int32 matrix in [lo, hi].
Mat32 random_matrix(af::Rng& rng, std::int64_t rows, std::int64_t cols,
                    std::int32_t lo, std::int32_t hi);

// First differing coordinate as a human-readable string, or "" if equal.
std::string first_mismatch(const Mat64& a, const Mat64& b);

}  // namespace af::gemm
