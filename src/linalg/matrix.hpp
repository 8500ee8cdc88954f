#pragma once

/// \file matrix.hpp
/// Dense row-major matrix of doubles.
///
/// Row-major layout matches the access pattern of the gradient kernels:
/// each training example is one contiguous row, so per-example gradients
/// and batch GEMVs stream rows sequentially. The storage starts on a
/// 64-byte cache line, so when the row width is a multiple of four
/// doubles every row starts on a 32-byte boundary and no AVX2 load of a
/// row splits a cache line (DESIGN.md §12).

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <new>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace coupon::linalg {

/// Allocator whose blocks start on a 64-byte cache line. It asks plain
/// `operator new` for 64 bytes more than the block needs, rounds up to
/// the next line past one pointer, and keeps the raw pointer in the word
/// just below the block. (The aligned `operator new` raised a training
/// sweep's peak RSS; DESIGN.md §12.)
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::size_t kLine = 64;
  static_assert(alignof(T) <= kLine);

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    if (n > (std::numeric_limits<std::size_t>::max() - kLine) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    // operator new returns at least 8-byte-aligned memory, so the block
    // starts 8 to 64 bytes past `raw` and ends inside the allocation.
    void* raw = ::operator new(n * sizeof(T) + kLine);
    const std::uintptr_t past_stash =
        reinterpret_cast<std::uintptr_t>(raw) + sizeof(void*);
    void** block = reinterpret_cast<void**>((past_stash + kLine - 1) &
                                            ~std::uintptr_t{kLine - 1});
    block[-1] = raw;
    return reinterpret_cast<T*>(block);
  }

  void deallocate(T* block, std::size_t /*n*/) noexcept {
    ::operator delete(reinterpret_cast<void**>(block)[-1]);
  }

  friend bool operator==(const CacheLineAllocator& /*a*/,
                         const CacheLineAllocator& /*b*/) {
    return true;
  }
};

/// Dense rows x cols matrix, row-major, contiguous storage.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix initialized to `value`.
  Matrix(std::size_t rows, std::size_t cols, double value = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// Builds from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  /// Reshapes to rows x cols and fills every entry with `value`. Reuses
  /// the existing storage, so a same-or-smaller reshape never allocates —
  /// decode scratch matrices rely on this.
  void resize(std::size_t rows, std::size_t cols, double value = 0.0) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, value);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    COUPON_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    COUPON_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Contiguous view of row `r`.
  std::span<double> row(std::size_t r) {
    COUPON_ASSERT(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    COUPON_ASSERT(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Whole-storage views (row-major).
  std::span<double> data() { return {data_.data(), data_.size()}; }
  std::span<const double> data() const { return {data_.data(), data_.size()}; }

  /// Returns the transpose (new storage).
  Matrix transposed() const;

  /// Extracts the sub-matrix formed by the given rows, in order.
  Matrix select_rows(std::span<const std::size_t> row_indices) const;

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double, CacheLineAllocator<double>> data_;
};

}  // namespace coupon::linalg
