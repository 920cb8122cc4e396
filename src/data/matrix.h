#ifndef PIMINE_DATA_MATRIX_H_
#define PIMINE_DATA_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"

namespace pimine {

/// Dense row-major matrix: N objects ("rows") of dimensionality d ("cols").
/// This is the only dataset container in the library; rows are exposed as
/// spans so kernels can work on contiguous memory without copies.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(size_t rows, size_t cols, T fill = T())
      : rows_(rows), cols_(cols), values_(rows * cols, fill) {}

  Matrix(size_t rows, size_t cols, std::vector<T> values)
      : rows_(rows), cols_(cols), values_(std::move(values)) {
    PIMINE_CHECK(values_.size() == rows * cols)
        << "matrix storage size " << values_.size() << " != " << rows << "x"
        << cols;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  std::span<const T> row(size_t i) const {
    PIMINE_DCHECK(i < rows_);
    return std::span<const T>(values_.data() + i * cols_, cols_);
  }
  std::span<T> mutable_row(size_t i) {
    PIMINE_DCHECK(i < rows_);
    return std::span<T>(values_.data() + i * cols_, cols_);
  }

  T operator()(size_t i, size_t j) const {
    PIMINE_DCHECK(i < rows_ && j < cols_);
    return values_[i * cols_ + j];
  }
  T& operator()(size_t i, size_t j) {
    PIMINE_DCHECK(i < rows_ && j < cols_);
    return values_[i * cols_ + j];
  }

  const std::vector<T>& values() const { return values_; }
  const T* data() const { return values_.data(); }
  T* data() { return values_.data(); }

  /// Bytes of payload (excluding object overhead).
  size_t SizeBytes() const { return values_.size() * sizeof(T); }

  /// Appends every row of `other` (same column count, or this is empty).
  /// Row spans returned earlier may be invalidated (storage reallocates);
  /// the matrix object itself stays valid, which is what the
  /// mutable-dataset layer relies on.
  void AppendRows(const Matrix<T>& other) {
    if (other.rows() == 0) return;
    if (rows_ == 0) cols_ = other.cols();
    PIMINE_CHECK(other.cols() == cols_)
        << "appended matrix has " << other.cols() << " cols, expected "
        << cols_;
    values_.insert(values_.end(), other.values().begin(),
                   other.values().end());
    rows_ += other.rows();
  }

  /// Keeps only the rows named in `keep` (strictly ascending indices),
  /// preserving their order — the host half of a compaction pass.
  void KeepRows(std::span<const uint32_t> keep) {
    size_t w = 0;
    for (const uint32_t r : keep) {
      PIMINE_CHECK(r < rows_) << "KeepRows index " << r << " out of range";
      if (w != r) {
        std::copy(values_.begin() + r * cols_,
                  values_.begin() + (r + 1) * cols_,
                  values_.begin() + w * cols_);
      }
      ++w;
    }
    rows_ = w;
    values_.resize(rows_ * cols_);
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<T> values_;
};

using FloatMatrix = Matrix<float>;
using IntMatrix = Matrix<int32_t>;

}  // namespace pimine

#endif  // PIMINE_DATA_MATRIX_H_
