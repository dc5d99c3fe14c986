// Dense row-major float tensor.
//
// This is the numeric substrate for the whole library: a contiguous float
// buffer plus a shape. It is a value type (copyable, movable,
// equality-comparable) following the Core Guidelines' preference for regular
// types; all mutation goes through checked accessors or the op library in
// ops.hpp.
//
// Storage comes in two modes:
//   * owning — the default: elements live in a `std::vector<float>` member.
//   * view   — `Tensor::view(ptr, shape)` borrows caller-managed storage
//     (a pool buffer or a graph-replay arena). A view never allocates, never
//     frees, and must not outlive the borrowed buffer. Copying a view (or a
//     const& reshape of one) produces a deep owning copy, so views cannot
//     leak borrowed pointers through value semantics; moving a view transfers
//     the borrow. Equality always compares shape + elements, never storage
//     identity.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "reffil/util/byte_buffer.hpp"
#include "reffil/util/error.hpp"

namespace reffil::tensor {

using Shape = std::vector<std::size_t>;

/// Number of elements implied by a shape (1 for rank-0).
std::size_t shape_numel(const Shape& shape);

/// "[2, 3, 4]" — for error messages.
std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  /// Rank-0 scalar zero.
  Tensor() : shape_{}, data_(1, 0.0f) {}

  /// Zero-filled tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

  /// Tensor with explicit contents; data.size() must equal numel(shape).
  Tensor(Shape shape, std::vector<float> data);

  /// Non-owning view over `data[0 .. numel(shape))`. The caller keeps the
  /// buffer alive for the view's lifetime; contents are read/written in
  /// place. `data` may be null only when the shape has zero elements.
  static Tensor view(float* data, Shape shape);

  /// Scalar constructor.
  static Tensor scalar(float value);

  /// 1-D tensor from values.
  static Tensor vector(std::vector<float> values);

  /// 2-D tensor from nested initializer list (rows must be equal length).
  static Tensor matrix(std::initializer_list<std::initializer_list<float>> rows);

  // Copies deep-copy views into owning tensors; moves transfer the borrow.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor() = default;

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return view_ != nullptr ? view_numel_ : data_.size(); }
  std::size_t dim(std::size_t axis) const;

  /// Owning storage accessors. Throw on views — a view's buffer belongs to
  /// its arena/pool, so vector-level operations on it are always a bug; use
  /// begin()/end() for element access instead.
  const std::vector<float>& data() const;
  std::vector<float>& data();

  const float* begin() const { return view_ != nullptr ? view_ : data_.data(); }
  const float* end() const { return begin() + numel(); }
  float* begin() { return view_ != nullptr ? view_ : data_.data(); }
  float* end() { return begin() + numel(); }

  /// Flat element access (bounds-checked).
  float at(std::size_t flat_index) const;
  float& at(std::size_t flat_index);

  /// 2-D element access (bounds-checked; requires rank 2).
  float at2(std::size_t row, std::size_t col) const;
  float& at2(std::size_t row, std::size_t col);

  /// Value of a rank-0 or single-element tensor.
  float item() const;

  /// Same data, new shape (numel must match). The rvalue overload moves the
  /// storage instead of copying it, so `std::move(t).reshaped(...)` is free
  /// for owning tensors; reshaping a view always yields an owning copy.
  Tensor reshaped(Shape new_shape) const&;
  Tensor reshaped(Shape new_shape) &&;

  /// Exact equality of shape and contents (storage mode is irrelevant).
  bool operator==(const Tensor& other) const;
  bool operator!=(const Tensor& other) const { return !(*this == other); }

  /// True if shapes match and all elements are within atol of each other.
  bool all_close(const Tensor& other, float atol = 1e-5f) const;

  void serialize(util::ByteWriter& writer) const;
  static Tensor deserialize(util::ByteReader& reader);

 private:
  Shape shape_;
  std::vector<float> data_;
  float* view_ = nullptr;        ///< non-null => borrowed storage
  std::size_t view_numel_ = 0;
};

}  // namespace reffil::tensor
