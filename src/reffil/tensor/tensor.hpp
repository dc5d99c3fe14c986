// Dense row-major float tensor.
//
// This is the numeric substrate for the whole library: a contiguous float
// buffer plus a shape. It is a value type (copyable, movable,
// equality-comparable) following the Core Guidelines' preference for regular
// types; all mutation goes through checked accessors or the op library in
// ops.hpp.
//
// Every step builds and frees a fresh graph of tensors, so the metadata
// stays off the heap: a Shape keeps its dims inline (at most
// Shape::kMaxRank of them), and a rank-0 tensor keeps its one element
// inline. Only the elements of an owning tensor of rank >= 1 are allocated.
//
// Storage comes in two modes:
//   * owning — the default: elements live in a `std::vector<float>` member,
//     or, for a rank-0 tensor, in the tensor itself. `Tensor()` is a rank-0
//     zero and allocates nothing.
//   * view   — `Tensor::view(ptr, shape)` borrows caller-managed storage
//     (a pool buffer or a graph-replay arena). A view holds no buffer of its
//     own: it never allocates, never frees, and must not outlive the
//     borrowed buffer. Copying a view (or a const& reshape of one) produces
//     a deep owning copy, so views cannot leak borrowed pointers through
//     value semantics; moving a view transfers the borrow. Equality always
//     compares shape + elements, never storage identity.
// A rank-0 tensor's element moves with the tensor, so a pointer from its
// begin() does not survive a move of it.
#pragma once

#include <algorithm>
#include <array>
#include <compare>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "reffil/util/byte_buffer.hpp"
#include "reffil/util/error.hpp"

namespace reffil::tensor {

/// A tensor's dims, held inline. It keeps the part of std::vector's
/// interface the library uses; growing past kMaxRank dims throws ShapeError.
class Shape {
 public:
  using value_type = std::size_t;
  using size_type = std::size_t;
  using iterator = std::size_t*;
  using const_iterator = const std::size_t*;

  /// The largest rank a tensor may have: what the tensor readers accept.
  static constexpr std::size_t kMaxRank = 8;

  Shape() = default;
  /// `rank` dims, each `dim`.
  explicit Shape(size_type rank, value_type dim = 0) { assign(rank, dim); }
  Shape(std::initializer_list<value_type> dims) {
    check_rank(dims.size());
    std::copy(dims.begin(), dims.end(), begin());
    rank_ = dims.size();
  }
  template <std::input_iterator It>
  Shape(It first, It last) {
    for (; first != last; ++first) push_back(*first);
  }

  size_type size() const { return rank_; }
  bool empty() const { return rank_ == 0; }
  iterator begin() { return dims_.data(); }
  iterator end() { return dims_.data() + rank_; }
  const_iterator begin() const { return dims_.data(); }
  const_iterator end() const { return dims_.data() + rank_; }
  value_type& operator[](size_type i) { return dims_[i]; }
  value_type operator[](size_type i) const { return dims_[i]; }

  void push_back(value_type dim) {
    check_rank(rank_ + 1);
    dims_[rank_++] = dim;
  }
  void clear() { rank_ = 0; }
  void resize(size_type rank, value_type dim = 0) {
    check_rank(rank);
    if (rank > rank_) std::fill(end(), begin() + rank, dim);
    rank_ = rank;
  }
  void assign(size_type rank, value_type dim) {
    clear();
    resize(rank, dim);
  }
  iterator insert(const_iterator pos, value_type dim) {
    check_rank(rank_ + 1);
    const auto at = begin() + (pos - begin());
    std::copy_backward(at, end(), end() + 1);
    *at = dim;
    ++rank_;
    return at;
  }
  iterator erase(const_iterator pos) { return erase(pos, pos + 1); }
  iterator erase(const_iterator first, const_iterator last) {
    const auto at = begin() + (first - begin());
    std::copy(begin() + (last - begin()), end(), at);
    rank_ -= static_cast<size_type>(last - first);
    return at;
  }

  friend bool operator==(const Shape& a, const Shape& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend std::strong_ordering operator<=>(const Shape& a, const Shape& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  static void check_rank(size_type rank) {
    if (rank > kMaxRank) throw_rank_error(rank);
  }
  [[noreturn]] static void throw_rank_error(size_type rank);

  std::array<value_type, kMaxRank> dims_{};
  size_type rank_ = 0;
};

/// Number of elements implied by a shape (1 for rank-0).
std::size_t shape_numel(const Shape& shape);

/// "[2, 3, 4]" — for error messages.
std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  /// Rank-0 scalar zero.
  Tensor() = default;

  /// Zero-filled tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(shape), data_(shape.empty() ? 0 : shape_numel(shape), 0.0f) {}

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
  std::size_t numel() const {
    return view_ != nullptr ? view_numel_ : shape_.empty() ? 1 : data_.size();
  }
  std::size_t dim(std::size_t axis) const;

  /// The elements, contiguous, whatever the storage mode.
  const float* begin() const {
    return view_ != nullptr ? view_ : shape_.empty() ? &scalar_ : data_.data();
  }
  const float* end() const { return begin() + numel(); }
  float* begin() {
    return view_ != nullptr ? view_ : shape_.empty() ? &scalar_ : data_.data();
  }
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
  std::vector<float> data_;      ///< owning elements; empty when rank 0
  float* view_ = nullptr;        ///< non-null => borrowed storage
  std::size_t view_numel_ = 0;
  float scalar_ = 0.0f;          ///< the element of an owning rank-0 tensor
};

}  // namespace reffil::tensor
