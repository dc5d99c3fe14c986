#include "reffil/tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace reffil::tensor {

void Shape::throw_rank_error(size_type rank) {
  throw ShapeError("rank " + std::to_string(rank) + " exceeds the maximum " +
                   std::to_string(kMaxRank));
}

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) out << ", ";
    out << shape[i];
  }
  out << ']';
  return out.str();
}

Tensor::Tensor(Shape shape, std::vector<float> data) : shape_(shape) {
  REFFIL_CHECK_MSG(data.size() == shape_numel(shape_),
                   "data size " + std::to_string(data.size()) +
                       " does not match shape " + shape_to_string(shape_));
  if (shape_.empty()) {
    scalar_ = data[0];
  } else {
    data_ = std::move(data);
  }
}

Tensor Tensor::view(float* data, Shape shape) {
  const std::size_t n = shape_numel(shape);
  REFFIL_CHECK_MSG(data != nullptr || n == 0,
                   "view over null storage with nonzero numel");
  Tensor t;
  t.shape_ = shape;
  t.view_ = data;
  t.view_numel_ = n;
  return t;
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
  if (shape_.empty()) {
    scalar_ = *other.begin();
  } else {
    data_.assign(other.begin(), other.end());
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (other.shape_.empty()) {
    scalar_ = *other.begin();
    data_.clear();
  } else {
    data_.assign(other.begin(), other.end());
  }
  shape_ = other.shape_;
  view_ = nullptr;
  view_numel_ = 0;
  return *this;
}

// A moved-from tensor is left as Tensor(): a rank-0 zero.
Tensor::Tensor(Tensor&& other) noexcept
    : shape_(other.shape_),
      data_(std::move(other.data_)),
      view_(other.view_),
      view_numel_(other.view_numel_),
      scalar_(other.scalar_) {
  other.shape_.clear();
  other.view_ = nullptr;
  other.view_numel_ = 0;
  other.scalar_ = 0.0f;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  shape_ = other.shape_;
  data_ = std::move(other.data_);
  view_ = other.view_;
  view_numel_ = other.view_numel_;
  scalar_ = other.scalar_;
  other.shape_.clear();
  other.view_ = nullptr;
  other.view_numel_ = 0;
  other.scalar_ = 0.0f;
  return *this;
}

Tensor Tensor::scalar(float value) {
  Tensor t;
  t.scalar_ = value;
  return t;
}

Tensor Tensor::vector(std::vector<float> values) {
  const std::size_t n = values.size();
  return Tensor({n}, std::move(values));
}

Tensor Tensor::matrix(std::initializer_list<std::initializer_list<float>> rows) {
  const std::size_t r = rows.size();
  REFFIL_CHECK_MSG(r > 0, "matrix: no rows");
  const std::size_t c = rows.begin()->size();
  std::vector<float> data;
  data.reserve(r * c);
  for (const auto& row : rows) {
    REFFIL_CHECK_MSG(row.size() == c, "matrix: ragged rows");
    data.insert(data.end(), row.begin(), row.end());
  }
  return Tensor({r, c}, std::move(data));
}

std::size_t Tensor::dim(std::size_t axis) const {
  if (axis >= shape_.size()) {
    throw ShapeError("axis " + std::to_string(axis) + " out of range for " +
                     shape_to_string(shape_));
  }
  return shape_[axis];
}

float Tensor::at(std::size_t flat_index) const {
  REFFIL_CHECK_MSG(flat_index < numel(), "flat index out of range");
  return begin()[flat_index];
}

float& Tensor::at(std::size_t flat_index) {
  REFFIL_CHECK_MSG(flat_index < numel(), "flat index out of range");
  return begin()[flat_index];
}

float Tensor::at2(std::size_t row, std::size_t col) const {
  if (rank() != 2) throw ShapeError("at2 requires rank-2, got " + shape_to_string(shape_));
  REFFIL_CHECK(row < shape_[0] && col < shape_[1]);
  return begin()[row * shape_[1] + col];
}

float& Tensor::at2(std::size_t row, std::size_t col) {
  if (rank() != 2) throw ShapeError("at2 requires rank-2, got " + shape_to_string(shape_));
  REFFIL_CHECK(row < shape_[0] && col < shape_[1]);
  return begin()[row * shape_[1] + col];
}

float Tensor::item() const {
  if (numel() != 1) {
    throw ShapeError("item() on tensor with " + std::to_string(numel()) +
                     " elements");
  }
  return begin()[0];
}

Tensor Tensor::reshaped(Shape new_shape) const& {
  if (shape_numel(new_shape) != numel()) {
    throw ShapeError("cannot reshape " + shape_to_string(shape_) + " to " +
                     shape_to_string(new_shape));
  }
  return Tensor(new_shape, std::vector<float>(begin(), end()));
}

Tensor Tensor::reshaped(Shape new_shape) && {
  if (shape_numel(new_shape) != numel()) {
    throw ShapeError("cannot reshape " + shape_to_string(shape_) + " to " +
                     shape_to_string(new_shape));
  }
  if (view_ != nullptr || shape_.empty()) {
    // Borrowed or inline storage does not come with us: copy it.
    return Tensor(new_shape, std::vector<float>(begin(), end()));
  }
  return Tensor(new_shape, std::move(data_));
}

bool Tensor::operator==(const Tensor& other) const {
  if (shape_ != other.shape_) return false;
  return std::equal(begin(), end(), other.begin());
}

bool Tensor::all_close(const Tensor& other, float atol) const {
  if (shape_ != other.shape_) return false;
  const float* a = begin();
  const float* b = other.begin();
  for (std::size_t i = 0; i < numel(); ++i) {
    if (std::fabs(a[i] - b[i]) > atol) return false;
  }
  return true;
}

void Tensor::serialize(util::ByteWriter& writer) const {
  writer.write_u64(shape_.size());
  for (std::size_t d : shape_) writer.write_u64(d);
  writer.write_pod_array(begin(), numel());
}

Tensor Tensor::deserialize(util::ByteReader& reader) {
  const auto rank = reader.read_u64();
  if (rank > Shape::kMaxRank) throw SerializationError("tensor rank too large");
  Shape shape(rank);
  for (auto& d : shape) d = reader.read_u64();
  auto data = reader.read_pod_vector<float>();
  if (data.size() != shape_numel(shape)) {
    throw SerializationError("tensor payload does not match shape");
  }
  // A corrupt-but-well-framed payload full of NaN/Inf would decode cleanly
  // and silently poison every aggregation it touches; non-finite data is
  // rejected at the deserialization boundary instead. No legitimate payload
  // carries non-finite values (weights are gradient-clipped, Fisher terms
  // are finite sums), so this is a pure corruption check.
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!std::isfinite(data[i])) {
      throw SerializationError("tensor payload has non-finite value at index " +
                               std::to_string(i));
    }
  }
  return Tensor(shape, std::move(data));
}

}  // namespace reffil::tensor
