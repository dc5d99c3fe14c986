// Byte-level serialization primitives for federated messages.
//
// ByteWriter appends little-endian encodings of PODs, strings and vectors;
// ByteReader decodes them in the same order and throws SerializationError on
// truncation or corruption. The federated transport meters bytes with these,
// so message sizes in bench output reflect real encoded payloads.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "reffil/util/error.hpp"

namespace reffil::util {

class ByteWriter {
 public:
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

  /// Pre-size the buffer (serialized_size() on the hot federated paths), so
  /// multi-MB state frames are written into one allocation instead of paying
  /// log2(size) grow-and-copy reallocations.
  void reserve(std::size_t n) { bytes_.reserve(n); }

  template <typename T>
  void write_pod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto offset = bytes_.size();
    bytes_.resize(offset + sizeof(T));
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
  }

  void write_u32(std::uint32_t v) { write_pod(v); }
  void write_u64(std::uint64_t v) { write_pod(v); }
  void write_f64(double v) { write_pod(v); }

  void write_string(const std::string& s) {
    write_u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  template <typename T>
  void write_pod_vector(const std::vector<T>& v) {
    write_pod_array(v.data(), v.size());
  }

  /// `n` values at `p`, framed as write_pod_vector frames a vector of them.
  template <typename T>
  void write_pod_array(const T* p, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    write_u64(n);
    const auto offset = bytes_.size();
    bytes_.resize(offset + n * sizeof(T));
    if (n != 0) std::memcpy(bytes_.data() + offset, p, n * sizeof(T));
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  /// ByteReader is a non-owning view; binding it to a temporary would
  /// dangle immediately, so that is a compile error.
  explicit ByteReader(std::vector<std::uint8_t>&&) = delete;
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t remaining() const { return size_ - offset_; }
  bool exhausted() const { return offset_ == size_; }

  template <typename T>
  T read_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_ + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  std::uint32_t read_u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_pod<std::uint64_t>(); }
  double read_f64() { return read_pod<double>(); }

  /// Advance past n bytes without decoding them (frame walkers that account
  /// or validate sections without materializing their contents).
  void skip(std::size_t n) {
    require(n);
    offset_ += n;
  }

  /// Borrow n raw bytes in place and advance past them. The pointer aliases
  /// the underlying buffer (valid for its lifetime, byte-aligned only) —
  /// this is what lets the dequant-free accumulate stream int8 blocks
  /// straight out of the wire frame without a copy.
  const std::uint8_t* view(std::size_t n) {
    require(n);
    const std::uint8_t* p = data_ + offset_;
    offset_ += n;
    return p;
  }

  std::string read_string() {
    const auto n = read_u64();
    require(n);
    std::string s(reinterpret_cast<const char*>(data_ + offset_), n);
    offset_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> read_pod_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = read_u64();
    if (n > size_ / sizeof(T) + 1) {
      throw SerializationError("vector length field exceeds buffer size");
    }
    require(n * sizeof(T));
    std::vector<T> v(n);
    if (n != 0) std::memcpy(v.data(), data_ + offset_, n * sizeof(T));
    offset_ += n * sizeof(T);
    return v;
  }

 private:
  void require(std::size_t n) const {
    // Compare against the remaining length instead of `offset_ + n`, which
    // wraps for attacker-controlled 64-bit lengths (e.g. a read_string
    // length field near UINT64_MAX) and would bypass this check.
    if (n > size_ - offset_) {
      throw SerializationError("buffer truncated: need " + std::to_string(n) +
                               " bytes, have " + std::to_string(size_ - offset_));
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

}  // namespace reffil::util
