// Byte-buffer helpers and a tiny binary serialization reader/writer used by
// the protocol layer and the management plane's persistence.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace nlss::util {

using Bytes = std::vector<std::uint8_t>;

/// Fill `out` with a deterministic pattern derived from `seed`; used by tests
/// and workload generators to produce verifiable payloads.  Word k (k >= 1)
/// of the pattern is Mix(Mix(seed ^ 0xA5A5A5A5A5A5A5A5) + k), where Mix is
/// MurmurHash3's 64-bit finalizer, stored low byte first; a short tail is the
/// low bytes of the next word.  So a fill of n bytes is the first n bytes of
/// every longer fill with the same seed.
void FillPattern(std::span<std::uint8_t> out, std::uint64_t seed);

/// Check that `data` matches the pattern produced by FillPattern(seed),
/// word by word as the pattern is generated.
bool CheckPattern(std::span<const std::uint8_t> data, std::uint64_t seed);

/// dst ^= src, element-wise.  Sizes must match.
void XorInto(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src);

/// Little-endian binary writer.
class ByteWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void Str(std::string_view s);                // length-prefixed
  void Raw(std::span<const std::uint8_t> d);   // unprefixed

  const Bytes& data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Little-endian binary reader; throws std::out_of_range on underrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  std::string Str();
  Bytes Raw(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  void Need(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw std::out_of_range("ByteReader: buffer underrun");
    }
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace nlss::util
