#include "util/bytes.h"

#include <bit>
#include <cassert>
#include <cstring>

namespace nlss::util {
namespace {

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

// Word k of a pattern, counting from 1, is Mix(base + k): no word waits on
// the one before it, so the hashes of neighbouring words overlap.
std::uint64_t PatternBase(std::uint64_t seed) {
  return Mix(seed ^ 0xA5A5A5A5A5A5A5A5ULL);
}

}  // namespace

// Words are stored low byte first; on a little-endian host that is one
// 8-byte store or load.  A tail shorter than a word takes the low bytes of
// the next word.
static_assert(std::endian::native == std::endian::little);

void FillPattern(std::span<std::uint8_t> out, std::uint64_t seed) {
  const std::uint64_t base = PatternBase(seed);
  std::uint64_t k = 1;
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8, ++k) {
    const std::uint64_t word = Mix(base + k);
    std::memcpy(out.data() + i, &word, 8);
  }
  const std::uint64_t tail = Mix(base + k);
  for (int b = 0; i < out.size(); ++b) {
    out[i++] = static_cast<std::uint8_t>(tail >> (b * 8));
  }
}

bool CheckPattern(std::span<const std::uint8_t> data, std::uint64_t seed) {
  const std::uint64_t base = PatternBase(seed);
  std::uint64_t k = 1;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8, ++k) {
    std::uint64_t word;
    std::memcpy(&word, data.data() + i, 8);
    if (word != Mix(base + k)) return false;
  }
  const std::uint64_t tail = Mix(base + k);
  for (int b = 0; i < data.size(); ++b) {
    if (data[i++] != static_cast<std::uint8_t>(tail >> (b * 8))) return false;
  }
  return true;
}

void XorInto(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src) {
  assert(dst.size() == src.size());
  std::size_t i = 0;
  // Word-at-a-time main loop; tails byte-wise.
  for (; i + 8 <= dst.size(); i += 8) {
    std::uint64_t d, s;
    __builtin_memcpy(&d, dst.data() + i, 8);
    __builtin_memcpy(&s, src.data() + i, 8);
    d ^= s;
    __builtin_memcpy(dst.data() + i, &d, 8);
  }
  for (; i < dst.size(); ++i) dst[i] ^= src[i];
}

void ByteWriter::U16(std::uint16_t v) {
  U8(static_cast<std::uint8_t>(v));
  U8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::U32(std::uint32_t v) {
  U16(static_cast<std::uint16_t>(v));
  U16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::U64(std::uint64_t v) {
  U32(static_cast<std::uint32_t>(v));
  U32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::Str(std::string_view s) {
  U32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::Raw(std::span<const std::uint8_t> d) {
  buf_.insert(buf_.end(), d.begin(), d.end());
}

std::uint8_t ByteReader::U8() {
  Need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::U16() {
  const std::uint16_t lo = U8();
  return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(U8()) << 8));
}

std::uint32_t ByteReader::U32() {
  const std::uint32_t lo = U16();
  return lo | (static_cast<std::uint32_t>(U16()) << 16);
}

std::uint64_t ByteReader::U64() {
  const std::uint64_t lo = U32();
  return lo | (static_cast<std::uint64_t>(U32()) << 32);
}

std::string ByteReader::Str() {
  const std::uint32_t n = U32();
  Need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

Bytes ByteReader::Raw(std::size_t n) {
  Need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace nlss::util
