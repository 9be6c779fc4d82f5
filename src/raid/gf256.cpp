#include "raid/gf256.h"

#include <cassert>

#include "util/bytes.h"

namespace nlss::raid {
namespace {

// RAID-6 polynomial 0x11D, generator 2.
struct GfTables {
  std::array<std::uint8_t, 512> exp{};  // doubled to avoid mod in Mul
  std::array<std::uint8_t, 256> log{};

  constexpr GfTables() {
    std::uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      log[static_cast<std::uint8_t>(x)] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11D;
    }
    for (int i = 255; i < 512; ++i) exp[i] = exp[i - 255];
  }
};

constexpr GfTables kGf{};

}  // namespace

std::uint8_t Gf256::Mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return kGf.exp[kGf.log[a] + kGf.log[b]];
}

std::uint8_t Gf256::Div(std::uint8_t a, std::uint8_t b) {
  assert(b != 0);
  if (a == 0) return 0;
  return kGf.exp[(kGf.log[a] + 255 - kGf.log[b]) % 255];
}

std::uint8_t Gf256::Inv(std::uint8_t a) {
  assert(a != 0);
  return kGf.exp[255 - kGf.log[a]];
}

std::uint8_t Gf256::Exp(unsigned power) { return kGf.exp[power % 255]; }

std::uint8_t Gf256::Pow(std::uint8_t base, unsigned power) {
  if (base == 0) return power == 0 ? 1 : 0;
  return kGf.exp[(static_cast<unsigned>(kGf.log[base]) * power) % 255];
}

void GfMulInto(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src,
               std::uint8_t coeff) {
  assert(dst.size() == src.size());
  if (coeff == 0) return;
  if (coeff == 1) {
    util::XorInto(dst, src);
    return;
  }
  // Per-coefficient 256-entry product table amortizes the log/exp lookups.
  std::array<std::uint8_t, 256> table;
  for (int v = 0; v < 256; ++v) {
    table[v] = Gf256::Mul(static_cast<std::uint8_t>(v), coeff);
  }
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] ^= table[src[i]];
}

void GfScale(std::span<std::uint8_t> dst, std::uint8_t coeff) {
  if (coeff == 1) return;
  std::array<std::uint8_t, 256> table;
  for (int v = 0; v < 256; ++v) {
    table[v] = Gf256::Mul(static_cast<std::uint8_t>(v), coeff);
  }
  for (auto& b : dst) b = table[b];
}

}  // namespace nlss::raid
