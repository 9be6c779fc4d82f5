// GF(2^8) arithmetic for RAID-6 Reed-Solomon (P+Q) coding, with the
// x^8+x^4+x^3+x^2+1 (0x11D) polynomial conventionally used by RAID-6.
// Includes the bulk buffer kernels the parity paths and benchmarks use.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace nlss::raid {

class Gf256 {
 public:
  static std::uint8_t Mul(std::uint8_t a, std::uint8_t b);
  static std::uint8_t Div(std::uint8_t a, std::uint8_t b);  // b != 0
  static std::uint8_t Inv(std::uint8_t a);                  // a != 0
  static std::uint8_t Exp(unsigned power);                  // generator 2
  static std::uint8_t Pow(std::uint8_t base, unsigned power);
};

/// dst ^= coeff * src in GF(2^8), element-wise.  Sizes must match.
void GfMulInto(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src,
               std::uint8_t coeff);

/// dst = coeff * dst in GF(2^8).
void GfScale(std::span<std::uint8_t> dst, std::uint8_t coeff);

}  // namespace nlss::raid
