// AES-128/256 block cipher plus the two modes the storage system uses:
//   * CTR  — in-flight (transmission) encryption of message payloads.
//   * XTS  — at-rest encryption of disk blocks, tweaked by block address so
//            identical plaintext blocks encrypt differently per location.
//
// Software implementation (T-tables both ways, generated constexpr).
// Correctness is pinned to FIPS-197 / NIST test vectors in the test suite.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace nlss::crypto {

class Aes {
 public:
  /// key.size() must be 16 (AES-128) or 32 (AES-256).
  explicit Aes(std::span<const std::uint8_t> key);

  void EncryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const;
  void DecryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const;

  int rounds() const { return rounds_; }

 private:
  int rounds_;                                  // 10 or 14
  std::array<std::uint8_t, 16 * 15> round_keys_{};  // up to 14+1 round keys
  /// The round keys as big-endian words, those of rounds 1..rounds_-1 passed
  /// through InvMixColumns, for the equivalent inverse cipher.
  std::array<std::uint32_t, 4 * 15> dec_keys_{};
};

/// AES-CTR: encrypt/decrypt `data` in place (CTR is an involution).
/// `iv` is the 16-byte initial counter block; the low 64 bits increment.
void CtrCrypt(const Aes& aes, const std::uint8_t iv[16],
              std::span<std::uint8_t> data);

/// AES-XTS over one logical sector.  `data` must be a multiple of 16 bytes
/// (storage blocks always are).  `key1` encrypts data, `key2` the tweak.
void XtsEncrypt(const Aes& key1, const Aes& key2, std::uint64_t sector,
                std::span<std::uint8_t> data);
void XtsDecrypt(const Aes& key1, const Aes& key2, std::uint64_t sector,
                std::span<std::uint8_t> data);

}  // namespace nlss::crypto
