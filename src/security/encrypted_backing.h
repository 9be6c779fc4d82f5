// At-rest encryption layer (paper §5.1): an "in-stream" engine that
// transparently XTS-encrypts every block on its way to the backing store
// and decrypts on the way back, tweaked by block address.  Slots between
// the cache cluster and a volume, so neither layer knows it is there.
//
// If every other mechanism is bypassed — or a disk leaves the building on a
// warranty return — the platters hold only ciphertext.
//
// An optional sim::Resource models the hardware crypto engine's throughput.
#pragma once

#include <cstdint>

#include "cache/backing.h"
#include "crypto/aes.h"
#include "crypto/keystore.h"
#include "sim/engine.h"
#include "sim/resource.h"
#include "util/function.h"

namespace nlss::security {

class EncryptedBacking final : public cache::BackingStore {
 public:
  struct Config {
    sim::Resource* engine_resource = nullptr;  // hardware crypto engine
    double crypt_ns_per_byte = 0.1;            // ~10 GB/s when modelled
  };

  EncryptedBacking(sim::Engine& engine, cache::BackingStore& inner,
                   const crypto::VolumeKeys& keys)
      : EncryptedBacking(engine, inner, keys, Config()) {}
  EncryptedBacking(sim::Engine& engine, cache::BackingStore& inner,
                   const crypto::VolumeKeys& keys, Config config);

  void ReadBlocks(std::uint64_t block, std::uint32_t count, ReadCallback cb,
                  obs::TraceContext ctx = {}) override;
  void WriteBlocks(std::uint64_t block, util::Payload data, WriteCallback cb,
                   obs::TraceContext ctx = {}) override;
  std::uint64_t CapacityBlocks() const override {
    return inner_.CapacityBlocks();
  }
  std::uint32_t block_size() const override { return inner_.block_size(); }

  std::uint64_t bytes_encrypted() const { return bytes_encrypted_; }
  std::uint64_t bytes_decrypted() const { return bytes_decrypted_; }

 private:
  /// Charge the crypto engine, then run `next`.
  void Charge(std::uint64_t bytes, util::Function<void()> next);

  sim::Engine& engine_;
  cache::BackingStore& inner_;
  crypto::Aes data_key_;
  crypto::Aes tweak_key_;
  Config config_;
  std::uint64_t bytes_encrypted_ = 0;
  std::uint64_t bytes_decrypted_ = 0;
};

}  // namespace nlss::security
