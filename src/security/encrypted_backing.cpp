#include "security/encrypted_backing.h"

#include <cstring>

namespace nlss::security {

EncryptedBacking::EncryptedBacking(sim::Engine& engine,
                                   cache::BackingStore& inner,
                                   const crypto::VolumeKeys& keys,
                                   Config config)
    : engine_(engine),
      inner_(inner),
      data_key_(keys.data_key),
      tweak_key_(keys.tweak_key),
      config_(config) {}

void EncryptedBacking::Charge(std::uint64_t bytes,
                              util::Function<void()> next) {
  if (config_.engine_resource == nullptr) {
    next();
    return;
  }
  const sim::Tick done = config_.engine_resource->AcquireBytes(
      bytes, config_.crypt_ns_per_byte);
  engine_.ScheduleAt(done, std::move(next));
}

void EncryptedBacking::ReadBlocks(std::uint64_t block, std::uint32_t count,
                                  ReadCallback cb, obs::TraceContext ctx) {
  inner_.ReadBlocks(
      block, count,
      [this, block, cb = std::move(cb)](bool ok, util::Payload data) mutable {
        if (!ok) {
          cb(false, {});
          return;
        }
        // Ciphertext in, plaintext out: decryption writes a fresh payload.
        const std::uint32_t bs = block_size();
        util::Payload plain(data.size(), [&](std::span<std::uint8_t> out) {
          std::memcpy(out.data(), data.data(), data.size());
          for (std::uint32_t i = 0; i * bs < out.size(); ++i) {
            crypto::XtsDecrypt(
                data_key_, tweak_key_, block + i,
                out.subspan(static_cast<std::size_t>(i) * bs, bs));
          }
        });
        bytes_decrypted_ += plain.size();
        const std::uint64_t n = plain.size();
        Charge(n, [plain = std::move(plain), cb = std::move(cb)]() mutable {
          cb(true, std::move(plain));
        });
      },
      ctx);
}

void EncryptedBacking::WriteBlocks(std::uint64_t block, util::Payload data,
                                   WriteCallback cb, obs::TraceContext ctx) {
  const std::uint32_t bs = block_size();
  util::Payload ciphertext(data.size(), [&](std::span<std::uint8_t> out) {
    std::memcpy(out.data(), data.data(), data.size());
    for (std::uint32_t i = 0; i * bs < out.size(); ++i) {
      crypto::XtsEncrypt(data_key_, tweak_key_, block + i,
                         out.subspan(static_cast<std::size_t>(i) * bs, bs));
    }
  });
  bytes_encrypted_ += ciphertext.size();
  const std::uint64_t n = ciphertext.size();
  Charge(n, [this, block, ciphertext = std::move(ciphertext), ctx,
             cb = std::move(cb)]() mutable {
    inner_.WriteBlocks(block, std::move(ciphertext), std::move(cb), ctx);
  });
}

}  // namespace nlss::security
