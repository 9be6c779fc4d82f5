// E10 (paper §5, §8.1): wire-speed encryption.  Two measurements:
//   (a) REAL wall-clock throughput of the crypto kernels (AES-CTR for
//       transmission, AES-XTS for at-rest, SHA-256/HMAC for integrity),
//       single- and multi-threaded — blade parallelism is how the paper
//       reaches wire speed with "sufficient intelligence on the blade".
//   (b) Simulated in-stream overhead: a volume behind the EncryptedBacking
//       layer vs plaintext, with a hardware-engine throughput model.
#include "bench/common.h"

#include <chrono>

#include "crypto/aes.h"
#include "crypto/keystore.h"
#include "crypto/sha256.h"
#include "security/encrypted_backing.h"
#include "util/crc32c.h"
#include "util/thread_pool.h"

namespace nlss::bench {
namespace {

// Real-hardware kernel throughput bench, outside the deterministic sim.
// nlss-lint: allow(wallclock)
using Clock = std::chrono::steady_clock;

double MeasureGBps(std::size_t threads,
                   const std::function<void(std::size_t)>& work_on_buffer,
                   std::size_t buffer_bytes, int iterations) {
  util::ThreadPool pool(threads);
  const auto start = Clock::now();
  for (int it = 0; it < iterations; ++it) {
    pool.ParallelFor(threads, [&](std::size_t t) { work_on_buffer(t); });
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double total_bytes =
      static_cast<double>(buffer_bytes) * threads * iterations;
  return total_bytes / 1e9 / seconds;
}

}  // namespace
}  // namespace nlss::bench

int main() {
  using namespace nlss;
  using namespace nlss::bench;
  PrintHeader("E10", "Wire-speed encryption (paper 5 / 8.1)",
              "encryption at wire speed given blade parallelism; optional "
              "in-stream at-rest encryption with modest overhead");

  constexpr std::size_t kBuf = 1 * util::MiB;
  constexpr int kIters = 20;
  crypto::KeyStore keys(std::string_view("bench"));
  const auto vk = keys.DeriveVolumeKeys("bench", 1);
  const crypto::Aes data_key(vk.data_key), tweak_key(vk.tweak_key);
  const auto tk = keys.DeriveTransportKey("a", "b");
  const crypto::Aes ctr_key(tk);

  std::vector<util::Bytes> buffers(8, util::Bytes(kBuf));
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    util::FillPattern(buffers[i], i);
  }

  util::Table table({"kernel", "1 thread GB/s", "2 threads", "4 threads",
                     "wire-speed at 10Gb/s (1.25 GB/s)?"});
  struct Kernel {
    const char* name;
    std::function<void(std::size_t)> fn;
  };
  const std::uint8_t iv[16] = {};
  std::vector<Kernel> kernels;
  kernels.push_back({"AES-256-CTR (transmission)", [&](std::size_t t) {
                       crypto::CtrCrypt(ctr_key, iv, buffers[t]);
                     }});
  kernels.push_back({"AES-256-XTS (at rest)", [&](std::size_t t) {
                       crypto::XtsEncrypt(data_key, tweak_key, t, buffers[t]);
                     }});
  kernels.push_back({"SHA-256 (integrity)", [&](std::size_t t) {
                       crypto::Sha256::Hash(buffers[t]);
                     }});
  kernels.push_back({"CRC32C (digest)", [&](std::size_t t) {
                       volatile auto c = util::Crc32c(buffers[t]);
                       (void)c;
                     }});

  for (auto& k : kernels) {
    const double g1 = MeasureGBps(1, k.fn, kBuf, kIters);
    const double g2 = MeasureGBps(2, k.fn, kBuf, kIters);
    const double g4 = MeasureGBps(4, k.fn, kBuf, kIters);
    table.AddRow({k.name, util::Table::Cell(g1, 2),
                  util::Table::Cell(g2, 2), util::Table::Cell(g4, 2),
                  g4 >= 1.25 ? "yes" : "needs hardware assist"});
  }
  table.Print("E10a: REAL (wall-clock) crypto kernel throughput:");
  std::printf("  (host has %u hardware thread(s); thread scaling shows only "
              "on multicore hosts)\n",
              std::max(1u, std::thread::hardware_concurrency()));

  // (b) Simulated in-stream overhead on the storage path.
  auto run_stream = [&](bool encrypted) {
    sim::Engine engine;
    disk::DiskProfile profile;
    profile.capacity_blocks = 32 * 1024;
    disk::DiskFarm farm(engine, profile, 5);
    std::vector<disk::Disk*> disks;
    for (std::size_t i = 0; i < farm.size(); ++i) disks.push_back(&farm.at(i));
    raid::RaidGroup group(engine, std::move(disks), {});
    cache::RaidBacking plain(group);
    sim::Resource engine_res(engine);
    security::EncryptedBacking::Config ec;
    ec.engine_resource = &engine_res;
    ec.crypt_ns_per_byte = 1.0 / 2.0;  // 2 GB/s hardware engine
    security::EncryptedBacking enc(engine, plain, vk, ec);
    cache::BackingStore& store = encrypted
                                     ? static_cast<cache::BackingStore&>(enc)
                                     : plain;
    const std::uint32_t blocks = 256;  // 1 MiB ops
    util::Bytes data(blocks * 4096ull);
    util::FillPattern(data, 3);
    const sim::Tick start = engine.now();
    std::uint64_t moved = 0;
    for (int i = 0; i < 64; ++i) {
      bool ok = false;
      store.WriteBlocks(static_cast<std::uint64_t>(i) * blocks,
                        util::Payload::Copy(data),
                        [&](bool r) { ok = r; });
      engine.Run();
      if (ok) moved += data.size();
    }
    for (int i = 0; i < 64; ++i) {
      store.ReadBlocks(static_cast<std::uint64_t>(i) * blocks, blocks,
                       [&](bool, util::Payload) {});
      engine.Run();
      moved += data.size();
    }
    return util::ThroughputMBps(moved, engine.now() - start);
  };
  const double plain_mbps = run_stream(false);
  const double enc_mbps = run_stream(true);
  std::printf("\nE10b: simulated sequential stream through the RAID group "
              "(128 MiB moved):\n  plaintext: %.1f MB/s   XTS in-stream "
              "(2 GB/s engine): %.1f MB/s   overhead %.1f%%\n",
              plain_mbps, enc_mbps,
              100.0 * (plain_mbps - enc_mbps) / plain_mbps);
  std::printf("\nExpected shape: kernels scale ~linearly with threads "
              "(parallel blades);\na hardware-rate engine adds only a few "
              "percent to a disk-bound stream.\n");
  return 0;
}
