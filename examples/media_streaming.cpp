// Media streaming (paper §2.3 / Figure 1 and §8): serve a large object at
// 10 Gb/s by striping the read round-robin over four controller blades that
// take turns driving a shared high-speed port; plus the blade-resident HTTP
// engine serving ranged requests directly from the storage system.
//
// Build & run:  ./build/examples/example_media_streaming
#include <cstdio>

#include "controller/highspeed.h"
#include "controller/system.h"
#include "fs/filesystem.h"
#include "proto/http_server.h"
#include "util/bytes.h"
#include "util/units.h"

using namespace nlss;

int main() {
  std::printf("=== Driving a 10 GbE link from four controller blades ===\n\n");

  sim::Engine engine;
  net::Fabric fabric(engine);

  controller::SystemConfig config;
  config.name = "media";
  config.controllers = 4;
  config.raid_groups = 4;
  config.disk_profile.capacity_blocks = 128 * 1024;  // 512 MiB per disk
  config.cache.node_capacity_pages = 8192;           // 512 MiB cache/blade
  // Each blade is fed by 2 x 2 Gb/s Fibre Channel (paper Figure 1).
  config.cache.fc_ns_per_byte = 1.0 / util::GbpsToBytesPerNs(4.0);
  controller::StorageSystem system(engine, fabric, config);
  const net::NodeId host = system.AttachHost("ingest");

  // Ingest a 256 MiB media object.
  const auto vol = system.CreateVolume("media", util::GiB);
  const std::uint64_t object_bytes = 256 * util::MiB;
  util::Bytes chunk(8 * util::MiB);
  bool ok = true;
  for (std::uint64_t off = 0; off < object_bytes; off += chunk.size()) {
    util::FillPattern(chunk, off);
    system.Write(host, vol, off, util::Payload::Copy(chunk),
                 [&](bool r) { ok = ok && r; });
    engine.Run();
  }
  bool flushed = false;
  system.cache().FlushAll([&](bool) { flushed = true; });
  engine.Run();
  std::printf("ingested 256 MiB object: %s (flushed: %s)\n\n",
              ok ? "ok" : "FAILED", flushed ? "yes" : "no");

  // Stream it through the shared 10 GbE port with 1..4 blades.
  for (std::uint32_t blades = 1; blades <= 4; ++blades) {
    std::vector<cache::ControllerId> set;
    for (std::uint32_t b = 0; b < blades; ++b) set.push_back(b);
    controller::HighSpeedPort port(system, set, {});
    controller::HighSpeedPort::StreamResult result;
    port.Stream(vol, 0, object_bytes,
                [&](controller::HighSpeedPort::StreamResult r) { result = r; });
    engine.Run();
    std::printf("  %u blade%s -> %6.2f Gb/s  (%s)\n", blades,
                blades == 1 ? " " : "s", result.Gbps(),
                result.ok ? "in-order, complete" : "FAILED");
  }

  // The HTTP engine on the blades serves the same bytes to the wide area.
  std::printf("\n--- blade-resident HTTP engine ---\n");
  fs::FileSystem fs(system);
  fs.Create("/colloquium.mpg");
  const util::Payload clip(4 * util::MiB, [](std::span<std::uint8_t> out) {
    util::FillPattern(out, 7);
  });
  fs.Write("/colloquium.mpg", 0, clip, [](fs::Status) {});
  engine.Run();

  proto::HttpServer http(fs);
  proto::HttpResponse resp;
  http.HandleRaw("GET /colloquium.mpg HTTP/1.0\r\n\r\n",
                 [&](proto::HttpResponse r) { resp = std::move(r); });
  engine.Run();
  std::printf("GET /colloquium.mpg -> %d (%llu bytes)\n", resp.status,
              (unsigned long long)resp.body.size());

  http.HandleRaw("GET /colloquium.mpg HTTP/1.0\r\nRange: bytes=0-1048575\r\n\r\n",
                 [&](proto::HttpResponse r) { resp = std::move(r); });
  engine.Run();
  std::printf("ranged GET (first 1 MiB) -> %d, %s\n", resp.status,
              resp.headers.c_str());
  std::printf("http engine totals: %llu requests, %.1f MiB served\n",
              (unsigned long long)http.requests_served(),
              http.bytes_served() / 1048576.0);
  return 0;
}
