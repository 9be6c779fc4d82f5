// E8 (paper §7.1, Figure 3): distributed data access.  The first block a
// remote site touches pays the WAN delay; the rest of the file is
// prefetched behind it, so subsequent blocks — and every later read — run
// at local speed.  Hot files are automatically replicated to the sites
// that keep reading them.
#include "bench/common.h"

#include "geo/geo.h"

int main() {
  using namespace nlss;
  using namespace nlss::bench;
  using namespace nlss::geo;
  PrintHeader("E8", "Remote first-touch migration and prefetch (paper 7.1)",
              "network delay on the first block only; other blocks are "
              "prefetched, giving local access performance");

  controller::SystemConfig sc;
  sc.controllers = 2;
  sc.raid_groups = 2;
  sc.disk_profile.capacity_blocks = 32 * 1024;

  auto run = [&](bool prefetch) {
    sim::Engine engine;
    net::Fabric fabric(engine);
    GeoCluster::Config gc;
    gc.prefetch = prefetch;
    gc.auto_promote = false;
    GeoCluster grid(engine, fabric, gc);
    const auto home = grid.AddSite("home", sc, Location{0, 0});
    const auto remote = grid.AddSite("remote", sc, Location{3000, 0});
    grid.ConnectSites(home, remote,
                      net::LinkProfile::Wan(15 * util::kNsPerMs, 2.5));
    grid.Create("/dataset", home);
    util::Bytes data(16 * util::MiB);
    util::FillPattern(data, 1);
    bool ok = false;
    grid.Write(home, "/dataset", 0, util::Payload::Copy(data),
               [&](fs::Status s) {
      ok = s == fs::Status::kOk;
    });
    engine.Run();
    if (!ok) std::abort();

    // Remote reads the file in 256 KiB pieces, in order; record latencies.
    std::vector<double> ms;
    for (std::uint64_t off = 0; off < data.size(); off += 256 * util::KiB) {
      const sim::Tick start = engine.now();
      sim::Tick done = 0;
      grid.Read(remote, "/dataset", off, 256 * util::KiB,
                [&](fs::Status s, util::Payload) {
                  if (s == fs::Status::kOk) done = engine.now();
                });
      engine.Run();
      ms.push_back((done - start) / 1e6);
    }
    return ms;
  };

  const auto with_prefetch = run(true);
  const auto without = run(false);

  util::Table table({"chunk #", "latency, prefetch ON (ms)",
                     "latency, prefetch OFF (ms)"});
  const std::size_t n = with_prefetch.size();
  for (const std::size_t i :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{7},
        std::size_t{31}, n - 1}) {
    table.AddRow({util::Table::Cell(i),
                  util::Table::Cell(with_prefetch[i], 2),
                  util::Table::Cell(without[i], 2)});
  }
  double tail_on = 0, tail_off = 0;
  for (std::size_t i = 1; i < n; ++i) {
    tail_on += with_prefetch[i];
    tail_off += without[i];
  }
  table.AddRow({"mean 1..end", util::Table::Cell(tail_on / (n - 1), 2),
                util::Table::Cell(tail_off / (n - 1), 2)});
  table.Print("E8a: per-chunk read latency at the remote site "
              "(16 MiB file, 256 KiB chunks, 15 ms one-way WAN):");

  // E8b: automatic replication of commonly-accessed files.
  sim::Engine engine;
  net::Fabric fabric(engine);
  GeoCluster::Config gc;
  gc.hot_promote_reads = 3;
  GeoCluster grid(engine, fabric, gc);
  const auto home = grid.AddSite("home", sc, Location{0, 0});
  const auto remote = grid.AddSite("remote", sc, Location{3000, 0});
  grid.ConnectSites(home, remote,
                    net::LinkProfile::Wan(15 * util::kNsPerMs, 2.5));
  grid.Create("/hot", home);
  util::Bytes data(2 * util::MiB);
  util::FillPattern(data, 2);
  grid.Write(home, "/hot", 0, util::Payload::Copy(data), [](fs::Status) {});
  engine.Run();
  int reads = 0;
  while (!grid.ReplicasOf("/hot").count(remote) && reads < 10) {
    grid.Read(remote, "/hot", 0, 4096, [](fs::Status, util::Payload) {});
    engine.Run();
    ++reads;
  }
  std::printf("\nE8b: file auto-promoted to a full replica at the remote "
              "site after %d reads\n  (threshold 3); subsequent writes at "
              "home keep it current.\n", reads);
  std::printf("\nExpected shape: chunk 0 pays ~2x one-way WAN + transfer; "
              "with prefetch the\nremaining chunks drop to local latency; "
              "without it every chunk pays the WAN.\n");
  return 0;
}
