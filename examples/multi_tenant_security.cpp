// Multi-tenant security (paper §5, Figure 2): many user groups share one
// pooled system without seeing each other.  Authentication gates every
// session, LUN masking hides volumes, per-volume XTS keys keep platters
// unreadable, in-band management commands are locked down per port, and a
// hash-chained audit log records everything — reviewable over the
// authenticated web management endpoint.
//
// Build & run:  ./build/examples/example_multi_tenant_security
#include <cstdio>

#include "crypto/keystore.h"
#include "mgmt/admin_http.h"
#include "mgmt/manager.h"
#include "proto/block_target.h"
#include "security/encrypted_backing.h"
#include "util/bytes.h"

using namespace nlss;

int main() {
  std::printf("=== One pool, many tenants, strong walls ===\n\n");

  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config;
  config.name = "shared";
  config.controllers = 4;
  config.raid_groups = 4;
  config.disk_profile.capacity_blocks = 32 * 1024;
  controller::StorageSystem system(engine, fabric, config);

  crypto::KeyStore keys(std::string_view("lab-hsm-master"));
  security::AuthService auth(engine, keys);
  security::LunMasking mask;
  security::CommandPolicy cmd_policy;
  security::AuditLog audit(engine);
  auth.AddUser("genomics-svc", "g-pass", {"reader", "writer"});
  auth.AddUser("physics-svc", "p-pass", {"reader", "writer"});
  auth.AddUser("ops", "o-pass", {"admin"});

  // Two tenants, each with an encrypted volume keyed independently.
  const auto genomics_vol = system.CreateVolume("genomics", 64 * util::MiB);
  const auto physics_vol = system.CreateVolume("physics", 64 * util::MiB);
  security::EncryptedBacking genomics_enc(
      engine, system.volume(genomics_vol),
      keys.DeriveVolumeKeys("genomics", genomics_vol));
  security::EncryptedBacking physics_enc(
      engine, system.volume(physics_vol),
      keys.DeriveVolumeKeys("physics", physics_vol));
  const std::uint32_t kGenomicsLun = 100, kPhysicsLun = 101;
  system.cache().RegisterVolume(kGenomicsLun, &genomics_enc);
  system.cache().RegisterVolume(kPhysicsLun, &physics_enc);

  mask.Allow("genomics-host", kGenomicsLun);
  mask.Allow("physics-host", kPhysicsLun);

  proto::BlockTarget target(system, auth, mask, cmd_policy, audit);
  const auto g_host = system.AttachHost("genomics-host");
  const auto p_host = system.AttachHost("physics-host");

  // Genomics logs in and writes.
  const auto g_session = target.Login(g_host, "genomics-host",
                                      "genomics-svc", "g-pass");
  std::printf("genomics login: %s\n", g_session ? "ok" : "DENIED");
  util::Bytes genome(1 * util::MiB);
  util::FillPattern(genome, 1);
  proto::BlockStatus st = proto::BlockStatus::kIoError;
  target.Write(*g_session, kGenomicsLun, 0, genome,
               [&](proto::BlockStatus s) { st = s; });
  engine.Run();
  std::printf("genomics wrote 1 MiB: %s\n", proto::BlockStatusName(st));

  // Physics cannot even see the genomics LUN.
  const auto p_session = target.Login(p_host, "physics-host",
                                      "physics-svc", "p-pass");
  const auto visible = target.ReportLuns(*p_session);
  std::printf("physics REPORT LUNS sees %zu volume(s): only its own\n",
              visible.size());
  target.Read(*p_session, kGenomicsLun, 0, 1,
              [&](proto::BlockStatus s, util::Bytes, std::uint32_t) {
                st = s;
              });
  engine.Run();
  std::printf("physics read of genomics LUN: %s\n",
              proto::BlockStatusName(st));

  // Even with the masking bypassed (disk pulled on warranty return), the
  // platters hold ciphertext under genomics' key.
  bool ok = false;
  util::Bytes raw;
  system.volume(genomics_vol).ReadBlocks(0, 16, [&](bool r, util::Payload d) {
    ok = r;
    raw = d.ToBytes();
  });
  engine.Run();
  std::printf("raw medium bytes == plaintext? %s (XTS at rest)\n",
              ok && std::equal(raw.begin(), raw.end(), genome.begin())
                  ? "YES - BAD"
                  : "no");

  // In-band management lockdown: snapshots disabled on the genomics port.
  cmd_policy.DisableInBand("genomics-host", security::Command::kSnapshot);
  std::printf("in-band snapshot on locked port: %s\n",
              proto::BlockStatusName(
                  target.TrySnapshot(*g_session, kGenomicsLun)));

  // Wrong password and stale sessions go nowhere, and it is all audited.
  std::printf("bad-password login: %s\n",
              target.Login(g_host, "genomics-host", "genomics-svc", "wrong")
                  ? "ok - BAD"
                  : "denied");
  target.Logout(*g_session);

  // Ops reviews everything over the authenticated web endpoint.
  mgmt::AlertManager alerts(engine);
  mgmt::AdminHttp admin(system, auth, alerts, audit);
  const auto ops_token = *auth.Login("ops", "o-pass");
  const auto resp = admin.Handle("GET /audit HTTP/1.0\r\nAuthorization: " +
                                 ops_token + "\r\n\r\n");
  std::printf("\nops GET /audit -> %d; audit chain intact: %s; %zu entries\n",
              resp.status,
              audit.VerifyChain() ? "yes" : "NO - TAMPERED",
              audit.size());
  for (const auto& e : audit.entries()) {
    std::printf("  [%8.3f ms] %-14s %-22s %s\n", e.when / 1e6,
                e.actor.c_str(), e.action.c_str(), e.detail.c_str());
  }
  return 0;
}
