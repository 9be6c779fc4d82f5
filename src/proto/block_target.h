// Block protocol export (paper §1/§8: SAN / iSCSI-style access "managed
// from a common pool").  Hosts log in with credentials, see only the LUNs
// masked to them, and issue block reads/writes that ride the host fabric
// into the cache cluster.  Data digests use CRC32C, as iSCSI does.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "controller/system.h"
#include "qos/tenant.h"
#include "security/audit.h"
#include "security/auth.h"
#include "security/control.h"
#include "security/lun_mask.h"
#include "util/crc32c.h"
#include "util/function.h"

namespace nlss::proto {

enum class BlockStatus : std::uint8_t {
  kOk,
  kAuthFailed,
  kAccessDenied,
  kInvalidSession,
  kInvalidArgument,
  kIoError,
};

const char* BlockStatusName(BlockStatus s);

class BlockTarget {
 public:
  using SessionId = std::uint64_t;

  BlockTarget(controller::StorageSystem& system, security::AuthService& auth,
              security::LunMasking& masking, security::CommandPolicy& policy,
              security::AuditLog& audit);

  /// Resolve tenant identity at login (QoS): sessions opened after this
  /// carry the user's tenant, so their block I/O is scheduled under it.
  void AttachQos(qos::TenantRegistry* registry) { qos_registry_ = registry; }

  /// Root request traces start here when a hub is attached: every block
  /// read/write becomes a "proto.block.*" trace (subject to sampling).
  void AttachObs(obs::Hub* hub);

  /// Authenticated login from a host node; returns a session handle.
  std::optional<SessionId> Login(net::NodeId host,
                                 const std::string& initiator,
                                 const std::string& user,
                                 const std::string& password);
  void Logout(SessionId session);

  /// REPORT LUNS: only volumes masked to this initiator.
  std::vector<std::uint32_t> ReportLuns(SessionId session) const;

  using ReadCallback =
      util::Function<void(BlockStatus, util::Bytes data, std::uint32_t crc)>;
  using WriteCallback = util::Function<void(BlockStatus)>;

  void Read(SessionId session, std::uint32_t volume, std::uint64_t lba,
            std::uint32_t blocks, ReadCallback cb);
  void Write(SessionId session, std::uint32_t volume, std::uint64_t lba,
             std::span<const std::uint8_t> data, WriteCallback cb);

  /// In-band management command attempt (port = the session's initiator
  /// port name); demonstrates the §5.2 lockdown.
  BlockStatus TrySnapshot(SessionId session, std::uint32_t volume);

  std::size_t active_sessions() const { return sessions_.size(); }

  /// Tenant of an open session (kAutoTenant if unknown session or no
  /// registry attached) — exposed for tests and management tooling.
  qos::TenantId SessionTenant(SessionId session) const;

 private:
  struct Session {
    net::NodeId host;
    std::string initiator;
    std::string user;
    std::string token;
    qos::TenantId tenant = qos::kAutoTenant;
  };

  const Session* Validate(SessionId id) const;
  /// A request names at least one block, ends inside the volume, and its
  /// byte length fits the storage path's 32-bit length (64-bit checks).
  bool InVolume(std::uint32_t volume, std::uint64_t lba,
                std::uint64_t blocks) const;

  controller::StorageSystem& system_;
  security::AuthService& auth_;
  security::LunMasking& masking_;
  security::CommandPolicy& policy_;
  security::AuditLog& audit_;
  qos::TenantRegistry* qos_registry_ = nullptr;
  obs::Hub* hub_ = nullptr;
  obs::Counter* reads_total_ = nullptr;
  obs::Counter* writes_total_ = nullptr;
  std::map<SessionId, Session> sessions_;
  SessionId next_session_ = 1;
};

}  // namespace nlss::proto
