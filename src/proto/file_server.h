// File access protocol export (paper §4: "accessed from a host using ...
// NFS, CIFS, or DAFS").  An NFS-flavoured server over the blade-resident
// parallel file system: mounts are authenticated, writes require the
// "writer" role, and every operation is auditable.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "fs/filesystem.h"
#include "security/audit.h"
#include "security/auth.h"

namespace nlss::proto {

class FileServer {
 public:
  using MountId = std::uint64_t;

  FileServer(fs::FileSystem& fs, security::AuthService& auth,
             security::AuditLog& audit);

  /// Root request traces start here when a hub is attached: file reads and
  /// writes become "proto.file.*" traces (subject to sampling).
  void AttachObs(obs::Hub* hub);

  /// Authenticate and mount a subtree.  Requires the "reader" role.
  std::optional<MountId> Mount(const std::string& user,
                               const std::string& password,
                               const std::string& export_root = "/");
  void Unmount(MountId mount);

  // Namespace (relative to the mount's export root).
  fs::Status Create(MountId mount, const std::string& path,
                    const fs::FilePolicy& policy = {});
  fs::Status Mkdir(MountId mount, const std::string& path);
  fs::Status Remove(MountId mount, const std::string& path);
  std::vector<std::string> List(MountId mount, const std::string& path) const;
  const fs::Inode* GetAttr(MountId mount, const std::string& path) const;
  fs::Status SetPolicy(MountId mount, const std::string& path,
                       const fs::FilePolicy& policy);

  // Data.
  void Read(MountId mount, const std::string& path, std::uint64_t offset,
            std::uint64_t length, fs::FileSystem::ReadCallback cb);
  void Write(MountId mount, const std::string& path, std::uint64_t offset,
             util::Payload data, fs::FileSystem::WriteCallback cb);

 private:
  struct MountState {
    std::string user;
    std::string token;
    std::string root;  // export root, normalized without trailing slash
  };

  const MountState* Validate(MountId id) const;
  std::string Abs(const MountState& m, const std::string& rel) const;
  bool CanWrite(const MountState& m) const;

  fs::FileSystem& fs_;
  security::AuthService& auth_;
  security::AuditLog& audit_;
  obs::Hub* hub_ = nullptr;
  obs::Counter* reads_total_ = nullptr;
  obs::Counter* writes_total_ = nullptr;
  std::map<MountId, MountState> mounts_;
  MountId next_mount_ = 1;
};

}  // namespace nlss::proto
