#include "proto/file_server.h"

namespace nlss::proto {

FileServer::FileServer(fs::FileSystem& fs, security::AuthService& auth,
                       security::AuditLog& audit)
    : fs_(fs), auth_(auth), audit_(audit) {}

std::optional<FileServer::MountId> FileServer::Mount(
    const std::string& user, const std::string& password,
    const std::string& export_root) {
  const auto token = auth_.Login(user, password);
  if (!token.has_value() || !auth_.HasRole(user, "reader")) {
    audit_.Record(user, "mount-denied", "root=" + export_root);
    return std::nullopt;
  }
  std::string root = export_root;
  while (root.size() > 1 && root.back() == '/') root.pop_back();
  if (root == "/") root.clear();
  const MountId id = next_mount_++;
  mounts_[id] = MountState{user, *token, root};
  audit_.Record(user, "mount", "root=" + export_root);
  return id;
}

void FileServer::Unmount(MountId mount) { mounts_.erase(mount); }

const FileServer::MountState* FileServer::Validate(MountId id) const {
  auto it = mounts_.find(id);
  if (it == mounts_.end()) return nullptr;
  if (!auth_.Verify(it->second.token).has_value()) return nullptr;
  return &it->second;
}

std::string FileServer::Abs(const MountState& m, const std::string& rel) const {
  if (rel.empty() || rel == "/") return m.root.empty() ? "/" : m.root;
  return m.root + (rel.front() == '/' ? rel : "/" + rel);
}

bool FileServer::CanWrite(const MountState& m) const {
  return auth_.HasRole(m.user, "writer");
}

fs::Status FileServer::Create(MountId mount, const std::string& path,
                              const fs::FilePolicy& policy) {
  const MountState* m = Validate(mount);
  if (m == nullptr) return fs::Status::kInvalidArgument;
  if (!CanWrite(*m)) return fs::Status::kInvalidArgument;
  return fs_.Create(Abs(*m, path), policy);
}

fs::Status FileServer::Mkdir(MountId mount, const std::string& path) {
  const MountState* m = Validate(mount);
  if (m == nullptr || !CanWrite(*m)) return fs::Status::kInvalidArgument;
  return fs_.Mkdir(Abs(*m, path));
}

fs::Status FileServer::Remove(MountId mount, const std::string& path) {
  const MountState* m = Validate(mount);
  if (m == nullptr || !CanWrite(*m)) return fs::Status::kInvalidArgument;
  audit_.Record(m->user, "remove", Abs(*m, path));
  return fs_.Unlink(Abs(*m, path));
}

std::vector<std::string> FileServer::List(MountId mount,
                                          const std::string& path) const {
  const MountState* m = Validate(mount);
  if (m == nullptr) return {};
  return fs_.List(Abs(*m, path));
}

const fs::Inode* FileServer::GetAttr(MountId mount,
                                     const std::string& path) const {
  const MountState* m = Validate(mount);
  if (m == nullptr) return nullptr;
  return fs_.Stat(Abs(*m, path));
}

fs::Status FileServer::SetPolicy(MountId mount, const std::string& path,
                                 const fs::FilePolicy& policy) {
  const MountState* m = Validate(mount);
  if (m == nullptr || !CanWrite(*m)) return fs::Status::kInvalidArgument;
  audit_.Record(m->user, "set-policy", Abs(*m, path));
  return fs_.SetPolicy(Abs(*m, path), policy);
}

void FileServer::AttachObs(obs::Hub* hub) {
  hub_ = hub;
  if (hub_ == nullptr) {
    reads_total_ = writes_total_ = nullptr;
    return;
  }
  reads_total_ = &hub_->metrics().counter("nlss_proto_file_reads_total",
                                          "File-protocol read operations");
  writes_total_ = &hub_->metrics().counter("nlss_proto_file_writes_total",
                                           "File-protocol write operations");
}

void FileServer::Read(MountId mount, const std::string& path,
                      std::uint64_t offset, std::uint64_t length,
                      fs::FileSystem::ReadCallback cb) {
  const MountState* m = Validate(mount);
  if (m == nullptr) {
    fs_.system().engine().Schedule(0, [cb = std::move(cb)] {
      cb(fs::Status::kInvalidArgument, {});
    });
    return;
  }
  if (reads_total_ != nullptr) reads_total_->Increment();
  obs::TraceContext ctx;
  if (hub_ != nullptr) {
    ctx = hub_->tracer().StartTrace(obs::Layer::kProto, "proto.file.read");
  }
  fs_.Read(Abs(*m, path), offset, length,
           [ctx, cb = std::move(cb)](fs::Status st, util::Payload data) {
             if (ctx.sampled()) {
               ctx.tracer->EndTrace(ctx, st == fs::Status::kOk);
             }
             cb(st, std::move(data));
           },
           ctx);
}

void FileServer::Write(MountId mount, const std::string& path,
                       std::uint64_t offset, util::Payload data,
                       fs::FileSystem::WriteCallback cb) {
  const MountState* m = Validate(mount);
  if (m == nullptr || !CanWrite(*m)) {
    fs_.system().engine().Schedule(0, [cb = std::move(cb)] {
      cb(fs::Status::kInvalidArgument);
    });
    return;
  }
  if (writes_total_ != nullptr) writes_total_->Increment();
  obs::TraceContext ctx;
  if (hub_ != nullptr) {
    ctx = hub_->tracer().StartTrace(obs::Layer::kProto, "proto.file.write");
  }
  fs_.Write(Abs(*m, path), offset, std::move(data),
            [ctx, cb = std::move(cb)](fs::Status st) {
              if (ctx.sampled()) {
                ctx.tracer->EndTrace(ctx, st == fs::Status::kOk);
              }
              cb(st);
            },
            ctx);
}

}  // namespace nlss::proto
