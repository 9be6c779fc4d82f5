#include "proto/block_target.h"

#include <limits>

namespace nlss::proto {

const char* BlockStatusName(BlockStatus s) {
  switch (s) {
    case BlockStatus::kOk: return "ok";
    case BlockStatus::kAuthFailed: return "auth failed";
    case BlockStatus::kAccessDenied: return "access denied";
    case BlockStatus::kInvalidSession: return "invalid session";
    case BlockStatus::kInvalidArgument: return "invalid argument";
    case BlockStatus::kIoError: return "I/O error";
  }
  return "?";
}

BlockTarget::BlockTarget(controller::StorageSystem& system,
                         security::AuthService& auth,
                         security::LunMasking& masking,
                         security::CommandPolicy& policy,
                         security::AuditLog& audit)
    : system_(system),
      auth_(auth),
      masking_(masking),
      policy_(policy),
      audit_(audit) {}

void BlockTarget::AttachObs(obs::Hub* hub) {
  hub_ = hub;
  if (hub_ == nullptr) {
    reads_total_ = writes_total_ = nullptr;
    return;
  }
  reads_total_ = &hub_->metrics().counter("nlss_proto_block_reads_total",
                                          "Block-protocol read commands");
  writes_total_ = &hub_->metrics().counter("nlss_proto_block_writes_total",
                                           "Block-protocol write commands");
}

std::optional<BlockTarget::SessionId> BlockTarget::Login(
    net::NodeId host, const std::string& initiator, const std::string& user,
    const std::string& password) {
  const auto token = auth_.Login(user, password);
  if (!token.has_value()) {
    audit_.Record(user, "block-login-failed", "initiator=" + initiator);
    return std::nullopt;
  }
  const SessionId id = next_session_++;
  // QoS tenant identity is fixed at login time (paper-style: a lab's hosts
  // authenticate as that lab's users).
  const qos::TenantId tenant = qos_registry_ != nullptr
                                   ? qos_registry_->ResolveUser(user)
                                   : qos::kAutoTenant;
  sessions_[id] = Session{host, initiator, user, *token, tenant};
  audit_.Record(user, "block-login", "initiator=" + initiator);
  return id;
}

qos::TenantId BlockTarget::SessionTenant(SessionId session) const {
  auto it = sessions_.find(session);
  return it == sessions_.end() ? qos::kAutoTenant : it->second.tenant;
}

void BlockTarget::Logout(SessionId session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  audit_.Record(it->second.user, "block-logout",
                "initiator=" + it->second.initiator);
  sessions_.erase(it);
}

const BlockTarget::Session* BlockTarget::Validate(SessionId id) const {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  // Tokens expire; a stale session is invalid even if still in the table.
  if (!auth_.Verify(it->second.token).has_value()) return nullptr;
  return &it->second;
}

std::vector<std::uint32_t> BlockTarget::ReportLuns(SessionId session) const {
  const Session* s = Validate(session);
  if (s == nullptr) return {};
  return masking_.VisibleTo(s->initiator);
}

void BlockTarget::Read(SessionId session, std::uint32_t volume,
                       std::uint64_t lba, std::uint32_t blocks,
                       ReadCallback cb) {
  const Session* s = Validate(session);
  if (s == nullptr) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(BlockStatus::kInvalidSession, {}, 0);
    });
    return;
  }
  if (!masking_.Visible(s->initiator, volume)) {
    audit_.Record(s->user, "block-read-denied",
                  "vol=" + std::to_string(volume));
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(BlockStatus::kAccessDenied, {}, 0);
    });
    return;
  }
  if (!InVolume(volume, lba, blocks)) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(BlockStatus::kInvalidArgument, {}, 0);
    });
    return;
  }
  const std::uint32_t bs = system_.pool().block_size();
  if (reads_total_ != nullptr) reads_total_->Increment();
  obs::TraceContext ctx;
  if (hub_ != nullptr) {
    ctx = hub_->tracer().StartTrace(obs::Layer::kProto, "proto.block.read");
  }
  system_.Read(
      s->host, volume, lba * bs, blocks * bs,
      [ctx, cb = std::move(cb)](bool ok, util::Payload data) {
        if (ctx.sampled()) ctx.tracer->EndTrace(ctx, ok);
        if (!ok) {
          cb(BlockStatus::kIoError, {}, 0);
          return;
        }
        const std::uint32_t crc = util::Crc32c(data);
        cb(BlockStatus::kOk, data.ToBytes(), crc);
      },
      /*priority=*/0, s->tenant, ctx);
}

void BlockTarget::Write(SessionId session, std::uint32_t volume,
                        std::uint64_t lba,
                        std::span<const std::uint8_t> data, WriteCallback cb) {
  const Session* s = Validate(session);
  if (s == nullptr) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(BlockStatus::kInvalidSession);
    });
    return;
  }
  if (!masking_.Visible(s->initiator, volume)) {
    audit_.Record(s->user, "block-write-denied",
                  "vol=" + std::to_string(volume));
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(BlockStatus::kAccessDenied);
    });
    return;
  }
  const std::uint32_t bs = system_.pool().block_size();
  if (data.size() % bs != 0 || !InVolume(volume, lba, data.size() / bs)) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(BlockStatus::kInvalidArgument);
    });
    return;
  }
  if (writes_total_ != nullptr) writes_total_->Increment();
  obs::TraceContext ctx;
  if (hub_ != nullptr) {
    ctx = hub_->tracer().StartTrace(obs::Layer::kProto, "proto.block.write");
  }
  system_.Write(
      s->host, volume, lba * bs, util::Payload::Copy(data),
      [ctx, cb = std::move(cb)](bool ok) {
        if (ctx.sampled()) ctx.tracer->EndTrace(ctx, ok);
        cb(ok ? BlockStatus::kOk : BlockStatus::kIoError);
      },
      s->tenant, ctx);
}

bool BlockTarget::InVolume(std::uint32_t volume, std::uint64_t lba,
                           std::uint64_t blocks) const {
  const std::uint64_t cap = system_.cache().backing(volume).CapacityBlocks();
  return blocks > 0 && lba <= cap && blocks <= cap - lba &&
         blocks <= std::numeric_limits<std::uint32_t>::max() /
                       system_.pool().block_size();
}

BlockStatus BlockTarget::TrySnapshot(SessionId session, std::uint32_t volume) {
  const Session* s = Validate(session);
  if (s == nullptr) return BlockStatus::kInvalidSession;
  if (!masking_.Visible(s->initiator, volume)) {
    return BlockStatus::kAccessDenied;
  }
  if (!policy_.AllowedInBand(s->initiator, security::Command::kSnapshot)) {
    audit_.Record(s->user, "snapshot-denied",
                  "in-band disabled on " + s->initiator);
    return BlockStatus::kAccessDenied;
  }
  system_.volume(volume).CreateSnapshot();
  audit_.Record(s->user, "snapshot", "vol=" + std::to_string(volume));
  return BlockStatus::kOk;
}

}  // namespace nlss::proto
