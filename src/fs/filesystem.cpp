#include "fs/filesystem.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "util/bytes.h"

namespace nlss::fs {

const char* StatusName(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNotFound: return "not found";
    case Status::kExists: return "already exists";
    case Status::kNotDirectory: return "not a directory";
    case Status::kIsDirectory: return "is a directory";
    case Status::kNotEmpty: return "directory not empty";
    case Status::kInvalidArgument: return "invalid argument";
    case Status::kNoSpace: return "no space";
    case Status::kIoError: return "I/O error";
  }
  return "?";
}

FileSystem::FileSystem(controller::StorageSystem& system, Config config)
    : system_(system), config_(config) {
  volume_ = system_.CreateVolume(config_.tenant, config_.volume_bytes);
  writer_id_ = system_.AllocWriterId();
  max_chunks_ = config_.volume_bytes / config_.chunk_bytes;
  Inode root;
  root.ino = kRootIno;
  root.type = FileType::kDirectory;
  inodes_[kRootIno] = std::move(root);
}

std::vector<std::string> FileSystem::SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : path) {
    if (c == '/') {
      if (!cur.empty()) parts.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) parts.push_back(std::move(cur));
  return parts;
}

FileSystem::Resolved FileSystem::Resolve(const std::string& path) {
  Resolved r;
  const auto parts = SplitPath(path);
  Inode* cur = &inodes_[kRootIno];
  if (parts.empty()) {
    r.parent = nullptr;
    r.node = cur;
    return r;
  }
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    if (cur->type != FileType::kDirectory) return {};
    const meta::Dentry* e = cur->entries.Find(parts[i]);
    if (e == nullptr) return {};
    cur = &inodes_[e->ino];
  }
  if (cur->type != FileType::kDirectory) return {};
  r.parent = cur;
  r.leaf = parts.back();
  const meta::Dentry* e = cur->entries.Find(r.leaf);
  r.node = e == nullptr ? nullptr : &inodes_[e->ino];
  return r;
}

const Inode* FileSystem::ResolveConst(const std::string& path) const {
  return const_cast<FileSystem*>(this)->Resolve(path).node;
}

Status FileSystem::Mkdir(const std::string& path) {
  Resolved r = Resolve(path);
  if (r.parent == nullptr) return Status::kNotFound;
  if (r.node != nullptr) return Status::kExists;
  if (r.leaf.empty()) return Status::kInvalidArgument;
  Inode dir;
  dir.ino = next_ino_++;
  dir.type = FileType::kDirectory;
  const InodeNum ino = dir.ino;
  inodes_[ino] = std::move(dir);
  r.parent->entries.Insert(r.leaf, meta::Dentry{ino, true});
  return Status::kOk;
}

Status FileSystem::Create(const std::string& path, const FilePolicy& policy) {
  Resolved r = Resolve(path);
  if (r.parent == nullptr) return Status::kNotFound;
  if (r.node != nullptr) return Status::kExists;
  if (r.leaf.empty()) return Status::kInvalidArgument;
  Inode file;
  file.ino = next_ino_++;
  file.type = FileType::kFile;
  file.policy = policy;
  const InodeNum ino = file.ino;
  inodes_[ino] = std::move(file);
  r.parent->entries.Insert(r.leaf, meta::Dentry{ino, false});
  return Status::kOk;
}

Status FileSystem::Unlink(const std::string& path) {
  Resolved r = Resolve(path);
  if (r.parent == nullptr || r.node == nullptr) return Status::kNotFound;
  if (r.node->type == FileType::kDirectory) return Status::kIsDirectory;
  // Release the file's chunks (physical space returns to the pool).
  for (const std::uint64_t chunk : r.node->chunks) FreeChunk(chunk);
  const InodeNum ino = r.node->ino;
  r.parent->entries.Erase(r.leaf);
  inodes_.erase(ino);
  return Status::kOk;
}

Status FileSystem::Rmdir(const std::string& path) {
  Resolved r = Resolve(path);
  if (r.parent == nullptr || r.node == nullptr) return Status::kNotFound;
  if (r.node->type != FileType::kDirectory) return Status::kNotDirectory;
  if (!r.node->entries.empty()) return Status::kNotEmpty;
  const InodeNum ino = r.node->ino;
  r.parent->entries.Erase(r.leaf);
  inodes_.erase(ino);
  return Status::kOk;
}

Status FileSystem::Rename(const std::string& from, const std::string& to) {
  Resolved src = Resolve(from);
  if (src.parent == nullptr || src.node == nullptr) return Status::kNotFound;
  Resolved dst = Resolve(to);
  if (dst.parent == nullptr) return Status::kNotFound;
  if (dst.node != nullptr) return Status::kExists;
  if (dst.leaf.empty()) return Status::kInvalidArgument;
  const InodeNum ino = src.node->ino;
  const bool is_dir = src.node->type == FileType::kDirectory;
  // Note: Resolve() returned stable pointers into inodes_ (std::map).
  src.parent->entries.Erase(src.leaf);
  dst.parent->entries.Insert(dst.leaf, meta::Dentry{ino, is_dir});
  return Status::kOk;
}

bool FileSystem::Exists(const std::string& path) const {
  return ResolveConst(path) != nullptr;
}

const Inode* FileSystem::Stat(const std::string& path) const {
  return ResolveConst(path);
}

std::vector<std::string> FileSystem::List(const std::string& path) const {
  const Inode* dir = ResolveConst(path);
  std::vector<std::string> out;
  if (dir == nullptr || dir->type != FileType::kDirectory) return out;
  out.reserve(dir->entries.size());
  dir->entries.ForEach(
      [&out](const std::string& name, const meta::Dentry&) {
        out.push_back(name);
      });
  return out;
}

Status FileSystem::SetPolicy(const std::string& path,
                             const FilePolicy& policy) {
  Resolved r = Resolve(path);
  if (r.node == nullptr) return Status::kNotFound;
  r.node->policy = policy;
  return Status::kOk;
}

std::uint64_t FileSystem::AllocateChunk() {
  if (!free_chunks_.empty()) {
    const std::uint64_t c = free_chunks_.back();
    free_chunks_.pop_back();
    return c;
  }
  if (next_chunk_ >= max_chunks_) return ~0ull;
  return next_chunk_++;
}

void FileSystem::FreeChunk(std::uint64_t chunk) {
  free_chunks_.push_back(chunk);
  // Return the physical extents beneath the chunk to the pool.
  const std::uint32_t bs = system_.pool().block_size();
  system_.volume(volume_).Trim(ChunkBase(chunk) / bs,
                               config_.chunk_bytes / bs, [](bool) {});
}

Status FileSystem::EnsureChunks(Inode& inode, std::uint64_t end_offset) {
  const std::uint64_t needed =
      (end_offset + config_.chunk_bytes - 1) / config_.chunk_bytes;
  while (inode.chunks.size() < needed) {
    if (config_.quota_bytes > 0 &&
        UsedBytes() + config_.chunk_bytes > config_.quota_bytes) {
      return Status::kNoSpace;  // hard quota (paper §3 automated admin)
    }
    const std::uint64_t c = AllocateChunk();
    if (c == ~0ull) return Status::kNoSpace;
    inode.chunks.push_back(c);
  }
  return Status::kOk;
}

void FileSystem::Write(const std::string& path, std::uint64_t offset,
                       std::span<const std::uint8_t> data, WriteCallback cb,
                       obs::TraceContext ctx) {
  Resolved r = Resolve(path);
  if (r.node == nullptr) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(Status::kNotFound);
    });
    return;
  }
  if (r.node->type != FileType::kFile) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(Status::kIsDirectory);
    });
    return;
  }
  if (data.empty()) {  // changes nothing: no size, no chunks, no I/O
    system_.engine().Schedule(0, [cb = std::move(cb)] { cb(Status::kOk); });
    return;
  }
  Inode& inode = *r.node;
  const Status st = EnsureChunks(inode, offset + data.size());
  if (st != Status::kOk) {
    system_.engine().Schedule(0, [cb = std::move(cb), st] { cb(st); });
    return;
  }
  inode.size = std::max(inode.size, offset + data.size());

  // Split across chunks; each piece rides the cache cluster with the
  // file's replication policy, entering at a balanced blade.
  const std::uint32_t cb_bytes = config_.chunk_bytes;
  struct Piece {
    std::uint64_t vol_offset;
    std::size_t src;
    std::uint32_t len;
  };
  std::vector<Piece> pieces;
  std::uint64_t cur = offset;
  std::size_t src = 0;
  std::size_t left = data.size();
  while (left > 0) {
    const std::uint64_t ci = cur / cb_bytes;
    const std::uint32_t in_chunk = static_cast<std::uint32_t>(cur % cb_bytes);
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::size_t>(left, cb_bytes - in_chunk));
    pieces.push_back(
        Piece{ChunkBase(inode.chunks[ci]) + in_chunk, src, n});
    cur += n;
    src += n;
    left -= n;
  }
  const std::uint32_t replication = inode.policy.cache_replication;
  const std::uint8_t priority = inode.policy.cache_priority;
  const qos::TenantId tenant = inode.policy.qos_tenant;
  auto join = std::make_shared<util::Join>(
      static_cast<int>(pieces.size()),
      [cb = std::move(cb)](bool ok) {
        cb(ok ? Status::kOk : Status::kIoError);
      });
  const util::Payload payload = util::Payload::Copy(data);
  for (const Piece& p : pieces) {
    const cache::ControllerId via = system_.PickController(volume_);
    const cache::WriteId wid = NextWriteId();
    system_.BladeWrite(
        via, volume_, p.vol_offset, payload.Slice(p.src, p.len), replication,
        priority, tenant, wid,
        [this, join, wid](bool ok) {
          unsettled_writes_.erase(wid.seq);
          join->Arrive(ok);
        },
        ctx);
  }
}

cache::WriteId FileSystem::NextWriteId() {
  const std::uint64_t settled = unsettled_writes_.empty()
                                    ? next_write_seq_
                                    : *unsettled_writes_.begin();
  const cache::WriteId wid{writer_id_, next_write_seq_, settled};
  unsettled_writes_.insert(next_write_seq_);
  ++next_write_seq_;
  return wid;
}

void FileSystem::Read(const std::string& path, std::uint64_t offset,
                      std::uint64_t length, ReadCallback cb,
                      obs::TraceContext ctx) {
  Resolved r = Resolve(path);
  if (r.node == nullptr) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(Status::kNotFound, {});
    });
    return;
  }
  if (r.node->type != FileType::kFile) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(Status::kIsDirectory, {});
    });
    return;
  }
  Inode& inode = *r.node;
  if (offset >= inode.size || length == 0) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(Status::kOk, {});
    });
    return;
  }
  length = std::min(length, inode.size - offset);

  const std::uint32_t cb_bytes = config_.chunk_bytes;
  struct Piece {
    std::uint64_t vol_offset;
    std::uint32_t len;
  };
  std::vector<Piece> pieces;
  std::uint64_t cur = offset;
  std::uint64_t left = length;
  while (left > 0) {
    const std::uint64_t ci = cur / cb_bytes;
    const std::uint32_t in_chunk = static_cast<std::uint32_t>(cur % cb_bytes);
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(left, cb_bytes - in_chunk));
    pieces.push_back(Piece{ChunkBase(inode.chunks[ci]) + in_chunk, n});
    cur += n;
    left -= n;
  }
  auto parts = std::make_shared<std::vector<util::Payload>>(pieces.size());
  auto join = std::make_shared<util::Join>(
      static_cast<int>(pieces.size()),
      [parts, cb = std::move(cb)](bool ok) {
        cb(ok ? Status::kOk : Status::kIoError,
           ok ? util::Payload::Concat(*parts).ToBytes() : util::Bytes{});
      });
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const Piece& p = pieces[i];
    const cache::ControllerId via = system_.PickController(volume_);
    system_.BladeRead(
        via, volume_, p.vol_offset, p.len, inode.policy.cache_priority,
        inode.policy.qos_tenant,
        [parts, i, join](bool ok, util::Payload data) {
          if (ok) (*parts)[i] = std::move(data);
          join->Arrive(ok);
        },
        ctx);
  }
}

void FileSystem::Truncate(const std::string& path, std::uint64_t new_size,
                          WriteCallback cb) {
  Resolved r = Resolve(path);
  if (r.node == nullptr || r.node->type != FileType::kFile) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(Status::kNotFound);
    });
    return;
  }
  Inode& inode = *r.node;
  if (new_size >= inode.size) {
    // Extension: chunks are allocated lazily on the next write.
    inode.size = new_size;
    system_.engine().Schedule(0, [cb = std::move(cb)] { cb(Status::kOk); });
    return;
  }
  const std::uint64_t keep =
      (new_size + config_.chunk_bytes - 1) / config_.chunk_bytes;
  while (inode.chunks.size() > keep) {
    FreeChunk(inode.chunks.back());
    inode.chunks.pop_back();
  }
  inode.size = new_size;
  system_.engine().Schedule(0, [cb = std::move(cb)] { cb(Status::kOk); });
}

// --- Persistence --------------------------------------------------------------

util::Bytes FileSystem::SerializeMetadata() const {
  util::ByteWriter w;
  w.U32(0x4E4C4653);  // "NLFS"
  w.U64(next_ino_);
  w.U64(next_chunk_);
  w.U64(inodes_.size());
  for (const auto& [ino, node] : inodes_) {
    w.U64(ino);
    w.U8(static_cast<std::uint8_t>(node.type));
    w.U64(node.size);
    w.U8(node.policy.cache_priority);
    w.U32(node.policy.cache_replication);
    w.U8(node.policy.geo_replicate ? 1 : 0);
    w.U8(node.policy.geo_sync ? 1 : 0);
    w.U32(node.policy.geo_sites);
    w.U64(node.policy.geo_min_distance_km);
    w.U8(node.policy.raid_override
             ? static_cast<std::uint8_t>(*node.policy.raid_override) + 1
             : 0);
    w.U32(node.policy.qos_tenant);
    w.U64(node.chunks.size());
    for (const auto c : node.chunks) w.U64(c);
    w.U64(node.entries.size());
    // ForEach visits lexicographically — byte-identical to the old
    // std::map iteration, so existing checkpoints stay compatible.
    node.entries.ForEach(
        [&w](const std::string& name, const meta::Dentry& d) {
          w.Str(name);
          w.U64(d.ino);
        });
  }
  w.U64(free_chunks_.size());
  for (const auto c : free_chunks_) w.U64(c);
  return w.Take();
}

Status FileSystem::LoadMetadata(std::span<const std::uint8_t> blob) {
  try {
    util::ByteReader r(blob);
    if (r.U32() != 0x4E4C4653) return Status::kInvalidArgument;
    next_ino_ = r.U64();
    next_chunk_ = r.U64();
    const std::uint64_t count = r.U64();
    std::map<InodeNum, Inode> inodes;
    for (std::uint64_t i = 0; i < count; ++i) {
      Inode node;
      node.ino = r.U64();
      node.type = static_cast<FileType>(r.U8());
      node.size = r.U64();
      node.policy.cache_priority = r.U8();
      node.policy.cache_replication = r.U32();
      node.policy.geo_replicate = r.U8() != 0;
      node.policy.geo_sync = r.U8() != 0;
      node.policy.geo_sites = r.U32();
      node.policy.geo_min_distance_km = r.U64();
      const std::uint8_t raid = r.U8();
      if (raid != 0) {
        node.policy.raid_override = static_cast<raid::RaidLevel>(raid - 1);
      }
      node.policy.qos_tenant = r.U32();
      const std::uint64_t nchunks = r.U64();
      node.chunks.reserve(nchunks);
      for (std::uint64_t c = 0; c < nchunks; ++c) node.chunks.push_back(r.U64());
      const std::uint64_t nentries = r.U64();
      for (std::uint64_t e = 0; e < nentries; ++e) {
        const std::string name = r.Str();
        const InodeNum child = r.U64();
        // Child types are unknown until every inode is loaded; is_dir is
        // fixed up below.
        node.entries.Insert(name, meta::Dentry{child, false});
      }
      inodes[node.ino] = std::move(node);
    }
    std::vector<std::uint64_t> free_chunks;
    const std::uint64_t nfree = r.U64();
    for (std::uint64_t i = 0; i < nfree; ++i) free_chunks.push_back(r.U64());
    if (inodes.find(kRootIno) == inodes.end()) return Status::kInvalidArgument;
    for (auto& [ino, node] : inodes) {
      if (node.type != FileType::kDirectory) continue;
      std::vector<std::pair<std::string, InodeNum>> kids;
      node.entries.ForEach(
          [&kids](const std::string& name, const meta::Dentry& d) {
            kids.emplace_back(name, d.ino);
          });
      for (const auto& [name, child] : kids) {
        const auto cit = inodes.find(child);
        if (cit != inodes.end() &&
            cit->second.type == FileType::kDirectory) {
          node.entries.FindMutable(name)->is_dir = true;
        }
      }
    }
    inodes_ = std::move(inodes);
    free_chunks_ = std::move(free_chunks);
    return Status::kOk;
  } catch (const std::out_of_range&) {
    return Status::kInvalidArgument;
  }
}

// --- Introspection ------------------------------------------------------------

std::uint64_t FileSystem::TotalFiles() const {
  std::uint64_t n = 0;
  for (const auto& [ino, node] : inodes_) {
    if (node.type == FileType::kFile) ++n;
  }
  return n;
}

std::uint64_t FileSystem::AllocatedChunks() const {
  std::uint64_t n = 0;
  for (const auto& [ino, node] : inodes_) n += node.chunks.size();
  return n;
}

void FileSystem::WalkFiles(
    const Inode& dir, const std::string& prefix,
    util::FunctionRef<void(const std::string&, const Inode&)> fn) const {
  dir.entries.ForEach([&](const std::string& name, const meta::Dentry& d) {
    const Inode& node = inodes_.at(d.ino);
    const std::string path = prefix + "/" + name;
    if (node.type == FileType::kFile) {
      fn(path, node);
    } else {
      WalkFiles(node, path, fn);
    }
  });
}

void FileSystem::ForEachFile(
    util::FunctionRef<void(const std::string&, const Inode&)> fn) const {
  WalkFiles(inodes_.at(kRootIno), "", fn);
}

}  // namespace nlss::fs
