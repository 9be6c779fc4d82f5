#include "fs/filesystem.h"

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>

#include "util/bytes.h"

namespace nlss::fs {
namespace {

Status FromMeta(meta::Status s) { return static_cast<Status>(s); }
static_assert(static_cast<int>(Status::kInvalidArgument) ==
              static_cast<int>(meta::Status::kInvalidArgument));

}  // namespace

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
    : system_(system),
      config_(std::move(config)),
      volume_(system_.CreateVolume(config_.tenant, config_.volume_bytes)),
      writes_(system_.AllocWriterId()),
      max_chunks_(config_.volume_bytes / config_.chunk_bytes) {
  inodes_[kRootIno] = Inode{kRootIno, FileType::kDirectory, 0, {}, {}};
}

Inode* FileSystem::Find(const std::string& path) {
  meta::Dentry d;
  if (ns_.Resolve(path, &d) != meta::Status::kOk) return nullptr;
  const auto it = inodes_.find(d.ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

const Inode* FileSystem::Find(const std::string& path) const {
  return const_cast<FileSystem*>(this)->Find(path);
}

Status FileSystem::Mkdir(const std::string& path) {
  const auto r = ns_.AtPath(path, &meta::Namespace::Mkdir);
  if (r.status == meta::Status::kOk) {
    inodes_[r.ino] = Inode{r.ino, FileType::kDirectory, 0, {}, {}};
  }
  return FromMeta(r.status);
}

Status FileSystem::Create(const std::string& path, const FilePolicy& policy) {
  const auto r = ns_.AtPath(path, &meta::Namespace::Create);
  if (r.status == meta::Status::kOk) {
    inodes_[r.ino] = Inode{r.ino, FileType::kFile, 0, policy, {}};
  }
  return FromMeta(r.status);
}

Status FileSystem::Unlink(const std::string& path) {
  const auto r = ns_.AtPath(path, &meta::Namespace::Unlink);
  if (r.status == meta::Status::kOk) {
    // Release the file's chunks (physical space returns to the pool).
    for (const std::uint64_t chunk : inodes_.at(r.ino).chunks) {
      FreeChunk(chunk);
    }
    inodes_.erase(r.ino);
  }
  return FromMeta(r.status);
}

Status FileSystem::Rmdir(const std::string& path) {
  const auto r = ns_.AtPath(path, &meta::Namespace::Rmdir);
  if (r.status == meta::Status::kOk) inodes_.erase(r.ino);
  return FromMeta(r.status);
}

Status FileSystem::Rename(const std::string& from, const std::string& to) {
  const meta::Path from_path(from);
  const meta::Path to_path(to);
  meta::DirId from_parent = 0;
  meta::DirId to_parent = 0;
  // As MetaService::Rename: the root on either side is refused before any
  // walk's failure counts, then the source walk's failure comes first.
  const meta::Status from_st = ns_.ParentOf(from_path, &from_parent);
  const meta::Status to_st = ns_.ParentOf(to_path, &to_parent);
  constexpr meta::Status kRoot = meta::Status::kInvalidArgument;
  meta::Status st = from_st == kRoot || to_st == kRoot ? kRoot
                    : from_st != meta::Status::kOk     ? from_st
                                                       : to_st;
  if (st == meta::Status::kOk) {
    st = ns_.Rename(from_parent, from_path.Leaf(), to_parent, to_path.Leaf())
             .status;
  }
  return FromMeta(st);
}

bool FileSystem::Exists(const std::string& path) const {
  return Find(path) != nullptr;
}

const Inode* FileSystem::Stat(const std::string& path) const {
  return Find(path);
}

std::vector<std::string> FileSystem::List(const std::string& path) const {
  std::vector<std::string> out;
  meta::Dentry d;
  std::vector<std::pair<std::string, meta::Dentry>> rows;
  if (ns_.Resolve(path, &d) != meta::Status::kOk || !d.is_dir ||
      ns_.Scan(d.ino, "", 0, &rows) != meta::Status::kOk) {
    return out;
  }
  out.reserve(rows.size());
  for (auto& row : rows) out.push_back(std::move(row.first));
  return out;
}

Status FileSystem::SetPolicy(const std::string& path,
                             const FilePolicy& policy) {
  Inode* node = Find(path);
  if (node == nullptr) return Status::kNotFound;
  node->policy = policy;
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
                       util::Payload data, WriteCallback cb,
                       obs::TraceContext ctx) {
  Inode* node = Find(path);
  if (node == nullptr) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(Status::kNotFound);
    });
    return;
  }
  if (node->type != FileType::kFile) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(Status::kIsDirectory);
    });
    return;
  }
  if (data.empty()) {  // changes nothing: no size, no chunks, no I/O
    system_.engine().Schedule(0, [cb = std::move(cb)] { cb(Status::kOk); });
    return;
  }
  Inode& inode = *node;
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
  for (const Piece& p : pieces) {
    const cache::ControllerId via = system_.PickController(volume_);
    const cache::WriteId wid = writes_.Next();
    system_.BladeWrite(
        via, volume_, p.vol_offset, data.Slice(p.src, p.len), replication,
        priority, tenant, wid,
        [this, join, seq = wid.seq](bool ok) {
          writes_.Settle(seq);
          join->Arrive(ok);
        },
        ctx);
  }
}

void FileSystem::Read(const std::string& path, std::uint64_t offset,
                      std::uint64_t length, ReadCallback cb,
                      obs::TraceContext ctx) {
  const Inode* node = Find(path);
  if (node == nullptr) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(Status::kNotFound, {});
    });
    return;
  }
  if (node->type != FileType::kFile) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(Status::kIsDirectory, {});
    });
    return;
  }
  const Inode& inode = *node;
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
           ok ? util::Payload::Concat(*parts) : util::Payload{});
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
  Inode* node = Find(path);
  if (node == nullptr || node->type != FileType::kFile) {
    system_.engine().Schedule(0, [cb = std::move(cb)] {
      cb(Status::kNotFound);
    });
    return;
  }
  Inode& inode = *node;
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
  w.U64(ns_.next_ino());
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
    const meta::Directory* dir =
        node.type == FileType::kDirectory ? ns_.Find(ino) : nullptr;
    w.U64(dir == nullptr ? 0 : dir->entries.size());
    if (dir == nullptr) continue;
    for (const auto& [name, d] : dir->entries) {
      w.Str(name);
      w.U64(d.ino);
    }
  }
  w.U64(free_chunks_.size());
  for (const auto c : free_chunks_) w.U64(c);
  return w.Take();
}

Status FileSystem::LoadMetadata(std::span<const std::uint8_t> blob) {
  try {
    util::ByteReader r(blob);
    if (r.U32() != 0x4E4C4653) return Status::kInvalidArgument;
    const InodeNum next_ino = r.U64();
    const std::uint64_t next_chunk = r.U64();
    const std::uint64_t count = r.U64();
    std::map<InodeNum, Inode> inodes;
    std::vector<std::tuple<InodeNum, std::string, InodeNum>> links;
    // Every id lies below next_ino, or a later create would reuse a live
    // inode; every inode has one record and one link and the root none, or
    // a directory with two parents would send a rename's ancestry walk
    // round a cycle; an inode is a file or a directory, and only
    // directories hold entries.
    std::set<InodeNum> linked;
    for (std::uint64_t i = 0; i < count; ++i) {
      Inode node;
      node.ino = r.U64();
      if (node.ino >= next_ino) return Status::kInvalidArgument;
      node.type = static_cast<FileType>(r.U8());
      if (node.type != FileType::kFile && node.type != FileType::kDirectory) {
        return Status::kInvalidArgument;
      }
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
      if (nentries != 0 && node.type != FileType::kDirectory) {
        return Status::kInvalidArgument;
      }
      for (std::uint64_t e = 0; e < nentries; ++e) {
        std::string name = r.Str();
        const InodeNum child = r.U64();
        if (child >= next_ino || child == kRootIno ||
            !linked.insert(child).second) {
          return Status::kInvalidArgument;
        }
        links.emplace_back(node.ino, std::move(name), child);
      }
      const InodeNum ino = node.ino;
      if (!inodes.emplace(ino, std::move(node)).second) {
        return Status::kInvalidArgument;
      }
    }
    std::vector<std::uint64_t> free_chunks;
    const std::uint64_t nfree = r.U64();
    for (std::uint64_t i = 0; i < nfree; ++i) free_chunks.push_back(r.U64());
    const auto root = inodes.find(kRootIno);
    if (root == inodes.end() || root->second.type != FileType::kDirectory) {
      return Status::kInvalidArgument;
    }
    // Child types come from the inode table, now that all of it is loaded.
    // Every child is in it and no directory holds a name twice; then the
    // links form one tree when a walk from the root reaches every inode.
    meta::Namespace ns;
    ns.set_next_ino(next_ino);
    for (const auto& [dir, name, child] : links) {
      const auto cit = inodes.find(child);
      if (cit == inodes.end()) return Status::kInvalidArgument;
      const bool is_dir = cit->second.type == FileType::kDirectory;
      if (!ns.Restore(dir, name, meta::Dentry{child, is_dir})) {
        return Status::kInvalidArgument;
      }
    }
    std::size_t reached = 1;  // the root
    for (std::vector<meta::DirId> todo{kRootIno}; !todo.empty();) {
      const meta::Directory* d = ns.Find(todo.back());
      todo.pop_back();
      for (const auto& [name, e] : d->entries) {
        ++reached;
        if (e.is_dir) todo.push_back(e.ino);
      }
    }
    if (reached != inodes.size()) return Status::kInvalidArgument;
    ns_ = std::move(ns);
    inodes_ = std::move(inodes);
    next_chunk_ = next_chunk;
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
    meta::DirId dir, const std::string& prefix,
    util::FunctionRef<void(const std::string&, const Inode&)> fn) const {
  for (const auto& [name, d] : ns_.Find(dir)->entries) {
    const std::string path = prefix + "/" + name;
    if (d.is_dir) {
      WalkFiles(d.ino, path, fn);
    } else {
      fn(path, inodes_.at(d.ino));
    }
  }
}

void FileSystem::ForEachFile(
    util::FunctionRef<void(const std::string&, const Inode&)> fn) const {
  WalkFiles(meta::kRootDir, "", fn);
}

}  // namespace nlss::fs
