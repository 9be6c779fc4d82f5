// The namespace: one directory table and the one set of rules that change
// it.  Synchronous and untimed — MetaService wraps every read and rule in a
// DES-timed shard visit, and fs::FileSystem applies them directly.
//
// Every directory is a record (its ordered dentry index, its parent and a
// version stamp); a file exists only as a dentry in its parent.  Inode
// numbers come from one counter shared by files and directories, and a
// directory's DirId is its inode number.  A mutation bumps the version of
// every directory whose entries it changed and reports them, in bump
// order, so a caller that keeps caches coherent knows what to invalidate.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/inline_vector.h"

namespace nlss::meta {

/// Inode number in the namespace (directories' ino is their DirId).
using Ino = std::uint64_t;
using DirId = std::uint64_t;
inline constexpr DirId kRootDir = 1;

struct Dentry {
  Ino ino = 0;
  bool is_dir = false;
};

/// One directory's entries in name (byte) order, looked up by string_view.
using DentryIndex = std::map<std::string, Dentry, std::less<>>;

enum class Status : std::uint8_t {
  kOk,
  kNotFound,
  kExists,
  kNotDirectory,
  kIsDirectory,
  kNotEmpty,
  kInvalidArgument,
};
const char* StatusName(Status s);

/// A directory: ordered dentry index + a version stamp bumped on every
/// entry mutation.  The version is the coherence token host dentry caches
/// validate against — a cached entry is valid iff its recorded parent
/// version still matches.
struct Directory {
  DirId id = 0;
  DirId parent = 0;
  std::uint64_t version = 1;
  DentryIndex entries;
};

/// A path parsed in one pass: its normalized key ("/a/b" for "a//b/"), the
/// end of each component in it and the hash of each prefix, so a walk that
/// probes every ancestor hashes no key twice.  Eight components fit inline.
class Path {
 public:
  explicit Path(std::string_view path);
  std::size_t depth() const { return parts_.size(); }
  /// Key of the first `n` >= 1 components, and its 64-bit FNV-1a hash.
  std::string_view Prefix(std::size_t n) const {
    return std::string_view(key_).substr(0, parts_[n - 1].end);
  }
  std::uint64_t PrefixHash(std::size_t n) const { return parts_[n - 1].hash; }
  std::string_view Component(std::size_t i) const {
    const std::size_t begin = i == 0 ? 1 : parts_[i - 1].end + 1;
    return std::string_view(key_).substr(begin, parts_[i].end - begin);
  }
  std::string_view Leaf() const { return Component(depth() - 1); }

 private:
  struct Part {
    std::size_t end;     // one past the component's last byte in key_
    std::uint64_t hash;  // of key_[0, end)
  };
  std::string key_;
  util::InlineVector<Part, 8> parts_;
};

class Namespace {
 public:
  /// What one mutation did.
  struct Result {
    Status status = Status::kNotFound;
    /// Mkdir/Create: the new inode.  Unlink/Rmdir/Rename: the inode whose
    /// dentry was removed or moved.  0 on failure.
    Ino ino = 0;
    /// Directories whose versions moved, in bump order; 0 marks an unused
    /// slot.  All 0 when nothing changed (a failure or a self-rename).
    std::array<DirId, 2> changed{};
    /// The directory record Rmdir removed, else 0.
    DirId gone = 0;
  };

  Namespace();

  const Directory* Find(DirId dir) const;
  /// `dir`'s version, 0 when it does not exist.
  std::uint64_t Version(DirId dir) const {
    const Directory* d = Find(dir);
    return d == nullptr ? 0 : d->version;
  }

  /// The directory holding `path`'s leaf, walking every component but the
  /// last: kNotFound for a missing component, kNotDirectory for a file on
  /// the way, kInvalidArgument for the root.
  Status ParentOf(const Path& path, DirId* parent) const;
  /// The dentry `path` names; the root is {kRootDir, true}.
  Status Resolve(std::string_view path, Dentry* out) const;

  // --- Leaf rules at a known parent (kNotFound when `parent` is gone) -------
  using LeafRule = Result (Namespace::*)(DirId, std::string_view);
  /// Walk to `path`'s parent (ParentOf), then apply `rule` there.
  Result AtPath(std::string_view path, LeafRule rule);

  Result Mkdir(DirId parent, std::string_view leaf);
  Result Create(DirId parent, std::string_view leaf);
  Result Unlink(DirId parent, std::string_view leaf);
  Result Rmdir(DirId parent, std::string_view leaf);
  /// Moves the entry; a self-rename is a no-op, and a directory moved into
  /// itself or below itself is kInvalidArgument.
  Result Rename(DirId from_parent, std::string_view from_leaf,
                DirId to_parent, std::string_view to_leaf);
  /// Up to `limit` of `dir`'s entries with name >= `from`, in name order
  /// (limit == 0: all of them).
  Status Scan(DirId dir, const std::string& from, std::size_t limit,
              std::vector<std::pair<std::string, Dentry>>* rows) const;

  /// Every directory id, ascending.
  template <typename Fn>
  void ForEachDir(Fn&& fn) const {
    for (const Directory& d : dirs_) fn(d.id);
  }

  // --- Checkpoint restore ----------------------------------------------------
  /// The next inode number a mutation hands out.
  Ino next_ino() const { return next_ino_; }
  /// Link `child` under `dir` as is — no rule check, no version bump —
  /// creating the directory records the link needs.  False, and no change,
  /// when `dir` already holds `name`.
  bool Restore(DirId dir, const std::string& name, Dentry child);
  void set_next_ino(Ino next) { next_ino_ = next; }

 private:
  Directory* FindMutable(DirId dir);
  /// `dir`'s record, created in place when missing.  Creating one may move
  /// every record: no Directory pointer survives the call.
  Directory& Record(DirId dir);
  void Bump(Directory& d, Result& r, std::size_t slot);
  /// Add `leaf` -> a fresh inode under `parent`.
  Result Link(DirId parent, std::string_view leaf, bool is_dir);
  /// True when `dir` is `ancestor` or lies below it.
  bool Within(DirId dir, DirId ancestor) const;

  /// Sorted by id.  Ids only grow, so a mkdir appends.
  std::vector<Directory> dirs_;
  Ino next_ino_ = kRootDir + 1;
};

}  // namespace nlss::meta
