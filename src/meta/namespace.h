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
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "meta/btree.h"

namespace nlss::meta {

using DirId = std::uint64_t;
inline constexpr DirId kRootDir = 1;

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

/// The non-empty components of `path`: "/a//b/" is {"a", "b"}, "/" is {}.
std::vector<std::string> SplitPath(const std::string& path);

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

  /// `path` split into its parent directory and leaf name, walking every
  /// component but the last: kNotFound for a missing component,
  /// kNotDirectory for a file on the way, kInvalidArgument for the root.
  Status ParentOf(const std::string& path, DirId* parent,
                  std::string* leaf) const;
  /// The dentry `path` names; the root is {kRootDir, true}.
  Status Resolve(const std::string& path, Dentry* out) const;

  // --- Leaf rules at a known parent (kNotFound when `parent` is gone) -------
  using LeafRule = Result (Namespace::*)(DirId, const std::string&);
  /// Walk to `path`'s parent (ParentOf), then apply `rule` there.
  Result AtPath(const std::string& path, LeafRule rule);

  Result Mkdir(DirId parent, const std::string& leaf);
  Result Create(DirId parent, const std::string& leaf);
  Result Unlink(DirId parent, const std::string& leaf);
  Result Rmdir(DirId parent, const std::string& leaf);
  /// Moves the entry; a self-rename is a no-op, and a directory moved into
  /// itself or below itself is kInvalidArgument.
  Result Rename(DirId from_parent, const std::string& from_leaf,
                DirId to_parent, const std::string& to_leaf);
  /// Up to `limit` of `dir`'s entries with name >= `from`, in name order
  /// (limit == 0: all of them).
  Status Scan(DirId dir, const std::string& from, std::size_t limit,
              std::vector<std::pair<std::string, Dentry>>* rows) const;

  /// Every directory id, ascending.
  template <typename Fn>
  void ForEachDir(Fn&& fn) const {
    for (const auto& entry : dirs_) fn(entry.first);
  }

  // --- Checkpoint restore ----------------------------------------------------
  /// The next inode number a mutation hands out.
  Ino next_ino() const { return next_ino_; }
  /// Link `child` under `dir` as is — no rule check, no version bump —
  /// creating the directory records the link needs.
  void Restore(DirId dir, const std::string& name, Dentry child);
  void set_next_ino(Ino next) { next_ino_ = next; }

 private:
  Directory* FindMutable(DirId dir);
  Directory& Record(DirId dir);
  void Bump(Directory& d, Result& r, std::size_t slot);
  /// Add `leaf` -> a fresh inode under `parent`.
  Result Link(DirId parent, const std::string& leaf, bool is_dir);
  /// True when `dir` is `ancestor` or lies below it.
  bool Within(DirId dir, DirId ancestor) const;

  std::map<DirId, Directory> dirs_;  // ordered: deterministic iteration
  Ino next_ino_ = kRootDir + 1;
};

}  // namespace nlss::meta
