#include "meta/namespace.h"

#include <algorithm>
#include <type_traits>

#include "check/invariant.h"

namespace nlss::meta {

// dirs_ grows by moving its records, never by copying their entries.
static_assert(std::is_nothrow_move_constructible_v<Directory>);

const char* StatusName(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNotFound: return "not_found";
    case Status::kExists: return "exists";
    case Status::kNotDirectory: return "not_directory";
    case Status::kIsDirectory: return "is_directory";
    case Status::kNotEmpty: return "not_empty";
    case Status::kInvalidArgument: return "invalid_argument";
  }
  return "?";
}

Path::Path(std::string_view path) {
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a over the key
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] == '/') continue;
    const std::string_view part = path.substr(i, path.find('/', i) - i);
    key_ += '/';
    key_ += part;
    for (std::size_t k = key_.size() - part.size() - 1; k < key_.size(); ++k) {
      hash = (hash ^ static_cast<unsigned char>(key_[k])) * 0x100000001b3ull;
    }
    parts_.push_back(Part{key_.size(), hash});
    i += part.size();
  }
}

Namespace::Namespace() { Record(kRootDir); }

const Directory* Namespace::Find(DirId dir) const {
  const auto it = std::ranges::lower_bound(dirs_, dir, {}, &Directory::id);
  return it == dirs_.end() || it->id != dir ? nullptr : &*it;
}

Directory* Namespace::FindMutable(DirId dir) {
  return const_cast<Directory*>(Find(dir));
}

Directory& Namespace::Record(DirId dir) {
  auto it = std::ranges::lower_bound(dirs_, dir, {}, &Directory::id);
  if (it == dirs_.end() || it->id != dir) (it = dirs_.emplace(it))->id = dir;
  return *it;
}

void Namespace::Bump(Directory& d, Result& r, std::size_t slot) {
  ++d.version;
  NLSS_INVARIANT(kMeta, d.version != 0, "directory %llu version wrapped",
                 static_cast<unsigned long long>(d.id));
  r.changed[slot] = d.id;
}

// --- Path walk ----------------------------------------------------------------

Status Namespace::ParentOf(const Path& path, DirId* parent) const {
  if (path.depth() == 0) return Status::kInvalidArgument;
  DirId dir = kRootDir;
  for (std::size_t i = 0; i + 1 < path.depth(); ++i) {
    const Directory* d = Find(dir);
    if (d == nullptr) return Status::kNotFound;
    const auto e = d->entries.find(path.Component(i));
    if (e == d->entries.end()) return Status::kNotFound;
    if (!e->second.is_dir) return Status::kNotDirectory;
    dir = e->second.ino;
  }
  *parent = dir;
  return Status::kOk;
}

Status Namespace::Resolve(std::string_view path, Dentry* out) const {
  const Path parsed(path);
  DirId parent = 0;
  const Status st = ParentOf(parsed, &parent);
  if (st == Status::kInvalidArgument) {
    *out = Dentry{kRootDir, true};
    return Status::kOk;
  }
  if (st != Status::kOk) return st;
  const Directory* d = Find(parent);
  if (d == nullptr) return Status::kNotFound;
  const auto e = d->entries.find(parsed.Leaf());
  if (e == d->entries.end()) return Status::kNotFound;
  *out = e->second;
  return Status::kOk;
}

// --- Leaf rules -----------------------------------------------------------------

Namespace::Result Namespace::AtPath(std::string_view path, LeafRule rule) {
  const Path parsed(path);
  DirId parent = 0;
  Result r;
  r.status = ParentOf(parsed, &parent);
  if (r.status == Status::kOk) r = (this->*rule)(parent, parsed.Leaf());
  return r;
}

Namespace::Result Namespace::Link(DirId parent, std::string_view leaf,
                                  bool is_dir) {
  Result r;
  Directory* p = FindMutable(parent);
  if (p == nullptr) return r;
  if (!p->entries.emplace(leaf, Dentry{next_ino_, is_dir}).second) {
    r.status = Status::kExists;
    return r;
  }
  const Ino ino = next_ino_++;
  Bump(*p, r, 0);
  if (is_dir) Record(ino).parent = parent;  // may move *p
  r.status = Status::kOk;
  r.ino = ino;
  return r;
}

Namespace::Result Namespace::Mkdir(DirId parent, std::string_view leaf) {
  return Link(parent, leaf, true);
}

Namespace::Result Namespace::Create(DirId parent, std::string_view leaf) {
  return Link(parent, leaf, false);
}

Namespace::Result Namespace::Unlink(DirId parent, std::string_view leaf) {
  Result r;
  Directory* p = FindMutable(parent);
  if (p == nullptr) return r;
  const auto e = p->entries.find(leaf);
  if (e == p->entries.end()) return r;
  if (e->second.is_dir) {
    r.status = Status::kIsDirectory;
    return r;
  }
  r.ino = e->second.ino;
  p->entries.erase(e);
  Bump(*p, r, 0);
  r.status = Status::kOk;
  return r;
}

Namespace::Result Namespace::Rmdir(DirId parent, std::string_view leaf) {
  Result r;
  Directory* p = FindMutable(parent);
  if (p == nullptr) return r;
  const auto e = p->entries.find(leaf);
  if (e == p->entries.end()) return r;
  if (!e->second.is_dir) {
    r.status = Status::kNotDirectory;
    return r;
  }
  const DirId victim = e->second.ino;
  const Directory* v = Find(victim);
  if (v != nullptr && !v->entries.empty()) {
    r.status = Status::kNotEmpty;
    return r;
  }
  p->entries.erase(e);
  Bump(*p, r, 0);
  if (v != nullptr) dirs_.erase(dirs_.begin() + (v - dirs_.data()));
  r.status = Status::kOk;
  r.ino = victim;
  r.gone = victim;
  return r;
}

bool Namespace::Within(DirId dir, DirId ancestor) const {
  for (const Directory* d = Find(dir); d != nullptr; d = Find(d->parent)) {
    if (d->id == ancestor) return true;
  }
  return false;
}

Namespace::Result Namespace::Rename(DirId from_parent,
                                    std::string_view from_leaf,
                                    DirId to_parent,
                                    std::string_view to_leaf) {
  Result r;
  Directory* fp = FindMutable(from_parent);
  Directory* tp = FindMutable(to_parent);
  if (fp == nullptr || tp == nullptr) return r;
  const auto e = fp->entries.find(from_leaf);
  if (e == fp->entries.end()) return r;
  const Dentry moved = e->second;
  if (from_parent == to_parent && from_leaf == to_leaf) {
    r.status = Status::kOk;  // self-rename: changes nothing
    r.ino = moved.ino;
    return r;
  }
  if (moved.is_dir && Within(to_parent, moved.ino)) {
    r.status = Status::kInvalidArgument;  // would cut the subtree loose
    return r;
  }
  if (tp->entries.contains(to_leaf)) {
    r.status = Status::kExists;
    return r;
  }
  fp->entries.erase(e);
  tp->entries.emplace(to_leaf, moved);
  if (moved.is_dir) {
    if (Directory* md = FindMutable(moved.ino)) md->parent = to_parent;
  }
  Bump(*fp, r, 0);
  if (tp != fp) Bump(*tp, r, 1);
  r.status = Status::kOk;
  r.ino = moved.ino;
  return r;
}

Status Namespace::Scan(DirId dir, const std::string& from, std::size_t limit,
                       std::vector<std::pair<std::string, Dentry>>* rows)
    const {
  const Directory* d = Find(dir);
  if (d == nullptr) return Status::kNotFound;
  rows->clear();
  for (auto it = d->entries.lower_bound(from);
       it != d->entries.end() && (limit == 0 || rows->size() < limit); ++it) {
    rows->emplace_back(*it);
  }
  return Status::kOk;
}

// --- Checkpoint restore ---------------------------------------------------------

bool Namespace::Restore(DirId dir, const std::string& name, Dentry child) {
  if (!Record(dir).entries.emplace(name, child).second) return false;
  if (child.is_dir) Record(child.ino).parent = dir;
  return true;
}

}  // namespace nlss::meta
