#include "meta/namespace.h"

#include "check/invariant.h"

namespace nlss::meta {

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

std::vector<std::string> SplitPath(const std::string& path) {
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

Namespace::Namespace() { Record(kRootDir); }

const Directory* Namespace::Find(DirId dir) const {
  const auto it = dirs_.find(dir);
  return it == dirs_.end() ? nullptr : &it->second;
}

Directory* Namespace::FindMutable(DirId dir) {
  return const_cast<Directory*>(Find(dir));
}

Directory& Namespace::Record(DirId dir) {
  Directory& d = dirs_[dir];
  d.id = dir;
  return d;
}

void Namespace::Bump(Directory& d, Result& r, std::size_t slot) {
  ++d.version;
  NLSS_INVARIANT(kMeta, d.version != 0, "directory %llu version wrapped",
                 static_cast<unsigned long long>(d.id));
  r.changed[slot] = d.id;
}

// --- Path walk ----------------------------------------------------------------

Status Namespace::ParentOf(const std::string& path, DirId* parent,
                           std::string* leaf) const {
  std::vector<std::string> parts = SplitPath(path);
  if (parts.empty()) return Status::kInvalidArgument;
  DirId dir = kRootDir;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    const Directory* d = Find(dir);
    if (d == nullptr) return Status::kNotFound;
    const Dentry* e = d->entries.Find(parts[i]);
    if (e == nullptr) return Status::kNotFound;
    if (!e->is_dir) return Status::kNotDirectory;
    dir = e->ino;
  }
  *parent = dir;
  *leaf = std::move(parts.back());
  return Status::kOk;
}

Status Namespace::Resolve(const std::string& path, Dentry* out) const {
  DirId parent = 0;
  std::string leaf;
  const Status st = ParentOf(path, &parent, &leaf);
  if (st == Status::kInvalidArgument) {
    *out = Dentry{kRootDir, true};
    return Status::kOk;
  }
  if (st != Status::kOk) return st;
  const Directory* d = Find(parent);
  const Dentry* e = d == nullptr ? nullptr : d->entries.Find(leaf);
  if (e == nullptr) return Status::kNotFound;
  *out = *e;
  return Status::kOk;
}

// --- Leaf rules -----------------------------------------------------------------

Namespace::Result Namespace::AtPath(const std::string& path, LeafRule rule) {
  DirId parent = 0;
  std::string leaf;
  Result r;
  r.status = ParentOf(path, &parent, &leaf);
  if (r.status == Status::kOk) r = (this->*rule)(parent, leaf);
  return r;
}

Namespace::Result Namespace::Link(DirId parent, const std::string& leaf,
                                  bool is_dir) {
  Result r;
  Directory* p = FindMutable(parent);
  if (p == nullptr) return r;
  if (p->entries.Find(leaf) != nullptr) {
    r.status = Status::kExists;
    return r;
  }
  const Ino ino = next_ino_++;
  p->entries.Insert(leaf, Dentry{ino, is_dir});
  if (is_dir) Record(ino).parent = parent;
  Bump(*p, r, 0);
  r.status = Status::kOk;
  r.ino = ino;
  return r;
}

Namespace::Result Namespace::Mkdir(DirId parent, const std::string& leaf) {
  return Link(parent, leaf, true);
}

Namespace::Result Namespace::Create(DirId parent, const std::string& leaf) {
  return Link(parent, leaf, false);
}

Namespace::Result Namespace::Unlink(DirId parent, const std::string& leaf) {
  Result r;
  Directory* p = FindMutable(parent);
  const Dentry* e = p == nullptr ? nullptr : p->entries.Find(leaf);
  if (e == nullptr) return r;
  if (e->is_dir) {
    r.status = Status::kIsDirectory;
    return r;
  }
  r.ino = e->ino;
  p->entries.Erase(leaf);
  Bump(*p, r, 0);
  r.status = Status::kOk;
  return r;
}

Namespace::Result Namespace::Rmdir(DirId parent, const std::string& leaf) {
  Result r;
  Directory* p = FindMutable(parent);
  const Dentry* e = p == nullptr ? nullptr : p->entries.Find(leaf);
  if (e == nullptr) return r;
  if (!e->is_dir) {
    r.status = Status::kNotDirectory;
    return r;
  }
  const DirId victim = e->ino;
  const Directory* v = Find(victim);
  if (v != nullptr && !v->entries.empty()) {
    r.status = Status::kNotEmpty;
    return r;
  }
  p->entries.Erase(leaf);
  dirs_.erase(victim);
  Bump(*p, r, 0);
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
                                    const std::string& from_leaf,
                                    DirId to_parent,
                                    const std::string& to_leaf) {
  Result r;
  Directory* fp = FindMutable(from_parent);
  Directory* tp = FindMutable(to_parent);
  if (fp == nullptr || tp == nullptr) return r;
  const Dentry* e = fp->entries.Find(from_leaf);
  if (e == nullptr) return r;
  const Dentry moved = *e;
  if (from_parent == to_parent && from_leaf == to_leaf) {
    r.status = Status::kOk;  // self-rename: changes nothing
    r.ino = moved.ino;
    return r;
  }
  if (moved.is_dir && Within(to_parent, moved.ino)) {
    r.status = Status::kInvalidArgument;  // would cut the subtree loose
    return r;
  }
  if (tp->entries.Find(to_leaf) != nullptr) {
    r.status = Status::kExists;
    return r;
  }
  fp->entries.Erase(from_leaf);
  tp->entries.Insert(to_leaf, moved);
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
  *rows = d->entries.Scan(from, limit);
  return Status::kOk;
}

// --- Checkpoint restore ---------------------------------------------------------

void Namespace::Restore(DirId dir, const std::string& name, Dentry child) {
  Record(dir).entries.Insert(name, child);
  if (child.is_dir) Record(child.ino).parent = dir;
}

}  // namespace nlss::meta
