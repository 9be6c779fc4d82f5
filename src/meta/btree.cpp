#include "meta/btree.h"

#include <algorithm>

namespace nlss::meta {

namespace {
/// Small fanout keeps nodes around a cache line's worth of string headers;
/// the DES model doesn't simulate memory, so the value mostly shapes split
/// frequency exercised by the tests.
constexpr std::size_t kLeafCap = 16;
constexpr std::size_t kInnerCap = 16;
}  // namespace

struct DentryIndex::Node {
  bool leaf = true;
  /// Leaf: keys[i] pairs with vals[i].
  /// Inner: keys[i] is the separator for kids[i] (see header invariant).
  std::vector<std::string> keys;
  std::vector<Dentry> vals;                 // leaf only
  std::vector<std::unique_ptr<Node>> kids;  // inner only

  /// Child index a key routes to: last i with keys[i] <= name, clamped to 0.
  std::size_t RouteTo(std::string_view name) const {
    const auto it = std::upper_bound(keys.begin(), keys.end(), name);
    if (it == keys.begin()) return 0;
    return static_cast<std::size_t>(it - keys.begin()) - 1;
  }
};

DentryIndex::DentryIndex() : root_(std::make_unique<Node>()) {}
DentryIndex::~DentryIndex() = default;
DentryIndex::DentryIndex(DentryIndex&&) noexcept = default;
DentryIndex& DentryIndex::operator=(DentryIndex&&) noexcept = default;

const Dentry* DentryIndex::Find(std::string_view name) const {
  const Node* node = root_.get();
  while (!node->leaf) node = node->kids[node->RouteTo(name)].get();
  const auto it = std::lower_bound(node->keys.begin(), node->keys.end(), name);
  if (it == node->keys.end() || *it != name) return nullptr;
  return &node->vals[static_cast<std::size_t>(it - node->keys.begin())];
}

DentryIndex::SplitResult DentryIndex::InsertRec(Node* node,
                                                std::string_view name,
                                                const Dentry& dentry) {
  SplitResult out;
  if (node->leaf) {
    const auto it =
        std::lower_bound(node->keys.begin(), node->keys.end(), name);
    const std::size_t at = static_cast<std::size_t>(it - node->keys.begin());
    if (it != node->keys.end() && *it == name) return out;  // exists
    node->keys.insert(it, std::string(name));
    node->vals.insert(node->vals.begin() + static_cast<std::ptrdiff_t>(at),
                      dentry);
    out.inserted = true;
    if (node->keys.size() > kLeafCap) {
      const std::size_t half = node->keys.size() / 2;
      auto right = std::make_unique<Node>();
      right->leaf = true;
      right->keys.assign(node->keys.begin() + static_cast<std::ptrdiff_t>(half),
                         node->keys.end());
      right->vals.assign(node->vals.begin() + static_cast<std::ptrdiff_t>(half),
                         node->vals.end());
      node->keys.resize(half);
      node->vals.resize(half);
      out.right_min = right->keys.front();
      out.right = std::move(right);
    }
    return out;
  }

  const std::size_t idx = node->RouteTo(name);
  SplitResult child = InsertRec(node->kids[idx].get(), name, dentry);
  out.inserted = child.inserted;
  if (child.right != nullptr) {
    node->keys.insert(node->keys.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
                      child.right_min);
    node->kids.insert(node->kids.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
                      std::move(child.right));
    if (node->kids.size() > kInnerCap) {
      const std::size_t half = node->kids.size() / 2;
      auto right = std::make_unique<Node>();
      right->leaf = false;
      right->keys.assign(node->keys.begin() + static_cast<std::ptrdiff_t>(half),
                         node->keys.end());
      for (std::size_t i = half; i < node->kids.size(); ++i) {
        right->kids.push_back(std::move(node->kids[i]));
      }
      node->keys.resize(half);
      node->kids.resize(half);
      out.right_min = right->keys.front();
      out.right = std::move(right);
    }
  }
  return out;
}

bool DentryIndex::Insert(std::string_view name, const Dentry& dentry) {
  SplitResult r = InsertRec(root_.get(), name, dentry);
  if (r.right != nullptr) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    // keys[0] is a routing hint only; the old root's first key serves.
    new_root->keys.push_back(root_->keys.front());
    new_root->keys.push_back(r.right_min);
    new_root->kids.push_back(std::move(root_));
    new_root->kids.push_back(std::move(r.right));
    root_ = std::move(new_root);
  }
  if (r.inserted) ++size_;
  return r.inserted;
}

bool DentryIndex::EraseRec(Node* node, std::string_view name,
                           bool* now_empty) {
  if (node->leaf) {
    const auto it =
        std::lower_bound(node->keys.begin(), node->keys.end(), name);
    if (it == node->keys.end() || *it != name) {
      *now_empty = false;
      return false;
    }
    const std::size_t at = static_cast<std::size_t>(it - node->keys.begin());
    node->keys.erase(it);
    node->vals.erase(node->vals.begin() + static_cast<std::ptrdiff_t>(at));
    *now_empty = node->keys.empty();
    return true;
  }
  const std::size_t idx = node->RouteTo(name);
  bool child_empty = false;
  const bool erased = EraseRec(node->kids[idx].get(), name, &child_empty);
  if (child_empty) {
    node->keys.erase(node->keys.begin() + static_cast<std::ptrdiff_t>(idx));
    node->kids.erase(node->kids.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  *now_empty = node->kids.empty();
  return erased;
}

bool DentryIndex::Erase(std::string_view name) {
  bool root_empty = false;
  const bool erased = EraseRec(root_.get(), name, &root_empty);
  if (erased) --size_;
  if (root_empty && !root_->leaf) {
    root_ = std::make_unique<Node>();
  } else {
    // Collapse a single-child inner root so depth tracks occupancy.
    while (!root_->leaf && root_->kids.size() == 1) {
      root_ = std::move(root_->kids.front());
    }
  }
  return erased;
}

void DentryIndex::ForEach(
    util::FunctionRef<void(const std::string&, const Dentry&)> fn) const {
  const auto walk = [&](const auto& self, const Node* node) -> void {
    if (node->leaf) {
      for (std::size_t i = 0; i < node->keys.size(); ++i) {
        fn(node->keys[i], node->vals[i]);
      }
      return;
    }
    for (const auto& kid : node->kids) self(self, kid.get());
  };
  walk(walk, root_.get());
}

std::vector<std::pair<std::string, Dentry>> DentryIndex::Scan(
    const std::string& from, std::size_t limit) const {
  std::vector<std::pair<std::string, Dentry>> out;
  const auto walk = [&](const auto& self, const Node* node) -> bool {
    if (node->leaf) {
      auto it = std::lower_bound(node->keys.begin(), node->keys.end(), from);
      for (; it != node->keys.end(); ++it) {
        if (limit != 0 && out.size() >= limit) return false;
        out.emplace_back(
            *it, node->vals[static_cast<std::size_t>(it - node->keys.begin())]);
      }
      return true;
    }
    for (std::size_t i = node->RouteTo(from); i < node->kids.size(); ++i) {
      if (!self(self, node->kids[i].get())) return false;
    }
    return true;
  };
  walk(walk, root_.get());
  return out;
}

bool DentryIndex::Validate() const {
  std::size_t counted = 0;
  int leaf_depth = -1;
  std::string prev;
  bool have_prev = false;
  bool ok = true;
  const auto walk = [&](const auto& self, const Node* node,
                        int depth) -> void {
    if (!ok) return;
    if (node->leaf) {
      if (leaf_depth < 0) leaf_depth = depth;
      if (depth != leaf_depth) ok = false;  // non-uniform depth
      if (node->keys.size() != node->vals.size()) ok = false;
      for (const std::string& k : node->keys) {
        if (have_prev && !(prev < k)) ok = false;  // global order
        prev = k;
        have_prev = true;
        ++counted;
      }
      return;
    }
    if (node->kids.size() != node->keys.size() || node->kids.empty()) {
      ok = false;
      return;
    }
    for (std::size_t i = 0; i < node->kids.size(); ++i) {
      // Separator invariant for i >= 1: everything emitted so far (subtree
      // i-1's max) must be < keys[i], and the subtree visited next must not
      // go below keys[i].
      if (i >= 1 && have_prev && !(prev < node->keys[i])) ok = false;
      self(self, node->kids[i].get(), depth + 1);
      if (i + 1 < node->keys.size() && have_prev &&
          !(prev < node->keys[i + 1])) {
        ok = false;
      }
    }
  };
  walk(walk, root_.get(), 0);
  return ok && counted == size_;
}

}  // namespace nlss::meta
