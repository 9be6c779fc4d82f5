#include "meta/client.h"

#include "check/invariant.h"
#include "check/race.h"

namespace nlss::meta {

std::string_view Client::WalkPath::Prefix(std::size_t n) const {
  std::size_t len = n;  // one '/' per component
  for (std::size_t i = 0; i < n; ++i) len += parts[i].size();
  return std::string_view(key).substr(0, len);
}

Client::Client(MetaService& service, std::string name, ClientConfig config)
    : service_(service), name_(std::move(name)), config_(config) {
  // One spare slot: an insert lands before its eviction.
  if (config_.capacity != 0) cache_.reserve(config_.capacity + 1);
  service_.RegisterClient(this);
}

Client::~Client() { service_.UnregisterClient(this); }

std::uint64_t Client::RaceKey(DirId dir) const {
  // FNV-1a of the client name: a stable per-client salt with no pointer
  // identity in it (pointer-derived keys would not be run-reproducible).
  std::uint64_t salt = 0xcbf29ce484222325ull;
  for (const char c : name_) {
    salt ^= static_cast<unsigned char>(c);
    salt *= 0x100000001b3ull;
  }
  return check::AccessKey(salt, dir);
}

void Client::Resolve(const std::string& path, MetaService::ResolveCallback cb,
                     obs::TraceContext ctx) {
  ++stats_.resolves;
  // Workloads usually resolve through the cache with no trace of their
  // own; start a kMeta root here so cached hits and client-driven walks
  // both land in per-layer breakdowns.
  if (!ctx.sampled()) {
    if (obs::Hub* hub = service_.hub(); hub != nullptr) {
      ctx = hub->tracer().StartTrace(obs::Layer::kMeta, "meta.client.resolve");
      if (ctx.sampled()) {
        cb = [cb = std::move(cb), ctx](Status st, Dentry d) {
          ctx.tracer->EndTrace(ctx, st == Status::kOk);
          cb(st, d);
        };
      }
    }
  }
  auto walk = std::make_shared<WalkPath>();
  walk->parts = SplitPath(path);
  if (walk->parts.empty()) {
    // The root needs no walk; serve it like a local hit.
    ++stats_.full_hits;
    service_.engine().Schedule(config_.local_hit_ns, [cb = std::move(cb)]() {
      cb(Status::kOk, Dentry{kRootDir, true});
    });
    return;
  }
  if (config_.capacity == 0) {
    ++stats_.misses;
    service_.Resolve(path, std::move(cb), ctx);
    return;
  }
  for (const std::string& part : walk->parts) {
    walk->key += '/';
    walk->key += part;
  }
  const auto it = cache_.find(walk->key);
  if (it == cache_.end()) {
    BeginWalk(std::move(walk), std::move(cb), ctx);
    return;
  }
  ++stats_.full_hits;
  TouchLru(it->second);
  // The hit is *served* local_hit_ns from now; a mutation can land in the
  // window, so re-validate at fire time and fall back to a walk if the
  // entry was invalidated under us — never serve the stale copy.
  service_.engine().Schedule(
      config_.local_hit_ns,
      [this, walk = std::move(walk), cb = std::move(cb), ctx]() mutable {
        const auto it2 = cache_.find(walk->key);
        if (it2 == cache_.end()) {
          ++stats_.revalidation_fallbacks;
          BeginWalk(std::move(walk), std::move(cb), ctx);
          return;
        }
        for (const Link& link : it2->second.chain) {
          NLSS_ACCESS(kMeta, RaceKey(link.dir), kRead);
          const std::uint64_t now_ver = service_.DirVersion(link.dir);
          NLSS_INVARIANT(kMeta, now_ver == link.version,
                         "stale dentry served for %s: dir %llu at v%llu, "
                         "cached v%llu",
                         walk->key.c_str(),
                         static_cast<unsigned long long>(link.dir),
                         static_cast<unsigned long long>(now_ver),
                         static_cast<unsigned long long>(link.version));
          (void)now_ver;
        }
        cb(Status::kOk, it2->second.dentry);
      });
}

void Client::BeginWalk(std::shared_ptr<const WalkPath> path,
                       MetaService::ResolveCallback cb,
                       obs::TraceContext ctx) {
  std::size_t start = 0;
  DirId dir = kRootDir;
  auto chain = std::make_shared<Chain>();
  chain->reserve(path->parts.size());  // one step per component
  for (std::size_t n = path->parts.size() - 1; n >= 1; --n) {
    const auto it = cache_.find(path->Prefix(n));
    if (it != cache_.end() && it->second.dentry.is_dir) {
      for (const Link& link : it->second.chain) {
        NLSS_ACCESS(kMeta, RaceKey(link.dir), kRead);
        // The ancestor's chain prefixes ours.
        chain->emplace_back(link.dir, link.version);
      }
      start = n;
      dir = it->second.dentry.ino;
      TouchLru(it->second);
      break;
    }
  }
  if (start > 0) {
    ++stats_.partial_hits;
  } else {
    ++stats_.misses;
  }
  WalkFrom(std::move(path), start, dir, std::move(chain), std::move(cb), ctx);
}

void Client::WalkFrom(std::shared_ptr<const WalkPath> path, std::size_t next,
                      DirId dir, std::shared_ptr<Chain> chain,
                      MetaService::ResolveCallback cb, obs::TraceContext ctx) {
  // E18a hot-root fix: a cold walk's first step always lands on the root
  // directory's shard, so 32 hosts missing on distinct "/dN" paths still
  // serialize there.  Serve that step from a version-stamped root copy
  // instead of a shard visit whenever the delegation grant is usable.
  if (dir == kRootDir && config_.root_delegation && config_.capacity != 0 &&
      !root_grant_broken_) {
    RootDelegationStep(std::move(path), next, std::move(chain), std::move(cb),
                       ctx);
    return;
  }
  ++stats_.steps;
  const std::string& name = path->parts[next];
  service_.LookupStep(
      dir, name,
      [this, path = std::move(path), next, dir, chain = std::move(chain),
       cb = std::move(cb), ctx](Status st, Dentry d,
                                std::uint64_t ver) mutable {
        if (st != Status::kOk) {
          cb(st, {});
          return;
        }
        chain->emplace_back(dir, ver);
        InsertEntry(path->Prefix(next + 1), d, *chain);
        if (next + 1 == path->parts.size()) {
          cb(Status::kOk, d);
          return;
        }
        if (!d.is_dir) {
          cb(Status::kNotDirectory, {});
          return;
        }
        WalkFrom(std::move(path), next + 1, d.ino, std::move(chain),
                 std::move(cb), ctx);
      },
      ctx);
}

void Client::RootDelegationStep(std::shared_ptr<const WalkPath> path,
                                std::size_t next, std::shared_ptr<Chain> chain,
                                MetaService::ResolveCallback cb,
                                obs::TraceContext ctx) {
  if (root_grant_pending_) {
    // A grant fetch is already in flight; join it instead of issuing a
    // second shard visit, and re-enter the walk once the copy lands.
    ++stats_.delegation_joins;
    root_grant_waiters_.push_back(
        [this, path, next, chain, cb = std::move(cb), ctx]() mutable {
          WalkFrom(std::move(path), next, kRootDir, std::move(chain),
                   std::move(cb), ctx);
        });
    return;
  }
  if (!root_grant_valid_) {
    // No usable copy: fetch one.  The requester becomes the first waiter
    // so it pays exactly one delegation round-trip, same as a LookupStep.
    ++stats_.delegation_grants;
    root_grant_pending_ = true;
    root_grant_waiters_.push_back(
        [this, path, next, chain, cb = std::move(cb), ctx]() mutable {
          WalkFrom(std::move(path), next, kRootDir, std::move(chain),
                   std::move(cb), ctx);
        });
    service_.DelegateDirectory(
        kRootDir,
        [this](Status st, std::map<std::string, Dentry> copy,
               std::uint64_t version) {
          root_grant_pending_ = false;
          if (st == Status::kOk) {
            root_copy_ = std::move(copy);
            root_version_ = version;
            root_grant_valid_ = true;
          } else {
            // The root cannot vanish, so this never fires in practice —
            // but if it did, re-entering waiters would re-fetch forever.
            root_grant_broken_ = true;
          }
          std::vector<util::Function<void()>> waiters;
          waiters.swap(root_grant_waiters_);
          for (auto& w : waiters) w();
        },
        ctx);
    return;
  }
  // Usable copy: serve the root step locally after local_hit_ns.  Same
  // hit-to-serve race as a full-path hit: re-validate against the
  // authoritative root version at fire time, never serve a stale copy.
  ++stats_.delegation_hits;
  service_.engine().Schedule(
      config_.local_hit_ns,
      [this, path, next, chain, cb = std::move(cb), ctx]() mutable {
        if (!root_grant_valid_ ||
            service_.DirVersion(kRootDir) != root_version_) {
          DropRootGrant();
          ++stats_.revalidation_fallbacks;
          WalkFrom(std::move(path), next, kRootDir, std::move(chain),
                   std::move(cb), ctx);
          return;
        }
        const auto it = root_copy_.find(path->parts[next]);
        if (it == root_copy_.end()) {
          // The copy is complete at root_version_, so a miss in it is an
          // authoritative negative — no shard visit to confirm.
          cb(Status::kNotFound, {});
          return;
        }
        const Dentry d = it->second;
        chain->emplace_back(kRootDir, root_version_);
        InsertEntry(path->Prefix(next + 1), d, *chain);
        if (next + 1 == path->parts.size()) {
          cb(Status::kOk, d);
          return;
        }
        if (!d.is_dir) {
          cb(Status::kNotDirectory, {});
          return;
        }
        WalkFrom(std::move(path), next + 1, d.ino, std::move(chain),
                 std::move(cb), ctx);
      });
}

void Client::DropRootGrant() {
  if (!root_grant_valid_) return;
  root_grant_valid_ = false;
  root_copy_.clear();
  root_version_ = 0;
  ++stats_.delegation_drops;
}

void Client::InsertEntry(std::string_view path, Dentry dentry,
                         const Chain& chain) {
  if (config_.capacity == 0) return;
  // A walk overlapping a mutation can deliver a result whose prefix went
  // stale before the reply landed; the result itself is a legal lookup
  // race, but caching it would be exactly the stale positive coherence
  // forbids.  Only cache chains that are still current.
  for (const auto& [dir, ver] : chain) {
    if (service_.DirVersion(dir) != ver) return;
  }
  // Validated insert commutes with same-tick peers (distinct paths, stable
  // LRU order) but not with an invalidation of any chain directory: that
  // pair settles to the same cache state either way, yet the drop counters
  // — and so the digest — depend on which ran first.
#if NLSS_INVARIANTS_ENABLED
  for (const auto& [dir, ver] : chain) {
    NLSS_ACCESS(kMeta, RaceKey(dir), kCommute);
  }
#endif
  auto it = cache_.find(path);
  if (it == cache_.end()) {
    it = cache_.try_emplace(std::string(path)).first;
    it->second.path = &it->first;
  } else {
    // Re-learned: the old chain and recency give way to the new ones.
    lru_.Unlink(&it->second);
    UnlinkChain(it->second);
  }
  Entry& entry = it->second;
  entry.dentry = dentry;
  entry.chain.clear();
  entry.chain.reserve(chain.size());
  for (const auto& [dir, ver] : chain) {
    entry.chain.push_back(Link{dir, ver, &entry});
  }
  for (Link& link : entry.chain) by_dir_[link.dir].PushBack(&link);
  lru_.PushBack(&entry);
  while (cache_.size() > config_.capacity) {
    RemoveEntry(*lru_.head, &stats_.evictions);
  }
}

void Client::RemoveEntry(Entry& entry, std::uint64_t* counter) {
  lru_.Unlink(&entry);
  UnlinkChain(entry);
  cache_.erase(cache_.find(*entry.path));
  if (counter != nullptr) ++(*counter);
}

void Client::UnlinkChain(Entry& entry) {
  for (Link& link : entry.chain) {
    const auto it = by_dir_.find(link.dir);
    it->second.Unlink(&link);
    if (it->second.head == nullptr) by_dir_.erase(it);
  }
}

void Client::TouchLru(Entry& entry) {
  lru_.Unlink(&entry);
  lru_.PushBack(&entry);
}

void Client::OnDirectoryInvalidate(DirId dir, std::uint64_t /*version*/) {
  NLSS_ACCESS(kMeta, RaceKey(dir), kWrite);
  ++stats_.invalidations;
  // The root copy mirrors "/" in full; any root mutation stales it.  (A
  // pending fetch is left alone — its version stamp is re-validated at
  // every use, so a copy read before the mutation can never be served.)
  if (dir == kRootDir) DropRootGrant();
  // Drop the list's paths head first; the last one takes the list with it.
  for (auto it = by_dir_.find(dir); it != by_dir_.end();
       it = by_dir_.find(dir)) {
    RemoveEntry(*it->second.head->owner, &stats_.dropped_entries);
  }
}

}  // namespace nlss::meta
