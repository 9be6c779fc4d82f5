#include "meta/client.h"

#include <bit>

#include "check/invariant.h"
#include "check/race.h"

namespace nlss::meta {

Client::Client(MetaService& service, std::string name, ClientConfig config)
    : service_(service), name_(std::move(name)), config_(config) {
  if (config_.capacity != 0) {
    // One spare entry: an insert lands before its eviction.
    const std::size_t entries = config_.capacity + 1;
    const std::size_t slots = std::bit_ceil(entries + entries / 2);
    index_.resize(slots);
    index_shift_ = 32 - static_cast<unsigned>(std::countr_zero(slots));
    pool_.reserve(entries);
  }
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

void Client::Resolve(std::string_view path, MetaService::ResolveCallback cb,
                     obs::TraceContext ctx) {
  ++stats_.resolves;
  auto walk = std::make_unique<Walk>(path);
  walk->cb = std::move(cb);
  walk->ctx = ctx;
  // Workloads usually resolve through the cache with no trace of their
  // own; start a kMeta root here so cached hits and client-driven walks
  // both land in per-layer breakdowns.
  if (!ctx.sampled()) {
    if (obs::Hub* hub = service_.hub(); hub != nullptr) {
      walk->ctx = hub->tracer().StartTrace(obs::Layer::kMeta,
                                           "meta.client.resolve");
      walk->traced = walk->ctx.sampled();
    }
  }
  if (walk->path.depth() == 0) {
    // The root needs no walk; serve it like a local hit.
    ++stats_.full_hits;
    service_.engine().Schedule(
        kLocalHitNs, [this, walk = std::move(walk)]() mutable {
          Finish(std::move(walk), Status::kOk, Dentry{kRootDir, true});
        });
    return;
  }
  if (config_.capacity == 0) {
    ++stats_.misses;
    const obs::TraceContext span = walk->ctx;
    service_.Resolve(
        path,
        [this, walk = std::move(walk)](Status st, Dentry d) mutable {
          Finish(std::move(walk), st, d);
        },
        span);
    return;
  }
  const std::size_t n = walk->path.depth();
  Entry* entry = FindEntry(walk->path, n);
  if (entry == nullptr) {
    BeginWalk(std::move(walk));
    return;
  }
  ++stats_.full_hits;
  TouchLru(*entry);
  // The hit is *served* kLocalHitNs from now; a mutation can land in the
  // window, so re-validate at fire time and fall back to a walk if the
  // entry was invalidated under us — never serve the stale copy.
  service_.engine().Schedule(
      kLocalHitNs, [this, n, walk = std::move(walk)]() mutable {
        const Entry* hit = FindEntry(walk->path, n);
        if (hit == nullptr) {
          ++stats_.revalidation_fallbacks;
          BeginWalk(std::move(walk));
          return;
        }
        for (const Link& link : hit->chain) {
          NLSS_ACCESS(kMeta, RaceKey(link.dir), kRead);
          const std::uint64_t now_ver = service_.DirVersion(link.dir);
          NLSS_INVARIANT(kMeta, now_ver == link.version,
                         "stale dentry served for %s: dir %llu at v%llu, "
                         "cached v%llu",
                         hit->key.c_str(),
                         static_cast<unsigned long long>(link.dir),
                         static_cast<unsigned long long>(now_ver),
                         static_cast<unsigned long long>(link.version));
          (void)now_ver;
        }
        Finish(std::move(walk), Status::kOk, hit->dentry);
      });
}

void Client::BeginWalk(WalkPtr walk) {
  const Path& path = walk->path;
  for (std::size_t n = path.depth() - 1; n >= 1; --n) {
    Entry* entry = FindEntry(path, n);
    if (entry != nullptr && entry->dentry.is_dir) {
      // The ancestor's chain (one link per component) prefixes ours.
      for (const Link& link : entry->chain) {
        NLSS_ACCESS(kMeta, RaceKey(link.dir), kRead);
        walk->chain.push_back({link.dir, link.version});
      }
      walk->dir = entry->dentry.ino;
      TouchLru(*entry);
      break;
    }
  }
  if (walk->chain.size() > 0) {
    ++stats_.partial_hits;
  } else {
    ++stats_.misses;
  }
  WalkFrom(std::move(walk));
}

void Client::WalkFrom(WalkPtr walk) {
  // E18a hot-root fix: a cold walk's first step always lands on the root
  // directory's shard, so 32 hosts missing on distinct "/dN" paths still
  // serialize there.  Serve that step from a version-stamped root copy
  // instead of a shard visit whenever the delegation grant is usable.
  if (walk->dir == kRootDir && config_.root_delegation &&
      config_.capacity != 0 && !root_grant_broken_) {
    RootDelegationStep(std::move(walk));
    return;
  }
  ++stats_.steps;
  const DirId dir = walk->dir;
  const std::string_view name = walk->path.Component(walk->chain.size());
  const obs::TraceContext ctx = walk->ctx;
  service_.LookupStep(
      dir, name,
      [this, walk = std::move(walk)](Status st, Dentry d,
                                     std::uint64_t ver) mutable {
        if (st != Status::kOk) {
          Finish(std::move(walk), st, {});
          return;
        }
        Advance(std::move(walk), d, ver);
      },
      ctx);
}

void Client::Advance(WalkPtr walk, Dentry d, std::uint64_t version) {
  walk->chain.push_back({walk->dir, version});
  InsertEntry(*walk, d);
  if (walk->chain.size() == walk->path.depth()) {
    Finish(std::move(walk), Status::kOk, d);
    return;
  }
  if (!d.is_dir) {
    Finish(std::move(walk), Status::kNotDirectory, {});
    return;
  }
  walk->dir = d.ino;
  WalkFrom(std::move(walk));
}

void Client::Finish(WalkPtr walk, Status st, Dentry d) {
  if (walk->traced) walk->ctx.tracer->EndTrace(walk->ctx, st == Status::kOk);
  walk->cb(st, d);
}

void Client::RootDelegationStep(WalkPtr walk) {
  if (root_grant_pending_ || !root_grant_valid_) {
    // Re-enter the walk once the copy lands: join a fetch in flight, or
    // fetch one and, as its first waiter, pay exactly one delegation
    // round-trip, same as a LookupStep.
    const obs::TraceContext ctx = walk->ctx;
    root_grant_waiters_.push_back([this, walk = std::move(walk)]() mutable {
      WalkFrom(std::move(walk));
    });
    if (root_grant_pending_) {
      ++stats_.delegation_joins;
      return;
    }
    ++stats_.delegation_grants;
    root_grant_pending_ = true;
    service_.DelegateDirectory(
        kRootDir,
        [this](Status st, DentryIndex copy, std::uint64_t version) {
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
  // Usable copy: serve the root step locally after kLocalHitNs.  Same
  // hit-to-serve race as a full-path hit: re-validate against the
  // authoritative root version at fire time, never serve a stale copy.
  ++stats_.delegation_hits;
  service_.engine().Schedule(
      kLocalHitNs, [this, walk = std::move(walk)]() mutable {
        if (!root_grant_valid_ ||
            service_.DirVersion(kRootDir) != root_version_) {
          DropRootGrant();
          ++stats_.revalidation_fallbacks;
          WalkFrom(std::move(walk));
          return;
        }
        const auto it =
            root_copy_.find(walk->path.Component(walk->chain.size()));
        if (it == root_copy_.end()) {
          // The copy is complete at root_version_, so a miss in it is an
          // authoritative negative — no shard visit to confirm.
          Finish(std::move(walk), Status::kNotFound, {});
          return;
        }
        Advance(std::move(walk), it->second, root_version_);
      });
}

void Client::DropRootGrant() {
  if (!root_grant_valid_) return;
  root_grant_valid_ = false;
  root_copy_.clear();
  root_version_ = 0;
  ++stats_.delegation_drops;
}

Client::Entry* Client::FindEntry(const Path& path, std::size_t n) {
  const std::uint32_t tag = Tag(path.PrefixHash(n));
  const std::string_view key = path.Prefix(n);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = Home(tag);; i = (i + 1) & mask) {
    const Slot slot = index_[i];
    if (slot.entry == 0) return nullptr;
    Entry& entry = pool_[slot.entry - 1];
    if (slot.tag == tag && entry.key == key) return &entry;
  }
}

void Client::InsertEntry(const Walk& walk, Dentry dentry) {
  if (config_.capacity == 0) return;
  const std::size_t n = walk.chain.size();
  // A walk overlapping a mutation can deliver a result whose prefix went
  // stale before the reply landed; the result itself is a legal lookup
  // race, but caching it would be exactly the stale positive coherence
  // forbids.  Only cache chains that are still current.
  for (std::size_t i = 0; i < n; ++i) {
    if (service_.DirVersion(walk.chain[i].first) != walk.chain[i].second) {
      return;
    }
  }
  // Validated insert commutes with same-tick peers (distinct paths, stable
  // LRU order) but not with an invalidation of any chain directory: that
  // pair settles to the same cache state either way, yet the drop counters
  // — and so the digest — depend on which ran first.
#if NLSS_INVARIANTS_ENABLED
  for (std::size_t i = 0; i < n; ++i) {
    NLSS_ACCESS(kMeta, RaceKey(walk.chain[i].first), kCommute);
  }
#endif
  const std::uint32_t tag = Tag(walk.path.PrefixHash(n));
  Entry* entry = FindEntry(walk.path, n);
  if (entry == nullptr) {
    entry = free_ != nullptr ? std::exchange(free_, free_->next)
                             : &pool_.emplace_back();
    entry->key = walk.path.Prefix(n);
    entry->tag = tag;
    const std::size_t mask = index_.size() - 1;
    std::size_t i = Home(tag);
    while (index_[i].entry != 0) i = (i + 1) & mask;
    index_[i] = Slot{tag, static_cast<std::uint32_t>(entry - pool_.data() + 1)};
    ++size_;
  } else {
    // Re-learned: the old chain and recency give way to the new ones.
    lru_.Unlink(entry);
    UnlinkChain(*entry);
  }
  entry->dentry = dentry;
  entry->chain.clear();
  entry->chain.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    entry->chain.push_back(
        Link{walk.chain[i].first, walk.chain[i].second, entry});
  }
  for (Link& link : entry->chain) by_dir_[link.dir].PushBack(&link);
  lru_.PushBack(entry);
  while (size_ > config_.capacity) {
    RemoveEntry(*lru_.head, &stats_.evictions);
  }
}

void Client::RemoveEntry(Entry& entry, std::uint64_t* counter) {
  lru_.Unlink(&entry);
  UnlinkChain(entry);
  // Unindex it, closing the gap in its probe run.
  const std::size_t mask = index_.size() - 1;
  const auto slot = static_cast<std::uint32_t>(&entry - pool_.data() + 1);
  std::size_t hole = Home(entry.tag);
  while (index_[hole].entry != slot) hole = (hole + 1) & mask;
  for (std::size_t j = (hole + 1) & mask; index_[j].entry != 0;
       j = (j + 1) & mask) {
    // Slot j may move back into the hole unless its home lies cyclically
    // after the hole (within (hole, j]).
    if (((j - Home(index_[j].tag)) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = Slot{};
  entry.next = free_;
  free_ = &entry;
  --size_;
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
