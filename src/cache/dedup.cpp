#include "cache/dedup.h"

#include <utility>

#include "check/invariant.h"
#include "check/race.h"

namespace nlss::cache {
namespace {

/// Race-detector key for a write id: contention is per logical write
/// (original vs hedge copies, payload vs cancel).
inline std::uint64_t RaceKey(const WriteId& id) {
  return check::AccessKey(check::AccessKey(0xDED0ull, id.writer), id.seq);
}

}  // namespace

void WriteDedupIndex::Prune(Writer& w) {
  const auto end = w.entries.lower_bound(w.settled);
  for (auto it = w.entries.begin(); it != end;) {
    it = w.entries.erase(it);
    ++stats_.pruned;
  }
}

WriteDedupIndex::Waiter WriteDedupIndex::Begin(const WriteId& id,
                                               Waiter waiter) {
  if (!id.valid()) return waiter;  // unattributed legacy traffic: no dedup
  Writer& w = writers_[id.writer];
  if (id.settled > w.settled) {
    w.settled = id.settled;
    Prune(w);
  }
  // A settled seq can never arrive again: the cursor only advances once
  // every attempt of the op has resolved (acked, failed, or dropped).
  NLSS_INVARIANT(kCache, id.seq >= w.settled || w.entries.count(id.seq) != 0,
                 "write (%u,%llu) arrived below settled cursor %llu",
                 id.writer, static_cast<unsigned long long>(id.seq),
                 static_cast<unsigned long long>(w.settled));
  auto [it, inserted] = w.entries.try_emplace(id.seq);
  Entry& e = it->second;
  if (inserted) {
    // First arrival claims the apply.  Outcome-dependent mode: the winning
    // insert commutes with other winners (distinct seqs), while a same-tick
    // duplicate records kRead below — a mixed pair is exactly the case
    // where arrival order decided who applies.
    NLSS_ACCESS(kCache, RaceKey(id), kCommute);
    ++stats_.applies;
    return waiter;
  }
  NLSS_ACCESS(kCache, RaceKey(id), kRead);
  switch (e.state) {
    case State::kInFlight:
      // Original application still running somewhere in the cluster; ack
      // this duplicate when it completes.
      ++stats_.dedup_hits;
      e.waiters.push_back(std::move(waiter));
      return nullptr;
    case State::kApplied:
      ++stats_.dedup_hits;
      if (waiter) waiter(e.ok);
      return nullptr;
    case State::kCancelled:
      // The writer reported this op failed before the payload landed: a
      // ghost write.  Drop it so the read-back matches the failed outcome.
      ++stats_.ghost_writes;
      if (waiter) waiter(false);
      return nullptr;
  }
  return nullptr;  // unreachable
}

void WriteDedupIndex::Complete(const WriteId& id, bool ok) {
  if (!id.valid()) return;
  NLSS_ACCESS(kCache, RaceKey(id), kWrite);
  Writer& w = writers_[id.writer];
  const auto it = w.entries.find(id.seq);
  NLSS_INVARIANT(kCache, it != w.entries.end(),
                 "completion for write (%u,%llu) with no admitted entry",
                 id.writer, static_cast<unsigned long long>(id.seq));
  if (it == w.entries.end()) return;
  Entry& e = it->second;
  if (ok) {
    ++e.applies;
    if (e.applies > 1) ++stats_.double_applies;
    NLSS_INVARIANT(kCache, e.applies <= 1,
                   "write (%u,%llu) applied %u times", id.writer,
                   static_cast<unsigned long long>(id.seq), e.applies);
  }
  if (e.state == State::kCancelled) {
    // Cancel raced the application: the data landed after the writer
    // declared failure.  Keep the tombstone (later copies still drop);
    // the race itself is what the ghost-write counter exists to expose.
    if (ok) ++stats_.late_cancels;
    return;
  }
  if (!ok) {
    // Failed application: forget it so a re-drive applies fresh.
    auto waiters = std::move(e.waiters);
    w.entries.erase(it);
    for (Waiter& f : waiters) {
      if (f) f(false);
    }
    return;
  }
  e.state = State::kApplied;
  e.ok = true;
  auto waiters = std::move(e.waiters);
  e.waiters.clear();
  for (Waiter& f : waiters) {
    if (f) f(true);
  }
}

void WriteDedupIndex::Cancel(const WriteId& id) {
  if (!id.valid()) return;
  NLSS_ACCESS(kCache, RaceKey(id), kWrite);
  ++stats_.cancels;
  Writer& w = writers_[id.writer];
  auto [it, inserted] = w.entries.try_emplace(id.seq);
  Entry& e = it->second;
  if (inserted) {
    // Tombstone ahead of any arrival: the payload is still in the fabric.
    e.state = State::kCancelled;
    return;
  }
  switch (e.state) {
    case State::kInFlight: {
      // Application in progress: mark it; Complete() records the race.
      e.state = State::kCancelled;
      auto waiters = std::move(e.waiters);
      e.waiters.clear();
      for (Waiter& f : waiters) {
        if (f) f(false);
      }
      break;
    }
    case State::kApplied:
      // Already applied before the writer gave up — an unavoidable late
      // cancel (the write IS in the image; the writer reported failure).
      ++stats_.late_cancels;
      break;
    case State::kCancelled:
      break;
  }
}

WriteState WriteDedupIndex::Lookup(const WriteId& id) const {
  if (!id.valid()) return WriteState::kUnknown;
  const auto wit = writers_.find(id.writer);
  if (wit == writers_.end()) return WriteState::kUnknown;
  const auto eit = wit->second.entries.find(id.seq);
  if (eit == wit->second.entries.end()) return WriteState::kUnknown;
  switch (eit->second.state) {
    case State::kInFlight:
      return WriteState::kInFlight;
    case State::kApplied:
      return WriteState::kApplied;
    case State::kCancelled:
      return WriteState::kCancelled;
  }
  return WriteState::kUnknown;  // unreachable
}

std::size_t WriteDedupIndex::entries() const {
  std::size_t n = 0;
  for (const auto& [writer, w] : writers_) n += w.entries.size();
  return n;
}

}  // namespace nlss::cache
