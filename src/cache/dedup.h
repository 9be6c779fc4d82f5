// Blade-side write idempotency (exactly-once server-side application).
//
// A retried or hedged host write can reach the blades more than once —
// on a different blade, after the host already gave up, or after the host
// already accepted another attempt's ack.  The host-side callback-once
// guard makes completion exactly-once for the *caller*; this index makes
// application exactly-once for the *data image*.
//
// Every attributed write carries a WriteId: a per-writer monotonic
// sequence stamped by the host initiator (or the blade-resident file
// system).  The blades share one coherent index — the same trick that
// lets any blade serve any cached page lets any blade see any in-flight
// write — so a re-drive that lands on a *different* blade still
// deduplicates:
//
//   Begin(id)  ── fresh:      caller applies, then Complete(id, ok)
//              ── in flight:  absorbed; the waiter is acked when the
//                             original application completes
//              ── applied:    absorbed; acked immediately with the
//                             recorded outcome
//              ── cancelled:  ghost write — the writer already reported
//                             this op failed; the stale payload is
//                             dropped, never applied
//
// The index is bounded by a watermark: each WriteId piggybacks the
// writer's settled cursor (every seq below it has completed *and* has no
// attempt still in flight anywhere), and entries below the cursor are
// pruned on arrival.  No background GC, no wall clock — fully
// deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "util/function.h"

namespace nlss::cache {

/// Idempotency token for one logical write.  `writer` is allocated by the
/// system (one per initiator / file system instance), `seq` is per-writer
/// monotonic starting at 1.  A default-constructed id is invalid and marks
/// unattributed legacy traffic (never deduplicated).
struct WriteId {
  std::uint32_t writer = 0;
  std::uint64_t seq = 0;
  /// Writer's settled cursor: every seq < settled is complete with all of
  /// its attempts resolved, so the blades may forget it.
  std::uint64_t settled = 0;

  bool valid() const { return writer != 0 && seq != 0; }
};

/// Writer-side stamping: per-writer monotonic seqs, plus the set still
/// unsettled that backs the piggybacked settled cursor.  One per initiator
/// or file system instance.
class WriteIdStamper {
 public:
  explicit WriteIdStamper(std::uint32_t writer) : writer_(writer) {}

  /// A fresh id carrying the settled cursor; its seq stays unsettled until
  /// Settle(seq).
  WriteId Next() {
    const WriteId id{writer_, next_seq_, settled()};
    unsettled_.insert(next_seq_);
    ++next_seq_;
    return id;
  }
  /// Every attempt of `seq` has resolved, so the blades may forget it.
  void Settle(std::uint64_t seq) { unsettled_.erase(seq); }
  /// Every seq below this is settled.
  std::uint64_t settled() const {
    return unsettled_.empty() ? next_seq_ : *unsettled_.begin();
  }

 private:
  std::uint32_t writer_;
  std::uint64_t next_seq_ = 1;
  std::set<std::uint64_t> unsettled_;
};

/// Externally visible lifecycle state of one write id (see Lookup).
enum class WriteState : std::uint8_t {
  kUnknown,    // never seen, or already pruned below the settled cursor
  kInFlight,   // an application admitted by Begin is still running
  kApplied,    // applied exactly once; outcome recorded
  kCancelled,  // writer reported failure; tombstoned against late arrivals
};

class WriteDedupIndex {
 public:
  struct Stats {
    std::uint64_t applies = 0;       // fresh applications admitted
    std::uint64_t dedup_hits = 0;    // duplicates absorbed without re-apply
    std::uint64_t double_applies = 0;  // must stay 0 (invariant-checked)
    std::uint64_t ghost_writes = 0;  // payloads dropped: writer reported failure
    std::uint64_t cancels = 0;       // cancel marks received from writers
    std::uint64_t late_cancels = 0;  // cancel raced an application in progress
    std::uint64_t pruned = 0;        // entries retired below the settled cursor
  };

  /// Outcome sink for one arrival; invoked exactly once with the write's
  /// recorded result (possibly synchronously from Begin).
  using Waiter = util::Function<void(bool)>;

  /// Admit one arrival of `id` with a non-empty `waiter`.  Hands `waiter`
  /// back when the caller must apply the data and report via
  /// Complete(id, ok); returns an empty Waiter when the arrival was
  /// absorbed — the index owns `waiter` and delivers the original
  /// application's outcome (false for ghost writes).
  [[nodiscard]] Waiter Begin(const WriteId& id, Waiter waiter);

  /// Report the outcome of an application admitted by Begin.  A failed
  /// application is forgotten so a later re-drive can apply fresh.
  void Complete(const WriteId& id, bool ok);

  /// Writer-side abandon: the op was reported failed to the caller, so any
  /// copy of it still in flight must not change the data image.  Leaves a
  /// tombstone that drops late arrivals (counted as ghost writes) until
  /// the writer's settled cursor passes the seq.
  void Cancel(const WriteId& id);

  const Stats& stats() const { return stats_; }
  std::size_t entries() const;

  /// Audit query: lifecycle state of `id` as the index currently records
  /// it.  Used by the cache flush coalescer's invariants — a frame dirtied
  /// by a cancelled write id may only exist when the cancel demonstrably
  /// raced the application (late_cancels > 0).
  WriteState Lookup(const WriteId& id) const;

 private:
  enum class State : std::uint8_t { kInFlight, kApplied, kCancelled };
  struct Entry {
    State state = State::kInFlight;
    bool ok = false;             // recorded outcome once kApplied
    std::uint32_t applies = 0;   // successful applications (invariant: <= 1)
    std::vector<Waiter> waiters; // duplicates awaiting the original outcome
  };
  struct Writer {
    std::uint64_t settled = 1;  // every seq < settled is prunable
    std::map<std::uint64_t, Entry> entries;  // ordered: prune is a range erase
  };

  void Prune(Writer& w);

  std::map<std::uint32_t, Writer> writers_;
  Stats stats_;
};

}  // namespace nlss::cache
