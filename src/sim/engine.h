// Deterministic discrete-event simulation kernel.
//
// Everything timed in the storage system — link transfers, disk mechanics,
// controller compute, WAN latency — runs as events on one Engine.  Events at
// the same tick execute in scheduling order (FIFO), which makes every run
// bit-reproducible from the workload seed.
//
// Hot path: events live in a per-engine slab arena (sim/event_pool.h) with
// callbacks held in a 48-byte small-buffer util::Function (util/function.h), so
// common captures never heap-allocate.  The queue is a binary heap of
// 24-byte {when, pri, Event*} records.  Event order is the total order
// (when, pri) with pri a bijection of the sequence number, so any correct
// priority queue yields the same execution order and the same digests.
//
// Two determinism-checking hooks (ISSUE 9):
//
//   Schedule perturbation.  FIFO order among same-tick events is an
//   arbitrary tie-break; correct code must not depend on it (same-tick
//   events from different causal chains must commute).  With a nonzero
//   perturbation seed (SetPerturbation / the NLSS_PERTURB env var) the
//   tie-break becomes a seeded permutation of the FIFO order: each event's
//   sequence number is passed through a splitmix64 keyed by the seed, so
//   two runs with the same seed are still bit-identical, while two runs
//   with different seeds execute same-tick events in different orders.
//   A digest that changes across perturbation seeds is a determinism bug.
//   Causal order is preserved by construction: a child event is inserted
//   only while its parent executes, so it can never run before the parent.
//
//   Race detection.  When compiled with invariants (Debug, or
//   -DNLSS_INVARIANTS=ON) the engine threads per-event causal ids
//   (parent event -> scheduled child) into an attached check::RaceDetector,
//   which flags same-tick accesses to the same state key from causally
//   unrelated events (see src/check/race.h).  Attach explicitly with
//   AttachRaceDetector, or export NLSS_RACE=1 to have every engine carry
//   its own detector.  Compiles out entirely under NDEBUG.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "check/invariant.h"
#include "sim/event_pool.h"

namespace nlss::check {
class RaceDetector;
}  // namespace nlss::check

namespace nlss::sim {

class Engine {
 public:
  using Callback = ::nlss::sim::Callback;

  /// Reads NLSS_PERTURB (same-tick permutation seed, 0/unset = FIFO) and —
  /// with invariants compiled in — NLSS_RACE (attach an owned detector).
  Engine();
  ~Engine();

  Tick now() const { return now_; }

  /// Schedule `cb` to run `delay` ns from now.
  void Schedule(Tick delay, Callback cb) { ScheduleAt(now_ + delay, std::move(cb)); }

  /// Schedule `cb` at an absolute tick (must be >= now).
  void ScheduleAt(Tick when, Callback cb);

  /// Run until the event queue drains (or Stop() is called).
  void Run();

  /// Run events with timestamp <= t, then set now to t.
  /// Returns the number of events executed.
  std::size_t RunUntil(Tick t);

  /// Convenience: RunUntil(now + d).
  std::size_t RunFor(Tick d) { return RunUntil(now_ + d); }

  /// Execute at most `max_events` events; returns how many ran.  Like
  /// Run/RunUntil, clears any prior Stop() on entry and returns early if a
  /// callback calls Stop().
  std::size_t Step(std::size_t max_events = 1);

  /// Ask Run()/RunUntil()/Step() to return after the current event.
  void Stop() { stopped_ = true; }

  bool Empty() const { return heap_.empty(); }
  std::size_t PendingEvents() const { return heap_.size(); }
  std::uint64_t executed_events() const { return executed_; }

  /// Event arena occupancy, for tests and allocation audits: slab count
  /// never shrinks, so a drain/refill cycle that reuses nodes keeps `slabs`
  /// flat while `free_events` returns to capacity - pending.
  struct ArenaStats {
    std::size_t slabs;
    std::size_t capacity;
    std::size_t free_events;
  };
  ArenaStats arena_stats() const {
    return {pool_.slabs(), pool_.capacity(), pool_.free_events()};
  }

  /// Same-tick schedule perturbation: 0 restores FIFO, any other value
  /// permutes the same-tick tie-break with that seed.  Applies to events
  /// scheduled after the call; existing queue entries keep their keys.
  void SetPerturbation(std::uint64_t seed) { perturb_seed_ = seed; }
  std::uint64_t perturbation() const { return perturb_seed_; }

  /// Attach a race detector (not owned).  Null reverts to the NLSS_RACE
  /// env-attached detector when one exists, else detaches.  No-op (and
  /// never fires) when invariants are compiled out.
  void AttachRaceDetector(check::RaceDetector* d);
  check::RaceDetector* race_detector() const { return race_; }

 private:
  /// Heap record: the event's ordering key copied next to its node, so
  /// sifts compare contiguous 24-byte records and never touch the arena.
  /// seq is absent because pri is a bijection of it.
  struct Ref {
    Tick when;
    std::uint64_t pri;
    Event* e;
  };
  /// Heap order: true when `a` runs after `b`, so the earliest record sits
  /// at the front of std::push_heap's max-heap.
  static bool RunsLater(const Ref& a, const Ref& b);

  /// Remove and return the earliest record; the heap must not be empty.
  Ref PopMin();
  // Takes the heap record so dispatch reads `when` from it, not from the
  // event's second cache line.
  void Execute(const Ref& r);

  EventPool pool_;
  std::vector<Ref> heap_;  // std::push_heap order: earliest at front()
  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  std::uint64_t perturb_seed_ = 0;
  check::RaceDetector* race_ = nullptr;
  std::unique_ptr<check::RaceDetector> owned_race_;
#if NLSS_INVARIANTS_ENABLED
  std::uint64_t current_event_ = 0;  // causal id of the executing event
#endif
};

}  // namespace nlss::sim
