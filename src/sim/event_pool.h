// Slab-allocated event arena for the DES kernel.
//
// Events are the highest-churn objects in the whole simulator — every
// message hop, block touch, and timer is one — so they are never allocated
// individually.  The pool carves fixed-size slabs and threads spare nodes on
// an intrusive LIFO free list (the `cluster_cache` free-list pattern): a
// drain/refill cycle reuses the same cache-hot nodes instead of hitting the
// allocator, and steady-state scheduling allocates nothing at all.
//
// Nodes stay constructed for the pool's whole lifetime; Alloc/Free only
// assign fields.  Free() clears the callback so captured state (continuation
// chains, shared join counters, payload buffers) is released as soon as the
// event has run, not when the slab dies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "check/invariant.h"
#include "util/function.h"

namespace nlss::sim {

/// Simulated time in nanoseconds.
using Tick = std::uint64_t;

/// Every timed action in the system is a `void()` closure pushed through
/// the engine (see util/function.h for the type's rules).
using Callback = util::Function<void()>;
static_assert(sizeof(Callback) == 56, "one cache line minus a link pointer");

/// One scheduled event, cache-line aligned with the dispatch-hot fields
/// first: `cb` (56 bytes) plus the free-list link `next` fill the first 64
/// bytes exactly, so Execute/Free touch one line.  The ordering keys live in
/// the second line; the engine's heap carries its own copy of them
/// (Engine::Ref) and never reads back, so after scheduling they are only
/// looked at by tests and invariants.
struct alignas(64) Event {
  Callback cb;
  Event* next = nullptr;  // intrusive free-list link while unallocated
  Tick when = 0;
  std::uint64_t seq = 0;  // FIFO tie-breaker and stable id of insertion order
  std::uint64_t pri = 0;  // same-tick order key: seq, or its seeded mix
#if NLSS_INVARIANTS_ENABLED
  std::uint64_t id = 0;      // causal id (1-based; 0 = external context)
  std::uint64_t parent = 0;  // causal id of the scheduling event
#endif
};
static_assert(alignof(Event) == 64 && sizeof(Event) == 128,
              "dispatch-hot fields must fill the first cache line");

class EventPool {
 public:
  static constexpr std::size_t kSlabEvents = 1024;

  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  Event* Alloc() {
    if (free_ == nullptr) Grow();
    Event* e = free_;
    free_ = e->next;
    --free_count_;
    return e;
  }

  void Free(Event* e) {
    e->cb = nullptr;  // release captured state now, not at slab teardown
    e->next = free_;
    free_ = e;
    ++free_count_;
  }

  std::size_t slabs() const { return slabs_.size(); }
  std::size_t capacity() const { return slabs_.size() * kSlabEvents; }
  std::size_t free_events() const { return free_count_; }

 private:
  void Grow() {
    slabs_.push_back(std::make_unique<Event[]>(kSlabEvents));
    Event* slab = slabs_.back().get();
    // Push in reverse so allocation walks the slab front-to-back.
    for (std::size_t i = kSlabEvents; i-- > 0;) {
      slab[i].next = free_;
      free_ = &slab[i];
    }
    free_count_ += kSlabEvents;
  }

  std::vector<std::unique_ptr<Event[]>> slabs_;
  Event* free_ = nullptr;
  std::size_t free_count_ = 0;
};

}  // namespace nlss::sim
