#include "sim/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "check/race.h"

namespace nlss::sim {
namespace {

/// splitmix64 finalizer: a bijection of seq for any fixed seed, so same-tick
/// priorities stay distinct and a given seed yields one fixed permutation.
std::uint64_t PerturbKey(std::uint64_t seed, std::uint64_t seq) {
  std::uint64_t x = seq + seed * 0x9E3779B97F4A7C15ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Unset/empty -> 0; anything that is not a full unsigned decimal aborts.
/// NLSS_PERTURB=oops silently meaning "plain FIFO" would let CI believe it
/// is perturbation-testing while it is not.
std::uint64_t EnvU64(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0;
  char* end = nullptr;
  const std::uint64_t x = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') {
    std::fprintf(stderr, "nlss: %s=\"%s\" is not an unsigned integer\n", name,
                 v);
    std::abort();
  }
  return x;
}

}  // namespace

Engine::Engine() {
  perturb_seed_ = EnvU64("NLSS_PERTURB");
#if NLSS_INVARIANTS_ENABLED
  if (EnvU64("NLSS_RACE") != 0) {
    owned_race_ = std::make_unique<check::RaceDetector>();
    race_ = owned_race_.get();
  }
#else
  // Parse (and so validate) the knob even when the detector compiles out.
  (void)EnvU64("NLSS_RACE");
#endif
}

Engine::~Engine() = default;

void Engine::AttachRaceDetector(check::RaceDetector* d) {
#if NLSS_INVARIANTS_ENABLED
  race_ = d != nullptr ? d : owned_race_.get();
#else
  (void)d;
#endif
}

bool Engine::RunsLater(const Ref& a, const Ref& b) {
  if (a.when != b.when) return a.when > b.when;
  return a.pri > b.pri;
}

void Engine::ScheduleAt(Tick when, Callback cb) {
  NLSS_INVARIANT(kSim, when >= now_,
                 "scheduling into the past: when=%llu now=%llu",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(now_));
  Event* e = pool_.Alloc();
  const std::uint64_t seq = next_seq_++;
  e->when = when;
  e->seq = seq;
  e->pri = perturb_seed_ != 0 ? PerturbKey(perturb_seed_, seq) : seq;
  e->cb = std::move(cb);
#if NLSS_INVARIANTS_ENABLED
  e->id = seq + 1;  // 1-based: 0 is the external (non-event) context
  e->parent = current_event_;
#endif
  heap_.push_back(Ref{when, e->pri, e});
  std::push_heap(heap_.begin(), heap_.end(), RunsLater);
}

Engine::Ref Engine::PopMin() {
  std::pop_heap(heap_.begin(), heap_.end(), RunsLater);
  const Ref r = heap_.back();
  heap_.pop_back();
  return r;
}

void Engine::Execute(const Ref& r) {
  Event* e = r.e;
  NLSS_INVARIANT(kSim, r.when >= now_ && r.when == e->when,
                 "event pop went backwards: when=%llu now=%llu",
                 static_cast<unsigned long long>(r.when),
                 static_cast<unsigned long long>(now_));
  now_ = r.when;
  ++executed_;
  // Free the node before running the callback: children it schedules reuse
  // the still-hot slot, and a drain/refill cycle never grows the arena.
  Callback cb = std::move(e->cb);
#if NLSS_INVARIANTS_ENABLED
  const std::uint64_t id = e->id;
  const std::uint64_t parent = e->parent;
  pool_.Free(e);
  current_event_ = id;
  check::RaceDetector* prev = nullptr;
  if (race_ != nullptr) {
    race_->BeginEvent(id, parent, now_);
    prev = check::RaceDetector::SetCurrent(race_);
  }
  cb();
  if (race_ != nullptr) {
    race_->EndEvent();
    check::RaceDetector::SetCurrent(prev);
  }
  current_event_ = 0;
#else
  pool_.Free(e);
  cb();
#endif
}

void Engine::Run() {
  stopped_ = false;
  while (!stopped_ && !heap_.empty()) Execute(PopMin());
}

std::size_t Engine::RunUntil(Tick t) {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_ && !heap_.empty() && heap_.front().when <= t) {
    Execute(PopMin());
    ++n;
  }
  if (!stopped_ && now_ < t) now_ = t;
  return n;
}

std::size_t Engine::Step(std::size_t max_events) {
  stopped_ = false;
  std::size_t n = 0;
  while (n < max_events && !stopped_ && !heap_.empty()) {
    Execute(PopMin());
    ++n;
  }
  return n;
}

}  // namespace nlss::sim
