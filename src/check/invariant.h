// Runtime invariant checking for the deterministic storage stack.
//
// NLSS_INVARIANT(subsystem, cond, fmt, ...) asserts a protocol/state-machine
// invariant and attributes it to a subsystem family.  In Debug (or when the
// build defines NLSS_INVARIANTS_ENABLED=1, which CI's correctness job does)
// every evaluation is counted in the process-wide Registry and a violation
// formats its context (file:line, stringified condition, printf-style
// message) and aborts.  In Release the macro expands to nothing — zero
// instructions on the hot path — so E1/E13 throughput is untouched.
//
// The per-subsystem evaluation counters are exported through the obs
// registry as `nlss_check_evaluations_total{subsystem="..."}` (obs::Hub
// snapshots a baseline at construction so two same-seed runs in one process
// export identical deltas and stay digest-stable).
//
// The sim is single-threaded, but bench harnesses use a thread pool, so the
// counters are relaxed atomics — counting stays exact either way.
#pragma once

#include <cstdint>
#include <atomic>
#include <string>

#include "util/function.h"

#if !defined(NLSS_INVARIANTS_ENABLED)
#if defined(NDEBUG)
#define NLSS_INVARIANTS_ENABLED 0
#else
#define NLSS_INVARIANTS_ENABLED 1
#endif
#endif

namespace nlss::check {

/// True when NLSS_INVARIANT is compiled in (Debug, or forced via the
/// NLSS_INVARIANTS CMake option).
inline constexpr bool kEnabled = NLSS_INVARIANTS_ENABLED != 0;

/// Invariant family an evaluation is attributed to.  One value per
/// instrumented state machine.
enum class Subsystem : std::uint8_t {
  kSim,    // event queue: monotone pops, no scheduling into the past
  kCache,  // coherence: single dirty owner, monotone ownership transfer
  kQos,    // WFQ tag monotonicity, token-bucket balance bounds
  kHost,   // exactly-once completion, breaker transition legality
  kRaid,   // rebuild: no chunk rebuilt or re-queued after completion
  kMeta,   // dentry coherence: no resolve served against a stale version
  kTier,   // tier placement: single location, in-flight moves, demote order
  kRace,   // same-tick determinism races (check::RaceDetector conflicts)
  kOther,  // uncategorized (tests, one-off checks)
};
inline constexpr int kSubsystemCount = 9;
const char* SubsystemName(Subsystem s);

/// Context handed to the violation handler.
struct Violation {
  Subsystem subsystem = Subsystem::kOther;
  const char* file = "";
  int line = 0;
  const char* expr = "";
  std::string message;  // formatted printf-style context ("" when none)
};

/// Process-wide evaluation/violation accounting.  Counters only grow;
/// consumers that need per-run deltas (obs::Hub) snapshot a baseline.
class Registry {
 public:
  static Registry& Instance();

  void Record(Subsystem s) {
    evaluations_[static_cast<int>(s)].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t evaluations(Subsystem s) const {
    return evaluations_[static_cast<int>(s)].load(std::memory_order_relaxed);
  }
  std::uint64_t violations(Subsystem s) const {
    return violations_[static_cast<int>(s)].load(std::memory_order_relaxed);
  }

  /// Count + dispatch a violation to the handler (default: log to stderr
  /// and abort).  Called by the macro via detail::Fail.
  void Report(const Violation& v);

  using Handler = util::Function<void(const Violation&)>;
  /// Install a handler (tests capture the violation instead of dying).
  /// Returns the previous handler; pass nullptr to restore the default.
  Handler SetHandler(Handler h);

 private:
  Registry() = default;
  std::atomic<std::uint64_t> evaluations_[kSubsystemCount] = {};
  std::atomic<std::uint64_t> violations_[kSubsystemCount] = {};
  Handler handler_;  // empty = default log + abort
};

namespace detail {
/// Formats the optional printf-style context and reports through the
/// Registry.  Kept out-of-line so the macro's failure arm is one call.
[[gnu::format(printf, 5, 6)]]
void Fail(Subsystem s, const char* file, int line, const char* expr,
          const char* fmt = nullptr, ...);
}  // namespace detail

}  // namespace nlss::check

#if NLSS_INVARIANTS_ENABLED
/// NLSS_INVARIANT(kCache, cond, "context %llu", value)
/// `subsystem` is a bare Subsystem enumerator (kCache, kSim, ...).
/// The format arguments are evaluated only on failure.
#define NLSS_INVARIANT(subsystem, cond, ...)                                 \
  do {                                                                       \
    ::nlss::check::Registry::Instance().Record(                              \
        ::nlss::check::Subsystem::subsystem);                                \
    if (!(cond)) [[unlikely]] {                                              \
      ::nlss::check::detail::Fail(::nlss::check::Subsystem::subsystem,       \
                                  __FILE__, __LINE__,                        \
                                  #cond __VA_OPT__(, ) __VA_ARGS__);         \
    }                                                                        \
  } while (0)
#else
// Release: no evaluation of the condition or the format arguments, so
// debug-only bookkeeping referenced here is dead-stripped with it.
#define NLSS_INVARIANT(subsystem, cond, ...) \
  do {                                       \
  } while (0)
#endif
