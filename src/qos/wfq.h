// Start-time weighted fair queuing (SFQ) over per-tenant flows.
//
// One FairQueue orders the admitted-but-not-yet-dispatched requests of a
// single controller blade.  Each tenant is a flow; a request of cost c
// (bytes) from a flow with weight w gets tags
//
//   start  = max(virtual_time, flow.last_finish)
//   finish = start + c * kVtScale / w
//
// and dispatch picks the smallest start tag (ties broken by tenant id, so
// runs are deterministic).  Virtual time advances to the start tag of the
// request being dispatched.  Over any backlogged interval, each flow's
// dispatched bytes converge to its weight share — the classic SFQ result —
// without any notion of wall-clock time, so the queue is bit-reproducible.
//
// Weight changes apply to requests queued after the change.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "obs/trace.h"
#include "qos/tenant.h"
#include "sim/engine.h"
#include "util/function.h"

namespace nlss::qos {

struct QueuedOp {
  TenantId tenant = kDefaultTenant;
  std::uint64_t cost = 0;       // bytes
  sim::Tick submitted = 0;
  /// Dispatch thunk: must call `done(ok)` exactly once on completion.
  util::Function<void(util::Function<void(bool)>)> launch;
  /// Open "qos.queue" span covering the time spent queued (if sampled).
  obs::TraceContext span;
  std::uint64_t start_vt = 0;
  std::uint64_t finish_vt = 0;
};

class FairQueue {
 public:
  /// Fixed-point scale for virtual time (cost * kVtScale / weight).
  static constexpr std::uint64_t kVtScale = 1 << 16;

  void Push(QueuedOp op, std::uint32_t weight);

  /// Pop the op with the smallest start tag among flows whose head passes
  /// `eligible` (token-bucket gate).  Returns nullopt if nothing passes.
  std::optional<QueuedOp> PopEligible(
      util::FunctionRef<bool(TenantId, std::uint64_t cost)> eligible);

  /// Visit each flow's head (for computing the earliest token eligibility).
  void ForEachHead(
      util::FunctionRef<void(TenantId, std::uint64_t cost)> fn) const;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t TenantDepth(TenantId t) const;
  std::uint64_t virtual_time() const { return vt_; }

 private:
  struct Flow {
    std::deque<QueuedOp> q;
    std::uint64_t last_finish = 0;
    std::uint64_t last_start = 0;  // invariant: start tags monotone per flow
  };

  std::map<TenantId, Flow> flows_;  // ordered: deterministic scans
  std::uint64_t vt_ = 0;
  std::size_t size_ = 0;
};

}  // namespace nlss::qos
