#include "qos/scheduler.h"

#include <cassert>
#include <limits>

#include "check/invariant.h"
#include "check/race.h"

namespace nlss::qos {
namespace {

// Race-detector keys.  Admission contends per blade queue; hedge budget
// contends per tenant bucket.  Outcome-dependent modes: an accepted
// submit / granted hedge records kCommute (same-outcome peers commute —
// stable-tag heap insert, token decrement with budget to spare), a
// refusal records kRead (it observed the boundary and mutated nothing).
// A mixed same-tick pair is precisely an order-decided boundary: who got
// the last queue slot / the last hedge token.  Ordering *within* the WFQ
// heap is timing, not state, and is covered by the perturbation digests.
inline std::uint64_t BladeKey(std::uint32_t blade) {
  return check::AccessKey(0x0B1Dull, blade);
}
inline std::uint64_t HedgeKey(TenantId tenant) {
  return check::AccessKey(0x4ED6ull, tenant);
}

}  // namespace

Scheduler::Scheduler(sim::Engine& engine, TenantRegistry& registry,
                     std::uint32_t blades, Config config)
    : engine_(engine),
      registry_(registry),
      config_(config),
      blades_(blades),
      slo_(engine) {
  assert(blades >= 1);
  assert(config_.max_in_service_per_blade >= 1);
}

TokenBucket& Scheduler::BucketFor(TenantId t) {
  TokenBucket& bucket = buckets_[t];
  // Track runtime spec changes: reconfigure when the class parameters
  // moved (Configure is a no-op on the balance when nothing changed).
  const ClassSpec& spec = registry_.SpecFor(t);
  if (bucket.rate() != spec.rate_bytes_per_sec ||
      bucket.burst() != spec.burst_bytes) {
    bucket.Configure(spec.rate_bytes_per_sec, spec.burst_bytes);
  }
  return bucket;
}

TokenBucket& Scheduler::HedgeBucketFor(TenantId t) {
  TokenBucket& bucket = hedge_buckets_[t];
  const ClassSpec& spec = registry_.SpecFor(t);
  if (bucket.rate() != spec.hedge_rate_per_sec ||
      bucket.burst() != spec.hedge_burst) {
    bucket.Configure(spec.hedge_rate_per_sec, spec.hedge_burst);
  }
  return bucket;
}

bool Scheduler::TryHedge(std::uint32_t blade, TenantId tenant) {
  Blade& b = blades_.at(blade);
  const Tenant& t = registry_.tenant(tenant);  // clamps unknown ids
  const ClassSpec& spec = registry_.spec(t.cls);
  // A hedge is a duplicate of work already admitted; unlike the byte
  // bucket, a zero hedge rate means the class may not hedge at all.
  if (spec.hedge_rate_per_sec == 0) {
    // Static config, not a contended boundary: no access tag.
    slo_.OnHedge(t.id, false);
    return false;
  }
  // Shed first under admission pressure: with the blade queue half full,
  // speculative duplicates only deepen the backlog firm requests are
  // already waiting in.
  if (b.queue.size() * 2 >= config_.max_queue_per_blade) {
    NLSS_ACCESS(kQos, BladeKey(blade), kRead);
    slo_.OnHedge(t.id, false);
    return false;
  }
  const sim::Tick now = engine_.now();
  TokenBucket& bucket = HedgeBucketFor(t.id);
  if (!bucket.TryTake(1, now)) {
    NLSS_ACCESS(kQos, HedgeKey(t.id), kRead);
    slo_.OnHedge(t.id, false);
    return false;
  }
  NLSS_ACCESS(kQos, HedgeKey(t.id), kCommute);
  // Hedge spend never exceeds budget: a grant cannot overdraw the bucket
  // (cost 1 <= hedge_burst, and TryTake refuses when ineligible).
  NLSS_INVARIANT(kQos, bucket.BalanceAt(now) >= -1,
                 "hedge budget overdrawn for tenant %u", t.id);
  slo_.OnHedge(t.id, true);
  return true;
}

Scheduler::Launch Scheduler::Submit(std::uint32_t blade, TenantId tenant,
                                    std::uint64_t cost_bytes, Launch launch,
                                    obs::TraceContext ctx) {
  Blade& b = blades_.at(blade);
  const Tenant& t = registry_.tenant(tenant);  // clamps unknown ids
  const ClassSpec& spec = registry_.spec(t.cls);
  if (b.queue.size() >= config_.max_queue_per_blade ||
      b.queue.TenantDepth(t.id) >= spec.max_queue_depth) {
    // At a full queue, WHICH same-tick submit waits is arbitrary by
    // design: every refusal hands the op back to a caller that owns the
    // retry (the unchecked-status lint forbids discarding this bool), so
    // either order converges.  Commute, not read — the admission margin
    // is capacity arbitration, not state observation.
    NLSS_ACCESS(kQos, BladeKey(blade), kCommute);
    slo_.OnReject(t.id);
    return launch;
  }
  NLSS_ACCESS(kQos, BladeKey(blade), kCommute);
  QueuedOp op;
  op.tenant = t.id;
  op.cost = cost_bytes;
  op.submitted = engine_.now();
  op.launch = std::move(launch);
  op.span = obs::StartSpan(ctx, obs::Layer::kQos, "qos.queue");
  b.queue.Push(std::move(op), spec.weight);
  TryDispatch(blade);
  return nullptr;
}

void Scheduler::TryDispatch(std::uint32_t blade) {
  Blade& b = blades_[blade];
  const sim::Tick now = engine_.now();
  while (b.in_service < config_.max_in_service_per_blade &&
         !b.queue.empty()) {
    auto op = b.queue.PopEligible([&](TenantId t, std::uint64_t cost) {
      return BucketFor(t).CanTake(cost, now);
    });
    if (!op.has_value()) {
      // Every queued head is token-throttled: plant one wake-up at the
      // earliest eligibility tick (DES-scheduled refill).
      sim::Tick earliest = std::numeric_limits<sim::Tick>::max();
      b.queue.ForEachHead([&](TenantId t, std::uint64_t cost) {
        earliest = std::min(earliest, BucketFor(t).EligibleAt(cost, now));
      });
      if (earliest != std::numeric_limits<sim::Tick>::max()) {
        ScheduleWakeup(blade, earliest);
      }
      return;
    }
    const bool took = BucketFor(op->tenant).TryTake(op->cost, now);
    assert(took);
    (void)took;
    ++b.in_service;
    slo_.OnDispatch(op->tenant, now - op->submitted);
    // The queue-wait span closes at dispatch: everything downstream is
    // service time in other layers' spans.
    obs::EndSpan(op->span);
    auto launch = std::move(op->launch);
    const TenantId tenant = op->tenant;
    const std::uint64_t cost = op->cost;
    const sim::Tick submitted = op->submitted;
    launch([this, blade, tenant, cost, submitted,
            done_called = false](bool ok) mutable {
      assert(!done_called && "QoS completion signalled twice");
      if (done_called) return;
      done_called = true;
      Blade& bb = blades_[blade];
      --bb.in_service;
      slo_.OnComplete(tenant, cost, ok, engine_.now() - submitted);
      TryDispatch(blade);
    });
  }
}

void Scheduler::ScheduleWakeup(std::uint32_t blade, sim::Tick at) {
  Blade& b = blades_[blade];
  if (b.wakeup_pending && b.wakeup_at <= at) return;
  b.wakeup_pending = true;
  b.wakeup_at = at;
  engine_.ScheduleAt(at, [this, blade, at] {
    Blade& bb = blades_[blade];
    if (bb.wakeup_pending && bb.wakeup_at == at) bb.wakeup_pending = false;
    TryDispatch(blade);
  });
}

}  // namespace nlss::qos
