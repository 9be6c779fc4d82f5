#include "qos/wfq.h"

#include <algorithm>

#include "check/invariant.h"

namespace nlss::qos {

void FairQueue::Push(QueuedOp op, std::uint32_t weight) {
  weight = std::max<std::uint32_t>(weight, 1);
  Flow& flow = flows_[op.tenant];
  op.start_vt = std::max(vt_, flow.last_finish);
  op.finish_vt = op.start_vt + op.cost * kVtScale / weight;
  NLSS_INVARIANT(kQos, op.start_vt >= flow.last_start,
                 "tenant %u start tag regressed: start=%llu last_start=%llu",
                 static_cast<unsigned>(op.tenant),
                 static_cast<unsigned long long>(op.start_vt),
                 static_cast<unsigned long long>(flow.last_start));
  NLSS_INVARIANT(kQos, op.finish_vt >= op.start_vt,
                 "finish tag before start tag: finish=%llu start=%llu",
                 static_cast<unsigned long long>(op.finish_vt),
                 static_cast<unsigned long long>(op.start_vt));
  flow.last_start = op.start_vt;
  flow.last_finish = op.finish_vt;
  flow.q.push_back(std::move(op));
  ++size_;
}

std::optional<QueuedOp> FairQueue::PopEligible(
    util::FunctionRef<bool(TenantId, std::uint64_t cost)> eligible) {
  Flow* best = nullptr;
  std::uint64_t best_start = 0;
  for (auto& [tenant, flow] : flows_) {
    if (flow.q.empty()) continue;
    const QueuedOp& head = flow.q.front();
    if (!eligible(tenant, head.cost)) continue;
    if (best == nullptr || head.start_vt < best_start) {
      best = &flow;
      best_start = head.start_vt;
    }
  }
  if (best == nullptr) return std::nullopt;
  QueuedOp op = std::move(best->q.front());
  best->q.pop_front();
  --size_;
  const std::uint64_t prev_vt [[maybe_unused]] = vt_;
  vt_ = std::max(vt_, op.start_vt);
  NLSS_INVARIANT(kQos, vt_ >= prev_vt,
                 "virtual time regressed: vt=%llu prev=%llu",
                 static_cast<unsigned long long>(vt_),
                 static_cast<unsigned long long>(prev_vt));
  return op;
}

void FairQueue::ForEachHead(
    util::FunctionRef<void(TenantId, std::uint64_t cost)> fn) const {
  for (const auto& [tenant, flow] : flows_) {
    if (!flow.q.empty()) fn(tenant, flow.q.front().cost);
  }
}

std::size_t FairQueue::TenantDepth(TenantId t) const {
  auto it = flows_.find(t);
  return it == flows_.end() ? 0 : it->second.q.size();
}

}  // namespace nlss::qos
