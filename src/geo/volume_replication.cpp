#include "geo/volume_replication.h"

#include <memory>

#include "util/units.h"

namespace nlss::geo {

ReplicatedBacking::ReplicatedBacking(sim::Engine& engine, net::Fabric& fabric,
                                     cache::BackingStore& local,
                                     net::NodeId local_gateway,
                                     cache::BackingStore& remote,
                                     net::NodeId remote_gateway, Config config)
    : engine_(engine),
      fabric_(fabric),
      local_(local),
      local_gw_(local_gateway),
      remote_(remote),
      remote_gw_(remote_gateway),
      config_(config) {}

void ReplicatedBacking::ReadBlocks(std::uint64_t block, std::uint32_t count,
                                   ReadCallback cb, obs::TraceContext ctx) {
  local_.ReadBlocks(block, count, std::move(cb), ctx);
}

void ReplicatedBacking::WriteBlocks(std::uint64_t block, util::Payload data,
                                    WriteCallback cb, obs::TraceContext ctx) {
  if (config_.synchronous) {
    // Local and remote writes in parallel; ack after both (one WAN round
    // trip dominates).  The remote leg gets a geo-layer span so the WAN
    // round trip is attributed to this layer in trace breakdowns.
    auto shared_cb = std::make_shared<WriteCallback>(std::move(cb));
    auto remaining = std::make_shared<int>(2);
    auto all_ok = std::make_shared<bool>(true);
    auto arrive = [shared_cb, remaining, all_ok](bool ok) {
      *all_ok = *all_ok && ok;
      if (--*remaining == 0) (*shared_cb)(*all_ok);
    };
    local_.WriteBlocks(block, data, arrive, ctx);
    const obs::TraceContext geo_span =
        obs::StartSpan(ctx, obs::Layer::kGeo, "geo.remote_write");
    auto remote_arrive = [geo_span, arrive](bool ok) {
      obs::EndSpan(geo_span);
      arrive(ok);
    };
    fabric_.Send(
        local_gw_, remote_gw_, data.size(),
        [this, block, data, remote_arrive, geo_span] {
          remote_.WriteBlocks(
              block, data,
              [this, remote_arrive, geo_span](bool ok) {
                ++replicated_writes_;
                // Remote ack crosses back.
                fabric_.Send(
                    remote_gw_, local_gw_, config_.ctrl_msg_bytes,
                    [remote_arrive, ok] { remote_arrive(ok); },
                    [remote_arrive] { remote_arrive(false); }, geo_span);
              },
              geo_span);
        },
        [remote_arrive] { remote_arrive(false); }, geo_span);
    return;
  }
  // Asynchronous: ack after the local write; queue the remote copy (the
  // queue outlives the request, so the shipment gets its own root span in
  // Pump rather than riding on this request's trace).
  queue_.push_back(Update{block, data});
  pending_bytes_ += data.size();
  local_.WriteBlocks(block, std::move(data), std::move(cb), ctx);
  if (!pumping_) {
    pumping_ = true;
    Pump();
  }
}

void ReplicatedBacking::Pump() {
  if (queue_.empty() || primary_failed_) {
    pumping_ = false;
    CheckDrained();
    return;
  }
  // Head stays queued until applied remotely (in-flight counts as exposed).
  auto update = std::make_shared<Update>(queue_.front());
  obs::TraceContext ctx;
  if (tracer_ != nullptr) {
    ctx = tracer_->StartTrace(obs::Layer::kGeo, "geo.replicate");
    if (ctx.sampled()) {
      tracer_->Annotate(ctx, "block=" + std::to_string(update->block) +
                                 " bytes=" +
                                 std::to_string(update->data.size()));
    }
  }
  fabric_.Send(
      local_gw_, remote_gw_, update->data.size(),
      [this, update, ctx] {
        remote_.WriteBlocks(
            update->block, update->data,
            [this, ctx](bool ok) {
              if (ctx.sampled()) ctx.tracer->EndTrace(ctx, ok);
              ++replicated_writes_;
              if (!queue_.empty()) {
                pending_bytes_ -= queue_.front().data.size();
                queue_.pop_front();
              }
              Pump();
            },
            ctx);
      },
      [this, ctx] {
        if (ctx.sampled()) ctx.tracer->EndTrace(ctx, false);
        // WAN down: back off and retry.
        engine_.Schedule(10 * util::kNsPerMs, [this] { Pump(); });
      },
      ctx);
}

void ReplicatedBacking::CheckDrained() {
  if (!queue_.empty() || pumping_) return;
  auto waiters = std::move(drain_waiters_);
  drain_waiters_.clear();
  for (auto& w : waiters) engine_.Schedule(0, std::move(w));
}

void ReplicatedBacking::Drain(util::Function<void()> cb) {
  drain_waiters_.push_back(std::move(cb));
  CheckDrained();
}

std::uint64_t ReplicatedBacking::FailPrimary() {
  primary_failed_ = true;
  const std::uint64_t lost = pending_bytes_;
  queue_.clear();
  pending_bytes_ = 0;
  return lost;
}

}  // namespace nlss::geo
