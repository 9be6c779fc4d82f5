#include "host/initiator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "check/invariant.h"
#include "check/race.h"

namespace nlss::host {

Initiator::Initiator(controller::StorageSystem& system, const std::string& name,
                     InitiatorConfig config)
    : system_(system),
      engine_(system.engine()),
      name_(name),
      config_(config),
      node_(system.AttachHost(name)),
      rng_(config.seed),
      writes_(system.AllocWriterId()) {
  const std::uint32_t blades = system_.controller_count();
  paths_.reserve(blades);
  for (std::uint32_t b = 0; b < blades; ++b) {
    paths_.emplace_back(b, config_.path);
  }
  probe_misses_.assign(blades, 0);
  active_.resize(blades);
}

void Initiator::Start() {
  if (running_) return;
  running_ = true;
  if (config_.heartbeat_interval_ns > 0) {
    engine_.Schedule(config_.heartbeat_interval_ns,
                     [this] { HeartbeatTick(); });
  }
}

std::size_t Initiator::UpPaths() const {
  std::size_t n = 0;
  for (const PathHealth& p : paths_) {
    if (p.state() == PathState::kUp) ++n;
  }
  return n;
}

void Initiator::Read(controller::VolumeId vol, std::uint64_t offset,
                     std::uint32_t length, ReadCallback cb,
                     std::uint8_t priority, qos::TenantId tenant) {
  ++stats_.reads;
  if (!system_.FitsVolume(vol, offset, length)) {
    ++stats_.failed;
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false, {}); });
    return;
  }
  auto op = std::make_shared<Op>();
  op->id = next_op_++;
  op->is_read = true;
  op->vol = vol;
  op->offset = offset;
  op->length = length;
  op->priority = priority;
  op->tenant = tenant;
  op->rcb = std::move(cb);
  Submit(std::move(op));
}

void Initiator::Read(controller::VolumeId vol, std::uint64_t offset,
                     std::uint32_t length,
                     util::Function<void(bool ok, util::Bytes data)> cb,
                     std::uint8_t priority, qos::TenantId tenant) {
  auto copy_out = [cb = std::move(cb)](bool ok, util::Payload data) {
    cb(ok, data.ToBytes());
  };
  Read(vol, offset, length, std::move(copy_out), priority, tenant);
}

void Initiator::Write(controller::VolumeId vol, std::uint64_t offset,
                      std::span<const std::uint8_t> data, WriteCallback cb,
                      qos::TenantId tenant) {
  ++stats_.writes;
  if (!system_.FitsVolume(vol, offset, data.size())) {
    ++stats_.failed;
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false); });
    return;
  }
  auto op = std::make_shared<Op>();
  op->id = next_op_++;
  op->is_read = false;
  op->vol = vol;
  op->offset = offset;
  op->length = static_cast<std::uint32_t>(data.size());
  op->payload = util::Payload::Copy(data);  // host ingest: the one copy
  op->wid = writes_.Next();
  op->tenant = tenant;
  op->wcb = std::move(cb);
  Submit(std::move(op));
}

void Initiator::MaybeSettleWrite(const OpPtr& op) {
  NLSS_INVARIANT(kHost, op->resolved_attempts <= op->issued_attempts,
                 "op %llu resolved %u attempts but issued only %u",
                 static_cast<unsigned long long>(op->id),
                 op->resolved_attempts, op->issued_attempts);
  if (op->is_read || !op->done) return;
  if (op->resolved_attempts < op->issued_attempts) return;
  // Done and fully drained: no copy of this write remains in the fabric,
  // so the blades may forget it.  The next write's id carries the
  // advanced cursor to the index.
  writes_.Settle(op->wid.seq);
}

void Initiator::Submit(OpPtr op) {
  const sim::Tick now = engine_.now();
  op->start = now;
  if (config_.retry.op_deadline_ns > 0) {
    op->deadline = now + config_.retry.op_deadline_ns;
  }
  if (hub_ != nullptr) {
    op->root = hub_->tracer().StartTrace(
        obs::Layer::kHost, op->is_read ? "host.read" : "host.write");
  }
  const int path = SelectPath(-1, now);
  if (path < 0) {
    HandleFailure(op, -1);
    return;
  }
  op->first_path = path;
  IssueAttempt(op, path, /*is_hedge=*/false);
  ArmHedge(op, path);
}

int Initiator::SelectPath(int exclude, sim::Tick now) const {
  if (config_.pin_path >= 0) {
    const auto pin = static_cast<std::size_t>(config_.pin_path);
    if (pin < paths_.size() && paths_[pin].Available(now)) {
      return config_.pin_path;
    }
    return -1;
  }
  const int n = static_cast<int>(paths_.size());
  if (config_.policy == InitiatorConfig::Policy::kRoundRobin) {
    for (int k = 0; k < n; ++k) {
      const int i = static_cast<int>((rr_next_ + k) % n);
      if (i == exclude || !paths_[i].Available(now)) continue;
      rr_next_ = static_cast<std::uint32_t>(i + 1) % n;
      return i;
    }
    return -1;
  }
  int best = -1;
  double best_score = std::numeric_limits<double>::max();
  for (int i = 0; i < n; ++i) {
    if (i == exclude || !paths_[i].Available(now)) continue;
    const double score =
        config_.policy == InitiatorConfig::Policy::kLeastOutstanding
            ? static_cast<double>(paths_[i].outstanding())
            : paths_[i].Score();
    if (score < best_score) {  // strict: ties go to the lowest index
      best_score = score;
      best = i;
    }
  }
  return best;
}

void Initiator::IssueAttempt(const OpPtr& op, int path, bool is_hedge) {
  const sim::Tick now = engine_.now();
  const std::uint32_t attempt = op->next_attempt++;
  op->inflight[attempt] = Attempt{path, is_hedge};
  ++op->issued_attempts;
  if (!is_hedge) op->last_path = path;
  paths_[path].OnIssue(now);
  active_[path][op->id] = op;
  ++stats_.attempts;
  if (is_hedge) ++stats_.hedges;

  obs::TraceContext ctx =
      obs::StartSpan(op->root, obs::Layer::kHost,
                     is_hedge ? "host.hedge" : "host.attempt");
  if (ctx.sampled()) {
    ctx.tracer->Annotate(ctx, "path=" + std::to_string(path));
  }

  engine_.Schedule(config_.retry.request_timeout_ns,
                   [this, op, attempt] { OnAttemptTimeout(op, attempt); });

  const auto blade = static_cast<cache::ControllerId>(paths_[path].blade());
  if (op->is_read) {
    system_.ReadVia(
        node_, blade, op->vol, op->offset, op->length,
        [this, op, attempt, path, now, ctx, is_hedge](bool ok,
                                                      util::Payload data) {
          obs::EndSpan(ctx);
          ++op->resolved_attempts;
          OnAttemptResult(op, attempt, path, now, ok, data, is_hedge);
        },
        op->priority, op->tenant, ctx);
  } else {
    // Each attempt carries the write id plus the current settled cursor,
    // piggybacking dedup-index pruning on the data path.
    cache::WriteId wid = op->wid;
    wid.settled = writes_.settled();
    system_.WriteVia(
        node_, blade, op->vol, op->offset, op->payload, wid,
        [this, op, attempt, path, now, ctx, is_hedge](bool ok) {
          obs::EndSpan(ctx);
          ++op->resolved_attempts;
          OnAttemptResult(op, attempt, path, now, ok, {}, is_hedge);
          MaybeSettleWrite(op);
        },
        op->priority, op->tenant, ctx);
  }
}

sim::Tick Initiator::HedgeDelay(int path) const {
  const PathHealth& p = paths_[static_cast<std::size_t>(path)];
  if (p.samples() < config_.hedge_min_samples) {
    return config_.hedge_max_delay_ns;  // cold path: hedge conservatively
  }
  return std::clamp(p.LatencyQuantile(config_.hedge_quantile),
                    config_.hedge_min_delay_ns, config_.hedge_max_delay_ns);
}

void Initiator::ArmHedge(const OpPtr& op, int primary_path) {
  const bool enabled =
      op->is_read ? config_.hedged_reads : config_.hedged_writes;
  if (!enabled || config_.pin_path >= 0 || paths_.size() < 2) {
    return;
  }
  engine_.Schedule(HedgeDelay(primary_path), [this, op] {
    // Fire only while exactly the primary attempt is still pending.
    if (op->done || op->hedged || op->inflight.empty() ||
        op->redrive_pending) {
      return;
    }
    const int primary = op->inflight.begin()->second.path;
    const int alt = SelectPath(primary, engine_.now());
    if (alt < 0) return;
    // Per-tenant hedge budget: a hedge is speculative spend, so it asks
    // the QoS layer first (token bucket + shed-under-pressure).  Without
    // a scheduler attached, hedging is unbudgeted as before.
    if (qos::Scheduler* q = system_.qos()) {
      const auto blade =
          static_cast<std::uint32_t>(paths_[static_cast<std::size_t>(alt)]
                                         .blade());
      if (!q->TryHedge(blade, system_.ResolveTenant(op->vol, op->tenant))) {
        ++stats_.hedges_denied;
        return;
      }
    }
    op->hedged = true;
    IssueAttempt(op, alt, /*is_hedge=*/true);
  });
}

void Initiator::OnAttemptResult(const OpPtr& op, std::uint32_t attempt,
                                int path, sim::Tick t0, bool ok,
                                const util::Payload& data, bool is_hedge) {
  const sim::Tick now = engine_.now();
  const auto it = op->inflight.find(attempt);
  const bool tracked = it != op->inflight.end();
  if (tracked) {
    op->inflight.erase(it);
    active_[path].erase(op->id);
    if (ok) {
      const PathState prev = paths_[path].state();
      paths_[path].OnSuccess(now - t0);
      if (prev != PathState::kUp && paths_[path].state() == PathState::kUp) {
        TracePathEvent(path, "reset");  // trial success closed the breaker
      }
    } else {
      paths_[path].OnError(now);
    }
    // Hedge accounting: every hedge attempt terminates exactly once as a
    // win or a loss.  Wins are counted below; any other tracked ending is
    // a loss here, and untracked endings (timeout, path-down abandonment)
    // were counted when the attempt was erased — so after a drain
    // hedges == hedge_wins + hedge_losses holds.
    if (is_hedge && !(ok && !op->done)) ++stats_.hedge_losses;
  } else if (ok) {
    // Reply landed after the attempt timed out (or its path was declared
    // down).  The operation DID apply server-side.
    ++stats_.late_acks;
    if (!op->done) {
      // Idempotency guard: complete the op from the late ack; the pending
      // backoff re-drive sees op->done and stands down, so the write is
      // applied exactly once.
      FinishOp(op, true, data);
      return;
    }
  }
  if (op->done) return;
  if (!tracked) return;  // stale failure: the timeout already re-drove it
  if (ok) {
    if (is_hedge) ++stats_.hedge_wins;
    FinishOp(op, true, data);
    return;
  }
  HandleFailure(op, path);
}

void Initiator::OnAttemptTimeout(const OpPtr& op, std::uint32_t attempt) {
  const auto it = op->inflight.find(attempt);
  if (it == op->inflight.end()) return;  // already resolved
  const int path = it->second.path;
  if (it->second.hedge) ++stats_.hedge_losses;  // gave up on this hedge
  op->inflight.erase(it);
  active_[path].erase(op->id);
  ++stats_.timeouts;
  paths_[path].OnError(engine_.now());
  if (op->done) return;
  HandleFailure(op, path);
}

void Initiator::HandleFailure(const OpPtr& op, int failed_path) {
  if (op->done) return;
  if (!op->inflight.empty()) return;  // a racing attempt may still win
  const sim::Tick now = engine_.now();
  if (failed_path >= 0) {
    ++op->failures;
  } else {
    // No path was up, so nothing reached a wire: don't charge the attempt
    // budget — with a deadline set the op rides out the blackout and
    // completes once a path returns.  Without a deadline, no-path rounds
    // are bounded like attempts so a permanent blackout still terminates.
    ++op->no_path_rounds;
    ++stats_.no_path_failures;
  }
  const bool exhausted =
      op->failures >= config_.retry.max_attempts ||
      (op->deadline == 0 && op->no_path_rounds >= config_.retry.max_attempts);
  if (exhausted || (op->deadline != 0 && now >= op->deadline)) {
    FinishOp(op, false, {});
    return;
  }
  ++stats_.retries;
  op->redrive_pending = true;
  const sim::Tick delay =
      BackoffDelay(config_.retry, op->failures + op->no_path_rounds, rng_);
  engine_.Schedule(delay, [this, op, failed_path] {
    if (op->done) {
      ++stats_.suppressed_redrives;  // late ack beat the re-drive
      return;
    }
    op->redrive_pending = false;
    const sim::Tick t = engine_.now();
    int p = failed_path >= 0 ? SelectPath(failed_path, t) : -1;
    if (p < 0) p = SelectPath(-1, t);
    if (p < 0) {
      HandleFailure(op, -1);
      return;
    }
    if (p != failed_path) ++stats_.failovers;
    IssueAttempt(op, p, /*is_hedge=*/false);
  });
}

std::uint64_t Initiator::RaceKey(std::uint64_t op_id) const {
  // FNV-1a of the host name: a stable per-host salt with no pointer
  // identity in it (pointer-derived keys would not be run-reproducible).
  std::uint64_t salt = 0xcbf29ce484222325ull;
  for (const char c : name_) {
    salt ^= static_cast<unsigned char>(c);
    salt *= 0x100000001b3ull;
  }
  return check::AccessKey(salt, op_id);
}

void Initiator::FinishOp(const OpPtr& op, bool ok,
                         const util::Payload& data) {
  if (op->done) return;
  NLSS_ACCESS(kHost, RaceKey(op->id), kWrite);
  NLSS_INVARIANT(kHost, !op->callback_fired,
                 "op %llu completing a second time",
                 static_cast<unsigned long long>(op->id));
  op->callback_fired = true;
  op->done = true;
  const sim::Tick latency = engine_.now() - op->start;
  if (ok) {
    ++stats_.ok;
    if (op->is_read) {
      stats_.bytes_read += data.size();
      if (read_latency_ns_ != nullptr) read_latency_ns_->Record(latency);
    } else {
      stats_.bytes_written += op->length;
      if (write_latency_ns_ != nullptr) write_latency_ns_->Record(latency);
    }
  } else {
    ++stats_.failed;
    if (!op->is_read) {
      // Reporting this write failed: cancel it at the blades so a stale
      // copy still in the fabric is dropped instead of applying later
      // (ghost-write protection).  The tombstone prunes once we settle.
      ++stats_.write_cancels;
      system_.CancelWrite(op->wid);
    }
  }
  if (op->root.sampled()) op->root.tracer->EndTrace(op->root, ok);
  if (!op->is_read) MaybeSettleWrite(op);
  if (op->is_read) {
    if (op->rcb) op->rcb(ok, data);
  } else {
    if (op->wcb) op->wcb(ok);
  }
}

void Initiator::MarkPathDown(int path) {
  const sim::Tick now = engine_.now();
  PathHealth& p = paths_[static_cast<std::size_t>(path)];
  if (p.state() != PathState::kDown) {
    ++stats_.path_down_events;
    TracePathEvent(path, "trip");
  }
  p.MarkDown(now);
  // Abandon this path's in-flight attempts and re-drive their ops
  // immediately — don't wait out the per-attempt timeout.
  auto victims = std::move(active_[path]);
  active_[path].clear();
  for (auto& [id, op] : victims) {
    for (auto it = op->inflight.begin(); it != op->inflight.end();) {
      if (it->second.path == path) {
        // An abandoned hedge still terminated: count the loss so
        // hedges == hedge_wins + hedge_losses survives path-down events.
        if (it->second.hedge) ++stats_.hedge_losses;
        it = op->inflight.erase(it);
        p.OnAbandoned();
      } else {
        ++it;
      }
    }
    if (op->done || !op->inflight.empty() || op->redrive_pending) continue;
    ++stats_.path_down_redrives;
    op->redrive_pending = true;
    engine_.Schedule(0, [this, op, path] {
      // Same-tick chain racing the op's completion events: which side runs
      // first decides suppressed-redrive vs failover accounting, so both
      // outcomes write op state for the detector to adjudicate.
      NLSS_ACCESS(kHost, RaceKey(op->id), kWrite);
      if (op->done) {
        ++stats_.suppressed_redrives;
        return;
      }
      op->redrive_pending = false;
      int np = SelectPath(path, engine_.now());
      if (np < 0) np = SelectPath(-1, engine_.now());
      if (np < 0) {
        HandleFailure(op, -1);
        return;
      }
      if (np != path) ++stats_.failovers;
      IssueAttempt(op, np, /*is_hedge=*/false);
    });
  }
}

void Initiator::HeartbeatTick() {
  if (!running_) return;
  for (int i = 0; i < static_cast<int>(paths_.size()); ++i) {
    ProbePath(i);
  }
  engine_.Schedule(config_.heartbeat_interval_ns, [this] { HeartbeatTick(); });
}

void Initiator::ProbePath(int path) {
  ++stats_.probes;
  const auto blade = paths_[static_cast<std::size_t>(path)].blade();
  const net::NodeId blade_node = system_.controller_node(blade);
  auto answered = std::make_shared<bool>(false);
  const auto miss = [this, path, answered] {
    if (*answered) return;
    *answered = true;
    OnProbeMiss(path);
  };
  engine_.Schedule(config_.probe_timeout_ns, miss);
  system_.fabric().Send(
      node_, blade_node, config_.probe_bytes,
      [this, path, blade, blade_node, answered, miss] {
        // Probe reached the blade; only a live controller echoes it.
        if (!system_.cache().IsAlive(blade)) return;  // timeout -> miss
        system_.fabric().Send(
            blade_node, node_, config_.probe_bytes,
            [this, path, answered] {
              if (*answered) return;
              *answered = true;
              OnProbeOk(path);
            },
            miss);
      },
      miss);
}

void Initiator::OnProbeOk(int path) {
  probe_misses_[static_cast<std::size_t>(path)] = 0;
  PathHealth& p = paths_[static_cast<std::size_t>(path)];
  const bool was_down = p.state() == PathState::kDown;
  p.ProbeOk();
  if (was_down && p.state() == PathState::kHalfOpen) {
    TracePathEvent(path, "half-open");
  }
}

void Initiator::TracePathEvent(int path, const char* event) {
  if (hub_ == nullptr) return;
  obs::TraceContext ctx =
      hub_->tracer().StartTrace(obs::Layer::kHost, "host.path");
  if (!ctx.sampled()) return;
  ctx.tracer->Annotate(ctx, "host=" + name_ +
                                " path=" + std::to_string(path) +
                                " event=" + event);
  ctx.tracer->EndTrace(ctx, true);
}

void Initiator::OnProbeMiss(int path) {
  ++stats_.probe_misses;
  auto& misses = probe_misses_[static_cast<std::size_t>(path)];
  ++misses;
  if (misses >= config_.heartbeat_miss_threshold &&
      paths_[static_cast<std::size_t>(path)].state() != PathState::kDown) {
    MarkPathDown(path);
  }
}

void Initiator::AttachObs(obs::Hub* hub) {
  hub_ = hub;
  if (hub == nullptr) {
    read_latency_ns_ = nullptr;
    write_latency_ns_ = nullptr;
    return;
  }
  obs::Registry& m = hub->metrics();
  const obs::Labels host = {{"host", name_}};
  m.AddCallback(
      "nlss_host_reads_total", "Host initiator read ops",
      [this] { return static_cast<double>(stats_.reads); }, host);
  m.AddCallback(
      "nlss_host_writes_total", "Host initiator write ops",
      [this] { return static_cast<double>(stats_.writes); }, host);
  m.AddCallback(
      "nlss_host_failed_total", "Host ops failed after all retries",
      [this] { return static_cast<double>(stats_.failed); }, host);
  m.AddCallback(
      "nlss_host_attempts_total", "Attempts issued (including hedges)",
      [this] { return static_cast<double>(stats_.attempts); }, host);
  m.AddCallback(
      "nlss_host_retries_total", "Backoff re-drives",
      [this] { return static_cast<double>(stats_.retries); }, host);
  m.AddCallback(
      "nlss_host_timeouts_total", "Per-attempt timeouts",
      [this] { return static_cast<double>(stats_.timeouts); }, host);
  m.AddCallback(
      "nlss_host_failovers_total", "Re-drives that switched path",
      [this] { return static_cast<double>(stats_.failovers); }, host);
  m.AddCallback(
      "nlss_host_hedges_total", "Hedged (speculative duplicate) attempts",
      [this] { return static_cast<double>(stats_.hedges); }, host);
  m.AddCallback(
      "nlss_host_hedge_wins_total", "Hedges that beat the primary",
      [this] { return static_cast<double>(stats_.hedge_wins); }, host);
  m.AddCallback(
      "nlss_host_hedge_losses_total",
      "Hedges that lost, timed out, or were abandoned",
      [this] { return static_cast<double>(stats_.hedge_losses); }, host);
  m.AddCallback(
      "nlss_host_hedges_denied_total", "Hedges refused by the QoS budget",
      [this] { return static_cast<double>(stats_.hedges_denied); }, host);
  m.AddCallback(
      "nlss_host_write_cancels_total",
      "Failed writes cancelled at the blades",
      [this] { return static_cast<double>(stats_.write_cancels); }, host);
  m.AddCallback(
      "nlss_host_probes_total", "Heartbeat probes sent",
      [this] { return static_cast<double>(stats_.probes); }, host);
  m.AddCallback(
      "nlss_host_path_down_events_total", "Paths declared down",
      [this] { return static_cast<double>(stats_.path_down_events); }, host);
  m.AddCallback(
      "nlss_host_up_paths", "Paths currently in the kUp state",
      [this] { return static_cast<double>(UpPaths()); }, host);
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const obs::Labels pl = {{"host", name_}, {"path", std::to_string(i)}};
    const PathHealth* p = &paths_[i];
    m.AddCallback(
        "nlss_host_path_ewma_ns", "EWMA service time per path",
        [p] { return p->ewma_ns(); }, pl);
    m.AddCallback(
        "nlss_host_path_outstanding", "In-flight attempts per path",
        [p] { return static_cast<double>(p->outstanding()); }, pl);
    m.AddCallback(
        "nlss_host_path_state", "Path state (0 up, 1 half-open, 2 down)",
        [p] { return static_cast<double>(p->state()); }, pl);
  }
  read_latency_ns_ = &m.histogram("nlss_host_read_latency_ns",
                                  "End-to-end host read latency", host);
  write_latency_ns_ = &m.histogram("nlss_host_write_latency_ns",
                                   "End-to-end host write latency", host);
}

}  // namespace nlss::host
