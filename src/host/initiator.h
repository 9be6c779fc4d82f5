// Host initiator stack: multipath sessions, deterministic retry, and
// hedged reads (paper §2.1's "powerful device drivers", grown into a real
// client).
//
// An Initiator owns one host fabric node and a session ("path") to every
// controller blade.  Each request:
//
//   select path ──issue──> StorageSystem::ReadVia/WriteVia (explicit blade)
//        │                        │
//        │   per-attempt timeout ─┤─ error/timeout: backoff (seeded
//        │                        │  jitter) then re-drive on another path
//        │   hedge timer ─────────┤─ reads AND writes: after the path's
//        │                        │  tracked latency quantile, duplicate
//        │                        │  to a second blade; first reply wins
//        │                        │  (per-tenant budget via qos::TryHedge)
//        └─ heartbeat probes: a silent blade is declared down after N
//           misses; its in-flight requests re-drive immediately and the
//           path re-enters service through half-open trials
//
// Writes are exactly-once end to end.  Host-side, each op completes its
// callback exactly once (a late ack arriving after the attempt timed out
// completes the op and suppresses the pending re-drive).  Server-side,
// every write is stamped with a per-host monotonic WriteId that the
// blades deduplicate on (cache::WriteDedupIndex), so overlapping
// re-drives and hedges never double-apply, and a write reported failed
// is cancelled at the blades so a stale in-fabric copy can't apply later
// (ghost-write protection).  The dedup index is pruned by a settled
// cursor piggybacked on subsequent writes: a seq settles once its op is
// done and every attempt it ever issued has resolved.
//
// Everything is driven by the DES clock and one forked seeded RNG, so two
// same-seed runs — including hedge races, backoff jitter, and failover —
// are bit-identical.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "controller/system.h"
#include "host/path.h"
#include "host/retry.h"
#include "obs/hub.h"
#include "util/function.h"

namespace nlss::meta {
class Client;
}  // namespace nlss::meta

namespace nlss::host {

struct InitiatorConfig {
  enum class Policy {
    kRoundRobin,        // spread over available paths
    kLeastOutstanding,  // fewest in-flight requests
    kEwmaWeighted,      // lowest EWMA-latency x queue-depth score
  };
  Policy policy = Policy::kEwmaWeighted;
  RetryPolicy retry;
  PathConfig path;
  /// >= 0: single-path host (no failover) — the baseline in E15.
  int pin_path = -1;

  // --- Hedging --------------------------------------------------------------
  bool hedged_reads = true;
  /// Safe because blades deduplicate on the write id: the losing copy is
  /// absorbed, never applied twice.
  bool hedged_writes = true;
  /// Hedge fires after the issuing path's latency quantile...
  double hedge_quantile = 0.9;
  /// ...clamped to [min, max]; before min_samples observations the path
  /// hedges at max (conservative while cold).
  sim::Tick hedge_min_delay_ns = 100 * util::kNsPerUs;
  sim::Tick hedge_max_delay_ns = 50 * util::kNsPerMs;
  std::uint64_t hedge_min_samples = 32;

  // --- Heartbeat path-down detection ---------------------------------------
  /// Probe interval (0 disables heartbeats; breaker still works).
  sim::Tick heartbeat_interval_ns = 50 * util::kNsPerMs;
  std::uint32_t heartbeat_miss_threshold = 3;
  sim::Tick probe_timeout_ns = 20 * util::kNsPerMs;
  std::uint32_t probe_bytes = 64;

  /// Seed for the backoff-jitter RNG stream (independent of workloads).
  std::uint64_t seed = 0x05707aceULL;
};

struct InitiatorStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t attempts = 0;   // issued, including hedges
  std::uint64_t retries = 0;    // backoff re-drives
  std::uint64_t timeouts = 0;   // per-attempt timeouts
  std::uint64_t failovers = 0;  // re-drive landed on a different path
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  /// Loser/timed-out/abandoned hedge attempts.  Every hedge terminates
  /// exactly once as a win or a loss: hedges == hedge_wins + hedge_losses
  /// once all attempts have drained.
  std::uint64_t hedge_losses = 0;
  std::uint64_t hedges_denied = 0;  // qos::TryHedge refused the budget
  std::uint64_t write_cancels = 0;  // failed writes cancelled at the blades
  std::uint64_t path_down_redrives = 0;
  std::uint64_t late_acks = 0;           // timed-out attempt acked later
  std::uint64_t suppressed_redrives = 0; // guard: redrive found op done
  std::uint64_t probes = 0;
  std::uint64_t probe_misses = 0;
  std::uint64_t path_down_events = 0;
  std::uint64_t no_path_failures = 0;
};

class Initiator {
 public:
  /// Reads hand the caller the payload itself: it is immutable, so no later
  /// write can change bytes the caller holds.  A caller that wants its own
  /// bytes calls ToBytes().
  using ReadCallback = util::Function<void(bool ok, util::Payload data)>;
  using WriteCallback = controller::StorageSystem::WriteCallback;

  /// Attaches a host node named `name` to the system's fabric and opens a
  /// path to every controller blade.
  Initiator(controller::StorageSystem& system, const std::string& name,
            InitiatorConfig config = {});

  /// Start/stop the heartbeat prober (no-op when interval is 0).
  void Start();
  void Stop() { running_ = false; }

  /// Register host metrics (labelled by host/path) and start tracing ops
  /// as kHost root spans.  Pass nullptr to detach.
  void AttachObs(obs::Hub* hub);

  /// Attach this host's dentry/path-resolution cache (a meta::Client
  /// registered with the sharded metadata service).  Namespace resolves
  /// issued by workloads on this host go through it; the service pushes
  /// coherence invalidations back.  Pass nullptr to detach.
  void AttachMeta(meta::Client* meta) { meta_ = meta; }
  meta::Client* meta() const { return meta_; }

  /// An op on a range that is empty or does not fit inside the volume fails
  /// on the next event, with no attempt, retry or hedge.
  void Read(controller::VolumeId vol, std::uint64_t offset,
            std::uint32_t length, ReadCallback cb, std::uint8_t priority = 0,
            qos::TenantId tenant = qos::kAutoTenant);
  /// Read into caller-owned bytes (one ToBytes copy).  Kept only for the
  /// benchmark's read checks, which take util::Bytes; nothing else calls it.
  void Read(controller::VolumeId vol, std::uint64_t offset,
            std::uint32_t length,
            util::Function<void(bool ok, util::Bytes data)> cb,
            std::uint8_t priority = 0,
            qos::TenantId tenant = qos::kAutoTenant);
  void Write(controller::VolumeId vol, std::uint64_t offset,
             std::span<const std::uint8_t> data, WriteCallback cb,
             qos::TenantId tenant = qos::kAutoTenant);

  // --- Introspection ---------------------------------------------------------
  net::NodeId node() const { return node_; }
  const std::string& name() const { return name_; }
  std::size_t path_count() const { return paths_.size(); }
  const PathHealth& path(std::size_t i) const { return paths_[i]; }
  const InitiatorStats& stats() const { return stats_; }
  std::size_t UpPaths() const;
  const InitiatorConfig& config() const { return config_; }
  /// Force a path down (tests / operator action).
  void ForcePathDown(std::size_t i) { MarkPathDown(static_cast<int>(i)); }

 private:
  /// Race-detector key for an op: op ids are per-initiator counters, so two
  /// hosts running in lockstep hold colliding ids for independent ops; salt
  /// with the host name like meta::Client does for its directory keys.
  std::uint64_t RaceKey(std::uint64_t op_id) const;

  struct Attempt {
    int path = -1;
    bool hedge = false;
  };
  struct Op {
    std::uint64_t id = 0;
    bool is_read = true;
    controller::VolumeId vol = 0;
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
    util::Payload payload;                 // writes
    cache::WriteId wid;                    // writes: blade-side dedup token
    std::uint8_t priority = 0;
    qos::TenantId tenant = qos::kAutoTenant;
    ReadCallback rcb;
    WriteCallback wcb;
    obs::TraceContext root;
    sim::Tick start = 0;
    sim::Tick deadline = 0;  // 0 = none
    bool done = false;
    bool callback_fired = false;  // invariant: completion exactly once
    bool redrive_pending = false;
    bool hedged = false;
    std::uint32_t failures = 0;        // attempts that reached a wire and failed
    std::uint32_t no_path_rounds = 0;  // re-drive rounds with no path up
    std::uint32_t issued_attempts = 0;    // attempts handed to the system
    std::uint32_t resolved_attempts = 0;  // attempt callbacks received
    int first_path = -1;
    int last_path = -1;
    std::uint32_t next_attempt = 1;
    std::map<std::uint32_t, Attempt> inflight;  // attempt id -> where/why
  };
  using OpPtr = std::shared_ptr<Op>;

  void Submit(OpPtr op);
  /// Pick an available path (policy-driven); `exclude` < 0 to allow all.
  /// Returns -1 when no path qualifies.
  int SelectPath(int exclude, sim::Tick now) const;
  void IssueAttempt(const OpPtr& op, int path, bool is_hedge);
  void ArmHedge(const OpPtr& op, int primary_path);
  void OnAttemptResult(const OpPtr& op, std::uint32_t attempt, int path,
                       sim::Tick t0, bool ok, const util::Payload& data,
                       bool is_hedge);
  void OnAttemptTimeout(const OpPtr& op, std::uint32_t attempt);
  void HandleFailure(const OpPtr& op, int failed_path);
  void FinishOp(const OpPtr& op, bool ok, const util::Payload& data);
  sim::Tick HedgeDelay(int path) const;
  /// Retire op's seq from the unsettled set once it is done AND every
  /// issued attempt has resolved (no copy of it remains in the fabric).
  void MaybeSettleWrite(const OpPtr& op);

  void MarkPathDown(int path);
  /// Root "host.path" span recording a breaker transition (trip /
  /// half-open / reset) so path flaps are visible in traces.
  void TracePathEvent(int path, const char* event);
  void HeartbeatTick();
  void ProbePath(int path);
  void OnProbeOk(int path);
  void OnProbeMiss(int path);

  controller::StorageSystem& system_;
  sim::Engine& engine_;
  std::string name_;
  InitiatorConfig config_;
  net::NodeId node_;
  std::vector<PathHealth> paths_;
  std::vector<std::uint32_t> probe_misses_;
  /// Ops with an attempt in flight on each path (for crash re-drive);
  /// std::map for deterministic iteration.
  std::vector<std::map<std::uint64_t, OpPtr>> active_;
  util::Rng rng_;
  InitiatorStats stats_;
  std::uint64_t next_op_ = 1;
  // Write idempotency: a seq settles once its op is done and every attempt
  // has resolved, so the blades may prune it from the dedup index.
  cache::WriteIdStamper writes_;
  mutable std::uint32_t rr_next_ = 0;
  bool running_ = false;
  obs::Hub* hub_ = nullptr;
  meta::Client* meta_ = nullptr;
  util::Histogram* read_latency_ns_ = nullptr;
  util::Histogram* write_latency_ns_ = nullptr;
};

}  // namespace nlss::host
