#include "workload/workload.h"

#include <algorithm>
#include <charconv>
#include <utility>

#include "check/invariant.h"
#include "util/bytes.h"

namespace nlss::workload {

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kMetadataStorm:
      return "metadata_storm";
    case Shape::kSmallFileIngest:
      return "small_file_ingest";
    case Shape::kSharedLibBroadcast:
      return "shared_lib_broadcast";
    case Shape::kCheckpointBurst:
      return "checkpoint_burst";
  }
  return "unknown";
}

// --- Generators --------------------------------------------------------------

Trace MetadataStorm(const StormSpec& spec, std::uint64_t seed) {
  Trace trace;
  trace.shape = Shape::kMetadataStorm;
  trace.files = spec.files;
  trace.hosts = spec.hosts;
  util::Rng rng(seed);
  for (std::uint32_t h = 0; h < spec.hosts; ++h) {
    util::Rng host_rng = rng.Fork();
    // Hosts ramp in staggered with a little jitter — processes launched by
    // a scheduler, not a metronome.
    const sim::Tick start =
        h * spec.host_stagger_ns +
        host_rng.Below(spec.host_stagger_ns / 2 + 1);
    for (std::uint32_t i = 0; i < spec.opens_per_host; ++i) {
      TraceOp op;
      op.at = start + static_cast<sim::Tick>(i) * spec.open_gap_ns;
      op.host = h;
      op.kind = TraceOp::Kind::kOpen;
      // Shared order (every process loads the same file list — the
      // python-import pattern) unless partitioned (each host works its own
      // slice — the per-job-scratch pattern).
      op.file = spec.partition_files
                    ? (h * spec.opens_per_host + i) % spec.files.count
                    : i % spec.files.count;
      op.offset = 0;
      op.length = std::min(spec.read_bytes, spec.files.file_bytes);
      trace.ops.push_back(op);
    }
  }
  return trace;
}

Trace SmallFileIngest(const IngestSpec& spec, std::uint64_t seed) {
  Trace trace;
  trace.shape = Shape::kSmallFileIngest;
  trace.files = spec.files;
  trace.hosts = spec.hosts;
  util::Rng rng(seed);
  const std::uint64_t partition_files = spec.files.count / spec.hosts;
  for (std::uint32_t h = 0; h < spec.hosts; ++h) {
    util::Rng host_rng = rng.Fork();
    const sim::Tick start =
        h * spec.host_stagger_ns +
        host_rng.Below(spec.host_stagger_ns / 2 + 1);
    const std::uint64_t partition_base =
        h * partition_files * spec.files.file_bytes;
    const std::uint64_t partition_bytes =
        partition_files * spec.files.file_bytes;
    for (std::uint32_t i = 0; i < spec.writes_per_host; ++i) {
      // Sequential small appends striding through the host's partition:
      // adjacent records land on adjacent pages, which is exactly the
      // stream the flush coalescer turns into large back-end writes.
      const std::uint64_t pos =
          partition_base + (static_cast<std::uint64_t>(i) * spec.write_bytes) %
                               std::max<std::uint64_t>(partition_bytes, 1);
      TraceOp op;
      op.at = start;
      op.host = h;
      op.kind = TraceOp::Kind::kWrite;
      op.file = static_cast<std::uint32_t>(pos / spec.files.file_bytes);
      op.offset = pos % spec.files.file_bytes;
      op.length = spec.write_bytes;
      trace.ops.push_back(op);
    }
  }
  return trace;
}

Trace SharedLibBroadcast(const BroadcastSpec& spec, std::uint64_t seed) {
  Trace trace;
  trace.shape = Shape::kSharedLibBroadcast;
  trace.files = spec.files;
  trace.hosts = spec.hosts;
  util::Rng rng(seed);
  // One shared popularity ranking: rank r maps straight to file index r,
  // so the hot files are hot on every host simultaneously.
  const util::ZipfGenerator zipf(spec.files.count, spec.zipf_theta);
  for (std::uint32_t h = 0; h < spec.hosts; ++h) {
    util::Rng host_rng = rng.Fork();
    const sim::Tick start =
        h * spec.host_stagger_ns +
        host_rng.Below(spec.host_stagger_ns / 2 + 1);
    for (std::uint32_t i = 0; i < spec.reads_per_host; ++i) {
      TraceOp op;
      op.at = start;
      op.host = h;
      op.kind = TraceOp::Kind::kRead;
      op.file = static_cast<std::uint32_t>(zipf.Next(host_rng));
      op.offset = 0;
      op.length = spec.files.file_bytes;  // whole-file read
      trace.ops.push_back(op);
    }
  }
  return trace;
}

Trace CheckpointBurst(const BurstSpec& spec, std::uint64_t seed) {
  Trace trace;
  trace.shape = Shape::kCheckpointBurst;
  trace.files = spec.files;
  trace.hosts = spec.hosts;
  NLSS_INVARIANT(kOther, spec.files.count >= spec.hosts,
                 "checkpoint burst needs one file per host (%u < %u)",
                 spec.files.count, spec.hosts);
  util::Rng rng(seed);
  for (std::uint32_t h = 0; h < spec.hosts; ++h) {
    util::Rng host_rng = rng.Fork();
    // Synchronized start: every host kicks off within the jitter window —
    // the burst is the point.
    const sim::Tick start = host_rng.Below(spec.sync_jitter_ns + 1);
    const std::uint32_t chunks =
        (spec.files.file_bytes + spec.chunk_bytes - 1) / spec.chunk_bytes;
    for (std::uint32_t c = 0; c < chunks; ++c) {
      TraceOp op;
      op.at = start;
      op.host = h;
      op.kind = TraceOp::Kind::kWrite;
      op.file = h;
      op.offset = static_cast<std::uint64_t>(c) * spec.chunk_bytes;
      op.length = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          spec.chunk_bytes, spec.files.file_bytes - op.offset));
      trace.ops.push_back(op);
    }
  }
  return trace;
}

// --- Metadata namespace ------------------------------------------------------

std::string MetaPathOf(std::uint32_t file, std::uint32_t files_per_dir) {
  if (files_per_dir == 0) files_per_dir = 1;
  char buf[24] = "/d";  // each 32-bit number takes at most 10 digits
  char* end = std::to_chars(buf + 2, buf + 12, file / files_per_dir).ptr;
  end = std::copy_n("/f", 2, end);
  return std::string(buf, std::to_chars(end, end + 10, file).ptr);
}

void PopulateMetaNamespace(meta::MetaService& service, const FileSet& files,
                           std::uint32_t files_per_dir) {
  if (files_per_dir == 0) files_per_dir = 1;
  const std::uint32_t dirs =
      (files.count + files_per_dir - 1) / files_per_dir;
  for (std::uint32_t d = 0; d < dirs; ++d) {
    const meta::Status st = service.BootstrapMkdir("/d" + std::to_string(d));
    NLSS_INVARIANT(kMeta,
                   st == meta::Status::kOk || st == meta::Status::kExists,
                   "meta population mkdir /d%u failed: %s", d,
                   meta::StatusName(st));
    (void)st;
  }
  for (std::uint32_t f = 0; f < files.count; ++f) {
    const meta::Status st =
        service.BootstrapCreate(MetaPathOf(f, files_per_dir));
    NLSS_INVARIANT(kMeta,
                   st == meta::Status::kOk || st == meta::Status::kExists,
                   "meta population create %u failed: %s", f,
                   meta::StatusName(st));
    (void)st;
  }
}

// --- Runner ------------------------------------------------------------------

Runner::Runner(sim::Engine& engine, std::vector<host::Initiator*> initiators,
               controller::VolumeId vol, RunnerConfig config, obs::Hub* hub)
    : engine_(engine),
      initiators_(std::move(initiators)),
      vol_(vol),
      config_(config),
      hub_(hub) {}

PhaseResult Runner::Play(const Trace& trace) {
  PhaseResult result;
  const sim::Tick phase_start = engine_.now();

  // Per-host op queues (trace order preserved within a host).
  std::vector<std::vector<const TraceOp*>> host_ops(trace.hosts);
  for (const TraceOp& op : trace.ops) {
    if (op.host < trace.hosts) host_ops[op.host].push_back(&op);
  }

  // Phase instrumentation: a root span plus per-shape counters.
  obs::TraceContext root;
  obs::Counter* ops_counter = nullptr;
  obs::Counter* bytes_counter = nullptr;
  obs::Counter* prefetch_hits = nullptr;
  if (hub_ != nullptr) {
    root = hub_->tracer().StartTrace(
        obs::Layer::kHost, std::string("workload.") + ShapeName(trace.shape));
    const obs::Labels labels = {{"shape", ShapeName(trace.shape)}};
    ops_counter = &hub_->metrics().counter(
        "nlss_workload_ops_total", "Workload ops completed per shape",
        labels);
    bytes_counter = &hub_->metrics().counter(
        "nlss_workload_bytes_total", "Workload bytes transferred per shape",
        labels);
    prefetch_hits = &hub_->metrics().counter(
        "nlss_workload_prefetch_hits_total",
        "Opens served from the batched-prefetch staging buffer", labels);
  }

  // Distinct dentry-cache clients behind the initiator fleet (several
  // trace hosts can share one initiator); snapshot their stats so the
  // phase reports deltas.
  std::vector<meta::Client*> meta_clients;
  for (host::Initiator* init : initiators_) {
    meta::Client* c = init->meta();
    if (c == nullptr) continue;
    if (std::find(meta_clients.begin(), meta_clients.end(), c) ==
        meta_clients.end()) {
      meta_clients.push_back(c);
    }
  }
  std::uint64_t meta_resolves0 = 0, meta_hits0 = 0, meta_fallbacks0 = 0;
  for (const meta::Client* c : meta_clients) {
    meta_resolves0 += c->stats().resolves;
    meta_hits0 += c->stats().full_hits;
    meta_fallbacks0 += c->stats().revalidation_fallbacks;
  }

  // One prefetcher per trace host when the countermeasure is on.
  std::vector<std::unique_ptr<OpenBurstPrefetcher>> prefetchers;
  if (config_.prefetch.enabled) {
    prefetchers.reserve(trace.hosts);
    for (std::uint32_t h = 0; h < trace.hosts; ++h) {
      prefetchers.push_back(std::make_unique<OpenBurstPrefetcher>(
          engine_, *initiators_[h % initiators_.size()], vol_, trace.files,
          config_.prefetch, config_.tenant));
    }
  }

  // Closed loop per host: one outstanding op, honoring earliest-issue
  // times.  Locals live through the engine_.Run() below, so reference
  // captures are safe.
  std::vector<std::size_t> cursor(trace.hosts, 0);
  util::Function<void(std::uint32_t)> pump = [&](std::uint32_t h) {
    if (cursor[h] >= host_ops[h].size()) return;
    const TraceOp* op = host_ops[h][cursor[h]++];
    const sim::Tick due = phase_start + op->at;
    auto issue = [&, h, op] {
      host::Initiator& init = *initiators_[h % initiators_.size()];
      const sim::Tick t0 = engine_.now();
      const bool is_open = op->kind == TraceOp::Kind::kOpen;
      auto done = [&, h, t0, is_open, length = op->length](bool ok) {
        ++result.ops;
        if (ok) {
          ++result.ok;
          result.bytes += length;
          const sim::Tick lat = engine_.now() - t0;
          result.latency.Record(lat);
          if (is_open) result.open_latency.Record(lat);
        } else {
          ++result.failed;
        }
        pump(h);
      };
      switch (op->kind) {
        case TraceOp::Kind::kOpen:
          if (config_.meta_files_per_dir > 0 && init.meta() != nullptr) {
            // Open = namespace resolve through the host dentry cache,
            // then the data read (none when the op carries no bytes).
            init.meta()->Resolve(
                MetaPathOf(op->file, config_.meta_files_per_dir),
                [&, h, op, init_ptr = &init, done = std::move(done)](
                    meta::Status st, meta::Dentry) mutable {
                  if (st != meta::Status::kOk) {
                    done(false);
                    return;
                  }
                  if (op->length == 0) {
                    done(true);
                    return;
                  }
                  if (config_.prefetch.enabled) {
                    prefetchers[h]->Open(op->file, op->length,
                                         std::move(done));
                    return;
                  }
                  init_ptr->Read(vol_, trace.files.OffsetOf(op->file),
                                 op->length,
                                 [done = std::move(done)](bool ok,
                                                          util::Payload) {
                                   done(ok);
                                 },
                                 /*priority=*/0, config_.tenant);
                });
          } else if (config_.prefetch.enabled) {
            prefetchers[h]->Open(op->file, op->length, std::move(done));
          } else if (op->length == 0) {
            engine_.Schedule(0, [done = std::move(done)]() { done(true); });
          } else {
            init.Read(vol_, trace.files.OffsetOf(op->file), op->length,
                      [done = std::move(done)](bool ok, util::Payload) {
                        done(ok);
                      },
                      /*priority=*/0, config_.tenant);
          }
          break;
        case TraceOp::Kind::kRead:
          init.Read(vol_, trace.files.OffsetOf(op->file) + op->offset,
                    op->length,
                    [done = std::move(done)](bool ok, util::Payload) {
                      done(ok);
                    },
                    /*priority=*/0, config_.tenant);
          break;
        case TraceOp::Kind::kWrite: {
          util::Bytes buf(op->length);
          util::FillPattern(buf, trace.files.OffsetOf(op->file) + op->offset);
          init.Write(vol_, trace.files.OffsetOf(op->file) + op->offset, buf,
                     std::move(done), config_.tenant);
          break;
        }
      }
    };
    if (engine_.now() < due) {
      engine_.Schedule(due - engine_.now(), std::move(issue));
    } else {
      issue();
    }
  };
  for (std::uint32_t h = 0; h < trace.hosts; ++h) pump(h);
  engine_.Run();

  result.elapsed = engine_.now() - phase_start;
  for (const auto& pf : prefetchers) result.prefetch.Add(pf->stats());
  for (const meta::Client* c : meta_clients) {
    result.meta_resolves += c->stats().resolves;
    result.meta_hits += c->stats().full_hits;
    result.meta_fallbacks += c->stats().revalidation_fallbacks;
  }
  result.meta_resolves -= meta_resolves0;
  result.meta_hits -= meta_hits0;
  result.meta_fallbacks -= meta_fallbacks0;
  if (hub_ != nullptr) {
    if (ops_counter != nullptr) ops_counter->Increment(result.ops);
    if (bytes_counter != nullptr) bytes_counter->Increment(result.bytes);
    if (prefetch_hits != nullptr) {
      prefetch_hits->Increment(result.prefetch.hits);
    }
    hub_->tracer().Annotate(
        root, std::string(ShapeName(trace.shape)) + " hosts=" +
                  std::to_string(trace.hosts) + " ops=" +
                  std::to_string(result.ops));
    hub_->tracer().EndTrace(root, result.failed == 0);
  }
  return result;
}

}  // namespace nlss::workload
