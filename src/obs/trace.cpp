#include "obs/trace.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

namespace nlss::obs {
namespace {

// Sentinel end-tick for a span that has not been closed yet; EndTrace
// clamps any still-open span to the trace end.
constexpr sim::Tick kOpen = std::numeric_limits<sim::Tick>::max();

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kHost:
      return "host";
    case Layer::kProto:
      return "proto";
    case Layer::kController:
      return "controller";
    case Layer::kQos:
      return "qos";
    case Layer::kCache:
      return "cache";
    case Layer::kNet:
      return "net";
    case Layer::kRaid:
      return "raid";
    case Layer::kDisk:
      return "disk";
    case Layer::kGeo:
      return "geo";
    case Layer::kMeta:
      return "meta";
    case Layer::kTier:
      return "tier";
    case Layer::kOther:
      return "other";
  }
  return "?";
}

void Breakdown::Add(const Breakdown& other) {
  total += other.total;
  for (int i = 0; i < kLayerCount; ++i) self[i] += other.self[i];
}

Breakdown AnalyzeCriticalPath(const std::vector<Span>& spans) {
  Breakdown b;
  if (spans.empty()) return b;

  // Attribute every tick of the root interval to the deepest span covering
  // it (ties: the newest span).  Each span's effective interval is its own
  // clamped to its ancestors', so self times sum exactly to the root
  // duration even with concurrent (overlapping) children or sloppy child
  // bounds.
  std::unordered_map<SpanId, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].id, i);

  struct Eff {
    sim::Tick lo = 0, hi = 0;
    int depth = 0;
  };
  const Span& root = spans[0];
  std::vector<Eff> eff(spans.size());
  eff[0] = {root.start, root.end, 0};
  // Spans are appended in creation order, so a parent always precedes its
  // children and one forward pass resolves every effective interval.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    const auto it = by_id.find(spans[i].parent);
    const Eff& p = it != by_id.end() ? eff[it->second] : eff[0];
    eff[i] = {std::max(spans[i].start, p.lo), std::min(spans[i].end, p.hi),
              p.depth + 1};
  }

  std::vector<sim::Tick> bounds;
  bounds.reserve(2 * spans.size());
  for (const Eff& e : eff) {
    if (e.hi <= e.lo) continue;
    bounds.push_back(e.lo);
    bounds.push_back(e.hi);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
    const sim::Tick lo = bounds[k];
    const sim::Tick hi = bounds[k + 1];
    if (lo < root.start || hi > root.end) continue;
    int best = -1;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (eff[i].lo <= lo && eff[i].hi >= hi && eff[i].hi > eff[i].lo &&
          (best < 0 || eff[i].depth >= eff[best].depth)) {
        best = static_cast<int>(i);
      }
    }
    if (best >= 0) b.self[static_cast<int>(spans[best].layer)] += hi - lo;
  }
  b.total = root.duration();
  return b;
}

Tracer::Tracer(sim::Engine& engine, Config config)
    : engine_(engine), config_(config), rng_(config.seed) {}

TraceContext Tracer::StartTrace(Layer layer, std::string name,
                                std::string tenant) {
  ++started_;
  // Always draw, so the sampling decision for trace N depends only on the
  // seed and N — not on the rate used for earlier traces.
  const double draw = rng_.NextDouble();
  if (draw >= config_.sample_rate) return {};
  ++sampled_;

  const TraceId id = next_trace_++;
  Active& a = active_[id];
  a.trace.id = id;
  a.trace.name = name;
  a.trace.tenant = std::move(tenant);
  a.trace.start = engine_.now();
  Span root;
  root.id = a.next_span++;
  root.parent = 0;
  root.layer = layer;
  root.name = std::move(name);
  root.start = engine_.now();
  root.end = kOpen;
  a.trace.spans.push_back(std::move(root));
  return {this, id, 1};
}

TraceContext Tracer::StartSpan(const TraceContext& parent, Layer layer,
                               std::string name) {
  if (parent.tracer != this) return {};
  const auto it = active_.find(parent.trace);
  if (it == active_.end()) return {};  // trace already finished
  Active& a = it->second;
  Span s;
  const SpanId id = a.next_span++;
  s.id = id;
  s.parent = parent.span;
  s.layer = layer;
  s.name = std::move(name);
  s.start = engine_.now();
  s.end = kOpen;
  a.trace.spans.push_back(std::move(s));
  return {this, parent.trace, id};
}

Span* Tracer::FindSpan(const TraceContext& ctx) {
  if (ctx.tracer != this) return nullptr;
  const auto it = active_.find(ctx.trace);
  if (it == active_.end()) return nullptr;
  for (Span& s : it->second.trace.spans) {
    if (s.id == ctx.span) return &s;
  }
  return nullptr;
}

void Tracer::EndSpan(const TraceContext& ctx) {
  if (Span* s = FindSpan(ctx)) s->end = engine_.now();
}

void Tracer::Annotate(const TraceContext& ctx, const std::string& note) {
  if (Span* s = FindSpan(ctx)) {
    if (!s->note.empty()) s->note += ',';
    s->note += note;
  }
}

void Tracer::SetTenant(const TraceContext& ctx, const std::string& tenant) {
  if (ctx.tracer != this) return;
  const auto it = active_.find(ctx.trace);
  if (it != active_.end()) it->second.trace.tenant = tenant;
}

void Tracer::EndTrace(const TraceContext& root, bool ok) {
  if (root.tracer != this) return;
  const auto it = active_.find(root.trace);
  if (it == active_.end()) return;
  FinishedTrace trace = std::move(it->second.trace);
  active_.erase(it);

  trace.ok = ok;
  trace.end = engine_.now();
  if (!trace.spans.empty()) trace.spans[0].end = trace.end;
  // Spans left open (e.g. a fabric message dropped with no drop handler)
  // are clamped to the trace end so the analyzer sees a closed tree.
  for (Span& s : trace.spans) {
    if (s.end == kOpen) s.end = trace.end;
  }
  trace.breakdown = AnalyzeCriticalPath(trace.spans);
  aggregate_.Add(trace.breakdown);
  ++finished_;

  // slowest_ stays sorted slowest first (ties: lower id first), so a trace
  // that does not beat the K-th is turned away without a copy or a sort.
  const auto slower = [](const FinishedTrace& x, const FinishedTrace& y) {
    if (x.duration() != y.duration()) return x.duration() > y.duration();
    return x.id < y.id;
  };
  const bool keep = config_.keep_slowest > 0 &&
                    (slowest_.size() < config_.keep_slowest ||
                     slower(trace, slowest_.back()));
  if (config_.keep_recent > 0) {
    if (keep) {
      recent_.push_back(trace);
    } else {
      recent_.push_back(std::move(trace));
    }
    if (recent_.size() > config_.keep_recent) recent_.pop_front();
  }
  if (!keep) return;
  const auto at =
      std::upper_bound(slowest_.begin(), slowest_.end(), trace, slower);
  slowest_.insert(at, std::move(trace));
  if (slowest_.size() > config_.keep_slowest) slowest_.pop_back();
}

std::string Tracer::Dump() const {
  std::ostringstream out;
  out << "tracer: started=" << started_ << " sampled=" << sampled_
      << " finished=" << finished_ << "\n";
  out << "aggregate: total=" << aggregate_.total;
  for (int i = 0; i < kLayerCount; ++i) {
    out << ' ' << LayerName(static_cast<Layer>(i)) << '='
        << aggregate_.self[i];
  }
  out << "\n";
  const auto dump_trace = [&out](const FinishedTrace& t) {
    out << "trace id=" << t.id << " name=" << t.name << " tenant=" << t.tenant
        << " ok=" << (t.ok ? 1 : 0) << " start=" << t.start
        << " end=" << t.end << " dur=" << t.duration() << "\n";
    for (const Span& s : t.spans) {
      out << "  span id=" << s.id << " parent=" << s.parent
          << " layer=" << LayerName(s.layer) << " name=" << s.name
          << " note=" << s.note << " start=" << s.start << " end=" << s.end
          << "\n";
    }
  };
  for (const FinishedTrace& t : slowest_) dump_trace(t);
  out << "recent:\n";
  for (const FinishedTrace& t : recent_) dump_trace(t);
  return out.str();
}

}  // namespace nlss::obs
