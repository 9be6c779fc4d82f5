#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace nlss::obs {
namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Canonical label block: keys sorted, `{k="v",k2="v2"}`; "" when empty.
std::string RenderLabels(Labels labels) {
  if (labels.empty()) return "";
  std::sort(labels.begin(), labels.end());
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += labels[i].second;
    out += '"';
  }
  out += '}';
  return out;
}

/// Sample line name: base + labels with `extra` (e.g. quantile="0.5")
/// merged into the label block.
std::string SampleName(const std::string& base, const std::string& labels,
                       const std::string& extra = "") {
  if (extra.empty()) return base + labels;
  if (labels.empty()) return base + '{' + extra + '}';
  // Insert before the closing brace.
  return base + labels.substr(0, labels.size() - 1) + ',' + extra + '}';
}

}  // namespace

Registry::Entry& Registry::Ensure(const std::string& name,
                                  const Labels& labels,
                                  const std::string& help, Kind kind) {
  auto [it, inserted] = entries_.try_emplace(Key{name, RenderLabels(labels)});
  Entry& e = it->second;
  if (inserted) {
    e.kind = kind;
    e.help = help;
    switch (kind) {
      case Kind::kCounter:
        e.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        e.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        e.histogram = std::make_unique<util::Histogram>();
        break;
      case Kind::kCallback:
        break;
    }
  }
  return e;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const Labels& labels) {
  Entry& e = Ensure(name, labels, help, Kind::kCounter);
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const Labels& labels) {
  Entry& e = Ensure(name, labels, help, Kind::kGauge);
  return *e.gauge;
}

util::Histogram& Registry::histogram(const std::string& name,
                                     const std::string& help,
                                     const Labels& labels) {
  Entry& e = Ensure(name, labels, help, Kind::kHistogram);
  return *e.histogram;
}

void Registry::AddCallback(const std::string& name, const std::string& help,
                           util::Function<double()> fn, const Labels& labels) {
  Entry& e = Ensure(name, labels, help, Kind::kCallback);
  e.callback = std::move(fn);
}

std::string Registry::PrometheusText() const {
  std::ostringstream out;
  const std::string* prev_family = nullptr;
  for (const auto& [key, e] : entries_) {
    const auto& [name, labels] = key;
    if (prev_family == nullptr || *prev_family != name) {
      out << "# HELP " << name << ' ' << e.help << '\n';
      const char* type = e.kind == Kind::kCounter     ? "counter"
                         : e.kind == Kind::kHistogram ? "summary"
                                                      : "gauge";
      out << "# TYPE " << name << ' ' << type << '\n';
      prev_family = &name;
    }
    switch (e.kind) {
      case Kind::kCounter:
        out << SampleName(name, labels) << ' ' << e.counter->value() << '\n';
        break;
      case Kind::kGauge:
        out << SampleName(name, labels) << ' '
            << FormatDouble(e.gauge->value()) << '\n';
        break;
      case Kind::kCallback:
        out << SampleName(name, labels) << ' '
            << FormatDouble(e.callback ? e.callback() : 0.0) << '\n';
        break;
      case Kind::kHistogram: {
        const util::Histogram& h = *e.histogram;
        out << SampleName(name, labels, "quantile=\"0.5\"") << ' '
            << h.Percentile(0.5) << '\n';
        out << SampleName(name, labels, "quantile=\"0.99\"") << ' '
            << h.Percentile(0.99) << '\n';
        out << SampleName(name + "_sum", labels) << ' '
            << FormatDouble(h.Mean() * static_cast<double>(h.count())) << '\n';
        out << SampleName(name + "_count", labels) << ' ' << h.count() << '\n';
        break;
      }
    }
  }
  return out.str();
}

}  // namespace nlss::obs
