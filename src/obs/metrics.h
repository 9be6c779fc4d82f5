// Named metrics registry with Prometheus text exposition.
//
// Modules register counters, gauges, and histograms by name; mgmt's
// GET /metrics renders every entry in sorted order.  Callback gauges pull
// their value at render time, which lets existing per-module Stats structs
// feed the registry without duplicating bookkeeping.
//
// Instruments may carry a label set (`nlss_qos_ops_total{tenant="lab-a"}`):
// the same family name can hold one flat series plus any number of
// labelled series, each an independent instrument.  Labels are sorted by
// key at registration so the rendered identity is canonical, and the whole
// family shares one HELP/TYPE header in the exposition.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/function.h"
#include "util/stats.h"

namespace nlss::obs {

/// Label set for one series, e.g. {{"tenant","lab-a"},{"path","0"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void Increment(std::uint64_t by = 1) { value_ += by; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double v) { value_ += v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Registry {
 public:
  /// Look up or create; the returned reference is stable for the
  /// registry's lifetime.  Re-registering an existing (name, labels) pair
  /// returns the existing instrument (help from the first registration
  /// wins).  An empty label set is the flat series of the family.
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  util::Histogram& histogram(const std::string& name, const std::string& help,
                             const Labels& labels = {});

  /// Gauge whose value is pulled from `fn` at render time.
  void AddCallback(const std::string& name, const std::string& help,
                   util::Function<double()> fn, const Labels& labels = {});

  std::size_t size() const { return entries_.size(); }

  /// Prometheus text exposition: counters and gauges verbatim, histograms
  /// as summaries (p50/p99 quantiles + _count + _sum).  Deterministic:
  /// families render in name order, series in label order, and each family
  /// gets exactly one HELP/TYPE header.
  std::string PrometheusText() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kCallback };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<util::Histogram> histogram;
    util::Function<double()> callback;
  };
  /// Map key: (family name, canonical rendered label block).  The label
  /// block is "" for the flat series or `{k="v",...}` sorted by key, so
  /// series of one family are adjacent and deterministically ordered.
  using Key = std::pair<std::string, std::string>;

  Entry& Ensure(const std::string& name, const Labels& labels,
                const std::string& help, Kind kind);

  std::map<Key, Entry> entries_;  // sorted => deterministic render
};

}  // namespace nlss::obs
