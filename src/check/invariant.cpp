#include "check/invariant.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace nlss::check {

const char* SubsystemName(Subsystem s) {
  switch (s) {
    case Subsystem::kSim:
      return "sim";
    case Subsystem::kCache:
      return "cache";
    case Subsystem::kQos:
      return "qos";
    case Subsystem::kHost:
      return "host";
    case Subsystem::kRaid:
      return "raid";
    case Subsystem::kMeta:
      return "meta";
    case Subsystem::kTier:
      return "tier";
    case Subsystem::kRace:
      return "race";
    case Subsystem::kOther:
      return "other";
  }
  return "?";
}

Registry& Registry::Instance() {
  static Registry instance;
  return instance;
}

void Registry::Report(const Violation& v) {
  violations_[static_cast<int>(v.subsystem)].fetch_add(
      1, std::memory_order_relaxed);
  if (handler_) {
    handler_(v);
    return;
  }
  std::fprintf(stderr, "NLSS_INVARIANT violation [%s] %s:%d: (%s)%s%s\n",
               SubsystemName(v.subsystem), v.file, v.line, v.expr,
               v.message.empty() ? "" : " — ", v.message.c_str());
  std::fflush(stderr);
  std::abort();
}

Registry::Handler Registry::SetHandler(Handler h) {
  Handler prev = std::move(handler_);
  handler_ = std::move(h);
  return prev;
}

namespace detail {

void Fail(Subsystem s, const char* file, int line, const char* expr,
          const char* fmt, ...) {
  Violation v;
  v.subsystem = s;
  v.file = file;
  v.line = line;
  v.expr = expr;
  if (fmt != nullptr) {
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    v.message = buf;
  }
  Registry::Instance().Report(v);
}

}  // namespace detail

}  // namespace nlss::check
