#include "util/payload.h"

#include <algorithm>
#include <cstring>

namespace nlss::util {

Payload Payload::Copy(std::span<const std::uint8_t> bytes) {
  return Payload(bytes.size(), [&](std::span<std::uint8_t> out) {
    std::memcpy(out.data(), bytes.data(), bytes.size());
  });
}

Payload Payload::Zeros(std::size_t size) {
  return Payload(size, [](std::span<std::uint8_t> out) {
    std::memset(out.data(), 0, out.size());
  });
}

Payload Payload::Concat(std::span<const Payload> pieces) {
  std::size_t total = 0;
  const Payload* lone = nullptr;
  std::size_t non_empty = 0;
  for (const Payload& p : pieces) {
    total += p.size();
    if (!p.empty()) {
      lone = &p;
      ++non_empty;
    }
  }
  if (non_empty <= 1) return lone == nullptr ? Payload() : *lone;
  return Payload(total, [&](std::span<std::uint8_t> out) {
    std::size_t at = 0;
    for (const Payload& p : pieces) {
      if (p.empty()) continue;
      std::memcpy(out.data() + at, p.data(), p.size());
      at += p.size();
    }
  });
}

Bytes Payload::ToBytes() const {
  materialized_.fetch_add(size_, std::memory_order_relaxed);
  return Bytes(begin(), end());
}

bool operator==(const Payload& a, std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace nlss::util
