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

Payload Payload::Xor(std::span<const Payload> terms) {
  if (terms.empty() || terms[0].empty()) return Payload();
  const std::size_t size = terms[0].size();
  const std::size_t limit = 2 * terms.size();
  std::vector<Payload> flat;
  flat.reserve(limit);
  // Add a term, or cancel it against an identical view already listed.
  auto toggle = [&](Payload term) {
    const auto same = std::find_if(
        flat.begin(), flat.end(),
        [&](const Payload& f) { return f.SameView(term); });
    if (same != flat.end()) {
      flat.erase(same);
    } else {
      flat.push_back(std::move(term));
    }
  };
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const Payload& t = terms[i];
    assert(t.size() == size);
    // Open an unread Xor only if its terms fit beside one slot for each
    // term still to come.
    const Lazy* lazy = t.lazy();
    const bool open = lazy != nullptr && lazy->bytes == nullptr &&
                      flat.size() + lazy->terms.size() +
                              (terms.size() - i - 1) <=
                          limit;
    if (!open) {
      toggle(t);
      continue;
    }
    for (const Payload& inner : lazy->terms) {
      toggle(inner.Slice(t.offset_, size));
    }
  }
  if (flat.size() == 1) return std::move(flat[0]);
  // An unread Xor that did not fit is computed now, so no unread Xor ever
  // holds another: chains stay one level deep and a first read never
  // recurses.
  for (const Payload& term : flat) {
    if (term.deferred_) term.lazy()->Read();
  }
  auto lazy = std::make_shared<Lazy>();
  lazy->terms = std::move(flat);
  lazy->size = size;
  Payload out;
  out.buf_ = std::shared_ptr<const std::uint8_t[]>(
      lazy, reinterpret_cast<const std::uint8_t*>(lazy.get()));
  out.size_ = size;
  out.buffer_size_ = size;
  out.deferred_ = 1;
  return out;
}

const std::uint8_t* Payload::Lazy::Read() {
  if (bytes != nullptr) return bytes.get();
  bytes = std::make_unique_for_overwrite<std::uint8_t[]>(size);
  if (terms.empty()) {
    std::memset(bytes.get(), 0, size);
  } else {
    std::vector<const std::uint8_t*> src;
    src.reserve(terms.size());
    for (const Payload& t : terms) src.push_back(t.data());
    // Chunk by chunk, so each output chunk stays in L1 while every term
    // streams through it once.
    constexpr std::size_t kChunk = 4096;
    for (std::size_t at = 0; at < size; at += kChunk) {
      const std::size_t n = std::min(kChunk, size - at);
      const std::span<std::uint8_t> out(bytes.get() + at, n);
      std::memcpy(out.data(), src[0] + at, n);
      for (std::size_t t = 1; t < src.size(); ++t) {
        XorInto(out, {src[t] + at, n});
      }
    }
  }
  // The bytes replace the terms, which no longer pin their buffers.
  terms = {};
  materialized_.fetch_add(size, std::memory_order_relaxed);
  return bytes.get();
}

Bytes Payload::ToBytes() const {
  materialized_.fetch_add(size_, std::memory_order_relaxed);
  return Bytes(begin(), end());
}

bool operator==(const Payload& a, std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace nlss::util
