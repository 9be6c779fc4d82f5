#include "util/payload.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

namespace nlss::util {
namespace {

// Zeros view this region.  It is mapped read-only and never written, so its
// pages cost no memory: a read maps the kernel's shared zero page.
constexpr std::size_t kZeroBytes = 16 * 1024 * 1024;

const std::shared_ptr<const std::uint8_t[]>& ZeroRegion() {
  static const std::shared_ptr<const std::uint8_t[]> region = [] {
    void* p = mmap(nullptr, kZeroBytes, PROT_READ,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return std::shared_ptr<const std::uint8_t[]>(
        static_cast<const std::uint8_t*>(p), [](const std::uint8_t*) {});
  }();
  return region;
}

// Free kChunkBytes buffers, per thread.  A buffer joins the list only when
// a payload that held it dies, so the list never holds more buffers than
// were once live at the same time.  Without it, glibc trims the freed heap
// top and the next ingest faults the same pages in again.
thread_local bool chunks_gone = false;  // this thread's list is destroyed
struct FreeChunks {
  std::vector<std::unique_ptr<std::uint8_t[]>> bufs;
  ~FreeChunks() { chunks_gone = true; }
};
thread_local FreeChunks free_chunks;

std::unique_ptr<std::uint8_t[]> TakeChunk() {
  if (chunks_gone || free_chunks.bufs.empty()) {
    return std::make_unique_for_overwrite<std::uint8_t[]>(
        Payload::kChunkBytes);
  }
  auto buf = std::move(free_chunks.bufs.back());
  free_chunks.bufs.pop_back();
  return buf;
}

// A payload that outlives the list (static storage, thread exit) frees its
// buffer directly.
void ReleaseChunk(std::uint8_t* buf) {
  std::unique_ptr<std::uint8_t[]> owned(buf);
  if (!chunks_gone) free_chunks.bufs.push_back(std::move(owned));
}

}  // namespace

Payload Payload::Copy(std::span<const std::uint8_t> bytes) {
  if (bytes.size() <= kChunkBytes) return CopyPiece(bytes);
  std::vector<Payload> chunks;
  for (std::size_t at = 0; at < bytes.size(); at += kChunkBytes) {
    chunks.push_back(CopyPiece(
        bytes.subspan(at, std::min(kChunkBytes, bytes.size() - at))));
  }
  return Concat(chunks);
}

Payload Payload::CopyPiece(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kChunkBytes) {
    return Payload(bytes.size(), [&](std::span<std::uint8_t> out) {
      std::memcpy(out.data(), bytes.data(), bytes.size());
    });
  }
  std::unique_ptr<std::uint8_t[]> buf = TakeChunk();
  std::memcpy(buf.get(), bytes.data(), kChunkBytes);
  materialized_.fetch_add(kChunkBytes, std::memory_order_relaxed);
  return Payload(std::shared_ptr<const std::uint8_t[]>(buf.release(),
                                                       ReleaseChunk),
                 kChunkBytes, kChunkBytes);
}

Payload Payload::Zeros(std::size_t size) {
  if (size > kZeroBytes) {
    const Payload pieces[] = {Zeros(kZeroBytes), Zeros(size - kZeroBytes)};
    return Concat(pieces);
  }
  return size == 0 ? Payload() : Payload(ZeroRegion(), size, kZeroBytes);
}

Payload Payload::Concat(std::span<const Payload> pieces) {
  auto non_empty = [](const Payload& p) { return !p.empty(); };
  const auto first = std::find_if(pieces.begin(), pieces.end(), non_empty);
  if (first == pieces.end()) return Payload();
  if (std::none_of(first + 1, pieces.end(), non_empty)) return *first;
  std::vector<Payload> flat;
  std::size_t total = 0;
  for (const Payload& p : pieces) {
    if (p.empty()) continue;
    total += p.size();
    const Lazy* lazy = p.unread();
    if (lazy != nullptr && lazy->concat) {
      assert(p.offset_ == 0 && p.size_ == lazy->size);
      flat.insert(flat.end(), lazy->terms.begin(), lazy->terms.end());
    } else {
      flat.push_back(p);
    }
  }
  return Deferred(std::move(flat), total, /*concat=*/true);
}

Payload Payload::SliceConcat(std::size_t offset, std::size_t length) const {
  const Lazy& lazy = *unread();
  const std::size_t end = offset + length;
  auto start = [&](std::size_t i) { return i == 0 ? 0 : lazy.ends[i - 1]; };
  // The first piece that ends past `offset`, then on until `end`.
  std::size_t i = static_cast<std::size_t>(
      std::upper_bound(lazy.ends.begin(), lazy.ends.end(), offset) -
      lazy.ends.begin());
  if (lazy.ends[i] >= end) {
    return lazy.terms[i].Slice(offset - start(i), length);
  }
  std::vector<Payload> pieces;
  for (; i < lazy.terms.size(); ++i) {
    const std::size_t from = std::max(offset, start(i));
    const std::size_t to = std::min(end, lazy.ends[i]);
    pieces.push_back(lazy.terms[i].Slice(from - start(i), to - from));
    if (lazy.ends[i] >= end) break;
  }
  return Deferred(std::move(pieces), length, /*concat=*/true);
}

Payload Payload::Compact() const {
  if (const Lazy* lazy = unread(); lazy != nullptr && lazy->concat) {
    std::vector<Payload> pieces;
    for (const Payload& p : lazy->terms) pieces.push_back(p.Compact());
    return Concat(pieces);
  }
  if (buf_ == ZeroRegion()) return *this;
  return size_ * 2 < buffer_size_ ? Copy(*this) : *this;
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
    const Lazy* lazy = t.unread();
    const bool open = lazy != nullptr && !lazy->concat &&
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
  if (flat.empty()) return Zeros(size);
  if (flat.size() == 1) return std::move(flat[0]);
  // An unread Xor that did not fit is computed now, so no unread Xor ever
  // holds another: chains stay one level deep.
  for (const Payload& term : flat) {
    if (Lazy* l = term.unread(); l != nullptr && !l->concat) l->Read();
  }
  return Deferred(std::move(flat), size, /*concat=*/false);
}

Payload Payload::Deferred(std::vector<Payload> terms, std::size_t size,
                          bool concat) {
  auto lazy = std::make_shared<Lazy>();
  for (const Payload& t : terms) {
    if (Lazy* inner = t.unread(); inner != nullptr && inner->nested) {
      inner->Read();
    }
    lazy->nested = lazy->nested || t.unread() != nullptr;
  }
  for (std::size_t i = 0, at = 0; concat && i < terms.size(); ++i) {
    lazy->ends.push_back(at += terms[i].size());
  }
  lazy->terms = std::move(terms);
  lazy->size = size;
  lazy->concat = concat;
  Payload out(std::shared_ptr<const std::uint8_t[]>(
                  lazy, reinterpret_cast<const std::uint8_t*>(lazy.get())),
              size, size);
  out.deferred_ = 1;
  return out;
}

const std::uint8_t* Payload::Lazy::Read() {
  if (bytes != nullptr) return bytes.get();
  bytes = std::make_unique_for_overwrite<std::uint8_t[]>(size);
  if (concat) {
    std::uint8_t* at = bytes.get();
    for (const Payload& p : terms) at = std::copy(p.begin(), p.end(), at);
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
  const Lazy* lazy = unread();
  if (lazy == nullptr || !lazy->concat) return Bytes(begin(), end());
  Bytes out;
  out.reserve(size_);
  for (const Payload& p : lazy->terms) {
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

bool operator==(const Payload& a, std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace nlss::util
