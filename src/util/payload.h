// Payload: the simulator's one representation of data bytes on the I/O
// path.  A payload is a refcounted, immutable view of a byte buffer, so
// handing one from host to blade, cache frame, replica, flash entry, RAID
// unit and disk extent copies a pointer, never the bytes.  Bytes are
// materialized (written into a fresh buffer) only through the copy-on-write
// constructor and the helpers built on it, and by the first read of a
// deferred XOR (Xor) or concatenation (Concat); every such buffer is
// counted in materialized_bytes().  Zeros are a view of one shared region
// and are never materialized.
//
// A deferred payload computes its bytes on first read without a lock, so
// that read must not race another read of the same payload on a second
// thread.  Nothing in the simulator shares payloads across threads.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/bytes.h"

namespace nlss::util {

class Payload {
 public:
  /// Empty payload (size 0).
  Payload() = default;

  /// Copy-on-write construction: allocate `size` fresh bytes, let `fill`
  /// write all of them through a std::span<std::uint8_t>, then freeze the
  /// buffer.  The only place a payload's bytes are ever writable.
  template <typename Fill>
  explicit Payload(std::size_t size, Fill&& fill)
      : size_(size), buffer_size_(size) {
    if (size == 0) return;
    auto buf = std::make_shared_for_overwrite<std::uint8_t[]>(size);
    std::forward<Fill>(fill)(std::span<std::uint8_t>(buf.get(), size));
    buf_ = std::move(buf);
    materialized_.fetch_add(size, std::memory_order_relaxed);
  }

  /// Chunk size of a large Copy.
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  /// A fresh copy of `bytes`.  Past kChunkBytes it is a Concat of
  /// kChunkBytes buffers, so a page or RAID unit sliced from a large host
  /// write at a chunk boundary is a whole buffer.  Chunks are recycled
  /// through a per-thread free list.
  static Payload Copy(std::span<const std::uint8_t> bytes);
  /// `size` zero bytes: a view of one shared region that is never written.
  static Payload Zeros(std::size_t size);
  /// `pieces` back to back.  A lone non-empty piece is shared as is.  Two
  /// or more are kept as a deferred concatenation, whose bytes are gathered
  /// into one buffer the first time any copy reads them; an unread
  /// concatenation among the pieces contributes its own pieces.
  static Payload Concat(std::span<const Payload> pieces);

  /// The XOR of equal-size `terms`.  Its bytes are produced in one pass the
  /// first time any copy reads them, then shared.  Two identical views
  /// (same buffer, offset and size) cancel, and a term that is itself an
  /// unread Xor contributes its own terms, so the result may be one of the
  /// terms itself (Xor({a, b, a}) is b).  The flattened list never holds
  /// more than twice as many terms as were given: an unread Xor that would
  /// not fit is computed here instead and kept as one term.  An unread
  /// concatenation is an ordinary term.
  static Payload Xor(std::span<const Payload> terms);

  /// View of `length` bytes starting at `offset` (shares the buffer).  Of an
  /// unread concatenation: a view of one piece, or a smaller concatenation
  /// when the range crosses pieces.
  Payload Slice(std::size_t offset, std::size_t length) const {
    assert(offset + length <= size_);
    if (length == 0) return {};
    if (const Lazy* l = unread(); l != nullptr && l->concat) {
      return SliceConcat(offset, length);
    }
    Payload out = *this;
    out.offset_ += offset;
    out.size_ = length;
    return out;
  }

  /// This view, or a fresh copy of it when it is less than half of the
  /// buffer it keeps alive.  For holders that outlive the buffer's other
  /// users, so a small view never pins a much larger dead buffer.  An
  /// unread concatenation compacts piece by piece, and zeros stay shared.
  Payload Compact() const;

  const std::uint8_t* data() const {
    return (deferred_ ? lazy()->Read() : buf_.get()) + offset_;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size_; }
  operator std::span<const std::uint8_t>() const { return {data(), size_}; }

  /// Copy out into caller-owned bytes.  Counted like any other
  /// materialization; an unread concatenation is gathered straight from its
  /// pieces and stays unread.
  Bytes ToBytes() const;

  /// Bytes written into fresh buffers by this process so far.  A host-side
  /// cost counter: it never feeds a simulated result or an obs digest.
  static std::uint64_t materialized_bytes() {
    return materialized_.load(std::memory_order_relaxed);
  }

  friend bool operator==(const Payload& a, std::span<const std::uint8_t> b);

 private:
  /// A deferred XOR or concatenation: its terms (or pieces) until the first
  /// read, its bytes after.
  struct Lazy {
    std::vector<Payload> terms;
    std::vector<std::size_t> ends;  // concatenation: end offset of each piece
    std::size_t size = 0;
    std::unique_ptr<std::uint8_t[]> bytes;
    bool concat = false;
    bool nested = false;  // some term is itself unread

    const std::uint8_t* Read();
  };

  /// The deferred node this payload views, or null.
  Lazy* lazy() const {
    return deferred_ ? reinterpret_cast<Lazy*>(
                           const_cast<std::uint8_t*>(buf_.get()))
                     : nullptr;
  }
  /// The deferred node this payload views while it is unread, or null.
  /// A view of an unread concatenation always covers all of it.
  Lazy* unread() const {
    Lazy* l = lazy();
    return l != nullptr && l->bytes == nullptr ? l : nullptr;
  }

  Payload(std::shared_ptr<const std::uint8_t[]> buf, std::size_t size,
          std::size_t buffer_size)
      : buf_(std::move(buf)), size_(size), buffer_size_(buffer_size) {}

  /// A deferred node over `terms`.  A term that is unread and itself holds
  /// unread terms is computed first, so unread nodes nest at most one level
  /// and a first read recurses at most once.
  static Payload Deferred(std::vector<Payload> terms, std::size_t size,
                          bool concat);
  /// Copy of at most kChunkBytes; a whole chunk comes from the free list.
  static Payload CopyPiece(std::span<const std::uint8_t> bytes);
  Payload SliceConcat(std::size_t offset, std::size_t length) const;

  /// Same buffer (or deferred node), offset and size: the same bytes.
  bool SameView(const Payload& o) const {
    return buf_ == o.buf_ && offset_ == o.offset_ && size_ == o.size_;
  }

  static inline std::atomic<std::uint64_t> materialized_{0};

  // The byte buffer, or for a deferred payload its Lazy node: buf_ then owns
  // the node and points at it, which keeps a payload as small as a plain
  // view.
  std::shared_ptr<const std::uint8_t[]> buf_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
  std::size_t buffer_size_ : 63 = 0;  // bytes the shared buffer holds
  std::size_t deferred_ : 1 = 0;      // buf_ points at a Lazy
};

}  // namespace nlss::util
