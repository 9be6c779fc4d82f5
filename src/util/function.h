// The simulator's one callback vocabulary.
//
// Every timed action, fabric hop, disk completion and coherence step is a
// closure.  util::Function<R(Args...)> holds one in 48 bytes of inline
// storage, so the common captures (a few ids, a pointer, a payload handle,
// a shared join) never touch the heap; a larger closure falls back to a
// single heap cell, which is still no worse than std::function.
//
// Intentional differences from std::function:
//   - move-only.  A callback is consumed once, on one path.  Copyability is
//     what made callers copy a closure "just in case", and each copy of a
//     closure past std::function's 16-byte buffer is a heap allocation plus
//     a copy of every captured string and shared_ptr.  A callback that two
//     paths may need is shared explicitly (a shared_ptr or a Join), and an
//     API that may decline a callback hands it back.
//   - wrapping a callable that tests false (an empty std::function, a null
//     function pointer) yields an empty Function, so `if (cb)` tests keep
//     their meaning across the conversion boundary;
//   - invoking an empty Function is undefined.
//
// util::FunctionRef borrows a callable for one synchronous call (visitors,
// ParallelFor): two pointers, never owns, never allocates.  util::Join fans
// n asynchronous arrivals into one completion.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace nlss::util {

template <typename Sig>
class Function;

template <typename R, typename... Args>
class Function<R(Args...)> {
 public:
  /// Largest capture stored inline (no heap).  Measured over the hot
  /// schedulers: cache flush/waiter wakeups, net transit hops, raid stripe
  /// completions all fit.
  static constexpr std::size_t kInlineBytes = 48;

  Function() noexcept = default;
  Function(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename Fn = std::remove_cvref_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Function> &&
                                        std::is_invocable_r_v<R, Fn&, Args...>>>
  Function(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (std::is_constructible_v<bool, const Fn&>) {
      if (!static_cast<bool>(f)) return;
    }
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(void*) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kOps<Fn, true>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kOps<Fn, false>;
    }
  }

  Function(Function&& other) noexcept { MoveFrom(other); }
  Function& operator=(Function&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  Function(const Function&) = delete;
  Function& operator=(const Function&) = delete;
  ~Function() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) const {
    return ops_->invoke(const_cast<unsigned char*>(buf_),
                        std::forward<Args>(args)...);
  }

  /// True when the wrapped callable lives in the inline buffer (empty
  /// functions count as inline).  Exposed for tests and allocation audits.
  bool is_inline() const noexcept { return ops_ == nullptr || ops_->inline_storage; }

 private:
  struct Ops {
    R (*invoke)(unsigned char*, Args&&...);
    void (*relocate)(unsigned char* from, unsigned char* to);  // destructive
    void (*destroy)(unsigned char*);
    bool inline_storage;
  };

  template <typename Fn, bool kInline>
  static Fn& Target(unsigned char* b) {
    if constexpr (kInline) {
      return *std::launder(reinterpret_cast<Fn*>(b));
    } else {
      return **std::launder(reinterpret_cast<Fn**>(b));
    }
  }

  template <typename Fn, bool kInline>
  static constexpr Ops kOps = {
      [](unsigned char* b, Args&&... args) -> R {
        return static_cast<R>(
            std::invoke(Target<Fn, kInline>(b), std::forward<Args>(args)...));
      },
      [](unsigned char* from, unsigned char* to) {
        if constexpr (kInline) {
          ::new (static_cast<void*>(to)) Fn(std::move(Target<Fn, true>(from)));
          Target<Fn, true>(from).~Fn();
        } else {
          ::new (static_cast<void*>(to)) Fn*(&Target<Fn, false>(from));
        }
      },
      [](unsigned char* b) {
        if constexpr (kInline) {
          Target<Fn, true>(b).~Fn();
        } else {
          delete &Target<Fn, false>(b);
        }
      },
      kInline,
  };

  void MoveFrom(Function& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }
  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  // Pointer-aligned, not max_align_t: closure captures are ids, pointers,
  // and nested Functions, and 8-byte alignment keeps sizeof(Function) at 56
  // so a sim::Event fits one plus a link in one cache line.  An over-aligned
  // capture (none exist today) would fall back to the heap cell.
  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

template <typename Sig>
class FunctionRef;

/// Non-owning view of a callable, for a parameter that is called only
/// before the callee returns.  The referenced callable must outlive it, so
/// never store one or bind a named FunctionRef to a temporary lambda.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return static_cast<R>(
              std::invoke(*static_cast<std::remove_reference_t<F>*>(obj),
                          std::forward<Args>(args)...));
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// Fan-in of `n` asynchronous arrivals: `done` runs once, on the last
/// arrival, with the AND of every arrival's result.  The arrival closures
/// share it through a shared_ptr.
class Join {
 public:
  Join(int n, Function<void(bool)> done)
      : remaining_(n), done_(std::move(done)) {}

  void Arrive(bool ok) {
    ok_ = ok_ && ok;
    if (--remaining_ == 0 && done_) done_(ok_);
  }

 private:
  int remaining_;
  bool ok_ = true;
  Function<void(bool)> done_;
};

}  // namespace nlss::util
