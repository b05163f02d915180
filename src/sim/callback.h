#ifndef HOMP_SIM_CALLBACK_H
#define HOMP_SIM_CALLBACK_H

/// \file callback.h
/// Move-only `void()` callable with inline storage: what the engine keeps
/// per pending event and SharedLink per transfer in flight.
///
/// A callable of at most kInlineBytes, 8-byte aligned and nothrow-movable
/// lives inside the Callback; a larger one is moved to the heap once, and
/// moving the Callback afterwards moves only that pointer. Move-only
/// captures (`std::unique_ptr`, another Callback) are accepted, and a
/// copyable callable passed as an lvalue (a `std::function`) is copied in.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace homp::sim {

class Callback {
 public:
  /// Inline capacity: 56 bytes makes the Callback one 64-byte line. On
  /// perfbench's allocation counts, 48 bytes cost under 1% more and 64
  /// bytes saved under 5%. OffloadExecution's guarded link completions
  /// (a weak_ptr, the guard's `this`, and `this` plus an index) fit.
  static constexpr std::size_t kInlineBytes = 56;

  Callback() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                     std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        o.ops_->relocate(buf_, o.buf_);
        ops_ = o.ops_;
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  /// Calls the callable; the Callback must not be empty.
  void operator()() { ops_->invoke(buf_); }

  /// False when empty: default-constructed or moved from.
  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    /// Move-construct into `dst` and end the object at `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  static constexpr std::size_t kAlign = alignof(void*);

  template <class D>
  static constexpr bool kFitsInline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= kAlign &&
                                      std::is_nothrow_move_constructible_v<D>;

  template <class D>
  static D* inline_obj(void* buf) noexcept {
    return std::launder(static_cast<D*>(buf));
  }
  template <class D>
  static D* heap_obj(void* buf) noexcept {
    return *std::launder(static_cast<D**>(buf));
  }

  template <class D>
  static constexpr Ops kInlineOps = {
      [](void* buf) { (*inline_obj<D>(buf))(); },
      [](void* dst, void* src) noexcept {
        D* from = inline_obj<D>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* buf) noexcept { inline_obj<D>(buf)->~D(); }};

  template <class D>
  static constexpr Ops kHeapOps = {
      [](void* buf) { (*heap_obj<D>(buf))(); },
      [](void* dst, void* src) noexcept { ::new (dst) D*(heap_obj<D>(src)); },
      [](void* buf) noexcept { delete heap_obj<D>(buf); }};

  void reset() noexcept {
    if (ops_ != nullptr) {
      const Ops* ops = ops_;
      ops_ = nullptr;
      ops->destroy(buf_);
    }
  }

  alignas(kAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace homp::sim

#endif  // HOMP_SIM_CALLBACK_H
