// Move-only type-erased callable with small-buffer optimization.
//
// The event loop stores one callback per scheduled event, and the request
// path chains continuations through pools, CPU schedulers and the network.
// std::function is the wrong tool there: its inline buffer (16 bytes in
// libstdc++, copy-constructible payloads only) forces a heap allocation for
// almost every capture list on the hot path, and it requires copyability.
// UniqueFunction stores any nothrow-movable callable of up to kInlineSize
// bytes inline and only falls back to the heap beyond that. A payload that
// is trivially copyable and trivially destructible (most hot captures are
// `[this, v]`) moves by copying the buffer and has nothing to destroy; so
// does a heap payload, whose buffer holds only its pointer.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace sora {

/// Move-only `void()` callable. Callables up to kInlineSize bytes with
/// nothrow move construction live inline; larger ones are heap-allocated.
class UniqueFunction {
 public:
  /// Sized for the request-path continuations (the largest captures
  /// this + visit + a handful of ids — see ServiceInstance::issue_call).
  static constexpr std::size_t kInlineSize = 64;

  UniqueFunction() = default;
  UniqueFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, UniqueFunction> &&
                                        std::is_invocable_r_v<void, D&>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  UniqueFunction(UniqueFunction&& other) noexcept { move_from(other); }
  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  UniqueFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;
  ~UniqueFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  /// Replace the held callable with `f`, built directly in this function's
  /// storage: no temporary UniqueFunction and no relocation. The payload
  /// lands inline or on the heap by the constructor's rule.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<D, UniqueFunction>) {
      *this = std::forward<F>(f);  // an rvalue: moves take over the payload
    } else {
      static_assert(std::is_invocable_r_v<void, D&>);
      reset();
      construct<D>(std::forward<F>(f));
    }
  }

  /// True when moving this function copies its buffer and runs no payload
  /// code: it is empty, holds a heap payload (the buffer holds only the
  /// pointer), or holds a trivially copyable inline payload.
  bool moves_by_copy() const {
    return ops_ == nullptr || ops_->relocate == nullptr;
  }

  /// Destroy the held callable (and free its captures) immediately.
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct dst's payload from src's and destroy src's; null when
    /// copying the buffer does both.
    void (*relocate)(void* dst, void* src);
    /// Null when the payload has nothing to destroy.
    void (*destroy)(void* storage);
  };

  template <typename D>
  static constexpr bool kTrivial = std::is_trivially_copyable_v<D> &&
                                   std::is_trivially_destructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*static_cast<D*>(s))(); },
      kTrivial<D> ? nullptr
                  : +[](void* dst, void* src) {
                      D* from = static_cast<D*>(src);
                      ::new (dst) D(std::move(*from));
                      from->~D();
                    },
      kTrivial<D> ? nullptr
                  : +[](void* s) { static_cast<D*>(s)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**reinterpret_cast<D**>(s))(); },
      nullptr,
      [](void* s) { delete *reinterpret_cast<D**>(s); },
  };

  /// Build `f`'s payload in the (empty) storage: inline when it fits and
  /// moves without throwing, on the heap otherwise.
  template <typename D, typename F>
  void construct(F&& f) {
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  void move_from(UniqueFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(storage_, other.storage_);
      } else {
        std::memcpy(storage_, other.storage_, kInlineSize);
      }
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
};

}  // namespace sora
