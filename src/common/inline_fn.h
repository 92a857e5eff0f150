#ifndef BDIO_COMMON_INLINE_FN_H_
#define BDIO_COMMON_INLINE_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace bdio {

/// Move-only type-erased `void()` continuation with a large inline buffer.
///
/// The simulator schedules millions of closures per run; `std::function`'s
/// 16-byte small-object buffer forces a heap allocation for almost every one
/// of them (a typical completion captures `this` plus a shared_ptr plus an
/// offset). InlineFn widens the inline buffer to `kInlineSize` bytes — sized
/// so the engine's shuffle-fetch completion (two shared_ptrs, a length, a
/// node and two trace ids) still fits — and only falls back to the heap
/// beyond that.
///
/// Type erasure is a single manage-function pointer handling invoke /
/// destroy / relocate, so sizeof(InlineFn) == kInlineSize + 8 and a move is
/// one indirect call (memcpy-like for trivially relocatable captures).
///
/// Contract:
///  - move-only; the moved-from InlineFn is empty (`!fn`).
///  - captured callables must be nothrow-move-constructible (lambdas over
///    POD, pointers, std::string, shared_ptr, std::function all are).
///  - invoking an empty InlineFn is undefined; test with operator bool.
class InlineFn {
 public:
  /// Inline capture capacity in bytes. 80 covers every hot closure in the
  /// tree (the largest, MrEngine's shuffle-fetch completion, captures 72
  /// bytes; its chunk-stream steps capture 24).
  static constexpr size_t kInlineSize = 80;

  InlineFn() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): nullptr mirrors
  // std::function's empty state.
  InlineFn(std::nullptr_t) {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): callable conversions are
  // the whole point, as with std::function.
  InlineFn(F&& f) {  // NOLINT(runtime/explicit)
    using D = std::decay_t<F>;
    // Mirror std::function: wrapping an empty nullable callable (an empty
    // std::function, a null function pointer) yields an empty InlineFn
    // rather than a live wrapper that would throw/crash when invoked.
    if constexpr (requires { f == nullptr; }) {
      if (f == nullptr) return;
    }
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      manage_ = &ManageInline<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      manage_ = &ManageHeap<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept : manage_(other.manage_) {
    if (manage_ != nullptr) {
      manage_(Op::kRelocate, other.buf_, buf_);
      other.manage_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      manage_ = other.manage_;
      if (manage_ != nullptr) {
        manage_(Op::kRelocate, other.buf_, buf_);
        other.manage_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, buf_, nullptr);
      manage_ = nullptr;
    }
  }

  explicit operator bool() const { return manage_ != nullptr; }

  void operator()() { manage_(Op::kInvoke, buf_, nullptr); }

 private:
  enum class Op { kInvoke, kDestroy, kRelocate };
  using ManageFn = void (*)(Op, void* self, void* dest);

  template <typename D>
  static void ManageInline(Op op, void* self, void* dest) {
    D* f = static_cast<D*>(self);
    switch (op) {
      case Op::kInvoke:
        (*f)();
        break;
      case Op::kDestroy:
        f->~D();
        break;
      case Op::kRelocate:
        ::new (dest) D(std::move(*f));
        f->~D();
        break;
    }
  }

  template <typename D>
  static void ManageHeap(Op op, void* self, void* dest) {
    D** slot = static_cast<D**>(self);
    switch (op) {
      case Op::kInvoke:
        (**slot)();
        break;
      case Op::kDestroy:
        delete *slot;
        break;
      case Op::kRelocate:
        ::new (dest) D*(*slot);
        break;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  ManageFn manage_ = nullptr;
};

}  // namespace bdio

#endif  // BDIO_COMMON_INLINE_FN_H_
