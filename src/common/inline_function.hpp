/**
 * @file
 * Allocation-free callable wrappers for the simulation hot path.
 *
 * `InlineFunction<Sig, Capacity>` is a move-only std::function replacement
 * with fixed inline storage and *no* heap fallback: a callable that does
 * not fit its capacity is a compile error (static_assert), never a silent
 * allocation. The event kernel schedules millions of callbacks per
 * simulated run; with std::function nearly every schedule() call paid a
 * malloc/free pair for the capture block. InlineFunction keeps the capture
 * inside the event item itself.
 */

#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace cgct {

template <typename Sig, std::size_t Capacity>
class InlineFunction; // undefined; see the partial specialization

/**
 * Move-only callable with @p Capacity bytes of inline storage and no heap
 * fallback. Empty by default; invoking an empty InlineFunction is
 * undefined (checked by the caller, exactly like std::function-by-pointer
 * use in the kernel).
 */
template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction(F &&f) noexcept
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Capacity,
                      "capture block exceeds InlineFunction capacity — "
                      "shrink the captures or raise the capacity constant");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned captures are not supported");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "captures must be nothrow-movable (the event wheel "
                      "relocates callbacks when its buckets grow)");
        ::new (static_cast<void *>(storage_)) Fn(std::forward<F>(f));
        ops_ = &opsFor<Fn>;
    }

    InlineFunction(InlineFunction &&other) noexcept : ops_(other.ops_)
    {
        if (ops_) {
            ops_->relocate(other.storage_, storage_);
            other.ops_ = nullptr;
        }
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops_ = other.ops_;
            if (ops_) {
                ops_->relocate(other.storage_, storage_);
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /** Destroy the held callable (if any); leaves the function empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    R
    operator()(Args... args)
    {
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

  private:
    struct Ops {
        R (*invoke)(void *obj, Args &&...args);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *obj) noexcept;
    };

    template <typename Fn>
    static constexpr Ops opsFor = {
        [](void *obj, Args &&...args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(obj)))(
                std::forward<Args>(args)...);
        },
        [](void *src, void *dst) noexcept {
            Fn *from = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
        },
        [](void *obj) noexcept {
            std::launder(reinterpret_cast<Fn *>(obj))->~Fn();
        },
    };

    alignas(std::max_align_t) unsigned char storage_[Capacity];
    const Ops *ops_ = nullptr;
};

} // namespace cgct
