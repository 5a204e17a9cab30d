/**
 * @file
 * Small-buffer-optimized owning callback.
 *
 * InlineCallback is the event kernel's replacement for
 * std::function<void()>. Closures up to kInlineBytes are stored inline
 * in the object itself — no allocation on schedule, and event nodes
 * carrying an InlineCallback can live in a free-list pool. Larger or
 * throwing-move callables fall back to a shared_ptr-held heap copy, so
 * any callable remains accepted (source compatibility with the old
 * std::function kernel), just without the fast path.
 *
 * Copying is supported because the mesh's fault-injection Duplicate
 * path clones a pending delivery. Copying a callable that is itself
 * move-only panics at runtime (the kernel never does this; user code
 * that wants a copyable callback should capture copyable state).
 */

#ifndef PIMDSM_SIM_INLINE_CALLBACK_HH
#define PIMDSM_SIM_INLINE_CALLBACK_HH

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/log.hh"

namespace pimdsm
{

class InlineCallback
{
  public:
    /**
     * Inline capture budget. Sized so the hot closures — a captured
     * Message plus a this-pointer (mesh delivery, handler occupancy),
     * or a completion std::function plus bookkeeping — stay inline.
     * sizeof(EventNode) in the event queue is tuned around this.
     */
    static constexpr std::size_t kInlineBytes = 104;

    InlineCallback() noexcept = default;
    InlineCallback(std::nullptr_t) noexcept {} // NOLINT: implicit

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::remove_cvref_t<F>, InlineCallback>>>
    InlineCallback(F &&fn) // NOLINT: implicit by design
    {
        store(std::forward<F>(fn));
    }

    InlineCallback(InlineCallback &&other) noexcept { moveFrom(other); }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineCallback(const InlineCallback &other) { copyFrom(other); }

    InlineCallback &
    operator=(const InlineCallback &other)
    {
        if (this != &other) {
            reset();
            copyFrom(other);
        }
        return *this;
    }

    InlineCallback &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    ~InlineCallback() { reset(); }

    /**
     * Replace the held callable with @p fn, constructed directly in
     * this object's storage (the event queue builds closures in their
     * pool node this way). Another InlineCallback is relocated when
     * passed as an rvalue and copied when passed as an lvalue.
     */
    template <typename F>
    void
    assign(F &&fn)
    {
        if constexpr (std::is_same_v<std::remove_cvref_t<F>,
                                     InlineCallback>) {
            *this = std::forward<F>(fn);
        } else {
            reset();
            store(std::forward<F>(fn));
        }
    }

    void
    operator()()
    {
        if (!ops_)
            panic("invoking an empty InlineCallback");
        ops_->invoke(buf_);
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Drop the held callable (leaves the callback empty). */
    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /** True when the held callable lives inline (test/diagnostic). */
    bool storedInline() const noexcept { return ops_ && ops_->inlineFit; }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct *src into dst, then destroy *src. */
        void (*relocate)(void *dst, void *src) noexcept;
        /** Copy-construct *src into dst; null when F is move-only. */
        void (*copyTo)(void *dst, const void *src);
        void (*destroy)(void *) noexcept;
        bool inlineFit;
    };

    template <typename Fn>
    struct HeapThunk
    {
        std::shared_ptr<Fn> fn;
        void operator()() { (*fn)(); }
    };

    template <typename Fn, bool InlinePayload>
    static const Ops *
    opsFor()
    {
        static constexpr Ops ops = {
            [](void *p) { (*static_cast<Fn *>(p))(); },
            [](void *dst, void *src) noexcept {
                ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                static_cast<Fn *>(src)->~Fn();
            },
            []() -> void (*)(void *, const void *) {
                if constexpr (std::is_copy_constructible_v<Fn>) {
                    return [](void *dst, const void *src) {
                        ::new (dst) Fn(*static_cast<const Fn *>(src));
                    };
                } else {
                    return nullptr;
                }
            }(),
            [](void *p) noexcept { static_cast<Fn *>(p)->~Fn(); },
            InlinePayload,
        };
        return &ops;
    }

    /** Construct @p fn inline when it fits and moves without
     *  throwing, else behind a heap thunk. Requires an empty ops_. */
    template <typename F>
    void
    store(F &&fn)
    {
        using Fn = std::remove_cvref_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            emplace<Fn, true>(std::forward<F>(fn));
        } else {
            // Heap fallback: shared ownership keeps the wrapper
            // trivially copyable for the duplicate-delivery path.
            emplace<HeapThunk<Fn>, false>(
                HeapThunk<Fn>{std::make_shared<Fn>(std::forward<F>(fn))});
        }
    }

    template <typename Fn, bool InlinePayload, typename F>
    void
    emplace(F &&fn)
    {
        static_assert(sizeof(Fn) <= kInlineBytes);
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
        ops_ = opsFor<Fn, InlinePayload>();
    }

    void
    moveFrom(InlineCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    void
    copyFrom(const InlineCallback &other)
    {
        if (!other.ops_)
            return;
        if (!other.ops_->copyTo)
            panic("copying an InlineCallback holding a move-only "
                  "callable");
        other.ops_->copyTo(buf_, other.buf_);
        ops_ = other.ops_;
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

} // namespace pimdsm

#endif // PIMDSM_SIM_INLINE_CALLBACK_HH
