/**
 * @file
 * Trivially copyable owning callbacks for the simulator's hot paths.
 *
 * InlineFunction<R(Args...), Bytes> holds one callable in a Bytes-sized
 * inline buffer next to a single invoke pointer. It accepts only
 * trivially copyable callables that fit the buffer: the constructor is
 * constrained, so a closure capturing a std::function, a shared_ptr or
 * too much state is a compile error, not a silent heap allocation. In
 * exchange the wrapper is itself trivially copyable: copying, moving
 * and dropping it are plain byte copies with no destructor to run, so
 * event nodes, MSHR waiter lists and parked mesh messages carry
 * callbacks at the cost of a memcpy.
 *
 * Two instantiations exist: InlineCallback (the event kernel's
 * closure, sized for a Message plus a this-pointer) and
 * ComputeBase::CompletionFn (an access completion, sized for three
 * words).
 */

#ifndef PIMDSM_SIM_INLINE_CALLBACK_HH
#define PIMDSM_SIM_INLINE_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/log.hh"

namespace pimdsm
{

template <typename Signature, std::size_t Bytes>
class InlineFunction;

template <typename R, typename... Args, std::size_t Bytes>
class InlineFunction<R(Args...), Bytes>
{
  public:
    /** Inline capture budget. */
    static constexpr std::size_t kInlineBytes = Bytes;

    /** True iff a callable of type F may be stored. */
    template <typename F>
    static constexpr bool kAccepts =
        std::is_trivially_copyable_v<F> && sizeof(F) <= Bytes &&
        alignof(F) <= alignof(void *) &&
        std::is_invocable_r_v<R, F &, Args...>;

    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {} // NOLINT: implicit

    template <typename F, typename = std::enable_if_t<
                              kAccepts<std::remove_cvref_t<F>>>>
    InlineFunction(F &&fn) noexcept // NOLINT: implicit by design
    {
        emplace(std::forward<F>(fn));
    }

    /** Build @p fn directly in this object's buffer (the event queue
     *  constructs closures in their pool node this way). */
    template <typename F>
        requires kAccepts<std::remove_cvref_t<F>>
    void
    emplace(F &&fn) noexcept
    {
        using Fn = std::remove_cvref_t<F>;
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
        invoke_ = &call<Fn>;
    }

    R
    operator()(Args... args) const
    {
        if (!invoke_)
            panic("invoking an empty InlineFunction");
        return invoke_(const_cast<unsigned char *>(buf_),
                       std::forward<Args>(args)...);
    }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

  private:
    template <typename Fn>
    static R
    call(void *p, Args... args)
    {
        return (*std::launder(static_cast<Fn *>(p)))(
            std::forward<Args>(args)...);
    }

    R (*invoke_)(void *, Args...) = nullptr;
    alignas(void *) unsigned char buf_[Bytes];
};

/**
 * The event kernel's closure. The budget fits the hot closures: a
 * this-pointer plus a 40 B Message by value (mesh delivery, handler
 * occupancy) or a CompletionFn plus its tick and service class.
 */
using InlineCallback = InlineFunction<void(), 56>;

static_assert(std::is_trivially_copyable_v<InlineCallback>);
static_assert(sizeof(InlineCallback) == 64,
              "InlineCallback is not 64 B (invoke pointer + budget)");

} // namespace pimdsm

#endif // PIMDSM_SIM_INLINE_CALLBACK_HH
