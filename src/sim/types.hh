/**
 * @file
 * Fundamental simulator-wide types and address helpers.
 */

#ifndef PIMDSM_SIM_TYPES_HH
#define PIMDSM_SIM_TYPES_HH

#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

namespace pimdsm
{

/** Simulation time, in CPU cycles at 1 GHz. */
using Tick = std::uint64_t;

/** Physical/virtual address (the simulator does not distinguish). */
using Addr = std::uint64_t;

/** Node identifier; kInvalidNode marks "no node". */
using NodeId = std::int32_t;

/** Application thread identifier. */
using ThreadId = std::int32_t;

/**
 * Monotonic per-line data version used for functional checking. Only
 * Machine::bumpVersion mints versions, and it panics rather than pass
 * kVersionLimit.
 */
using Version = std::uint32_t;

constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();
constexpr NodeId kInvalidNode = -1;
constexpr Addr kInvalidAddr = std::numeric_limits<Addr>::max();
/** Largest version a line can reach. */
constexpr Version kVersionLimit = std::numeric_limits<Version>::max();

/** Panics: @p v is outside [@p lo, @p hi], the range of a @p bits-bit
 *  narrowed field (see Narrow). */
[[noreturn]] void narrowOverflow(long long v, int bits, long long lo,
                                 unsigned long long hi);
[[noreturn]] void narrowOverflow(unsigned long long v, int bits,
                                 long long lo, unsigned long long hi);

/**
 * An integer of type Wide stored in the narrower type T, for records
 * kept by the million (directory entries) or copied on every event
 * (messages). Assigning a value outside T's range panics; reads
 * convert back to Wide, so comparisons and arithmetic read as for a
 * plain Wide.
 */
template <typename T, typename Wide, Wide kInit = Wide{0}>
class Narrow
{
  public:
    Narrow() = default;

    Narrow &
    operator=(Wide v)
    {
        if (!std::in_range<T>(v)) {
            using Print = std::conditional_t<std::is_signed_v<Wide>,
                                             long long, unsigned long long>;
            narrowOverflow(static_cast<Print>(v),
                           static_cast<int>(8 * sizeof(T)),
                           std::numeric_limits<T>::min(),
                           std::numeric_limits<T>::max());
        }
        v_ = static_cast<T>(v);
        return *this;
    }

    operator Wide() const { return v_; }

  private:
    T v_ = static_cast<T>(kInit);
};

/** A NodeId held in 16 bits. Machines have at most 64 nodes (the
 *  sharer mask), so every id fits. */
using NodeId16 = Narrow<std::int16_t, NodeId, kInvalidNode>;

/** Round an address down to the enclosing block of @p block_bytes. */
constexpr Addr
blockAlign(Addr addr, std::uint64_t block_bytes)
{
    return addr & ~(block_bytes - 1);
}

/** True iff @p v is a power of two (and nonzero). */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Integer log2 of a power of two. */
constexpr int
log2i(std::uint64_t v)
{
    int r = 0;
    while (v > 1) {
        v >>= 1;
        ++r;
    }
    return r;
}

/** Ceiling division for unsigned quantities. */
constexpr std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace pimdsm

#endif // PIMDSM_SIM_TYPES_HH
