/**
 * @file
 * Open-addressing hash map for the simulation hot path.
 *
 * FlatMap is a robin-hood linear-probing table: entries live in one
 * contiguous slot array (no per-node allocation, cache-friendly
 * probes), each slot records its probe distance, inserts displace
 * richer entries (bounding the variance of probe lengths), and erase
 * uses backward-shift deletion so no tombstones accumulate. It
 * replaces std::unordered_map / std::map for the per-tick lookups that
 * dominate the simulator: pending writebacks, served-transaction
 * dedup, the page map, and the page index of sim/page_blocks.hh.
 *
 * API is the std::unordered_map subset those call sites use (find /
 * operator[] / emplace / erase / at / count / clear / iteration).
 * Differences from std::unordered_map:
 *  - any insert may rehash: ALL iterators and references are
 *    invalidated by inserts (unordered_map keeps references stable).
 *    Call reserve() up front and never hold a reference across an
 *    insert (the protocol layers were audited for this).
 *  - erase invalidates iterators and shifts later slots; erase during
 *    iteration is not supported (collect keys, then erase).
 *  - iteration order is slot order: deterministic for a given
 *    insert/erase history, but not sorted. Walks that must be
 *    canonical sort keys first (see DirectoryTable::forEach).
 *
 * Keys must be trivially copyable; the hash must be deterministic
 * across runs (no pointer hashing, no seeding from time) to keep
 * simulations reproducible.
 */

#ifndef PIMDSM_SIM_FLAT_MAP_HH
#define PIMDSM_SIM_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/log.hh"
#include "sim/types.hh"

namespace pimdsm
{

/** Deterministic hash for FlatMap keys (specialize per key type). */
template <typename K>
struct FlatHash;

/** splitmix64 finalizer: full-avalanche mix of a 64-bit key. Line
 *  addresses are block-aligned (low bits zero), so identity hashing
 *  would cluster; the mix spreads them over the table. */
inline std::uint64_t
flatMix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

template <>
struct FlatHash<std::uint64_t>
{
    std::size_t
    operator()(std::uint64_t k) const
    {
        return static_cast<std::size_t>(flatMix64(k));
    }
};

/** <line, node> keys (home-side served-transaction dedup). */
template <>
struct FlatHash<std::pair<Addr, NodeId>>
{
    std::size_t
    operator()(const std::pair<Addr, NodeId> &k) const
    {
        return static_cast<std::size_t>(
            flatMix64(k.first ^
                      (static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(k.second)) *
                       0x9e3779b97f4a7c15ull)));
    }
};

template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap
{
    // std::pair of trivial members is not trivially *copyable* (its
    // assignment operator is user-provided), but copy-construction and
    // destruction are what the slot machinery actually relies on.
    static_assert(std::is_trivially_copy_constructible_v<K> &&
                      std::is_trivially_destructible_v<K>,
                  "FlatMap keys must be trivially copyable/destructible");

  public:
    using value_type = std::pair<const K, V>;

    FlatMap() = default;

    FlatMap(FlatMap &&other) noexcept { swap(other); }

    FlatMap &
    operator=(FlatMap &&other) noexcept
    {
        if (this != &other) {
            destroyAll();
            cap_ = 0;
            size_ = 0;
            slots_.reset();
            dist_.reset();
            swap(other);
        }
        return *this;
    }

    FlatMap(const FlatMap &) = delete;
    FlatMap &operator=(const FlatMap &) = delete;

    ~FlatMap() { destroyAll(); }

    template <bool Const>
    class Iter
    {
        using Map = std::conditional_t<Const, const FlatMap, FlatMap>;
        using Ref = std::conditional_t<Const, const value_type &,
                                       value_type &>;
        using Ptr = std::conditional_t<Const, const value_type *,
                                       value_type *>;

      public:
        Iter() = default;
        Iter(Map *m, std::size_t i) : m_(m), i_(i) { skipEmpty(); }

        /** const_iterator from iterator. */
        template <bool C = Const, typename = std::enable_if_t<C>>
        Iter(const Iter<false> &o) // NOLINT: implicit by design
            : m_(o.m_), i_(o.i_)
        {
        }

        Ref operator*() const { return *m_->slotAt(i_); }
        Ptr operator->() const { return m_->slotAt(i_); }

        Iter &
        operator++()
        {
            ++i_;
            skipEmpty();
            return *this;
        }

        bool
        operator==(const Iter &o) const
        {
            return i_ == o.i_;
        }
        bool
        operator!=(const Iter &o) const
        {
            return i_ != o.i_;
        }

      private:
        void
        skipEmpty()
        {
            while (m_ && i_ < m_->cap_ && m_->dist_[i_] == 0)
                ++i_;
        }

        Map *m_ = nullptr;
        std::size_t i_ = 0;

        friend class FlatMap;
        template <bool>
        friend class Iter;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, cap_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, cap_); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Size the table for @p n entries without rehashing. */
    void
    reserve(std::size_t n)
    {
        std::size_t want = 16;
        while (want * 3 / 4 < n)
            want *= 2;
        if (want > cap_)
            rehash(want);
    }

    void
    clear()
    {
        destroyAll();
        size_ = 0;
        for (std::size_t i = 0; i < cap_; ++i)
            dist_[i] = 0;
    }

    iterator
    find(const K &key)
    {
        return iterator(this, findIndex(key));
    }

    const_iterator
    find(const K &key) const
    {
        return const_iterator(this, findIndex(key));
    }

    std::size_t
    count(const K &key) const
    {
        return findIndex(key) == cap_ ? 0 : 1;
    }

    V &
    at(const K &key)
    {
        const std::size_t i = findIndex(key);
        if (i == cap_)
            panic("FlatMap::at: key not present");
        return slotAt(i)->second;
    }

    const V &
    at(const K &key) const
    {
        const std::size_t i = findIndex(key);
        if (i == cap_)
            panic("FlatMap::at: key not present");
        return slotAt(i)->second;
    }

    V &
    operator[](const K &key)
    {
        return emplace(key, V{}).first->second;
    }

    /** Insert <key, value> if absent; like unordered_map::emplace for
     *  the two-argument form (the only one the simulator uses). */
    template <typename VV>
    std::pair<iterator, bool>
    emplace(const K &key, VV &&value)
    {
        std::size_t i = findIndex(key);
        if (i != cap_)
            return {iterator(this, i), false};
        if (cap_ == 0 || (size_ + 1) * 4 > cap_ * 3)
            rehash(cap_ ? cap_ * 2 : 16);
        i = insertFresh(key, V(std::forward<VV>(value)));
        ++size_;
        return {iterator(this, i), true};
    }

    std::size_t
    erase(const K &key)
    {
        const std::size_t i = findIndex(key);
        if (i == cap_)
            return 0;
        eraseIndex(i);
        return 1;
    }

    void erase(const_iterator it) { eraseIndex(it.i_); }
    void erase(iterator it) { eraseIndex(it.i_); }

  private:
    value_type *
    slotAt(std::size_t i)
    {
        return reinterpret_cast<value_type *>(slots_.get()) + i;
    }

    const value_type *
    slotAt(std::size_t i) const
    {
        return reinterpret_cast<const value_type *>(slots_.get()) + i;
    }

    std::size_t
    homeOf(const K &key) const
    {
        return Hash{}(key) & (cap_ - 1);
    }

    std::size_t
    findIndex(const K &key) const
    {
        if (size_ == 0)
            return cap_;
        std::size_t i = homeOf(key);
        std::uint8_t d = 1;
        while (true) {
            const std::uint8_t sd = dist_[i];
            if (sd == 0 || sd < d)
                return cap_; // would have displaced it: absent
            if (sd == d && slotAt(i)->first == key)
                return i;
            i = (i + 1) & (cap_ - 1);
            ++d;
        }
    }

    /** Robin-hood insert of a key known to be absent; returns the slot
     *  where THIS key landed (later displacements don't move it before
     *  the next mutation). */
    std::size_t
    insertFresh(K key, V &&value)
    {
        std::size_t i = homeOf(key);
        std::uint8_t d = 1;
        std::size_t landed = cap_;
        K curKey = key;
        V curVal = std::move(value);
        bool carryingOriginal = true;
        while (true) {
            if (dist_[i] == 0) {
                ::new (slotAt(i)) value_type(curKey, std::move(curVal));
                dist_[i] = d;
                return carryingOriginal ? i : landed;
            }
            if (dist_[i] < d) {
                // Displace the richer resident and carry it onward.
                value_type *s = slotAt(i);
                K outKey = s->first;
                V outVal = std::move(s->second);
                std::uint8_t outDist = dist_[i];
                s->~value_type();
                ::new (s) value_type(curKey, std::move(curVal));
                std::swap(d, outDist);
                dist_[i] = outDist;
                if (carryingOriginal) {
                    landed = i;
                    carryingOriginal = false;
                }
                curKey = outKey;
                curVal = std::move(outVal);
            }
            i = (i + 1) & (cap_ - 1);
            ++d;
            if (d == 0xff)
                panic("FlatMap probe distance overflow");
        }
    }

    /** Backward-shift deletion: pull successors one slot left until a
     *  slot at its home position (dist 1) or an empty slot stops the
     *  chain. */
    void
    eraseIndex(std::size_t i)
    {
        slotAt(i)->~value_type();
        dist_[i] = 0;
        --size_;
        std::size_t prev = i;
        std::size_t next = (i + 1) & (cap_ - 1);
        while (dist_[next] > 1) {
            value_type *s = slotAt(next);
            ::new (slotAt(prev)) value_type(s->first,
                                            std::move(s->second));
            dist_[prev] = static_cast<std::uint8_t>(dist_[next] - 1);
            s->~value_type();
            dist_[next] = 0;
            prev = next;
            next = (next + 1) & (cap_ - 1);
        }
    }

    void
    rehash(std::size_t new_cap)
    {
        std::unique_ptr<std::byte[]> oldSlots = std::move(slots_);
        std::unique_ptr<std::uint8_t[]> oldDist = std::move(dist_);
        const std::size_t oldCap = cap_;

        cap_ = new_cap;
        // make_unique<byte[]> allocates via operator new[], which is
        // max_align-aligned; value_type never needs more than that.
        static_assert(alignof(value_type) <= alignof(std::max_align_t));
        slots_ = std::make_unique<std::byte[]>(cap_ * sizeof(value_type));
        dist_ = std::make_unique<std::uint8_t[]>(cap_);
        for (std::size_t i = 0; i < cap_; ++i)
            dist_[i] = 0;

        if (oldCap == 0)
            return;
        auto *old = reinterpret_cast<value_type *>(oldSlots.get());
        for (std::size_t i = 0; i < oldCap; ++i) {
            if (oldDist[i] == 0)
                continue;
            insertFresh(old[i].first, std::move(old[i].second));
            old[i].~value_type();
        }
    }

    void
    destroyAll()
    {
        for (std::size_t i = 0; i < cap_; ++i) {
            if (dist_[i] != 0)
                slotAt(i)->~value_type();
        }
    }

    void
    swap(FlatMap &other) noexcept
    {
        std::swap(cap_, other.cap_);
        std::swap(size_, other.size_);
        std::swap(slots_, other.slots_);
        std::swap(dist_, other.dist_);
    }

    std::size_t cap_ = 0;  ///< slot count, zero or a power of two
    std::size_t size_ = 0; ///< live entries
    std::unique_ptr<std::byte[]> slots_;
    /** Probe distance + 1 per slot; 0 = empty. */
    std::unique_ptr<std::uint8_t[]> dist_;
};

} // namespace pimdsm

#endif // PIMDSM_SIM_FLAT_MAP_HH
