/**
 * @file
 * Append-only vector with inline storage for its first elements.
 *
 * SmallVec<T, N> keeps elements [0, N) in the object itself and spills
 * the rest to a std::vector, so a list that usually holds at most N
 * entries (the accesses coalesced on one MSHR, say) never touches the
 * heap. It offers only what those lists need: push_back, size,
 * indexing and in-order iteration (range-for). T must be
 * default-constructible; the N inline slots are constructed up front.
 *
 * Moving a SmallVec leaves the source empty.
 */

#ifndef PIMDSM_SIM_SMALL_VEC_HH
#define PIMDSM_SIM_SMALL_VEC_HH

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

namespace pimdsm
{

template <typename T, std::size_t N>
class SmallVec
{
    static_assert(N > 0, "use std::vector for no inline storage");

    template <typename V, typename C>
    class Iter
    {
      public:
        Iter(C *c, std::size_t i) : c_(c), i_(i) {}
        V &operator*() const { return (*c_)[i_]; }
        Iter &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }

      private:
        C *c_;
        std::size_t i_;
    };

  public:
    using iterator = Iter<T, SmallVec>;
    using const_iterator = Iter<const T, const SmallVec>;

    SmallVec() = default;

    SmallVec(SmallVec &&o) noexcept
        : head_(std::move(o.head_)), tail_(std::move(o.tail_)),
          size_(std::exchange(o.size_, 0))
    {
    }

    SmallVec &
    operator=(SmallVec &&o) noexcept
    {
        head_ = std::move(o.head_);
        tail_ = std::move(o.tail_);
        o.tail_.clear();
        size_ = std::exchange(o.size_, 0);
        return *this;
    }

    void
    push_back(T v)
    {
        if (size_ < N)
            head_[size_] = std::move(v);
        else
            tail_.push_back(std::move(v));
        ++size_;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](std::size_t i) { return i < N ? head_[i] : tail_[i - N]; }
    const T &
    operator[](std::size_t i) const
    {
        return i < N ? head_[i] : tail_[i - N];
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    std::array<T, N> head_{};
    std::vector<T> tail_;
    std::size_t size_ = 0;
};

} // namespace pimdsm

#endif // PIMDSM_SIM_SMALL_VEC_HH
