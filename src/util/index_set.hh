/**
 * @file
 * Fixed-capacity ordered set of small integer indices.
 *
 * A bitset of 64-bit words plus a live count. Iteration and nth()
 * always walk members in ascending index order, which is what lets
 * the incremental arbitration candidate sets reproduce the classic
 * kernel's index-ordered scans (and their Random-selection RNG
 * consumption) exactly. All mutating operations are allocation-free
 * after construction.
 */

#ifndef SBN_UTIL_INDEX_SET_HH
#define SBN_UTIL_INDEX_SET_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace sbn {

namespace detail {

/** Select positions for every byte value: pos[b][k] is the bit index
 *  of the k-th set bit of b (0xff for k >= popcount(b)). */
struct ByteSelect
{
    std::uint8_t pos[256][8];
};

constexpr ByteSelect
makeByteSelect()
{
    ByteSelect table{};
    for (unsigned byte = 0; byte < 256; ++byte) {
        unsigned k = 0;
        for (unsigned bit = 0; bit < 8; ++bit)
            if ((byte >> bit) & 1u)
                table.pos[byte][k++] = static_cast<std::uint8_t>(bit);
        for (; k < 8; ++k)
            table.pos[byte][k] = 0xff;
    }
    return table;
}

inline constexpr ByteSelect kByteSelect = makeByteSelect();

} // namespace detail

class IndexSet
{
  public:
    IndexSet() = default;

    explicit IndexSet(std::size_t capacity) { resize(capacity); }

    /** Reset to empty with room for indices [0, capacity). */
    void
    resize(std::size_t capacity)
    {
        capacity_ = capacity;
        words_.assign((capacity + 63) / 64, 0);
        count_ = 0;
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

    bool
    contains(std::size_t index) const
    {
        sbn_assert(index < capacity_, "IndexSet contains out of range");
        return (words_[index / 64] >> (index % 64)) & 1u;
    }

    /** Add @p index; returns true if it was not already a member. */
    bool
    insert(std::size_t index)
    {
        sbn_assert(index < capacity_, "IndexSet insert out of range");
        std::uint64_t &word = words_[index / 64];
        const std::uint64_t bit = 1ull << (index % 64);
        if (word & bit)
            return false;
        word |= bit;
        ++count_;
        return true;
    }

    /** Remove @p index; returns true if it was a member. */
    bool
    erase(std::size_t index)
    {
        sbn_assert(index < capacity_, "IndexSet erase out of range");
        std::uint64_t &word = words_[index / 64];
        const std::uint64_t bit = 1ull << (index % 64);
        if (!(word & bit))
            return false;
        word &= ~bit;
        --count_;
        return true;
    }

    void
    clear()
    {
        for (auto &word : words_)
            word = 0;
        count_ = 0;
    }

    /** Union @p other in (capacities must match). */
    void
    insertAll(const IndexSet &other)
    {
        sbn_assert(other.words_.size() == words_.size(),
                   "IndexSet capacity mismatch");
        for (std::size_t w = 0; w < words_.size(); ++w) {
            const std::uint64_t added = other.words_[w] & ~words_[w];
            words_[w] |= added;
            count_ += static_cast<std::size_t>(
                __builtin_popcountll(added));
        }
    }

    /** Remove every member of @p other (capacities must match). */
    void
    eraseAll(const IndexSet &other)
    {
        sbn_assert(other.words_.size() == words_.size(),
                   "IndexSet capacity mismatch");
        for (std::size_t w = 0; w < words_.size(); ++w) {
            const std::uint64_t removed = other.words_[w] & words_[w];
            words_[w] &= ~removed;
            count_ -= static_cast<std::size_t>(
                __builtin_popcountll(removed));
        }
    }

    /** The k-th smallest member (0-based). @pre k < count() */
    std::size_t
    nth(std::size_t k) const
    {
        sbn_assert(k < count_, "IndexSet::nth out of range");
        if (words_.size() == 1)
            return selectBit(words_[0], k);
        for (std::size_t w = 0;; ++w) {
            std::uint64_t word = words_[w];
            const auto populated = static_cast<std::size_t>(
                __builtin_popcountll(word));
            if (k >= populated) {
                k -= populated;
                continue;
            }
            return w * 64 + selectBit(word, k);
        }
    }

    /**
     * First member at or after @p from, wrapping past the last index
     * to 0. @pre !empty() and from < capacity()
     */
    std::size_t
    nextCyclic(std::size_t from) const
    {
        sbn_assert(count_ != 0 && from < capacity_,
                   "IndexSet::nextCyclic on an empty set or out of range");
        std::size_t w = from / 64;
        // Bits below from in its own word are seen again, whole, only
        // after the search wraps around to that word.
        std::uint64_t word = words_[w] & (~0ull << (from % 64));
        while (word == 0) {
            if (++w == words_.size())
                w = 0;
            word = words_[w];
        }
        return w * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
    }

    /** Visit members in ascending order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t word = words_[w];
            while (word != 0) {
                const auto bit = static_cast<std::size_t>(
                    __builtin_ctzll(word));
                fn(w * 64 + bit);
                word &= word - 1;
            }
        }
    }

  private:
    /**
     * Position of the k-th (0-based) set bit of @p word. The
     * arbitration hot path calls this with a random k every grant, so
     * the common small-system case (word fits in one byte, n <= 8)
     * must be a single table load; wider words fall back to a branch-
     * free binary search over half-word popcounts (a bit-stripping
     * loop would mispredict once per call, the multiply-masked steps
     * never branch). @pre k < popcount(word)
     */
    static std::size_t
    selectBit(std::uint64_t word, std::size_t k)
    {
        if (word < 256)
            return detail::kByteSelect.pos[word][k];
        // Start the search at the word's actual width: medium systems
        // (n <= 16, say) resolve in four steps, not six.
        unsigned shift = 8;
        while ((word >> shift) >> shift != 0)
            shift <<= 1;
        std::size_t pos = 0;
        for (; shift >= 8; shift >>= 1) {
            const auto low = static_cast<std::size_t>(
                __builtin_popcountll(word &
                                     ((1ull << shift) - 1)));
            const std::size_t go = k >= low ? 1 : 0; // cmov, not jmp
            k -= go * low;
            pos += go * shift;
            word >>= go * shift;
        }
        // High bits may survive when the last step kept the low half
        // (go = 0); the answer lives in the low byte either way.
        return pos + detail::kByteSelect.pos[word & 0xff][k];
    }

    std::vector<std::uint64_t> words_;
    std::size_t capacity_ = 0;
    std::size_t count_ = 0;
};

} // namespace sbn

#endif // SBN_UTIL_INDEX_SET_HH
