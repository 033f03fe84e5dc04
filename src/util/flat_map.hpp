/**
 * @file
 * Open-addressing hash map for word addresses.
 *
 * The replay models' residency lookups (LruCache, SetAssocCache),
 * the reuse analyzer's run-block index, buffered OPT's last-seen
 * table and PagedWordMap's page directory key everything by a 64-bit
 * word address and pay one lookup per access. (Insert-only word
 * tables over dense address ranges use PagedWordMap instead; see
 * util/paged_map.hpp.) std::unordered_map spends that budget
 * on node allocation and pointer chasing; FlatWordMap keeps the table
 * in two flat arrays (slots + occupancy bytes) with linear probing,
 * so a lookup touches one or two cache lines and insertion never
 * allocates outside the amortized table growth.
 *
 * Deletions use backward-shift compaction instead of tombstones, so a
 * table that cycles through many keys (an LRU evicting at capacity)
 * never degrades: every probe chain stays as short as if the deleted
 * keys had never existed.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace kb {

/** Flat hash map from 64-bit word addresses to @p Value. */
template <typename Value>
class FlatWordMap
{
  public:
    FlatWordMap() = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Bytes held by the slot and occupancy arrays. */
    std::size_t
    bytes() const
    {
        return slots_.capacity() * sizeof(Slot) + used_.capacity();
    }

    /** Value stored under @p key, or nullptr. */
    Value *
    find(std::uint64_t key)
    {
        if (size_ == 0)
            return nullptr;
        std::size_t i = indexOf(key);
        while (used_[i]) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            i = (i + 1) & mask_;
        }
        return nullptr;
    }

    const Value *
    find(std::uint64_t key) const
    {
        return const_cast<FlatWordMap *>(this)->find(key);
    }

    /**
     * Insert @p key with a default-constructed value unless present.
     * Returns the value slot and whether the key was inserted. The
     * pointer is invalidated by the next insertion (table growth).
     */
    std::pair<Value *, bool>
    tryEmplace(std::uint64_t key)
    {
        if ((size_ + 1) * 4 > capacity() * 3)
            grow();
        std::size_t i = indexOf(key);
        while (used_[i]) {
            if (slots_[i].key == key)
                return {&slots_[i].value, false};
            i = (i + 1) & mask_;
        }
        used_[i] = 1;
        slots_[i].key = key;
        slots_[i].value = Value{};
        ++size_;
        return {&slots_[i].value, true};
    }

    /** Insert or overwrite. */
    void
    insert(std::uint64_t key, Value value)
    {
        *tryEmplace(key).first = std::move(value);
    }

    /** Remove @p key; false if absent. */
    bool
    erase(std::uint64_t key)
    {
        if (size_ == 0)
            return false;
        std::size_t i = indexOf(key);
        while (used_[i]) {
            if (slots_[i].key == key) {
                shiftBackward(i);
                --size_;
                return true;
            }
            i = (i + 1) & mask_;
        }
        return false;
    }

    void
    clear()
    {
        std::fill(used_.begin(), used_.end(), 0);
        size_ = 0;
    }

    /** Pre-size the table for @p n keys without rehashing later. */
    void
    reserve(std::size_t n)
    {
        std::size_t want = 16;
        while (want * 3 < n * 4)
            want *= 2;
        if (want > capacity())
            rehash(want);
    }

  private:
    struct Slot
    {
        std::uint64_t key;
        Value value;
    };

    std::size_t capacity() const { return slots_.size(); }

    std::size_t
    indexOf(std::uint64_t key) const
    {
        // Fibonacci multiplier + xor-fold: sequential word addresses
        // (the common trace pattern) land in well-spread slots.
        std::uint64_t h = key * 0x9E3779B97F4A7C15ULL;
        h ^= h >> 32;
        return static_cast<std::size_t>(h) & mask_;
    }

    void
    grow()
    {
        rehash(capacity() == 0 ? 16 : capacity() * 2);
    }

    void
    rehash(std::size_t new_capacity)
    {
        std::vector<Slot> old_slots = std::move(slots_);
        std::vector<std::uint8_t> old_used = std::move(used_);
        slots_.assign(new_capacity, Slot{});
        used_.assign(new_capacity, 0);
        mask_ = new_capacity - 1;
        for (std::size_t i = 0; i < old_slots.size(); ++i) {
            if (!old_used[i])
                continue;
            std::size_t j = indexOf(old_slots[i].key);
            while (used_[j])
                j = (j + 1) & mask_;
            used_[j] = 1;
            slots_[j] = std::move(old_slots[i]);
        }
    }

    /**
     * Backward-shift deletion: pull every displaced follower of the
     * probe chain one hole earlier so lookups never need tombstones.
     */
    void
    shiftBackward(std::size_t hole)
    {
        std::size_t j = hole;
        for (;;) {
            j = (j + 1) & mask_;
            if (!used_[j])
                break;
            const std::size_t ideal = indexOf(slots_[j].key);
            // Slot j may move into the hole iff the hole lies on j's
            // probe path, i.e. ideal .. j (cyclically) covers it.
            if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        used_[hole] = 0;
    }

    std::vector<Slot> slots_;
    std::vector<std::uint8_t> used_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
};

} // namespace kb
