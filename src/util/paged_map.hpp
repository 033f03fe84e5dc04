/**
 * @file
 * Insert-only paged map for word addresses.
 *
 * The analyzers' address tables (the reuse analyzer's address -> word
 * id map, streaming OPT's last-seen positions and its pass-2 word
 * ids) only ever grow, and every built-in kernel emits dense address
 * ranges. A hash table scatters those sequential addresses over the
 * whole slot array on purpose, so once the table outgrows the caches
 * nearly every probe is a DRAM miss. PagedWordMap instead stores the
 * values in fixed 64-word leaves: a key's value sits at offset
 * `key & 63` of the leaf for page `key >> 6`. Leaves live in one
 * contiguous pool, a small FlatWordMap directory maps a page to its
 * leaf, and a one-entry last-leaf cache skips the directory while
 * consecutive keys stay on one page. A sequential sweep then reads
 * its values sequentially.
 *
 * Memory: a dense range costs sizeof(Value) per word plus one
 * directory entry per 64 words. The worst case is one isolated key
 * per leaf: one whole leaf (256 B for a u32 value, 512 B for a u64
 * value) plus one directory entry, which is under
 * kDirectoryBytesPerLeaf bytes once the directory holds a few
 * entries. bytes() reports that footprint.
 *
 * The map never erases and never relocates a key's value to another
 * key's slot, so there is no tombstone or rehash logic. An absent
 * slot holds kAbsent = ~Value{0}, which callers must never store.
 * (The reuse analyzer's ids stay below its kColdId, which equals
 * kAbsent for u32, and a trace position never reaches 2^64 - 1.)
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/flat_map.hpp"

namespace kb {

/** Insert-only paged map from 64-bit word addresses to @p Value. */
template <typename Value>
class PagedWordMap
{
  public:
    static constexpr unsigned kLeafShift = 6;
    static constexpr std::size_t kLeafWords = std::size_t{1}
                                              << kLeafShift;
    static constexpr std::size_t kLeafBytes = kLeafWords * sizeof(Value);
    /// Upper bound on the directory's bytes per leaf once it holds at
    /// least 16 leaves: at most 8/3 slots per entry (load >= 3/8
    /// after a doubling) of 17 bytes each (slot plus occupancy byte).
    static constexpr std::size_t kDirectoryBytesPerLeaf = 48;
    /// Stored in every slot whose key was never inserted.
    static constexpr Value kAbsent = static_cast<Value>(~Value{0});

    std::size_t size() const { return size_; }

    /**
     * Insert @p key with a value-initialized value unless present.
     * Returns the value slot and whether the key was inserted. The
     * caller must not store kAbsent there. The pointer is invalidated
     * by the next insertion (pool growth).
     */
    std::pair<Value *, bool>
    tryEmplace(std::uint64_t key)
    {
        const std::uint64_t page = key >> kLeafShift;
        if (page != last_page_) {
            const auto [leaf, fresh] = directory_.tryEmplace(page);
            if (fresh) {
                *leaf = static_cast<std::uint32_t>(pool_.size() >>
                                                   kLeafShift);
                pool_.resize(pool_.size() + kLeafWords, kAbsent);
            }
            last_page_ = page;
            last_base_ = static_cast<std::size_t>(*leaf) << kLeafShift;
        }
        Value *v = &pool_[last_base_ + (key & (kLeafWords - 1))];
        if (*v != kAbsent)
            return {v, false};
        *v = Value{};
        ++size_;
        return {v, true};
    }

    /** Bytes held by the allocated leaves and the directory table. */
    std::size_t
    bytes() const
    {
        return directory_.size() * kLeafBytes + directory_.bytes();
    }

  private:
    /// Page keys are key >> 6 < 2^58, so ~0 never names a real page.
    static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

    FlatWordMap<std::uint32_t> directory_; ///< page -> leaf index
    std::vector<Value> pool_;              ///< leaves, 64 values each
    std::uint64_t last_page_ = kNoPage;
    std::size_t last_base_ = 0; ///< pool offset of last_page_'s leaf
    std::size_t size_ = 0;
};

} // namespace kb
