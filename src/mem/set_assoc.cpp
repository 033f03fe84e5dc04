#include "mem/set_assoc.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace kb {

const char *
replacementPolicyName(ReplacementPolicy policy)
{
    switch (policy) {
      case ReplacementPolicy::LRU:    return "lru";
      case ReplacementPolicy::FIFO:   return "fifo";
      case ReplacementPolicy::Random: return "random";
    }
    return "?";
}

SetAssocCache::SetAssocCache(std::uint64_t sets, std::uint64_t ways,
                             ReplacementPolicy policy, std::uint64_t seed)
    : sets_(sets), ways_(ways), policy_(policy), rng_(seed)
{
    KB_REQUIRE(sets_ > 0 && ways_ > 0,
               "set-associative memory needs sets > 0 and ways > 0");
    // Divide rather than multiply: sets * ways can wrap in 64 bits.
    KB_REQUIRE(ways_ <= kMaxSlots / sets_, "set-associative memory of ",
               sets_, " sets x ", ways_, " ways exceeds ", kMaxSlots,
               " slots");
    table_.resize(sets_ * ways_);
    filled_.assign(sets_, 0);
    index_.reserve(sets_ * ways_);
}

std::string
SetAssocCache::name() const
{
    return "setassoc-" + std::to_string(ways_) + "w-" +
           replacementPolicyName(policy_);
}

std::uint64_t
SetAssocCache::victimIn(std::uint64_t row)
{
    if (policy_ == ReplacementPolicy::Random)
        return rng_.below(ways_);
    // LRU and FIFO both evict the first minimum stamp; they differ in
    // when the stamp is refreshed (every use vs fill only).
    const auto first = table_.begin() + static_cast<std::ptrdiff_t>(row);
    const auto oldest = std::min_element(
        first, first + static_cast<std::ptrdiff_t>(ways_),
        [](const Way &a, const Way &b) { return a.stamp < b.stamp; });
    return static_cast<std::uint64_t>(oldest - first);
}

bool
SetAssocCache::access(std::uint64_t addr, bool write)
{
    ++stats_.accesses;
    ++clock_;
    if (const std::uint32_t *slot = index_.find(addr)) {
        ++stats_.hits;
        Way &way = table_[*slot];
        way.dirty |= write;
        if (policy_ == ReplacementPolicy::LRU)
            way.stamp = clock_;
        return true;
    }

    ++stats_.misses;
    const std::uint64_t set = addr % sets_;
    const std::uint64_t row = set * ways_;
    std::uint64_t slot;
    if (filled_[set] < ways_) {
        slot = row + filled_[set]++;
    } else {
        slot = row + victimIn(row);
        const Way &victim = table_[slot];
        ++stats_.evictions;
        if (victim.dirty)
            ++stats_.writebacks;
        index_.erase(victim.addr);
    }
    table_[slot] = Way{addr, clock_, write};
    index_.insert(addr, static_cast<std::uint32_t>(slot));
    return false;
}

void
SetAssocCache::flush()
{
    for (std::uint64_t set = 0; set < sets_; ++set) {
        const Way *row = table_.data() + set * ways_;
        for (std::uint32_t i = 0; i < filled_[set]; ++i) {
            if (row[i].dirty)
                ++stats_.writebacks;
        }
    }
    std::fill(filled_.begin(), filled_.end(), 0);
    index_.clear();
}

} // namespace kb
