/**
 * @file
 * Unit tests for the fully associative LRU memory. The randomized
 * differential prints its seed base; set KB_SEED to replay a run.
 */

#include <cstdint>
#include <list>
#include <unordered_map>

#include <gtest/gtest.h>

#include "../seed.hpp"
#include "mem/lru_cache.hpp"
#include "util/rng.hpp"

namespace kb {
namespace {

TEST(LruCache, HitsAfterFill)
{
    LruCache c(4);
    EXPECT_FALSE(c.access(1, false));
    EXPECT_FALSE(c.access(2, false));
    EXPECT_TRUE(c.access(1, false));
    EXPECT_TRUE(c.access(2, false));
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(LruCache, EvictsLeastRecentlyUsed)
{
    LruCache c(2);
    c.access(1, false);
    c.access(2, false);
    c.access(1, false); // 2 is now LRU
    c.access(3, false); // evicts 2
    EXPECT_TRUE(c.contains(1));
    EXPECT_FALSE(c.contains(2));
    EXPECT_TRUE(c.contains(3));
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(LruCache, WritebackOnDirtyEviction)
{
    LruCache c(1);
    c.access(1, true);  // dirty
    c.access(2, false); // evicts dirty 1
    EXPECT_EQ(c.stats().writebacks, 1u);
    c.access(3, false); // evicts clean 2
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(LruCache, WriteHitMarksDirty)
{
    LruCache c(2);
    c.access(1, false);
    c.access(1, true); // hit, becomes dirty
    c.access(2, false);
    c.access(3, false); // evicts 1, dirty
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(LruCache, FlushWritesBackDirtyWords)
{
    LruCache c(4);
    c.access(1, true);
    c.access(2, false);
    c.access(3, true);
    c.flush();
    EXPECT_EQ(c.stats().writebacks, 2u);
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(LruCache, IoWordsCombinesMissesAndWritebacks)
{
    LruCache c(1);
    c.access(1, true);
    c.access(2, true);
    c.flush();
    // 2 misses, 1 dirty eviction + 1 dirty flush.
    EXPECT_EQ(c.stats().ioWords(), 4u);
}

TEST(LruCache, OccupancyNeverExceedsCapacity)
{
    LruCache c(3);
    for (std::uint64_t a = 0; a < 100; ++a) {
        c.access(a % 7, false);
        EXPECT_LE(c.occupancy(), 3u);
    }
}

TEST(LruCache, CyclicThrashMissesEverything)
{
    LruCache c(3);
    for (int rep = 0; rep < 5; ++rep)
        for (std::uint64_t a = 0; a < 4; ++a)
            c.access(a, false);
    // Capacity 3 on a cycle of 4 with LRU: every access misses.
    EXPECT_EQ(c.stats().misses, 20u);
}

TEST(LruCache, MissRatio)
{
    LruCache c(2);
    c.access(1, false);
    c.access(1, false);
    EXPECT_DOUBLE_EQ(c.stats().missRatio(), 0.5);
}

TEST(LruCache, ResetStatsKeepsContents)
{
    LruCache c(2);
    c.access(1, false);
    c.resetStats();
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_TRUE(c.contains(1));
}

/**
 * Straightforward std::list + map LRU, the textbook formulation the
 * array-backed implementation replaced; kept here as the oracle for
 * the randomized cross-check.
 */
class ReferenceLru
{
  public:
    explicit ReferenceLru(std::uint64_t capacity) : capacity_(capacity)
    {
    }

    bool
    access(std::uint64_t addr, bool write)
    {
        auto it = map_.find(addr);
        if (it != map_.end()) {
            it->second->second |= write;
            order_.splice(order_.begin(), order_, it->second);
            return true;
        }
        ++misses_;
        if (map_.size() >= capacity_) {
            const auto &victim = order_.back();
            if (victim.second)
                ++writebacks_;
            map_.erase(victim.first);
            order_.pop_back();
        }
        order_.emplace_front(addr, write);
        map_[addr] = order_.begin();
        return false;
    }

    void
    flush()
    {
        for (const auto &e : order_)
            if (e.second)
                ++writebacks_;
        order_.clear();
        map_.clear();
    }

    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

  private:
    std::uint64_t capacity_;
    std::list<std::pair<std::uint64_t, bool>> order_;
    std::unordered_map<
        std::uint64_t,
        std::list<std::pair<std::uint64_t, bool>>::iterator>
        map_;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

TEST(LruCache, RandomizedMatchesReferenceImplementation)
{
    for (const std::uint64_t cap : {1u, 2u, 7u, 32u, 257u}) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        Xoshiro256 rng(seedBase() + cap);
        LruCache cache(cap);
        ReferenceLru ref(cap);
        for (int i = 0; i < 20000; ++i) {
            // Skewed mix: hot set, cold tail, occasional fresh words.
            const std::uint64_t addr =
                rng.below(4) == 0 ? rng.below(8 * cap + 64)
                                  : rng.below(2 * cap + 8);
            const bool write = rng.below(5) == 0;
            const bool hit = cache.access(addr, write);
            const bool ref_hit = ref.access(addr, write);
            ASSERT_EQ(hit, ref_hit) << "access " << i;
        }
        cache.flush();
        ref.flush();
        EXPECT_EQ(cache.stats().misses, ref.misses());
        EXPECT_EQ(cache.stats().writebacks, ref.writebacks());
        EXPECT_EQ(cache.occupancy(), 0u);
    }
}

} // namespace
} // namespace kb
