/**
 * @file
 * Unit tests for the set-associative memory and replacement policies.
 *
 * The differential suite replays seeded streams through SetAssocCache
 * and through RefSetAssocCache, the nested-vector linear-scan model it
 * replaced, and requires every access() result and every MemoryStats
 * field to agree. The seed is printed; set KB_SEED to replay a run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "kernels/matmul.hpp"
#include "mem/lru_cache.hpp"
#include "mem/set_assoc.hpp"
#include "trace/sink.hpp"
#include "util/rng.hpp"

namespace kb {
namespace {

/**
 * Reference model: the set-associative memory as it was before the
 * flat table and residency index, kept verbatim (nested per-set
 * vectors, valid bits, a linear scan per access).
 */
class RefSetAssocCache : public LocalMemory
{
  public:
    RefSetAssocCache(std::uint64_t sets, std::uint64_t ways,
                     ReplacementPolicy policy, std::uint64_t seed = 1)
        : sets_(sets), ways_(ways), policy_(policy), rng_(seed)
    {
        table_.assign(sets_, std::vector<Way>(ways_));
    }

    using LocalMemory::access;

    bool
    access(std::uint64_t addr, bool write) override
    {
        ++stats_.accesses;
        ++clock_;
        auto &set = setFor(addr);

        for (auto &way : set) {
            if (way.valid && way.addr == addr) {
                ++stats_.hits;
                way.dirty |= write;
                if (policy_ == ReplacementPolicy::LRU)
                    way.stamp = clock_;
                return true;
            }
        }

        ++stats_.misses;
        const std::size_t slot = victimIn(set);
        Way &way = set[slot];
        if (way.valid) {
            ++stats_.evictions;
            if (way.dirty)
                ++stats_.writebacks;
        }
        way = Way{addr, true, write, clock_};
        return false;
    }

    void
    flush() override
    {
        for (auto &set : table_) {
            for (auto &way : set) {
                if (way.valid && way.dirty)
                    ++stats_.writebacks;
                way = Way{};
            }
        }
    }

    std::uint64_t capacity() const override { return sets_ * ways_; }
    std::string name() const override { return "ref-setassoc"; }

  private:
    struct Way
    {
        std::uint64_t addr = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t stamp = 0; ///< LRU: last use; FIFO: fill time
    };

    std::vector<Way> &
    setFor(std::uint64_t addr)
    {
        return table_[addr % sets_];
    }

    std::size_t
    victimIn(std::vector<Way> &set)
    {
        // Invalid way first.
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (!set[i].valid)
                return i;
        }
        if (policy_ == ReplacementPolicy::Random)
            return static_cast<std::size_t>(rng_.below(set.size()));
        // LRU and FIFO both evict the minimum stamp; they differ in
        // when the stamp is refreshed (every use vs fill only).
        std::size_t victim = 0;
        std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i].stamp < best) {
                best = set[i].stamp;
                victim = i;
            }
        }
        return victim;
    }

    std::uint64_t sets_;
    std::uint64_t ways_;
    ReplacementPolicy policy_;
    std::vector<std::vector<Way>> table_;
    std::uint64_t clock_ = 0;
    Xoshiro256 rng_;
};

/** Differential seed: KB_SEED if set, else a fixed default; printed. */
std::uint64_t
testSeed()
{
    static const std::uint64_t seed = [] {
        const char *env = std::getenv("KB_SEED");
        const std::uint64_t s =
            env ? std::strtoull(env, nullptr, 0) : 0x5E7A55ULL;
        std::printf("[set_assoc_test] seed %llu (replay with KB_SEED=%llu)\n",
                    static_cast<unsigned long long>(s),
                    static_cast<unsigned long long>(s));
        return s;
    }();
    return seed;
}

/** Every MemoryStats field of @p got equals @p want's. */
::testing::AssertionResult
sameStats(const LocalMemory &got, const LocalMemory &want)
{
    const MemoryStats &a = got.stats();
    const MemoryStats &b = want.stats();
    if (a.accesses == b.accesses && a.hits == b.hits &&
        a.misses == b.misses && a.evictions == b.evictions &&
        a.writebacks == b.writebacks)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "accesses/hits/misses/evictions/writebacks " << a.accesses
           << "/" << a.hits << "/" << a.misses << "/" << a.evictions << "/"
           << a.writebacks << ", reference " << b.accesses << "/" << b.hits
           << "/" << b.misses << "/" << b.evictions << "/" << b.writebacks;
}

TEST(SetAssoc, CapacityIsSetsTimesWays)
{
    SetAssocCache c(8, 4, ReplacementPolicy::LRU);
    EXPECT_EQ(c.capacity(), 32u);
    EXPECT_EQ(c.sets(), 8u);
    EXPECT_EQ(c.ways(), 4u);
}

TEST(SetAssoc, NameEncodesConfig)
{
    SetAssocCache c(8, 4, ReplacementPolicy::FIFO);
    EXPECT_EQ(c.name(), "setassoc-4w-fifo");
}

TEST(SetAssoc, ConflictMissesWithinOneSet)
{
    // Two ways; three addresses mapping to set 0 thrash.
    SetAssocCache c(4, 2, ReplacementPolicy::LRU);
    for (int rep = 0; rep < 3; ++rep) {
        c.access(0, false);
        c.access(4, false);
        c.access(8, false);
    }
    EXPECT_EQ(c.stats().hits, 0u);
}

TEST(SetAssoc, HitsInDifferentSets)
{
    SetAssocCache c(4, 1, ReplacementPolicy::LRU);
    c.access(0, false);
    c.access(1, false);
    c.access(2, false);
    EXPECT_TRUE(c.access(0, false));
    EXPECT_TRUE(c.access(1, false));
}

TEST(SetAssoc, LruPolicyRefreshesOnUse)
{
    SetAssocCache c(1, 2, ReplacementPolicy::LRU);
    c.access(0, false);
    c.access(1, false);
    c.access(0, false); // refresh 0; victim should be 1
    c.access(2, false);
    EXPECT_TRUE(c.access(0, false));
    EXPECT_FALSE(c.access(1, false));
}

TEST(SetAssoc, FifoPolicyIgnoresUse)
{
    SetAssocCache c(1, 2, ReplacementPolicy::FIFO);
    c.access(0, false);
    c.access(1, false);
    c.access(0, false); // use does not refresh FIFO stamp
    c.access(2, false); // evicts 0 (oldest fill)
    EXPECT_FALSE(c.access(0, false));
}

TEST(SetAssoc, RandomPolicyStaysWithinCapacity)
{
    SetAssocCache c(2, 2, ReplacementPolicy::Random, 99);
    Xoshiro256 rng(5);
    for (int i = 0; i < 1000; ++i)
        c.access(rng.below(64), false);
    EXPECT_EQ(c.stats().accesses, 1000u);
    EXPECT_EQ(c.stats().hits + c.stats().misses, 1000u);
}

TEST(SetAssoc, DirtyEvictionWritesBack)
{
    SetAssocCache c(1, 1, ReplacementPolicy::LRU);
    c.access(0, true);
    c.access(1, false);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(SetAssoc, FlushCountsDirtyWords)
{
    SetAssocCache c(2, 2, ReplacementPolicy::LRU);
    c.access(0, true);
    c.access(1, true);
    c.access(2, false);
    c.flush();
    EXPECT_EQ(c.stats().writebacks, 2u);
}

/**
 * Property: a fully-set-associative configuration (1 set, W ways, LRU)
 * must behave exactly like the LruCache of capacity W.
 */
class FullyAssocEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(FullyAssocEquivalence, MatchesLruCache)
{
    const std::uint64_t ways = 8;
    SetAssocCache sa(1, ways, ReplacementPolicy::LRU);
    LruCache lru(ways);
    Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t a = rng.below(32);
        const bool w = rng.below(4) == 0;
        EXPECT_EQ(sa.access(a, w), lru.access(a, w)) << "step " << i;
    }
    EXPECT_EQ(sa.stats().misses, lru.stats().misses);
    EXPECT_EQ(sa.stats().writebacks, lru.stats().writebacks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullyAssocEquivalence,
                         ::testing::Values(1, 2, 3, 4));

struct Geometry
{
    std::uint64_t sets;
    std::uint64_t ways;
};

/**
 * Seeded random streams over 2-4x capacity with 25% writes, a
 * mid-stream flush and a refill: every access() result and every
 * stats field must match the reference after every step.
 */
TEST(SetAssocDiff, RandomStreamsMatchReference)
{
    const std::uint64_t seed = testSeed();
    const Geometry geometries[] = {{1, 1},   {4, 2},  {17, 8},
                                   {256, 8}, {1, 64}, {1, 2048}};
    for (const Geometry g : geometries) {
        for (const ReplacementPolicy policy :
             {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
              ReplacementPolicy::Random}) {
            const std::uint64_t capacity = g.sets * g.ways;
            Xoshiro256 rng(seed ^ (g.sets * 1000003 + g.ways) ^
                           static_cast<std::uint64_t>(policy) << 48);
            const std::uint64_t cache_seed = rng.next();
            SetAssocCache got(g.sets, g.ways, policy, cache_seed);
            RefSetAssocCache want(g.sets, g.ways, policy, cache_seed);
            const std::uint64_t universe = capacity * (2 + rng.below(3));
            const std::uint64_t base = rng.below(1ULL << 40);
            const std::uint64_t steps =
                std::max<std::uint64_t>(4000, 6 * capacity);
            const std::string where =
                std::to_string(g.sets) + "x" + std::to_string(g.ways) +
                " " + replacementPolicyName(policy) + " seed " +
                std::to_string(seed);
            for (std::uint64_t i = 0; i < steps; ++i) {
                if (i == steps / 2) {
                    got.flush();
                    want.flush();
                    ASSERT_TRUE(sameStats(got, want)) << where << " flush";
                }
                const std::uint64_t addr = base + rng.below(universe);
                const bool write = rng.below(4) == 0;
                ASSERT_EQ(got.access(addr, write), want.access(addr, write))
                    << where << " step " << i;
                ASSERT_TRUE(sameStats(got, want)) << where << " step " << i;
            }
            got.flush();
            want.flush();
            ASSERT_TRUE(sameStats(got, want)) << where << " final flush";
        }
    }
}

/**
 * E12's random-replacement column: matmul tiled for M/2 replayed into
 * a fully associative M-way random cache with the engine's seed.
 */
TEST(SetAssocDiff, MatmulHeadroomTraceMatchesReference)
{
    MatmulKernel kernel;
    const std::uint64_t n = 24;
    for (const std::uint64_t m : {64u, 512u, 2048u}) {
        VectorSink trace;
        kernel.emitTrace(n, m / 2, trace);
        SetAssocCache got(1, m, ReplacementPolicy::Random, 7);
        RefSetAssocCache want(1, m, ReplacementPolicy::Random, 7);
        std::size_t step = 0;
        for (const Access &a : trace.trace()) {
            ASSERT_EQ(got.access(a), want.access(a))
                << "m " << m << " step " << step;
            ASSERT_TRUE(sameStats(got, want)) << "m " << m << " step " << step;
            ++step;
        }
        got.flush();
        want.flush();
        EXPECT_TRUE(sameStats(got, want)) << "m " << m << " final flush";
    }
}

TEST(SetAssocDeath, RejectsGeometriesBeyondTheSlotIndex)
{
    // Exactly 2^32 slots: one past what a u32 slot index addresses.
    EXPECT_EXIT(
        { SetAssocCache c(1, 1ULL << 32, ReplacementPolicy::LRU); },
        ::testing::ExitedWithCode(1), "slots");
    EXPECT_EXIT(
        { SetAssocCache c(1ULL << 16, 1ULL << 16, ReplacementPolicy::FIFO); },
        ::testing::ExitedWithCode(1), "slots");
    // 2^33 * 2^33 wraps to 0 in 64 bits; a multiplied guard would pass.
    EXPECT_EXIT(
        { SetAssocCache c(1ULL << 33, 1ULL << 33, ReplacementPolicy::Random); },
        ::testing::ExitedWithCode(1), "slots");
}

TEST(SetAssoc, FlushThenRefillRestartsAtWayZero)
{
    SetAssocCache c(1, 4, ReplacementPolicy::FIFO);
    c.access(0, true);
    c.access(1, false);
    c.access(2, true);
    c.access(3, false);
    c.access(4, false); // evicts 0 (dirty)
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_EQ(c.stats().writebacks, 1u);
    c.flush(); // only 2 is still dirty
    EXPECT_EQ(c.stats().writebacks, 2u);

    // The refill uses every way again before evicting anything.
    for (std::uint64_t a = 10; a < 14; ++a)
        EXPECT_FALSE(c.access(a, a == 11));
    EXPECT_EQ(c.stats().evictions, 1u);
    for (std::uint64_t a = 10; a < 14; ++a)
        EXPECT_TRUE(c.access(a, false));
    EXPECT_FALSE(c.access(0, false)); // flushed words are gone

    // FIFO order restarts with the refill: 10 (way 0) went first,
    // then the dirty 11 goes and writes back.
    EXPECT_EQ(c.stats().evictions, 2u);
    EXPECT_EQ(c.stats().writebacks, 2u);
    EXPECT_FALSE(c.access(10, false));
    EXPECT_EQ(c.stats().writebacks, 3u);
    EXPECT_TRUE(c.access(12, true));

    // A flush counts only the dirty way (12); a second finds none.
    c.flush();
    EXPECT_EQ(c.stats().writebacks, 4u);
    c.flush();
    EXPECT_EQ(c.stats().writebacks, 4u);
}

} // namespace
} // namespace kb
