/**
 * @file
 * PagedWordMap tests: leaf addressing and the memory bound.
 *
 * The map's whole logic is where a key lands: page `key >> 6` picks a
 * leaf through the directory (or the last-leaf cache), offset
 * `key & 63` picks the slot. These tests pin the places that
 * arithmetic can go wrong: dense sequential keys, keys on both sides
 * of a leaf boundary (where the last-leaf cache must switch), keys
 * that wrap around 2^64, and the worst-case footprint of one isolated
 * key per leaf, which bytes() must keep within the documented bound.
 */

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "../seed.hpp"
#include "util/paged_map.hpp"
#include "util/rng.hpp"

namespace kb {
namespace {

/** Insert @p key and store @p value; expect it to be new. */
template <typename Value>
void
insertNew(PagedWordMap<Value> &map, std::uint64_t key, Value value)
{
    const auto [slot, inserted] = map.tryEmplace(key);
    ASSERT_TRUE(inserted) << "key " << key;
    EXPECT_EQ(*slot, Value{}) << "fresh value is value-initialized";
    *slot = value;
}

/** Expect @p key present with @p value. */
template <typename Value>
void
expectHas(PagedWordMap<Value> &map, std::uint64_t key, Value value)
{
    const std::size_t before = map.size();
    const auto [slot, inserted] = map.tryEmplace(key);
    EXPECT_FALSE(inserted) << "key " << key;
    EXPECT_EQ(*slot, value) << "key " << key;
    EXPECT_EQ(map.size(), before);
}

TEST(PagedWordMap, DenseSequentialKeys)
{
    constexpr std::uint64_t n = 10 * 64 + 17;
    PagedWordMap<std::uint32_t> map;
    for (std::uint64_t k = 0; k < n; ++k)
        insertNew(map, k, static_cast<std::uint32_t>(3 * k));
    EXPECT_EQ(map.size(), n);
    for (std::uint64_t k = 0; k < n; ++k)
        expectHas(map, k, static_cast<std::uint32_t>(3 * k));
    // Backwards too: every page change goes through the directory.
    for (std::uint64_t k = n; k-- > 0;)
        expectHas(map, k, static_cast<std::uint32_t>(3 * k));
    // A dense range costs one leaf per 64 keys, rounded up.
    const std::size_t leaves = (n + 63) / 64;
    EXPECT_GE(map.bytes(), leaves * PagedWordMap<std::uint32_t>::kLeafBytes);
}

TEST(PagedWordMap, KeysOnBothSidesOfALeafBoundary)
{
    // Alternate between the last slot of one leaf and the first of
    // the next, so every access switches the last-leaf cache.
    PagedWordMap<std::uint64_t> map;
    const std::vector<std::uint64_t> keys{63, 64, 127, 128, 0, 191,
                                          192, 65};
    for (const std::uint64_t k : keys)
        insertNew(map, k, k + 1000);
    EXPECT_EQ(map.size(), keys.size());
    for (int rep = 0; rep < 3; ++rep)
        for (const std::uint64_t k : keys)
            expectHas(map, k, k + 1000);
    // Neighbours of the inserted keys on the same leaves are absent.
    for (const std::uint64_t k : {62ull, 66ull, 126ull, 129ull}) {
        const auto [slot, inserted] = map.tryEmplace(k);
        EXPECT_TRUE(inserted) << "key " << k;
        *slot = 7;
    }
    EXPECT_EQ(map.size(), keys.size() + 4);
}

TEST(PagedWordMap, KeysWrapAround2To64)
{
    // top-5 .. top+10: the last page of the address space, then page 0.
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    PagedWordMap<std::uint32_t> map;
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 16; ++i)
        keys.push_back(top - 5 + i); // wraps to 0..9 after top
    for (std::size_t i = 0; i < keys.size(); ++i)
        insertNew(map, keys[i], static_cast<std::uint32_t>(i));
    EXPECT_EQ(map.size(), 16u);
    for (std::size_t i = keys.size(); i-- > 0;)
        expectHas(map, keys[i], static_cast<std::uint32_t>(i));
    // Exactly two leaves, page 2^58 - 1 and page 0, plus the
    // directory's minimal table (16 slots of 17 bytes); a third leaf
    // would reach the upper bound.
    constexpr std::size_t leaf = PagedWordMap<std::uint32_t>::kLeafBytes;
    EXPECT_GE(map.bytes(), 2 * leaf);
    EXPECT_LT(map.bytes(), 3 * leaf + 16 * 17);
}

/** One isolated key per leaf: bytes() within the documented bound. */
template <typename Value>
void
checkIsolatedKeyBound()
{
    using Map = PagedWordMap<Value>;
    for (const std::uint64_t stride : {64ull, 4096ull + 3, 1ull << 40}) {
        SCOPED_TRACE("stride " + std::to_string(stride));
        Map map;
        constexpr std::uint64_t n = 1000;
        for (std::uint64_t i = 0; i < n; ++i)
            insertNew(map, i * stride + 1, static_cast<Value>(i));
        for (std::uint64_t i = 0; i < n; ++i)
            expectHas(map, i * stride + 1, static_cast<Value>(i));
        EXPECT_EQ(map.size(), n);
        EXPECT_GE(map.bytes(), n * Map::kLeafBytes);
        EXPECT_LE(map.bytes(),
                  n * (Map::kLeafBytes + Map::kDirectoryBytesPerLeaf));
    }
}

TEST(PagedWordMap, IsolatedKeyPerLeafStaysWithinWorstCase)
{
    static_assert(PagedWordMap<std::uint32_t>::kLeafBytes == 256);
    static_assert(PagedWordMap<std::uint64_t>::kLeafBytes == 512);
    checkIsolatedKeyBound<std::uint32_t>();
    checkIsolatedKeyBound<std::uint64_t>();
}

TEST(PagedWordMap, RandomizedMatchesUnorderedMap)
{
    for (std::uint64_t s = 0; s < 4; ++s) {
        const std::uint64_t seed = seedBase() + 41 + s;
        SCOPED_TRACE("seed " + std::to_string(seed));
        Xoshiro256 rng(seed);
        PagedWordMap<std::uint64_t> map;
        std::unordered_map<std::uint64_t, std::uint64_t> ref;
        // Clustered keys around a few bases, some near 2^64, so
        // leaves are partly filled and pages interleave.
        const std::uint64_t bases[] = {0, 1ull << 33,
                                       ~0ull - 300, 12345};
        for (int op = 0; op < 20000; ++op) {
            const std::uint64_t key =
                bases[rng.below(4)] + rng.below(600);
            const auto [slot, inserted] = map.tryEmplace(key);
            const auto it = ref.find(key);
            ASSERT_EQ(inserted, it == ref.end()) << "key " << key;
            if (!inserted) {
                ASSERT_EQ(*slot, it->second) << "key " << key;
            }
            const std::uint64_t v = rng.below(1ull << 40);
            *slot = v;
            ref[key] = v;
        }
        EXPECT_EQ(map.size(), ref.size());
    }
}

} // namespace
} // namespace kb
