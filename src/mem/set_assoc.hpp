/**
 * @file
 * Set-associative local memory with pluggable replacement policy.
 *
 * Real local memories are rarely fully associative; this model lets
 * the ablation experiment (E12) check that Kung's balance exponents
 * survive realistic associativity and cheaper replacement policies.
 *
 * The ways live in one flat, set-major table: set s owns slots
 * [s * ways, (s + 1) * ways). Ways fill in index order and only
 * flush() empties them, so a per-set fill count replaces per-way
 * valid bits and "the first free way" is simply that count. A
 * FlatWordMap from resident address to slot answers every lookup in
 * one probe, whatever the associativity: the fully associative
 * random-replacement model (one set of M ways) costs a hit no more
 * than an 8-way set does. Only a miss in a full set touches the row,
 * and then only under LRU and FIFO, which scan it for the oldest
 * stamp; Random draws its victim without looking.
 */

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mem/local_memory.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace kb {

/** Replacement policy for a set-associative memory. */
enum class ReplacementPolicy { LRU, FIFO, Random };

/** Name of a policy, for reports. */
const char *replacementPolicyName(ReplacementPolicy policy);

/**
 * Set-associative, word-granular, write-back memory.
 *
 * Capacity = sets * ways words. Addresses map to sets by modulo.
 */
class SetAssocCache : public LocalMemory
{
  public:
    /// Largest sets * ways the u32 slot index can address.
    static constexpr std::uint64_t kMaxSlots =
        std::numeric_limits<std::uint32_t>::max();

    /**
     * @param sets   number of sets (power of two recommended)
     * @param ways   associativity; sets * ways must not exceed
     *               kMaxSlots
     * @param policy replacement policy within a set
     * @param seed   RNG seed (Random policy only)
     */
    SetAssocCache(std::uint64_t sets, std::uint64_t ways,
                  ReplacementPolicy policy, std::uint64_t seed = 1);

    using LocalMemory::access;
    bool access(std::uint64_t addr, bool write) override;
    void flush() override;
    std::uint64_t capacity() const override { return sets_ * ways_; }
    std::string name() const override;

    std::uint64_t sets() const { return sets_; }
    std::uint64_t ways() const { return ways_; }

  private:
    struct Way
    {
        std::uint64_t addr = 0;
        std::uint64_t stamp = 0; ///< LRU: last use; FIFO: fill time
        bool dirty = false;
    };

    /** Way to evict from the full row starting at slot @p row. */
    std::uint64_t victimIn(std::uint64_t row);

    std::uint64_t sets_;
    std::uint64_t ways_;
    ReplacementPolicy policy_;
    std::vector<Way> table_;             ///< sets_ * ways_, set-major
    std::vector<std::uint32_t> filled_;  ///< ways in use, per set
    FlatWordMap<std::uint32_t> index_;   ///< resident addr -> slot
    std::uint64_t clock_ = 0;
    Xoshiro256 rng_;
};

} // namespace kb
