/**
 * @file
 * Randomized differential tests for the rewritten analyzer cores.
 *
 * Three independent references pin the new implementations down:
 * the hierarchical MarkRank counter and the batched-run
 * ReuseDistanceAnalyzer diff against a self-contained copy of the
 * Fenwick-tree formulation they replaced; the multi-plane
 * MultiSetReuseAnalyzer diffs against both per-set-count analyzer
 * passes and direct SetAssocCache replay; and the streaming OPT path
 * diffs against the buffered simulateOptCurve — over every
 * registered kernel plus adversarial synthetic traces (wraparound
 * runs, all-cold streams, single-word hammers) and seeded random
 * mixes. The streaming stress also asserts the memory bound: peak
 * resident bytes stay put when the trace gets 8x longer, and count
 * only the chunk positions a trace around one chunk long needs. The
 * random mixes print their seed base; set KB_SEED to replay them.
 *
 * The fused-pipeline suite pins the chunked AnalysisPipeline and the
 * fused fully-assoc plane down the same way: one emission through the
 * chunk ring into a fused consumer must reproduce, bit for bit, the
 * separate per-analyzer passes it replaced — over every registered
 * kernel, the adversarial streams, and chunk sizes 1/7/4096 so ops
 * land on every possible chunk-boundary phase. A fully-assoc
 * scalar-vs-SIMD differential covers the run-block index and the
 * block-scan rankInc against the original per-word loops.
 *
 * The paged word tables (util/paged_map.hpp) get a sparse-address
 * differential of their own: runs on pages strided by a leaf or more,
 * some wrapping past 2^64, through both reuse-analyzer paths against
 * LruCache replay and through streaming OPT against buffered and
 * per-point OPT.
 */

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../seed.hpp"
#include "kernels/registry.hpp"
#include "mem/lru_cache.hpp"
#include "mem/opt_cache.hpp"
#include "mem/set_assoc.hpp"
#include "trace/pipeline.hpp"
#include "trace/reuse.hpp"
#include "trace/sink.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace kb {
namespace {

/**
 * The retired Fenwick-tree reuse-distance implementation, kept
 * verbatim as the differential reference: O(log T) point updates and
 * prefix sums over a marks array, with the lazy rebuild the bulk
 * cold path used. Everything the analyzer API exposes is reproduced.
 */
class FenwickReuseReference
{
  public:
    void
    access(const Access &a)
    {
        const auto [state, inserted] = words_.tryEmplace(a.addr);
        if (inserted) {
            const std::uint64_t pos = time_;
            state->last_use = time_++;
            ++cold_;
            if (a.isWrite()) {
                ++cold_writebacks_;
                state->dirty_window = 0;
            } else {
                state->dirty_window = kColdWindow;
            }
            growMarks(static_cast<std::size_t>(pos) + 1);
            if (tree_stale_) {
                marks_[pos] = 1;
            } else {
                fenwickAdd(static_cast<std::size_t>(pos), +1);
            }
            return;
        }

        const std::uint64_t now = time_++;
        const std::uint64_t prev = state->last_use;
        growMarks(static_cast<std::size_t>(now) + 1);
        ensureTree();
        const std::uint64_t until_now =
            now == 0 ? 0 : fenwickSum(static_cast<std::size_t>(now - 1));
        const std::uint64_t until_prev =
            fenwickSum(static_cast<std::size_t>(prev));
        const std::uint64_t distance = until_now - until_prev;
        if (hist_.size() <= distance)
            hist_.resize(distance + 1, 0);
        ++hist_[distance];
        fenwickAdd(static_cast<std::size_t>(prev), -1);
        fenwickAdd(static_cast<std::size_t>(now), +1);
        state->last_use = now;
        state->dirty_window = std::max(state->dirty_window, distance);
        if (a.isWrite()) {
            if (state->dirty_window == kColdWindow) {
                ++cold_writebacks_;
            } else {
                if (wb_hist_.size() <= state->dirty_window)
                    wb_hist_.resize(state->dirty_window + 1, 0);
                ++wb_hist_[state->dirty_window];
            }
            state->dirty_window = 0;
        }
    }

    const std::vector<std::uint64_t> &histogram() const { return hist_; }
    const std::vector<std::uint64_t> &
    writeHistogram() const
    {
        return wb_hist_;
    }
    std::uint64_t coldMisses() const { return cold_; }
    std::uint64_t coldWritebacks() const { return cold_writebacks_; }
    std::uint64_t accesses() const { return time_; }
    std::uint64_t distinctWords() const { return words_.size(); }

  private:
    static constexpr std::uint64_t kColdWindow =
        std::numeric_limits<std::uint64_t>::max();

    struct WordState
    {
        std::uint64_t last_use = 0;
        std::uint64_t dirty_window = 0;
    };

    void
    growMarks(std::size_t n)
    {
        if (marks_.size() >= n)
            return;
        marks_.resize(std::max(n, marks_.size() * 2 + 16), 0);
        tree_stale_ = true;
    }

    void
    ensureTree()
    {
        if (!tree_stale_)
            return;
        tree_.assign(marks_.size(), 0);
        for (std::size_t i = 1; i <= marks_.size(); ++i) {
            tree_[i - 1] += marks_[i - 1];
            const std::size_t parent = i + (i & (~i + 1));
            if (parent <= marks_.size())
                tree_[parent - 1] += tree_[i - 1];
        }
        tree_stale_ = false;
    }

    void
    fenwickAdd(std::size_t pos, std::int64_t delta)
    {
        marks_[pos] = static_cast<std::uint8_t>(
            static_cast<std::int64_t>(marks_[pos]) + delta);
        for (std::size_t i = pos + 1; i <= tree_.size();
             i += i & (~i + 1))
            tree_[i - 1] += delta;
    }

    std::uint64_t
    fenwickSum(std::size_t pos) const
    {
        std::int64_t sum = 0;
        for (std::size_t i = std::min(pos + 1, tree_.size()); i > 0;
             i -= i & (~i + 1))
            sum += tree_[i - 1];
        return static_cast<std::uint64_t>(sum);
    }

    std::vector<std::uint8_t> marks_;
    std::vector<std::int64_t> tree_;
    bool tree_stale_ = true;
    FlatWordMap<WordState> words_;
    std::vector<std::uint64_t> hist_;
    std::vector<std::uint64_t> wb_hist_;
    std::uint64_t cold_ = 0;
    std::uint64_t cold_writebacks_ = 0;
    std::uint64_t time_ = 0;
};

/** One emitted run; word-at-a-time accesses are runs of one. */
struct Run
{
    std::uint64_t base = 0;
    std::uint64_t words = 1;
    AccessType type = AccessType::Read;
};

/** Named adversarial run streams the batched paths must not bend on. */
std::vector<std::pair<std::string, std::vector<Run>>>
adversarialStreams()
{
    std::vector<std::pair<std::string, std::vector<Run>>> streams;

    // Address-space wraparound: runs crossing 2^64 exercise the
    // base+i arithmetic (addresses stay distinct modulo 2^64).
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    streams.push_back({"wraparound_runs",
                       {{top - 5, 16, AccessType::Read},
                        {top - 5, 16, AccessType::Write},
                        {top - 2, 7, AccessType::Read},
                        {3, 4, AccessType::Read}}});

    // All-cold: disjoint first-touch runs, the bulk mark path end to
    // end with no warm access ever interleaving.
    {
        std::vector<Run> runs;
        for (std::uint64_t i = 0; i < 64; ++i)
            runs.push_back({i * 1000, 100,
                            i % 3 == 0 ? AccessType::Write
                                       : AccessType::Read});
        streams.push_back({"all_cold", std::move(runs)});
    }

    // Single-word hammer: distance 0 forever, alternating dirt.
    {
        std::vector<Run> runs;
        for (std::uint64_t i = 0; i < 500; ++i)
            runs.push_back({42, 1,
                            i % 2 == 0 ? AccessType::Write
                                       : AccessType::Read});
        streams.push_back({"single_word_hammer", std::move(runs)});
    }

    // Cold/warm interleave: every run half overlaps the previous one,
    // so phase 2 flips between streak flushes and warm queries.
    {
        std::vector<Run> runs;
        for (std::uint64_t i = 0; i < 200; ++i)
            runs.push_back({i * 8, 16,
                            i % 4 == 0 ? AccessType::Write
                                       : AccessType::Read});
        streams.push_back({"half_overlap_runs", std::move(runs)});
    }
    return streams;
}

/** Seeded random run mix (lengths, overlaps and types all vary). */
std::vector<Run>
randomStream(std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    std::vector<Run> runs;
    for (int i = 0; i < 300; ++i) {
        runs.push_back({rng.below(4000), 1 + rng.below(64),
                        rng.below(3) == 0 ? AccessType::Write
                                          : AccessType::Read});
    }
    return runs;
}

/** Append the random mixes seedBase() + [first, last]. */
void
appendRandomStreams(
    std::vector<std::pair<std::string, std::vector<Run>>> &streams,
    std::uint64_t first, std::uint64_t last)
{
    for (std::uint64_t s = first; s <= last; ++s) {
        const std::uint64_t seed = seedBase() + s;
        streams.push_back(
            {"random_" + std::to_string(seed), randomStream(seed)});
    }
}

std::vector<Access>
expand(const std::vector<Run> &runs)
{
    std::vector<Access> trace;
    for (const auto &r : runs)
        for (std::uint64_t i = 0; i < r.words; ++i)
            trace.push_back(Access{r.base + i, r.type});
    return trace;
}

/** A small fixed-schedule kernel trace (m_lo keeps them fast). */
std::vector<Access>
kernelTrace(const std::string &name, std::uint64_t &schedule_m)
{
    const auto kernel = KernelRegistry::instance().shared(name);
    std::uint64_t m_lo = 0, m_hi = 0;
    kernel->defaultSweepRange(m_lo, m_hi);
    schedule_m = m_lo;
    const std::uint64_t n = kernel->regimeProblemSize(
        kernel->suggestProblemSize(schedule_m), schedule_m);
    VectorSink buffer;
    kernel->emitTrace(n, schedule_m, buffer);
    return buffer.take();
}

void
expectMatchesReference(const ReuseDistanceAnalyzer &analyzer,
                       const FenwickReuseReference &reference)
{
    EXPECT_EQ(analyzer.accesses(), reference.accesses());
    EXPECT_EQ(analyzer.coldMisses(), reference.coldMisses());
    EXPECT_EQ(analyzer.coldWritebacks(), reference.coldWritebacks());
    EXPECT_EQ(analyzer.distinctWords(), reference.distinctWords());
    EXPECT_EQ(analyzer.histogram(), reference.histogram());
    EXPECT_EQ(analyzer.writeHistogram(), reference.writeHistogram());
}

/** MarkRank against a naive bit vector, random set/clear/setRun. */
TEST(MarkRankDiff, MatchesNaiveBitVector)
{
    Xoshiro256 rng(seedBase() + 2024);
    MarkRank rank;
    std::vector<std::uint8_t> naive;
    std::vector<std::uint64_t> set_positions;

    std::uint64_t frontier = 0;
    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t roll = rng.below(10);
        if (roll < 4 || set_positions.empty()) {
            // Grow with a cold streak of 1..200 positions.
            const std::uint64_t len = 1 + rng.below(200);
            rank.grow(frontier + len);
            naive.resize(frontier + len, 0);
            rank.setRun(frontier, len);
            for (std::uint64_t i = 0; i < len; ++i) {
                naive[frontier + i] = 1;
                set_positions.push_back(frontier + i);
            }
            frontier += len;
        } else if (roll < 7) {
            // Move one mark (clear + set at the frontier), the warm
            // access pattern.
            const std::size_t pick = static_cast<std::size_t>(
                rng.below(set_positions.size()));
            const std::uint64_t pos = set_positions[pick];
            rank.clear(pos);
            naive[pos] = 0;
            rank.grow(frontier + 1);
            naive.resize(frontier + 1, 0);
            rank.set(frontier);
            naive[frontier] = 1;
            set_positions[pick] = frontier;
            ++frontier;
        } else {
            // Rank query at a random position (past and present).
            const std::uint64_t p = rng.below(frontier);
            std::uint64_t expected = 0;
            for (std::uint64_t i = 0; i <= p; ++i)
                expected += naive[i];
            ASSERT_EQ(rank.rankInc(p), expected) << "position " << p;
        }
    }
    std::uint64_t total = 0;
    for (const auto bit : naive)
        total += bit;
    EXPECT_EQ(rank.total(), total);
}

TEST(HierarchicalReuseDiff, MatchesFenwickOnAllKernels)
{
    for (const auto &name : KernelRegistry::instance().names()) {
        SCOPED_TRACE("kernel " + name);
        std::uint64_t schedule_m = 0;
        const auto trace = kernelTrace(name, schedule_m);
        ASSERT_FALSE(trace.empty());

        ReuseDistanceAnalyzer analyzer;
        FenwickReuseReference reference;
        for (const auto &a : trace) {
            analyzer.onAccess(a);
            reference.access(a);
        }
        expectMatchesReference(analyzer, reference);
    }
}

TEST(HierarchicalReuseDiff, MatchesFenwickOnAdversarialAndRandomRuns)
{
    auto streams = adversarialStreams();
    appendRandomStreams(streams, 1, 12);

    for (const auto &[label, runs] : streams) {
        SCOPED_TRACE(label);
        // Via the batched run path AND via word-at-a-time accesses —
        // both must match the reference (and hence each other).
        ReuseDistanceAnalyzer via_runs, via_words;
        FenwickReuseReference reference;
        for (const auto &r : runs) {
            via_runs.onRun(r.base, r.words, r.type);
            for (std::uint64_t i = 0; i < r.words; ++i) {
                via_words.onAccess(Access{r.base + i, r.type});
                reference.access(Access{r.base + i, r.type});
            }
        }
        expectMatchesReference(via_runs, reference);
        expectMatchesReference(via_words, reference);
    }
}

/** Every plane of one multi-set pass must equal the per-set-count
 *  analyzer pass it fused, and both must equal direct replay. */
void
expectMultiSetMatches(const std::vector<Access> &trace,
                      const std::vector<std::uint64_t> &set_counts,
                      std::uint64_t max_ways)
{
    MultiSetReuseAnalyzer multi(set_counts, max_ways);
    for (const auto &a : trace)
        multi.onAccess(a);

    for (std::size_t p = 0; p < set_counts.size(); ++p) {
        SCOPED_TRACE("sets " + std::to_string(set_counts[p]));
        SetAssocReuseAnalyzer single(set_counts[p], max_ways);
        for (const auto &a : trace)
            single.onAccess(a);

        const auto multi_curve = multi.waysCurve(p);
        const auto single_curve = single.waysCurve();
        for (std::uint64_t w = 1; w <= max_ways + 3; ++w) {
            EXPECT_EQ(multi_curve.missesAt(w), single_curve.missesAt(w))
                << "ways " << w;
            EXPECT_EQ(multi_curve.writebacksAt(w),
                      single_curve.writebacksAt(w))
                << "ways " << w;
        }
        // Ground truth within the exact range: direct replay.
        for (std::uint64_t w = 1; w <= max_ways; ++w) {
            SetAssocCache cache(set_counts[p], w,
                                ReplacementPolicy::LRU);
            for (const auto &a : trace)
                cache.access(a);
            cache.flush();
            EXPECT_EQ(multi_curve.missesAt(w), cache.stats().misses)
                << "ways " << w;
            EXPECT_EQ(multi_curve.writebacksAt(w),
                      cache.stats().writebacks)
                << "ways " << w;
        }
    }
}

TEST(MultiSetDiff, MatchesPerSetPassesAndReplayOnKernels)
{
    for (const auto &name : KernelRegistry::instance().names()) {
        SCOPED_TRACE("kernel " + name);
        std::uint64_t schedule_m = 0;
        const auto trace = kernelTrace(name, schedule_m);
        expectMultiSetMatches(trace, {1, 3, 8, 32}, 4);
    }
}

TEST(MultiSetDiff, MatchesPerSetPassesOnAdversarialAndRandomRuns)
{
    auto streams = adversarialStreams();
    appendRandomStreams(streams, 21, 26);
    for (const auto &[label, runs] : streams) {
        SCOPED_TRACE(label);
        expectMultiSetMatches(expand(runs), {1, 2, 7, 16}, 4);
    }
}

/** Every plane of @p a has @p b's ways curve, up to max_ways + 3. */
void
expectSameWaysCurves(const MultiSetReuseAnalyzer &a,
                     const MultiSetReuseAnalyzer &b)
{
    for (std::size_t p = 0; p < a.planeCount(); ++p) {
        SCOPED_TRACE("sets " + std::to_string(a.setsAt(p)));
        const auto s = a.waysCurve(p);
        const auto o = b.waysCurve(p);
        for (std::uint64_t w = 1; w <= a.maxWays() + 3; ++w) {
            EXPECT_EQ(s.missesAt(w), o.missesAt(w)) << "ways " << w;
            EXPECT_EQ(s.writebacksAt(w), o.writebacksAt(w))
                << "ways " << w;
        }
    }
}

/** SIMD row scans against the scalar oracle: identical curves. Runs
 *  feed the bulk onRun path so the compressed ordered rows engage. */
void
expectSimdMatchesScalar(const std::vector<Run> &runs,
                        const std::vector<std::uint64_t> &set_counts,
                        std::uint64_t max_ways)
{
    MultiSetReuseAnalyzer simd(set_counts, max_ways,
                               AnalyzerPath::Simd);
    MultiSetReuseAnalyzer scalar(set_counts, max_ways,
                                 AnalyzerPath::Scalar);
    for (const auto &r : runs) {
        simd.onRun(r.base, r.words, r.type);
        scalar.onRun(r.base, r.words, r.type);
    }
    expectSameWaysCurves(simd, scalar);
}

TEST(MultiSetSimdDiff, MatchesScalarOnAllKernels)
{
    // Emissions feed both analyzers directly as sinks, so the
    // kernels' run-aware onRun calls hit the bulk compressed path
    // exactly as in the production sweep.
    for (const auto &name : KernelRegistry::instance().names()) {
        SCOPED_TRACE("kernel " + name);
        const auto kernel = KernelRegistry::instance().shared(name);
        std::uint64_t m_lo = 0, m_hi = 0;
        kernel->defaultSweepRange(m_lo, m_hi);
        const std::uint64_t n = kernel->regimeProblemSize(
            kernel->suggestProblemSize(m_lo), m_lo);
        const std::vector<std::uint64_t> set_counts{1, 3, 8, 32};
        MultiSetReuseAnalyzer simd(set_counts, 8,
                                   AnalyzerPath::Simd);
        MultiSetReuseAnalyzer scalar(set_counts, 8,
                                     AnalyzerPath::Scalar);
        kernel->emitTrace(n, m_lo, simd);
        kernel->emitTrace(n, m_lo, scalar);
        for (std::size_t p = 0; p < set_counts.size(); ++p) {
            SCOPED_TRACE("sets " + std::to_string(set_counts[p]));
            const auto s = simd.waysCurve(p);
            const auto o = scalar.waysCurve(p);
            for (std::uint64_t w = 1; w <= 11; ++w) {
                EXPECT_EQ(s.missesAt(w), o.missesAt(w))
                    << "ways " << w;
                EXPECT_EQ(s.writebacksAt(w), o.writebacksAt(w))
                    << "ways " << w;
            }
        }
    }
}

TEST(MultiSetSimdDiff, MatchesScalarOnAdversarialShapes)
{
    auto streams = adversarialStreams();
    appendRandomStreams(streams, 41, 46);
    // Mid-trace escape from the u32 compressed-row address range:
    // warm small addresses first, then a run past 2^32 forces the
    // one-time demotion to stamp rows, then more small-address reuse
    // checks the demoted state carried every stamp and window over.
    {
        // `kb::Run` qualified: inside a TEST body the unqualified
        // name collides with testing::Test::Run.
        std::vector<kb::Run> runs;
        for (std::uint64_t i = 0; i < 40; ++i)
            runs.push_back({i * 16, 24,
                            i % 3 == 0 ? AccessType::Write
                                       : AccessType::Read});
        runs.push_back({(1ull << 32) - 20, 64, AccessType::Write});
        for (std::uint64_t i = 0; i < 40; ++i)
            runs.push_back({i * 16, 24,
                            i % 5 == 0 ? AccessType::Write
                                       : AccessType::Read});
        streams.push_back({"u32_range_demotion", std::move(runs)});
    }

    // Associativities off the vector width (1..3, 5, 7), a set count
    // of 1 (every access in one row, maximum victim-tie pressure),
    // and the full stride-8 shape.
    const std::vector<std::uint64_t> ways_grid{1, 2, 3, 5, 7, 8};
    for (const auto &[label, runs] : streams) {
        SCOPED_TRACE(label);
        for (const auto ways : ways_grid) {
            SCOPED_TRACE("max_ways " + std::to_string(ways));
            expectSimdMatchesScalar(runs, {1, 2, 7, 16}, ways);
        }
    }
}

/**
 * The u32 guard of the compressed rows, at its boundary. Addresses up
 * to simd::kOrderedMaxAddr fit a compressed row; 0xFFFFFFFF is the
 * kOrderedEmpty slot sentinel, so it must never enter one. Runs that
 * end exactly at the bound (and one word at it) keep the rows
 * compressed; a single access at the sentinel value demotes them.
 * Before and after, every plane's curve matches the Scalar oracle.
 */
TEST(MultiSetSimdDiff, U32GuardBoundary)
{
    static_assert(simd::kOrderedMaxAddr == 0xFFFFFFFEull);
    static_assert(simd::kOrderedEmpty == simd::kOrderedMaxAddr + 1);
    const std::uint64_t top = simd::kOrderedMaxAddr;
    const std::uint64_t sentinel = top + 1;
    const std::uint64_t seed = seedBase() + 81;
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256 rng(seed);
    const auto type = [&rng] {
        return rng.below(3) == 0 ? AccessType::Write : AccessType::Read;
    };

    // Below the guard: small-address reuse mixed with runs whose last
    // word is exactly the bound, then one word at the bound itself.
    // `kb::Run` qualified: inside a TEST body the unqualified name
    // collides with testing::Test::Run.
    std::vector<kb::Run> at_bound;
    for (int i = 0; i < 160; ++i) {
        const std::uint64_t len = 1 + rng.below(24);
        const std::uint64_t base =
            i % 4 == 0 ? top - (len - 1) : rng.below(512);
        at_bound.push_back({base, len, type()});
    }
    at_bound.push_back({top, 1, AccessType::Write});
    // Past the guard, on the demoted stamp rows: the sentinel word
    // again, runs across it, and the same small-address reuse.
    std::vector<kb::Run> past;
    for (int i = 0; i < 160; ++i) {
        const std::uint64_t len = 1 + rng.below(24);
        const std::uint64_t base =
            i % 5 == 0 ? sentinel - rng.below(len) : rng.below(512);
        past.push_back({base, len, type()});
    }

    const std::vector<std::uint64_t> set_counts{1, 2, 7, 16};
    for (const std::uint64_t ways : {1u, 7u, 8u}) {
        SCOPED_TRACE("max_ways " + std::to_string(ways));
        MultiSetReuseAnalyzer simd(set_counts, ways, AnalyzerPath::Simd);
        MultiSetReuseAnalyzer scalar(set_counts, ways,
                                     AnalyzerPath::Scalar);
        // Only stride-8 rows compress: lane padding decides which
        // max_ways reach 8.
        const std::uint64_t lanes = simd::kLaneWidth;
        const bool compressed = (ways + lanes - 1) / lanes * lanes == 8;
        EXPECT_EQ(simd.compressedRows(), compressed);

        const auto feed = [&](const std::vector<kb::Run> &runs) {
            for (const auto &r : runs) {
                simd.onRun(r.base, r.words, r.type);
                scalar.onRun(r.base, r.words, r.type);
            }
        };

        feed(at_bound);
        EXPECT_EQ(simd.compressedRows(), compressed)
            << "addresses up to kOrderedMaxAddr must stay compressed";
        expectSameWaysCurves(simd, scalar);

        simd.onAccess(Access{sentinel, AccessType::Read});
        scalar.onAccess(Access{sentinel, AccessType::Read});
        EXPECT_FALSE(simd.compressedRows())
            << "an access at kOrderedEmpty must demote the rows";
        expectSameWaysCurves(simd, scalar);

        feed(past);
        feed(at_bound);
        EXPECT_FALSE(simd.compressedRows());
        expectSameWaysCurves(simd, scalar);
    }
}

void
expectOptStreamingMatchesBuffered(const std::vector<Access> &trace,
                                  std::vector<std::uint64_t> caps,
                                  OptStreamOptions options,
                                  OptStreamStats *stats = nullptr)
{
    const auto buffered = simulateOptCurve(trace, caps);
    const auto streamed = simulateOptCurveStreaming(
        [&](TraceSink &sink) {
            for (const auto &a : trace)
                sink.onAccess(a);
        },
        caps, options, stats);
    ASSERT_EQ(streamed.capacities(), buffered.capacities());
    EXPECT_EQ(streamed.accesses(), buffered.accesses());
    for (const auto cap : buffered.capacities()) {
        EXPECT_EQ(streamed.missesAt(cap), buffered.missesAt(cap))
            << "capacity " << cap;
        EXPECT_EQ(streamed.writebacksAt(cap),
                  buffered.writebacksAt(cap))
            << "capacity " << cap;
    }
}

TEST(StreamingOptDiff, MatchesBufferedOnAllKernels)
{
    // Tiny chunks force many boundary crossings; a tiny spill budget
    // forces the disk path on every kernel-sized trace.
    OptStreamOptions options;
    options.chunk_positions = 1024;
    options.spill_threshold_bytes = 1 << 14;

    for (const auto &name : KernelRegistry::instance().names()) {
        SCOPED_TRACE("kernel " + name);
        std::uint64_t schedule_m = 0;
        const auto trace = kernelTrace(name, schedule_m);
        expectOptStreamingMatchesBuffered(
            trace,
            {1, 3, schedule_m / 2 + 1, schedule_m, 4 * schedule_m},
            options);
    }
}

TEST(StreamingOptDiff, MatchesBufferedOnAdversarialAndRandomRuns)
{
    OptStreamOptions options;
    options.chunk_positions = 256;
    options.spill_threshold_bytes = 1 << 12;

    auto streams = adversarialStreams();
    appendRandomStreams(streams, 31, 36);
    for (const auto &[label, runs] : streams) {
        SCOPED_TRACE(label);
        expectOptStreamingMatchesBuffered(expand(runs),
                                          {1, 2, 5, 16, 300}, options);
    }
}

/** The acceptance bound: peak resident analyzer memory must not grow
 *  with trace length — 8x the trace, same high-water mark. */
TEST(StreamingOptDiff, PeakResidentMemoryIndependentOfTraceLength)
{
    OptStreamOptions options;
    options.chunk_positions = 256;
    options.spill_threshold_bytes = 1 << 12;

    // Cyclic sweep over a fixed footprint: every lap past the first
    // is all warm accesses, so records accumulate at full rate.
    const auto cyclicTrace = [](std::uint64_t laps) {
        std::vector<Access> trace;
        for (std::uint64_t lap = 0; lap < laps; ++lap)
            for (std::uint64_t a = 0; a < 600; ++a)
                trace.push_back(a % 7 == 0 ? writeOf(a) : readOf(a));
        return trace;
    };

    OptStreamStats short_stats, long_stats;
    expectOptStreamingMatchesBuffered(cyclicTrace(8), {4, 64, 512},
                                      options, &short_stats);
    expectOptStreamingMatchesBuffered(cyclicTrace(64), {4, 64, 512},
                                      options, &long_stats);

    EXPECT_EQ(long_stats.positions, 8 * short_stats.positions);
    EXPECT_GT(long_stats.spilled_bytes, short_stats.spilled_bytes);
    // The bound itself: pending records never pass the spill budget
    // (+ one record) and the resident total adds only the
    // materialized chunk buffers — two with the default chunk
    // prefetch (walk buffer + standby), for the 8x trace just as for
    // the 1x.
    const std::uint64_t record = 12;
    const std::uint64_t bound = options.spill_threshold_bytes + record +
                                2 * options.chunk_positions * 8;
    EXPECT_GT(short_stats.chunks_prefetched, 0u);
    EXPECT_LE(short_stats.peak_resident_bytes, bound);
    EXPECT_LE(long_stats.peak_resident_bytes, bound);
    EXPECT_EQ(long_stats.peak_resident_bytes,
              short_stats.peak_resident_bytes)
        << "peak resident bytes must not grow with trace length";

    // Prefetch off: same curve, and the resident bound tightens back
    // to a single chunk buffer.
    options.prefetch = false;
    OptStreamStats sync_stats;
    expectOptStreamingMatchesBuffered(cyclicTrace(64), {4, 64, 512},
                                      options, &sync_stats);
    EXPECT_EQ(sync_stats.chunks_prefetched, 0u);
    EXPECT_LE(sync_stats.peak_resident_bytes,
              options.spill_threshold_bytes + record +
                  options.chunk_positions * 8);
}

/**
 * Trace lengths around one chunk: the walk materializes only the
 * positions the trace has, and peak resident bytes count the chunk
 * bytes actually allocated — one chunk, plus the prefetched standby
 * when a second chunk exists.
 */
TEST(StreamingOptDiff, ChunkBoundaryLengthsMatchBufferedWithinBound)
{
    constexpr std::uint64_t cp = 256;
    constexpr std::uint64_t record = 12;
    OptStreamOptions options;
    options.chunk_positions = cp;
    options.spill_threshold_bytes = 1 << 10;

    for (const std::uint64_t len : {cp / 3, cp - 1, cp, cp + 1}) {
        for (const bool prefetch : {true, false}) {
            SCOPED_TRACE("length " + std::to_string(len) +
                         (prefetch ? ", prefetch" : ", no prefetch"));
            options.prefetch = prefetch;
            std::vector<Access> trace;
            for (std::uint64_t i = 0; i < len; ++i) {
                const std::uint64_t addr = (i * 7) % 41;
                trace.push_back(i % 5 == 0 ? writeOf(addr) : readOf(addr));
            }
            OptStreamStats stats;
            expectOptStreamingMatchesBuffered(trace, {1, 4, 16, 40},
                                              options, &stats);
            EXPECT_EQ(stats.positions, len);
            EXPECT_EQ(stats.chunks_loaded, (len + cp - 1) / cp);
            EXPECT_EQ(stats.chunks_prefetched,
                      prefetch && len > cp ? 1u : 0u);
            // The walk buffer holds the first chunk; with prefetch a
            // second chunk is loaded into a standby buffer of its own
            // size, without prefetch into the walk buffer.
            const std::uint64_t first = std::min(len, cp);
            const std::uint64_t resident =
                first + (prefetch && len > cp ? len - cp : 0);
            EXPECT_GE(stats.peak_resident_bytes,
                      stats.peak_pending_bytes + first * 8);
            EXPECT_LE(stats.peak_resident_bytes,
                      stats.peak_pending_bytes + resident * 8);
            EXPECT_LE(stats.peak_resident_bytes,
                      options.spill_threshold_bytes + record +
                          resident * 8);
        }
    }
}

/**
 * A second emission longer than the first is fatal at its first extra
 * position — whether the recorded trace ends on a chunk boundary or
 * inside a chunk — instead of reading past the last chunk.
 */
TEST(StreamingOptDeath, LongerReemissionIsFatal)
{
    OptStreamOptions options;
    options.chunk_positions = 8;
    for (const std::uint64_t len : {8u, 13u}) {
        SCOPED_TRACE("length " + std::to_string(len));
        EXPECT_EXIT(
            {
                std::uint64_t emissions = 0;
                simulateOptCurveStreaming(
                    [&](TraceSink &sink) {
                        const std::uint64_t n = len + emissions++;
                        for (std::uint64_t i = 0; i < n; ++i)
                            sink.onAccess(readOf(i % 3));
                    },
                    {1, 2}, options);
            },
            ::testing::ExitedWithCode(1), "did not replay.*more than");
    }
}

void
expectSameReuse(const ReuseDistanceAnalyzer &a,
                const ReuseDistanceAnalyzer &b)
{
    EXPECT_EQ(a.accesses(), b.accesses());
    EXPECT_EQ(a.coldMisses(), b.coldMisses());
    EXPECT_EQ(a.coldWritebacks(), b.coldWritebacks());
    EXPECT_EQ(a.distinctWords(), b.distinctWords());
    EXPECT_EQ(a.histogram(), b.histogram());
    EXPECT_EQ(a.writeHistogram(), b.writeHistogram());
}

/**
 * The fused-pipeline contract: one emission rendered into chunk
 * buffers and fanned out to a fused consumer (multi-set planes + the
 * fully-assoc shared-clock plane) must be bit-identical to the
 * separate passes it replaced — a standalone ReuseDistanceAnalyzer
 * and a standalone MultiSetReuseAnalyzer each fed directly. Single
 * words go through onAccess and longer runs through onRun so both
 * pipeline op kinds cross every chunk-boundary phase.
 */
void
expectFusedMatchesSeparate(const std::vector<Run> &runs,
                           const std::vector<std::uint64_t> &set_counts,
                           std::uint64_t max_ways, AnalyzerPath path,
                           std::uint64_t chunk_ops)
{
    ReuseDistanceAnalyzer fully(path);
    MultiSetReuseAnalyzer multi(set_counts, max_ways, path);
    std::uint64_t total_words = 0;
    for (const auto &r : runs) {
        fully.onRun(r.base, r.words, r.type);
        multi.onRun(r.base, r.words, r.type);
        total_words += r.words;
    }

    MultiSetReuseAnalyzer fused(set_counts, max_ways, path, true);
    AnalysisPipeline pipeline(chunk_ops);
    pipeline.attach(fused);
    for (const auto &r : runs) {
        if (r.words == 1)
            pipeline.onAccess(Access{r.base, r.type});
        else
            pipeline.onRun(r.base, r.words, r.type);
    }
    pipeline.flush();
    ASSERT_EQ(pipeline.wordsDelivered(), total_words);
    ASSERT_TRUE(fused.hasFullyAssoc());

    expectSameReuse(fused.fullyAssoc(), fully);
    const auto fused_lru = fused.fullyAssocCurve();
    const auto direct_lru = fully.missCurve();
    for (const std::uint64_t m : {1u, 2u, 7u, 64u, 1000u}) {
        EXPECT_EQ(fused_lru.missesAt(m), direct_lru.missesAt(m))
            << "capacity " << m;
        EXPECT_EQ(fused_lru.writebacksAt(m), direct_lru.writebacksAt(m))
            << "capacity " << m;
    }
    for (std::size_t p = 0; p < set_counts.size(); ++p) {
        SCOPED_TRACE("sets " + std::to_string(set_counts[p]));
        const auto f = fused.waysCurve(p);
        const auto s = multi.waysCurve(p);
        for (std::uint64_t w = 1; w <= max_ways + 3; ++w) {
            EXPECT_EQ(f.missesAt(w), s.missesAt(w)) << "ways " << w;
            EXPECT_EQ(f.writebacksAt(w), s.writebacksAt(w))
                << "ways " << w;
        }
    }
}

TEST(FusedPipelineDiff, MatchesSeparatePassesOnAllKernels)
{
    // Real emissions, production shape: the kernel emits once into
    // the pipeline exactly as the engine fast path drives it, and the
    // references each get their own direct emission.
    for (const auto &name : KernelRegistry::instance().names()) {
        SCOPED_TRACE("kernel " + name);
        const auto kernel = KernelRegistry::instance().shared(name);
        std::uint64_t m_lo = 0, m_hi = 0;
        kernel->defaultSweepRange(m_lo, m_hi);
        const std::uint64_t n = kernel->regimeProblemSize(
            kernel->suggestProblemSize(m_lo), m_lo);
        const std::vector<std::uint64_t> set_counts{1, 3, 8, 32};

        for (const auto path :
             {AnalyzerPath::Scalar, AnalyzerPath::Simd}) {
            SCOPED_TRACE(std::string("path ") +
                         analyzerPathName(path));
            ReuseDistanceAnalyzer fully(path);
            MultiSetReuseAnalyzer multi(set_counts, 8, path);
            kernel->emitTrace(n, m_lo, fully);
            kernel->emitTrace(n, m_lo, multi);

            MultiSetReuseAnalyzer fused(set_counts, 8, path, true);
            AnalysisPipeline pipeline;
            pipeline.attach(fused);
            kernel->emitTrace(n, m_lo, pipeline);
            pipeline.flush();

            ASSERT_EQ(pipeline.wordsDelivered(), fully.accesses());
            EXPECT_GT(pipeline.chunksDelivered(), 0u);
            expectSameReuse(fused.fullyAssoc(), fully);
            for (std::size_t p = 0; p < set_counts.size(); ++p) {
                SCOPED_TRACE("sets " +
                             std::to_string(set_counts[p]));
                const auto f = fused.waysCurve(p);
                const auto s = multi.waysCurve(p);
                for (std::uint64_t w = 1; w <= 11; ++w) {
                    EXPECT_EQ(f.missesAt(w), s.missesAt(w))
                        << "ways " << w;
                    EXPECT_EQ(f.writebacksAt(w), s.writebacksAt(w))
                        << "ways " << w;
                }
            }
        }
    }
}

TEST(FusedPipelineDiff, MatchesSeparatePassesOnAdversarialAndRandomRuns)
{
    auto streams = adversarialStreams();
    appendRandomStreams(streams, 51, 56);
    for (const auto &[label, runs] : streams) {
        SCOPED_TRACE(label);
        for (const auto path :
             {AnalyzerPath::Scalar, AnalyzerPath::Simd}) {
            SCOPED_TRACE(std::string("path ") +
                         analyzerPathName(path));
            expectFusedMatchesSeparate(
                runs, {1, 2, 7, 16}, 8, path,
                AnalysisPipeline::kDefaultChunkOps);
        }
    }
}

TEST(FusedPipelineDiff, ChunkBoundaryStress)
{
    // Chunk size 1 delivers after every op (maximum boundary
    // crossings), 7 lands boundaries on every op-index phase of the
    // run/word mixes, 4096 is the production default. All must be
    // invisible: the consumer sees the identical op sequence.
    auto streams = adversarialStreams();
    appendRandomStreams(streams, 61, 61);
    for (const auto &[label, runs] : streams) {
        SCOPED_TRACE(label);
        for (const std::uint64_t chunk_ops : {1u, 7u, 4096u}) {
            SCOPED_TRACE("chunk_ops " + std::to_string(chunk_ops));
            for (const auto path :
                 {AnalyzerPath::Scalar, AnalyzerPath::Simd}) {
                SCOPED_TRACE(std::string("path ") +
                             analyzerPathName(path));
                expectFusedMatchesSeparate(runs, {1, 4, 16}, 4, path,
                                           chunk_ops);
            }
        }
    }
}

/** The run-block index and block-scan rankInc against the scalar
 *  per-word loops: identical histograms on streams built to hit the
 *  index (exact repeats, shorter-prefix probes, longer-run misses,
 *  overwrites that extend a registered block). */
TEST(FullyAssocSimdDiff, RunBlockIndexMatchesScalar)
{
    auto streams = adversarialStreams();
    appendRandomStreams(streams, 71, 76);
    {
        // Block-index workout. `kb::Run` qualified: inside a TEST
        // body the unqualified name collides with testing::Test::Run.
        std::vector<kb::Run> runs;
        for (int rep = 0; rep < 4; ++rep) {
            runs.push_back({0, 64, AccessType::Read});   // register/hit
            runs.push_back({0, 32, AccessType::Write});  // prefix hit
            runs.push_back({0, 100, AccessType::Read});  // miss: longer
            runs.push_back({0, 100, AccessType::Read});  // now a hit
            runs.push_back({500, 1, AccessType::Read});  // too short
            runs.push_back({32, 32, AccessType::Read});  // offset base
        }
        streams.push_back({"run_block_workout", std::move(runs)});
    }

    for (const auto &[label, runs] : streams) {
        SCOPED_TRACE(label);
        ReuseDistanceAnalyzer simd(AnalyzerPath::Simd);
        ReuseDistanceAnalyzer scalar(AnalyzerPath::Scalar);
        for (const auto &r : runs) {
            simd.onRun(r.base, r.words, r.type);
            scalar.onRun(r.base, r.words, r.type);
        }
        expectSameReuse(simd, scalar);
        const auto s = simd.missCurve();
        const auto o = scalar.missCurve();
        for (const std::uint64_t m : {1u, 3u, 16u, 250u}) {
            EXPECT_EQ(s.missesAt(m), o.missesAt(m))
                << "capacity " << m;
            EXPECT_EQ(s.writebacksAt(m), o.writebacksAt(m))
                << "capacity " << m;
        }
    }
}

/**
 * Seeded sparse run mix for the paged word tables: run bases sit on
 * pages strided by at least one 64-word leaf, half of them just below
 * 2^64 so runs wrap past it, and run lengths up to 80 words cross
 * leaf boundaries. Most leaves end up partly filled.
 */
std::vector<Run>
sparseStream(std::uint64_t seed)
{
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    std::vector<std::uint64_t> bases;
    for (const std::uint64_t stride :
         {64ull, 65ull, 4096ull + 7, 1ull << 40}) {
        for (std::uint64_t j = 0; j < 6; ++j) {
            bases.push_back(top - 40 - j * stride);
            bases.push_back(j * stride + 3);
        }
    }
    Xoshiro256 rng(seed);
    std::vector<Run> runs;
    for (int i = 0; i < 400; ++i) {
        runs.push_back({bases[rng.below(bases.size())] + rng.below(48),
                        1 + rng.below(80),
                        rng.below(3) == 0 ? AccessType::Write
                                          : AccessType::Read});
    }
    return runs;
}

/**
 * Sparse and wrapping addresses through the paged word tables: the
 * reuse analyzer on both paths against direct LruCache replay, and
 * streaming OPT against buffered OPT, whose curve in turn matches
 * per-point simulateOpt.
 */
TEST(PagedWordTableDiff, SparseWrappingAddressesMatchOracles)
{
    for (std::uint64_t s = 0; s < 4; ++s) {
        const std::uint64_t seed = seedBase() + 111 + s;
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto runs = sparseStream(seed);
        const auto trace = expand(runs);

        const std::uint64_t footprint = [&] {
            std::vector<std::uint64_t> addrs;
            for (const auto &a : trace)
                addrs.push_back(a.addr);
            std::sort(addrs.begin(), addrs.end());
            return static_cast<std::uint64_t>(
                std::unique(addrs.begin(), addrs.end()) - addrs.begin());
        }();
        const std::vector<std::uint64_t> caps{1, 7, 64, footprint / 2,
                                              footprint};
        for (const auto path :
             {AnalyzerPath::Scalar, AnalyzerPath::Simd}) {
            SCOPED_TRACE(std::string("path ") + analyzerPathName(path));
            ReuseDistanceAnalyzer rd(path);
            for (const auto &r : runs)
                rd.onRun(r.base, r.words, r.type);
            EXPECT_EQ(rd.distinctWords(), footprint);
            const auto curve = rd.missCurve();
            for (const std::uint64_t cap : caps) {
                LruCache lru(cap);
                for (const auto &a : trace)
                    lru.access(a);
                lru.flush();
                EXPECT_EQ(curve.missesAt(cap), lru.stats().misses)
                    << "capacity " << cap;
                EXPECT_EQ(curve.writebacksAt(cap),
                          lru.stats().writebacks)
                    << "capacity " << cap;
            }
        }

        OptStreamOptions options;
        options.chunk_positions = 512;
        options.spill_threshold_bytes = 1 << 12;
        expectOptStreamingMatchesBuffered(trace, caps, options);
        const auto buffered = simulateOptCurve(trace, caps);
        for (const std::uint64_t cap : {caps[1], caps[3]}) {
            const auto point = simulateOpt(trace, cap, true);
            EXPECT_EQ(buffered.missesAt(cap), point.stats.misses)
                << "capacity " << cap;
            EXPECT_EQ(buffered.writebacksAt(cap),
                      point.stats.writebacks)
                << "capacity " << cap;
        }
    }
}

/**
 * The OPT recorder's spill threshold at its boundary: pending record
 * bytes that reach exactly spill_threshold_bytes stay in memory, and
 * one record more spills every bucket. Both curves equal buffered OPT.
 */
TEST(StreamingOptDiff, SpillThresholdBoundary)
{
    constexpr std::uint64_t kRecord = 12;
    constexpr std::uint64_t kRecords = 40;
    // A cyclic sweep over 10 words: every access after the first lap
    // records one (position -> next use) pair.
    const auto cyclic = [](std::uint64_t warm) {
        std::vector<Access> trace;
        for (std::uint64_t i = 0; i < 10 + warm; ++i)
            trace.push_back(i % 4 == 0 ? writeOf(i % 10)
                                       : readOf(i % 10));
        return trace;
    };
    OptStreamOptions options;
    options.chunk_positions = 16;
    options.spill_threshold_bytes = kRecords * kRecord;

    OptStreamStats at, past;
    expectOptStreamingMatchesBuffered(cyclic(kRecords), {1, 3, 9, 10},
                                      options, &at);
    EXPECT_EQ(at.peak_pending_bytes, options.spill_threshold_bytes);
    EXPECT_EQ(at.spilled_bytes, 0u) << "spilled at the threshold";

    expectOptStreamingMatchesBuffered(cyclic(kRecords + 1),
                                      {1, 3, 9, 10}, options, &past);
    EXPECT_EQ(past.peak_pending_bytes,
              options.spill_threshold_bytes + kRecord);
    EXPECT_GT(past.spilled_bytes, 0u) << "did not spill past it";
}

/**
 * Stamp compaction in ReuseDistanceAnalyzer, at its trigger: the
 * first access or run that finds stampDomain() >= max(2^16,
 * 4 x footprint) renumbers the stamps, shrinking the domain to the
 * footprint. The clock crosses the trigger exactly twice, once by
 * single words and once by a run boundary, at footprints below 2^14
 * (the 2^16 floor binds), at it (both bind) and above it (4 x
 * footprint binds), on both paths. The curves then match direct
 * LruCache replay at capacities around the footprint.
 */
TEST(ReuseCompactionBoundary, TriggerCrossedExactlyMatchesLruReplay)
{
    constexpr std::uint64_t kFloor = 1ull << 16;
    constexpr std::uint64_t kAddr0 = 1ull << 20;
    for (const std::uint64_t footprint :
         {(1ull << 14) - 5, 1ull << 14, (1ull << 14) + 7}) {
        SCOPED_TRACE("footprint " + std::to_string(footprint));
        const std::uint64_t trigger = std::max(kFloor, 4 * footprint);
        const std::uint64_t seed = seedBase() + 91 + footprint;
        SCOPED_TRACE("seed " + std::to_string(seed));
        Xoshiro256 rng(seed);
        const auto type = [&rng] {
            return rng.below(4) == 0 ? AccessType::Write
                                     : AccessType::Read;
        };

        // Phase 1, single words: touch the whole footprint, then
        // random reuse up to exactly `trigger` accesses, then the one
        // access whose entry compacts.
        std::vector<Access> words;
        for (std::uint64_t w = 0; w < footprint; ++w)
            words.push_back({kAddr0 + w, type()});
        while (words.size() < trigger + 1)
            words.push_back({kAddr0 + rng.below(footprint), type()});
        // Phase 2, runs over the same words: their lengths sum to
        // exactly `trigger` again after phase 1's compaction, so the
        // next run's entry compacts; a few more runs follow.
        std::vector<kb::Run> runs;
        std::uint64_t domain = footprint + 1;
        while (domain < trigger) {
            const std::uint64_t len =
                std::min(1 + rng.below(64), trigger - domain);
            runs.push_back(
                {kAddr0 + rng.below(footprint - len + 1), len, type()});
            domain += len;
        }
        const std::size_t crossing = runs.size();
        for (int i = 0; i < 64; ++i) {
            const std::uint64_t len = 1 + rng.below(64);
            runs.push_back(
                {kAddr0 + rng.below(footprint - len + 1), len, type()});
        }

        // The oracle: direct LRU replay of the whole stream.
        std::vector<Access> trace = words;
        for (const auto &a : expand(runs))
            trace.push_back(a);
        const std::vector<std::uint64_t> caps{
            1, 64, footprint / 2, footprint - 1, footprint};
        std::vector<MemoryStats> lru_stats;
        for (const std::uint64_t cap : caps) {
            LruCache lru(cap);
            for (const auto &a : trace)
                lru.access(a);
            lru.flush();
            lru_stats.push_back(lru.stats());
        }

        for (const auto path :
             {AnalyzerPath::Scalar, AnalyzerPath::Simd}) {
            SCOPED_TRACE(std::string("path ") + analyzerPathName(path));
            ReuseDistanceAnalyzer rd(path);
            for (std::uint64_t i = 0; i < trigger; ++i)
                rd.onAccess(words[i]);
            EXPECT_EQ(rd.stampDomain(), trigger)
                << "compacted before the trigger";
            rd.onAccess(words[trigger]);
            EXPECT_EQ(rd.stampDomain(), footprint + 1)
                << "did not compact at the trigger";
            for (std::size_t i = 0; i < crossing; ++i)
                rd.onRun(runs[i].base, runs[i].words, runs[i].type);
            EXPECT_EQ(rd.stampDomain(), trigger)
                << "compacted before the trigger";
            rd.onRun(runs[crossing].base, runs[crossing].words,
                     runs[crossing].type);
            EXPECT_EQ(rd.stampDomain(),
                      footprint + runs[crossing].words)
                << "did not compact at the trigger";
            for (std::size_t i = crossing + 1; i < runs.size(); ++i)
                rd.onRun(runs[i].base, runs[i].words, runs[i].type);
            ASSERT_EQ(rd.distinctWords(), footprint);

            const auto curve = rd.missCurve();
            for (std::size_t i = 0; i < caps.size(); ++i) {
                EXPECT_EQ(curve.missesAt(caps[i]), lru_stats[i].misses)
                    << "capacity " << caps[i];
                EXPECT_EQ(curve.writebacksAt(caps[i]),
                          lru_stats[i].writebacks)
                    << "capacity " << caps[i];
            }
        }
    }
}

} // namespace
} // namespace kb
