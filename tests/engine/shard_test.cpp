/**
 * @file
 * Tests for process-level sharding over cell ranges: range parsing,
 * the linearized (job, point) numbering, fragment round-tripping
 * through CellFragmentWriter (doubles as raw bit patterns), and the
 * tentpole property — two ranges merged are bit-identical to the
 * unsharded engine run.
 */

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/curve_store.hpp"
#include "engine/shard.hpp"
#include "util/binio.hpp"

namespace fs = std::filesystem;

namespace kb {
namespace {

TEST(CellRangeParse, AcceptsValidRejectsMalformed)
{
    CellRange range;
    ASSERT_TRUE(parseCellRange("0-1", range));
    EXPECT_EQ(range.lo, 0u);
    EXPECT_EQ(range.hi, 1u);
    ASSERT_TRUE(parseCellRange("3-17", range));
    EXPECT_EQ(range.lo, 3u);
    EXPECT_EQ(range.hi, 17u);
    EXPECT_EQ(range.size(), 14u);
    ASSERT_TRUE(parseCellRange("0-999999999", range));
    EXPECT_EQ(range.hi, 999999999u);

    for (const char *bad : {"", "-", "3-3", "4-2", "a-2", "1-2-3", "1-",
                            "-2", "1/2", "0-1234567890"})
        EXPECT_FALSE(parseCellRange(bad, range)) << bad;
}

/** The test batch: one fast-path fixed-schedule job, one per-point
 *  job with a schedule sample — both paths must shard. */
std::vector<SweepJob>
testJobs()
{
    SweepJob fast;
    fast.kernel = "matmul";
    fast.m_lo = 48;
    fast.m_hi = 512;
    fast.points = 5;
    fast.models = {MemoryModelKind::Lru, MemoryModelKind::Opt,
                   MemoryModelKind::SetAssocFifo};
    fast.schedule_m = 256;
    fast.models_only = true;

    SweepJob replay;
    replay.kernel = "fft";
    replay.m_lo = 16;
    replay.m_hi = 128;
    replay.points = 4;
    replay.models = {MemoryModelKind::Lru};

    return {fast, replay};
}

bool
ownsNothing(std::size_t, std::size_t)
{
    return false;
}

TEST(CellPartition, EveryCellInExactlyOneRange)
{
    const ExperimentEngine engine(1);
    const auto skeleton = engine.run(testJobs(), ownsNothing);
    const std::size_t total = gridCellCount(skeleton);
    ASSERT_EQ(total, skeleton[0].points.size() + skeleton[1].points.size());

    for (std::size_t parts : {1u, 2u, 3u, 5u}) {
        ASSERT_LE(parts, total);
        std::vector<ExperimentEngine::PointFilter> filters;
        std::size_t covered = 0;
        for (std::size_t i = 0; i < parts; ++i) {
            const CellRange range{total * i / parts,
                                  total * (i + 1) / parts};
            covered += range.size();
            filters.push_back(cellRangeFilter(skeleton, range));
        }
        EXPECT_EQ(covered, total);
        for (std::size_t j = 0; j < skeleton.size(); ++j) {
            for (std::size_t p = 0; p < skeleton[j].points.size(); ++p) {
                std::size_t owners = 0;
                for (const auto &owns : filters)
                    owners += owns(j, p) ? 1 : 0;
                EXPECT_EQ(owners, 1u)
                    << "cell (" << j << ", " << p << ") of a " << parts
                    << "-way split";
            }
        }
    }
}

TEST(CellPartition, CoordinatesRoundTripJobMajor)
{
    const ExperimentEngine engine(1);
    const auto skeleton = engine.run(testJobs(), ownsNothing);
    const std::size_t total = gridCellCount(skeleton);

    std::size_t expect_job = 0, expect_point = 0;
    for (std::size_t cell = 0; cell < total; ++cell) {
        while (expect_point == skeleton[expect_job].points.size()) {
            ++expect_job;
            expect_point = 0;
        }
        std::size_t job = 0, point = 0;
        cellCoordinates(skeleton, cell, job, point);
        EXPECT_EQ(job, expect_job) << "cell " << cell;
        EXPECT_EQ(point, expect_point) << "cell " << cell;
        // The single-cell range owns exactly that cell.
        EXPECT_TRUE(cellRangeFilter(skeleton, {cell, cell + 1})(job, point));
        ++expect_point;
    }
    std::size_t job = 0, point = 0;
    EXPECT_EXIT(cellCoordinates(skeleton, total, job, point),
                ::testing::ExitedWithCode(1), "outside the grid");
}

void
expectBitIdentical(const std::vector<SweepResult> &a,
                   const std::vector<SweepResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
        ASSERT_EQ(a[j].points.size(), b[j].points.size());
        for (std::size_t p = 0; p < a[j].points.size(); ++p) {
            SCOPED_TRACE("job " + std::to_string(j) + " point " +
                         std::to_string(p));
            const auto &x = a[j].points[p];
            const auto &y = b[j].points[p];
            EXPECT_EQ(x.sample.m, y.sample.m);
            // Bit-identical doubles, not approximately equal: the
            // fragment codec ships raw IEEE-754 bit patterns.
            EXPECT_EQ(x.sample.ratio, y.sample.ratio);
            EXPECT_EQ(x.sample.comp_ops, y.sample.comp_ops);
            EXPECT_EQ(x.sample.io_words, y.sample.io_words);
            EXPECT_EQ(x.model_io, y.model_io);
        }
    }
}

TEST(CellMerge, TwoRangesMergeBitIdenticalToUnshardedRun)
{
    CurveStore::instance().clear();
    const auto jobs = testJobs();
    const ExperimentEngine engine(1);
    const auto reference = engine.run(jobs);

    // Resolving the skeleton must not measure anything.
    const std::uint64_t before = engineEmissionCount();
    const auto skeleton = engine.run(jobs, ownsNothing);
    EXPECT_EQ(engineEmissionCount(), before);
    const std::size_t total = gridCellCount(skeleton);
    const std::uint64_t signature = sweepSignature(skeleton);

    const fs::path dir = fs::path(::testing::TempDir()) / "kb_cells";
    fs::create_directories(dir);
    // The split point falls inside job 0, so the second range spans a
    // job boundary.
    const std::vector<CellRange> ranges = {{0, total / 2},
                                           {total / 2, total}};
    std::vector<std::string> fragments;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
        const CellRange &range = ranges[i];
        CurveStore::instance().clear(); // each range is its own process
        const auto owns = cellRangeFilter(skeleton, range);
        const auto partial = engine.run(jobs, owns);
        // Unowned cells carry only the grid stamp (their capacity),
        // no measurements — the range really did skip them rather
        // than recompute everything.
        bool saw_skipped = false;
        for (std::size_t j = 0; j < partial.size(); ++j)
            for (std::size_t p = 0; p < partial[j].points.size(); ++p)
                if (!owns(j, p)) {
                    const auto &cell = partial[j].points[p];
                    EXPECT_EQ(cell.sample.m, skeleton[j].points[p].sample.m);
                    EXPECT_NE(cell.sample.m, 0u);
                    EXPECT_EQ(cell.sample.ratio, 0.0);
                    EXPECT_EQ(cell.sample.io_words, 0.0);
                    EXPECT_TRUE(cell.model_io.empty());
                    saw_skipped = true;
                }
        EXPECT_TRUE(saw_skipped);

        const std::string path =
            (dir / ("cells" + std::to_string(i) + ".kbshard")).string();
        CellFragmentWriter writer(path, signature, skeleton.size());
        for (std::size_t cell = range.lo; cell < range.hi; ++cell) {
            std::size_t j = 0, p = 0;
            cellCoordinates(skeleton, cell, j, p);
            writer.appendCell(j, p, partial[j].points[p]);
        }
        writer.finish();
        EXPECT_EQ(writer.cellsWritten(), range.size());
        const FragmentCheck check =
            checkFragmentFile(path, toHex16(signature), range.size());
        EXPECT_TRUE(check.ok) << check.reason;
        fragments.push_back(path);
    }

    auto merged = engine.run(jobs, ownsNothing);
    mergeShardFragments(merged, fragments);
    expectBitIdentical(merged, reference);

    fs::remove_all(dir);
    CurveStore::instance().clear();
}

TEST(CellSignature, DependsOnGridNotOnRange)
{
    const ExperimentEngine engine(1);
    const auto jobs = testJobs();
    const auto skeleton = engine.run(jobs, ownsNothing);
    const std::size_t total = gridCellCount(skeleton);
    const auto a =
        engine.run(jobs, cellRangeFilter(skeleton, {0, total / 2}));
    const auto b =
        engine.run(jobs, cellRangeFilter(skeleton, {total / 2, total}));
    EXPECT_EQ(sweepSignature(a), sweepSignature(b));
    EXPECT_EQ(sweepSignature(a), sweepSignature(skeleton));

    auto other = jobs;
    other[0].points = 6;
    EXPECT_NE(sweepSignature(engine.run(other, ownsNothing)),
              sweepSignature(skeleton))
        << "a different grid must change the signature";
    CurveStore::instance().clear();
}

} // namespace
} // namespace kb
