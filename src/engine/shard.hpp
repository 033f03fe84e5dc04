/**
 * @file
 * Process-level sharding of sweep grids.
 *
 * A batch of SweepJobs expands to a deterministic (job, point) grid
 * (the engine's phase-1 resolution is identical in every process),
 * so the grid can be partitioned across independent invocations.
 * The unit of partition is a *cell range* over the linearized grid,
 * behind `--cells lo-hi`: cells are numbered job-major in the
 * deterministic resolution order, so every process agrees on what
 * cell k means. The work-queue orchestrator (engine/orchestrator.hpp)
 * deals such ranges to its workers, and a hand-driven cross-host run
 * passes them explicitly.
 *
 * The owning process serializes its cells to a *fragment* file and a
 * merge pass reassembles disjoint fragments into the full result
 * vector, bit-identical to an unsharded run (doubles travel as raw
 * IEEE-754 bit patterns, never through decimal round-trips) —
 * results are tagged by grid cell, never by which worker computed
 * them, so merges are invariant to how ranges were (re)assigned.
 *
 * Fragments are line-oriented text (one `point` row per owned cell)
 * and carry a signature over the resolved job grid, so fragments
 * from a different job list, flag set, or grid construction are
 * rejected instead of silently merged. They are written
 * *incrementally* (header first, one flushed row per completed cell,
 * a final `end` line): the growing file doubles as the worker's
 * heartbeat — the orchestrator kills a worker whose fragment stops
 * growing — and a fragment without its `end` line is detectably
 * truncated, so a crash mid-range can never smuggle a partial range
 * past the merge. checkFragmentFile() is the cheap accept-time
 * validation the orchestrator runs before trusting a worker's exit
 * status; mergeShardFragments() remains the strict backstop. With
 * the on-disk CurveStore enabled, workers of one fixed-schedule sweep
 * also share their single-pass curves through tier 2 — the features
 * compose.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace kb {

/**
 * Content signature of a resolved job grid: every field of every
 * resolved job plus its grid size, hashed. Depends only on the
 * engine's deterministic phase-1 resolution — not on measurements —
 * so every worker of one grid computes the same value.
 */
std::uint64_t sweepSignature(const std::vector<SweepResult> &results);

/**
 * Merge fragment files into @p skeleton: the resolved-but-unmeasured
 * result vector of the same job list (run the engine with a filter
 * owning nothing to get one — it costs no measurements). Cells are
 * keyed by (job, point), never by who computed them. Fatal on a
 * signature mismatch, an unreadable
 * or malformed fragment, a cell supplied twice, or incomplete
 * coverage — a partial merge must never masquerade as a full run.
 */
void mergeShardFragments(std::vector<SweepResult> &skeleton,
                         const std::vector<std::string> &paths);

/** One contiguous range of linearized grid cells: [lo, hi). */
struct CellRange
{
    std::size_t lo = 0;
    std::size_t hi = 0;

    std::size_t size() const { return hi - lo; }
};

/** Parse "lo-hi" (half-open, lo < hi); false on malformed input. */
bool parseCellRange(const std::string &text, CellRange &out);

/** Total cell count of a resolved grid (sum of per-job points). */
std::size_t gridCellCount(const std::vector<SweepResult> &skeleton);

/**
 * Map linearized cell index @p cell (job-major over the resolved
 * grid) to its (job, point) coordinates. Fatal out of range.
 */
void cellCoordinates(const std::vector<SweepResult> &skeleton,
                     std::size_t cell, std::size_t &job,
                     std::size_t &point);

/** The engine PointFilter measuring exactly @p range's cells. */
ExperimentEngine::PointFilter
cellRangeFilter(const std::vector<SweepResult> &skeleton,
                const CellRange &range);

/**
 * Incremental fragment writer for a cell-range worker. The header is
 * written on construction; appendCell() writes and *flushes* one
 * `point` row (the flush is the worker's heartbeat — see the file
 * comment); finish() writes the `end` line. Hosts the worker-side
 * fault points (`kill-after-cells`, `hang-after-cells`,
 * `truncate-fragment`), so every orchestrator recovery path can be
 * driven from the environment.
 */
class CellFragmentWriter
{
  public:
    /** Fatal on an unwritable @p path. */
    CellFragmentWriter(const std::string &path, std::uint64_t signature,
                       std::size_t job_count);

    void appendCell(std::size_t job, std::size_t point,
                    const SweepPointResult &pt);
    void finish();

    std::size_t cellsWritten() const { return cells_; }

  private:
    std::string path_;
    std::ofstream out_;
    std::size_t cells_ = 0;
    bool finished_ = false;
};

/** Accept-time fragment validation result. */
struct FragmentCheck
{
    bool ok = false;
    std::string reason; ///< empty when ok
};

/**
 * Cheap structural validation of a worker's fragment, run by the
 * orchestrator before accepting a slice: the file must exist, parse
 * (header, signature when @p expect_signature is non-empty, well
 * formed `point` rows), carry exactly @p expect_cells rows when
 * non-zero, and close with its `end` line. A truncated, corrupt or
 * short fragment fails the check — the orchestrator re-queues the
 * owning cells instead of failing the merge later.
 *
 * With @p expect_signature empty the check is relaxed to "non-empty
 * and ends with `end`" (test stand-ins that are not real fragments).
 */
FragmentCheck checkFragmentFile(const std::string &path,
                                const std::string &expect_signature,
                                std::size_t expect_cells);

} // namespace kb
