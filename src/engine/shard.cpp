#include "engine/shard.hpp"

#include <bit>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include <csignal>
#include <unistd.h>

#include "util/binio.hpp"
#include "util/faultpoint.hpp"
#include "util/logging.hpp"

namespace kb {

namespace {

constexpr const char *kFragmentMagic = "kbshard";
// Version 2: the per-shard `shard i N` line became a free-form
// `owner` line (ownership lives in the point rows), so fragments
// written by any binary of this format stay mergeable.
constexpr unsigned kFragmentVersion = 2;

std::string
hexBits(double v)
{
    return toHex16(std::bit_cast<std::uint64_t>(v));
}

double
bitsFromHex(const std::string &hex, bool &ok)
{
    std::uint64_t bits = 0;
    if (!fromHex16(hex, bits)) {
        ok = false;
        return 0.0;
    }
    return std::bit_cast<double>(bits);
}

} // namespace

std::uint64_t
sweepSignature(const std::vector<SweepResult> &results)
{
    ByteWriter w;
    w.u64(results.size());
    for (const auto &r : results) {
        const SweepJob &job = r.job;
        w.str(job.kernel);
        w.u64(job.m_lo);
        w.u64(job.m_hi);
        w.u64(job.points);
        w.u64(job.n_hint);
        w.u64(job.models.size());
        for (const auto kind : job.models)
            w.u8(static_cast<std::uint8_t>(kind));
        w.u64(job.schedule_m);
        w.u64(job.schedule_headroom);
        w.u64(job.schedule_headroom_num);
        w.u8(job.force_replay ? 1 : 0);
        w.u8(job.models_only ? 1 : 0);
        w.u64(r.n_hint);
        w.u64(r.points.size());
        // The resolved capacities themselves: a change to the grid
        // construction (rounding, clamping, dedup) must invalidate
        // old fragments even when every job field is unchanged —
        // merging them would splice in capacities this binary never
        // computed. The engine stamps sample.m during resolution, so
        // this is filter-independent.
        for (const auto &point : r.points)
            w.u64(point.sample.m);
    }
    return fnv1a64(w.bytes());
}

void
mergeShardFragments(std::vector<SweepResult> &skeleton,
                    const std::vector<std::string> &paths)
{
    const std::string expect_sig = toHex16(sweepSignature(skeleton));

    // filled[j][p]: which fragment (index into paths) supplied the
    // cell; -1 = still missing.
    std::vector<std::vector<int>> filled(skeleton.size());
    for (std::size_t j = 0; j < skeleton.size(); ++j)
        filled[j].assign(skeleton[j].points.size(), -1);

    for (std::size_t f = 0; f < paths.size(); ++f) {
        const std::string &path = paths[f];
        std::ifstream in(path);
        KB_REQUIRE(static_cast<bool>(in), "cannot open shard fragment ",
                   path);

        std::string line;
        auto nextLine = [&](const char *what) {
            KB_REQUIRE(static_cast<bool>(std::getline(in, line)),
                       "shard fragment ", path, " is truncated (no ",
                       what, " line)");
            return std::istringstream(line);
        };

        std::string word;
        unsigned version = 0;
        {
            auto ls = nextLine("header");
            ls >> word >> version;
            KB_REQUIRE(word == kFragmentMagic &&
                           version == kFragmentVersion,
                       path, " is not a version-", kFragmentVersion,
                       " shard fragment");
        }
        {
            auto ls = nextLine("signature");
            std::string sig;
            ls >> word >> sig;
            KB_REQUIRE(word == "signature" && sig == expect_sig,
                       "shard fragment ", path,
                       " was produced from a different job grid "
                       "(signature ", sig, ", expected ", expect_sig,
                       ")");
        }
        {
            // Free-form provenance ("cells", "shard 0/2"): cells
            // are keyed by (job, point) in the rows themselves, so
            // ownership needs no cross-fragment consistency check —
            // the per-cell duplicate check below subsumes it.
            auto ls = nextLine("owner");
            ls >> word;
            KB_REQUIRE(word == "owner", "shard fragment ", path,
                       " has a bad owner line");
        }
        {
            auto ls = nextLine("jobs");
            std::size_t jobs = 0;
            ls >> word >> jobs;
            KB_REQUIRE(word == "jobs" && jobs == skeleton.size(),
                       "shard fragment ", path, " has ", jobs,
                       " jobs, expected ", skeleton.size());
        }

        bool saw_end = false;
        while (std::getline(in, line)) {
            std::istringstream ls(line);
            ls >> word;
            if (word == "end") {
                saw_end = true;
                break;
            }
            KB_REQUIRE(word == "point", "shard fragment ", path,
                       " has an unexpected line: ", line);
            std::size_t j = 0, p = 0;
            std::uint64_t m = 0;
            std::string ratio_hex, comp_hex, io_hex;
            ls >> j >> p >> m >> ratio_hex >> comp_hex >> io_hex;
            KB_REQUIRE(static_cast<bool>(ls) && j < skeleton.size() &&
                           p < skeleton[j].points.size(),
                       "shard fragment ", path,
                       " has a malformed point line: ", line);
            KB_REQUIRE(filled[j][p] < 0, "cell (job ", j, ", point ",
                       p, ") is supplied by both ",
                       paths[static_cast<std::size_t>(filled[j][p])],
                       " and ", path);
            filled[j][p] = static_cast<int>(f);

            auto &slot = skeleton[j].points[p];
            bool ok = true;
            slot.sample.m = m;
            slot.sample.ratio = bitsFromHex(ratio_hex, ok);
            slot.sample.comp_ops = bitsFromHex(comp_hex, ok);
            slot.sample.io_words = bitsFromHex(io_hex, ok);
            KB_REQUIRE(ok, "shard fragment ", path,
                       " has a malformed point line: ", line);
            slot.model_io.clear();
            std::uint64_t io = 0;
            while (ls >> io)
                slot.model_io.push_back(io);
            KB_REQUIRE(slot.model_io.size() ==
                           skeleton[j].job.models.size(),
                       "shard fragment ", path, " point (", j, ", ", p,
                       ") carries ", slot.model_io.size(),
                       " model columns, expected ",
                       skeleton[j].job.models.size());
        }
        KB_REQUIRE(saw_end, "shard fragment ", path,
                   " is truncated (no end line)");
    }

    for (std::size_t j = 0; j < skeleton.size(); ++j)
        for (std::size_t p = 0; p < filled[j].size(); ++p)
            KB_REQUIRE(filled[j][p] >= 0, "merge is missing cell (job ",
                       j, ", point ", p, "); the ", paths.size(),
                       " fragment(s) passed do not cover the grid");
}

bool
parseCellRange(const std::string &text, CellRange &out)
{
    const auto dash = text.find('-');
    if (dash == std::string::npos || dash == 0 ||
        dash + 1 >= text.size())
        return false;
    const std::string lo = text.substr(0, dash);
    const std::string hi = text.substr(dash + 1);
    // Digits only, and few enough of them that stoull cannot throw
    // out_of_range (no real grid needs more than 9 digits anyway).
    const auto numeric = [](const std::string &s) {
        return !s.empty() && s.size() <= 9 &&
               s.find_first_not_of("0123456789") == std::string::npos;
    };
    if (!numeric(lo) || !numeric(hi))
        return false;
    out.lo = static_cast<std::size_t>(std::stoull(lo));
    out.hi = static_cast<std::size_t>(std::stoull(hi));
    return out.lo < out.hi;
}

std::size_t
gridCellCount(const std::vector<SweepResult> &skeleton)
{
    std::size_t total = 0;
    for (const auto &result : skeleton)
        total += result.points.size();
    return total;
}

void
cellCoordinates(const std::vector<SweepResult> &skeleton,
                std::size_t cell, std::size_t &job, std::size_t &point)
{
    std::size_t base = 0;
    for (std::size_t j = 0; j < skeleton.size(); ++j) {
        const std::size_t n = skeleton[j].points.size();
        if (cell < base + n) {
            job = j;
            point = cell - base;
            return;
        }
        base += n;
    }
    KB_REQUIRE(false, "cell ", cell, " is outside the grid (", base,
               " cells)");
}

ExperimentEngine::PointFilter
cellRangeFilter(const std::vector<SweepResult> &skeleton,
                const CellRange &range)
{
    // Precompute each job's linear base so the filter is O(1).
    std::vector<std::size_t> base(skeleton.size() + 1, 0);
    for (std::size_t j = 0; j < skeleton.size(); ++j)
        base[j + 1] = base[j] + skeleton[j].points.size();
    return [base, range](std::size_t job, std::size_t point) {
        const std::size_t cell = base[job] + point;
        return cell >= range.lo && cell < range.hi;
    };
}

CellFragmentWriter::CellFragmentWriter(const std::string &path,
                                       std::uint64_t signature,
                                       std::size_t job_count)
    : path_(path), out_(path, std::ios::trunc)
{
    KB_REQUIRE(static_cast<bool>(out_), "cannot open cell fragment ",
               path, " for writing");
    out_ << kFragmentMagic << " " << kFragmentVersion << "\n"
         << "signature " << toHex16(signature) << "\n"
         << "owner cells\n"
         << "jobs " << job_count << "\n";
    out_.flush();
}

void
CellFragmentWriter::appendCell(std::size_t job, std::size_t point,
                               const SweepPointResult &pt)
{
    KB_ASSERT(!finished_, "appendCell after finish on ", path_);
    out_ << "point " << job << " " << point << " " << pt.sample.m << " "
         << hexBits(pt.sample.ratio) << " " << hexBits(pt.sample.comp_ops)
         << " " << hexBits(pt.sample.io_words);
    for (const auto io : pt.model_io)
        out_ << " " << io;
    out_ << "\n";
    // The flush is the heartbeat: the orchestrator watches this file
    // grow, and a worker that stalls past its deadline is killed.
    out_.flush();
    KB_REQUIRE(out_.good(), "write error on cell fragment ", path_);
    ++cells_;
    if (faultFireAt("kill-after-cells"))
        ::kill(::getpid(), SIGKILL);
    if (faultFireAt("hang-after-cells")) {
        // Wedge, don't exit: this is the "worker stops making
        // progress" failure the deadline reaper exists for.
        std::this_thread::sleep_for(std::chrono::hours(1));
    }
}

void
CellFragmentWriter::finish()
{
    KB_ASSERT(!finished_, "double finish on ", path_);
    finished_ = true;
    out_ << "end\n";
    out_.flush();
    out_.close();
    KB_REQUIRE(!out_.fail(), "write error on cell fragment ", path_);
    if (faultArmed("truncate-fragment")) {
        // Chop the tail off the *finished* fragment: the worker exits
        // 0 but its fragment fails validation — exactly the torn-file
        // shape a crash between write and close would leave.
        const std::uint64_t cut = faultValue("truncate-fragment", 6);
        std::ifstream in(path_, std::ios::binary | std::ios::ate);
        const auto size = static_cast<std::uint64_t>(in.tellg());
        in.close();
        if (size > cut)
            [[maybe_unused]] const int rc = ::truncate(
                path_.c_str(), static_cast<off_t>(size - cut));
    }
}

FragmentCheck
checkFragmentFile(const std::string &path,
                  const std::string &expect_signature,
                  std::size_t expect_cells)
{
    FragmentCheck check;
    std::ifstream in(path);
    if (!in) {
        check.reason = "fragment missing or unreadable";
        return check;
    }
    std::string line, word;
    if (expect_signature.empty()) {
        // Relaxed mode (no grid to check against): non-empty and
        // closed with its end line.
        bool any = false, ended = false;
        while (std::getline(in, line)) {
            any = true;
            ended = line == "end";
        }
        if (!any)
            check.reason = "fragment is empty";
        else if (!ended)
            check.reason = "fragment is truncated (no end line)";
        else
            check.ok = true;
        return check;
    }

    auto header = [&](const char *what) -> bool {
        if (!std::getline(in, line)) {
            check.reason =
                std::string("fragment is truncated (no ") + what +
                " line)";
            return false;
        }
        return true;
    };
    unsigned version = 0;
    if (!header("header"))
        return check;
    {
        std::istringstream ls(line);
        ls >> word >> version;
        if (word != kFragmentMagic || version != kFragmentVersion) {
            check.reason = "not a version-" +
                           std::to_string(kFragmentVersion) +
                           " fragment";
            return check;
        }
    }
    if (!header("signature"))
        return check;
    {
        std::istringstream ls(line);
        std::string sig;
        ls >> word >> sig;
        if (word != "signature" || sig != expect_signature) {
            check.reason = "fragment signature " + sig +
                           " does not match the grid (" +
                           expect_signature + ")";
            return check;
        }
    }
    if (!header("owner") || !header("jobs"))
        return check;

    std::size_t rows = 0;
    bool ended = false;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        ls >> word;
        if (word == "end") {
            ended = true;
            break;
        }
        std::size_t j = 0, p = 0;
        std::uint64_t m = 0;
        std::string ratio_hex;
        ls >> j >> p >> m >> ratio_hex;
        if (word != "point" || !ls) {
            check.reason = "fragment has a malformed row: " + line;
            return check;
        }
        ++rows;
    }
    if (!ended) {
        check.reason = "fragment is truncated (no end line, " +
                       std::to_string(rows) + " rows)";
        return check;
    }
    if (expect_cells != 0 && rows != expect_cells) {
        check.reason = "fragment carries " + std::to_string(rows) +
                       " cells, expected " +
                       std::to_string(expect_cells);
        return check;
    }
    check.ok = true;
    return check;
}

} // namespace kb
