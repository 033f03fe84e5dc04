/**
 * @file
 * Engine bench: the full multi-kernel balance sweep on the parallel
 * experiment engine.
 *
 * This is the scaling canary for the engine layer. It measures every
 * registered kernel's R(M) curve (optionally restricted with
 * --kernel) as one batch of SweepJobs and prints the curves. Wall
 * time and worker count go to *stderr*, so stdout is byte-identical
 * for every --threads value — compare:
 *
 *   bench_engine_sweep --threads 1 > a.txt
 *   bench_engine_sweep --threads 8 > b.txt
 *   diff a.txt b.txt   # empty; stderr shows the speedup
 *
 * --cells LO-HI --shard-out PATH runs one range of the batch's
 * linearized (job, point) grid and writes a fragment; --merge
 * reassembles fragments into the full report, byte-identical to the
 * unsharded run; --jobs N deals cell ranges to N worker subprocesses
 * and merges their fragments itself (CI diffs both, and the latter
 * cold and warm store). See engine/shard.hpp and
 * engine/orchestrator.hpp.
 */

#include <chrono>
#include <iostream>

#include "bench/driver.hpp"
#include "util/table.hpp"

int
main(int argc, char **argv)
{
    using namespace kb;
    return bench::runBench(
        argc, argv, nullptr,
        [](bench::BenchContext &ctx) {
            std::vector<SweepJob> jobs;
            for (const auto &name : ctx.kernels()) {
                SweepJob job;
                job.kernel = name;
                job.points = ctx.points(6);
                jobs.push_back(job);
            }

            const auto t0 = std::chrono::steady_clock::now();
            const auto results = ctx.runJobs(jobs);
            const auto t1 = std::chrono::steady_clock::now();
            const double seconds =
                std::chrono::duration<double>(t1 - t0).count();

            for (const auto &result : results) {
                const auto curve = toRatioCurve(result);
                printHeading(std::cout,
                             result.job.kernel + "  [m in " +
                                 std::to_string(result.job.m_lo) +
                                 ", " +
                                 std::to_string(result.job.m_hi) +
                                 "], n_hint = " +
                                 std::to_string(result.n_hint));
                bench::printCurveTable(std::cout, curve);
                std::cout << "\n";
            }

            std::cerr << "engine: " << results.size() << " jobs, "
                      << ctx.engine().threads() << " threads, "
                      << seconds << " s wall\n";
            return 0;
        },
        bench::BenchCaps{.kernels = true, .points = true,
                         .threads = true, .shard = true});
}
