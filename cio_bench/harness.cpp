/**
 * @file
 * Cio(M) benchmark harness.
 *
 * One binary, several subcommands (run.py drives them):
 *
 *   gen JOBS --workload W --seed S [--size full|tiny]
 *       Generate a workload's SweepJobs from the seed and write them to
 *       JOBS. The seed picks each job's problem size from a small band
 *       around its nominal size; everything else is fixed per workload.
 *   oracle JOBS OUT
 *       Run the workload's oracle path (direct per-point replay with
 *       buffered OPT, or an unsharded in-process run for the fleet) and
 *       write one digest per grid cell to OUT.
 *   measure JOBS ORACLE --seconds S --trace 0|1 --work DIR --tag T
 *       Timed runs. --trace 0 prints the end-to-end metrics; --trace 1
 *       runs the traced replay and prints the per-layer metrics.
 *   replica JOBS ORACLE --seconds S --work DIR --out FILE
 *       One of the in-process workloads' concurrent timing processes
 *       that `measure --trace 0` starts; writes its samples to FILE.
 *   probe JOBS STORE
 *       Set-up only: registry, store attach and fsck, job resolution.
 *   worker JOBS --store DIR --cells LO-HI --shard-out PATH
 *       Orchestrator worker: measure a cell range into a fragment.
 *
 * The last line `measure` prints is one JSON object with the keys
 * correct, attempted, failed and metrics.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/curve_store.hpp"
#include "engine/engine.hpp"
#include "engine/orchestrator.hpp"
#include "engine/shard.hpp"
#include "kernels/registry.hpp"
#include "mem/opt_cache.hpp"
#include "trace/backend.hpp"
#include "trace/pipeline.hpp"
#include "trace/replay.hpp"
#include "trace/reuse.hpp"
#include "util/binio.hpp"

extern char **environ;

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using namespace kb;

namespace {

// ------------------------------------------------------------ basics

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "cio_harness: %s\n", msg.c_str());
    std::exit(1);
}

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Median of @p v: the statistic of every end-to-end time. On a shared
 * host whose speed drifts in phases, a run's median tracks the typical
 * state; a low quantile would depend on whether a fast phase happened
 * to fall inside the run.
 */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Print @p what's sample count, median and, when there are at least
 * 20 samples, the highest percentile that has ten samples above it.
 */
void
printTimes(const char *what, std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::printf("%s samples=%zu median_s=%.6f", what, v.size(), median(v));
    if (v.size() >= 20)
        std::printf(" p%zu_s=%.6f", (v.size() - 10) * 100 / v.size(),
                    v[v.size() - 11]);
    std::printf("\n");
}

/** Peak resident set of this process (and, optionally, of the
 *  largest reaped child) in MiB. */
double
peakRssMb(bool with_children)
{
    rusage self{}, kids{};
    ::getrusage(RUSAGE_SELF, &self);
    double kb_total = static_cast<double>(self.ru_maxrss);
    if (with_children) {
        ::getrusage(RUSAGE_CHILDREN, &kids);
        kb_total += static_cast<double>(kids.ru_maxrss);
    }
    return kb_total / 1024.0;
}

/** posix_spawn @p argv without waiting; returns the pid (or -1). */
pid_t
spawnAsync(const std::vector<std::string> &argv)
{
    std::vector<char *> cargv;
    for (const auto &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);
    pid_t pid = 0;
    if (::posix_spawn(&pid, cargv[0], nullptr, nullptr, cargv.data(),
                      environ) != 0)
        return -1;
    return pid;
}

/** Wait for @p pid; returns its exit status (or -1). */
int
waitExit(pid_t pid)
{
    int status = 0;
    if (pid <= 0 || ::waitpid(pid, &status, 0) != pid)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** posix_spawn @p argv and wait; returns the exit status (or -1). */
int
spawnWait(const std::vector<std::string> &argv)
{
    return waitExit(spawnAsync(argv));
}

// ------------------------------------------------------------ workloads

enum class Workload
{
    CioFixed,
    HeadroomReplay,
    KernelMixFleet,
};

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::CioFixed:       return "cio_fixed";
      case Workload::HeadroomReplay: return "headroom_replay";
      case Workload::KernelMixFleet: return "kernel_mix_fleet";
    }
    return "?";
}

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (auto w : {Workload::CioFixed, Workload::HeadroomReplay,
                   Workload::KernelMixFleet})
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    return false;
}

constexpr MemoryModelKind kAllModels[] = {
    MemoryModelKind::Lru, MemoryModelKind::SetAssocLru,
    MemoryModelKind::SetAssocFifo, MemoryModelKind::RandomRepl,
    MemoryModelKind::Opt};

/** A workload's generated jobs, as written by `gen`. */
struct JobsFile
{
    Workload workload = Workload::CioFixed;
    std::vector<SweepJob> jobs;
};

void
writeJobs(const std::string &path, const JobsFile &jf)
{
    std::ofstream out(path);
    if (!out)
        die("cannot write " + path);
    out << "workload " << workloadName(jf.workload) << "\n";
    for (const auto &j : jf.jobs) {
        out << "job kernel=" << j.kernel << " m_lo=" << j.m_lo
            << " m_hi=" << j.m_hi << " points=" << j.points
            << " n_hint=" << j.n_hint << " schedule_m=" << j.schedule_m
            << " headroom=" << j.schedule_headroom
            << " headroom_num=" << j.schedule_headroom_num
            << " models_only=" << (j.models_only ? 1 : 0) << " models=";
        for (std::size_t i = 0; i < j.models.size(); ++i)
            out << (i ? "," : "") << memoryModelName(j.models[i]);
        out << "\n";
    }
    if (!out)
        die("short write to " + path);
}

JobsFile
readJobs(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot read jobs file " + path);
    JobsFile jf;
    bool have_workload = false;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string head;
        ls >> head;
        if (head == "workload") {
            std::string name;
            ls >> name;
            if (!parseWorkload(name, jf.workload))
                die("unknown workload '" + name + "' in " + path);
            have_workload = true;
            continue;
        }
        if (head != "job")
            die("malformed line in " + path + ": " + line);
        SweepJob job;
        std::string field;
        while (ls >> field) {
            const auto eq = field.find('=');
            if (eq == std::string::npos)
                die("malformed field '" + field + "' in " + path);
            const std::string key = field.substr(0, eq);
            const std::string val = field.substr(eq + 1);
            auto num = [&] { return std::stoull(val); };
            if (key == "kernel") job.kernel = val;
            else if (key == "m_lo") job.m_lo = num();
            else if (key == "m_hi") job.m_hi = num();
            else if (key == "points") job.points = static_cast<unsigned>(num());
            else if (key == "n_hint") job.n_hint = num();
            else if (key == "schedule_m") job.schedule_m = num();
            else if (key == "headroom") job.schedule_headroom = num();
            else if (key == "headroom_num") job.schedule_headroom_num = num();
            else if (key == "models_only") job.models_only = num() != 0;
            else if (key == "models") {
                std::istringstream ms(val);
                std::string name;
                while (std::getline(ms, name, ',')) {
                    bool found = false;
                    for (auto kind : kAllModels)
                        if (name == memoryModelName(kind)) {
                            job.models.push_back(kind);
                            found = true;
                        }
                    if (!found)
                        die("unknown model '" + name + "' in " + path);
                }
            } else {
                die("unknown job field '" + key + "' in " + path);
            }
        }
        jf.jobs.push_back(std::move(job));
    }
    if (!have_workload || jf.jobs.empty())
        die("jobs file " + path + " names no workload or no jobs");
    return jf;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Problem size for one job: @p nominal, nominal - 1 or nominal - 2,
 * chosen by (seed, salt). Every kernel schedule accepts any n (edge
 * tiles are partial), so each size is legal; the nominal sizes are
 * whole tiles, and shrinking by at most two words keeps the tile count,
 * so the trace changes shape without the workload changing cost.
 */
std::uint64_t
bandSize(std::uint64_t nominal, std::uint64_t seed, std::uint64_t salt)
{
    const std::uint64_t k = splitmix64(seed * 1000003ull + salt) % 3;
    return std::max<std::uint64_t>(nominal, k + 1) - k;
}

/**
 * Two matmul jobs whose sizes straddle the centre of the band
 * [@p top - 6, @p top]: (c - d, c + d) with c = top - 3 and d in
 * {1, 2, 3} chosen by (seed, salt). The traces differ from seed to
 * seed, but the pair's work, (c - d)^3 + (c + d)^3 = 2c^3 + 6cd^2,
 * stays within 0.8% of 2c^3 for c >= 59, so a seed does not move the
 * sweep's cost. d is never 0: two equal jobs would share one trace
 * key, and the second would be served from tier 1. @p top is a
 * whole-tile size, so no size of the band adds a tile.
 */
void
pushBandPair(std::vector<SweepJob> &jobs, SweepJob job, std::uint64_t top,
             std::uint64_t seed, std::uint64_t salt)
{
    const std::uint64_t d = 1 + splitmix64(seed * 1000003ull + salt) % 3;
    const std::uint64_t c = top - 3;
    job.n_hint = c - d;
    jobs.push_back(job);
    job.n_hint = c + d;
    jobs.push_back(job);
}

int
cmdGen(const std::string &path, const std::string &workload,
       std::uint64_t seed, const std::string &size)
{
    JobsFile jf;
    if (!parseWorkload(workload, jf.workload))
        die("unknown workload '" + workload + "'");
    if (size != "full" && size != "tiny")
        die("--size must be full or tiny");
    const bool tiny = size == "tiny";
    auto &registry = KernelRegistry::instance();

    switch (jf.workload) {
      case Workload::CioFixed: {
        // Kung's fixed-schedule Cio(M): one matmul schedule tiled for
        // schedule_m, replayed at every capacity; OPT dominates.
        SweepJob job;
        job.kernel = "matmul";
        job.schedule_m = tiny ? 256 : 1024;
        if (tiny) {
            job.m_lo = 16;
            job.m_hi = 512;
        }
        job.points = tiny ? 4 : 8;
        job.models = {MemoryModelKind::Lru, MemoryModelKind::SetAssocLru,
                      MemoryModelKind::Opt};
        job.models_only = true;
        const auto kernel = registry.shared(job.kernel);
        pushBandPair(jf.jobs, job,
                     kernel->suggestProblemSize(job.schedule_m), seed, 0);
        break;
      }
      case Workload::HeadroomReplay: {
        // E12's tile = M/2 job: per-point schedules replayed through
        // the non-inclusion models, so the replay models dominate.
        SweepJob job;
        job.kernel = "matmul";
        job.m_lo = 64;
        job.m_hi = tiny ? 256 : 2048;
        job.points = tiny ? 3 : 6;
        job.schedule_headroom = 2;
        job.models = {MemoryModelKind::SetAssocLru,
                      MemoryModelKind::SetAssocFifo,
                      MemoryModelKind::RandomRepl};
        job.models_only = true;
        pushBandPair(jf.jobs, job, tiny ? 32 : 64, seed, 1);
        break;
      }
      case Workload::KernelMixFleet: {
        // Every registered kernel at its default range on a fixed
        // schedule: 14 trace shapes through the fused analyzers, the
        // disk store and the orchestrator.
        std::uint64_t salt = 100;
        for (const auto &name : registry.names()) {
            const auto kernel = registry.shared(name);
            SweepJob job;
            job.kernel = name;
            kernel->defaultSweepRange(job.m_lo, job.m_hi);
            if (tiny)
                job.m_hi = job.m_lo * 4;
            job.points = tiny ? 3 : 6;
            job.schedule_m = job.m_hi;
            job.n_hint = bandSize(kernel->suggestProblemSize(job.m_hi),
                                  seed, salt++);
            job.models = {MemoryModelKind::Lru,
                          MemoryModelKind::SetAssocLru};
            job.models_only = true;
            jf.jobs.push_back(job);
        }
        break;
      }
    }
    writeJobs(path, jf);
    for (const auto &j : jf.jobs)
        std::printf("size %s %s n_hint=%" PRIu64 " schedule_m=%" PRIu64
                    "\n",
                    workloadName(jf.workload), j.kernel.c_str(), j.n_hint,
                    j.schedule_m);
    return 0;
}

// ------------------------------------------------------------ digests

std::uint64_t
cellDigest(const SweepPointResult &pt)
{
    ByteWriter w;
    w.u64(pt.sample.m);
    w.u64(std::bit_cast<std::uint64_t>(pt.sample.ratio));
    w.u64(std::bit_cast<std::uint64_t>(pt.sample.comp_ops));
    w.u64(std::bit_cast<std::uint64_t>(pt.sample.io_words));
    w.vecU64(pt.model_io);
    return fnv1a64(w.bytes());
}

/** One digest per grid cell, job-major. */
std::vector<std::uint64_t>
cellDigests(const std::vector<SweepResult> &results)
{
    std::vector<std::uint64_t> out;
    for (const auto &r : results)
        for (const auto &pt : r.points)
            out.push_back(cellDigest(pt));
    return out;
}

/** Cells of @p results whose digest differs from @p oracle's (every
 *  cell when the grid shapes differ). */
std::size_t
mismatchedCells(const std::vector<SweepResult> &results,
                const std::vector<std::uint64_t> &oracle)
{
    const auto got = cellDigests(results);
    if (got.size() != oracle.size())
        return std::max(got.size(), oracle.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < got.size(); ++i)
        bad += got[i] != oracle[i];
    return bad;
}

std::size_t
cellCount(const std::vector<SweepResult> &results)
{
    std::size_t n = 0;
    for (const auto &r : results)
        n += r.points.size();
    return n;
}

std::vector<std::uint64_t>
readDigests(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot read oracle digests " + path);
    std::vector<std::uint64_t> out;
    std::string hex;
    while (in >> hex) {
        std::uint64_t v = 0;
        if (!fromHex16(hex, v))
            die("malformed oracle digest in " + path);
        out.push_back(v);
    }
    if (out.empty())
        die("oracle digest file " + path + " is empty");
    return out;
}

/** Detach the disk tier and drop tier 1: a cold, store-less engine. */
void
detachStore()
{
    auto &store = CurveStore::instance();
    store.setDiskDirectory("");
    store.clear();
}

const ExperimentEngine::PointFilter kOwnNothing =
    [](std::size_t, std::size_t) { return false; };

int
cmdOracle(const std::string &jobs_path, const std::string &out_path)
{
    const JobsFile jf = readJobs(jobs_path);
    detachStore();
    std::vector<SweepJob> jobs = jf.jobs;
    if (jf.workload != Workload::KernelMixFleet)
        for (auto &j : jobs)
            j.force_replay = true; // direct replay, buffered OPT
    // Two workers: the oracle is not timed, and each buffered-OPT point
    // holds its whole trace, so wider pools would cost memory.
    const auto results = ExperimentEngine(2).run(jobs);
    std::ofstream out(out_path);
    for (auto d : cellDigests(results))
        out << toHex16(d) << "\n";
    if (!out)
        die("cannot write " + out_path);
    return 0;
}

// ------------------------------------------------------------ set-up

int
cmdProbe(const std::string &jobs_path, const std::string &store_dir)
{
    const JobsFile jf = readJobs(jobs_path);
    for (const auto &j : jf.jobs)
        (void)KernelRegistry::instance().shared(j.kernel);
    auto &store = CurveStore::instance();
    if (jf.workload == Workload::KernelMixFleet) {
        store.setDiskDirectory(store_dir);
        (void)CurveStore::fsck(store_dir, true);
    } else {
        store.setDiskDirectory("");
    }
    (void)ExperimentEngine(1).run(jf.jobs, kOwnNothing);
    return 0;
}

/**
 * Set-up samples: wall times of fresh `probe` processes, spread over
 * the run so that they see the same host phases as the sweeps.
 */
class SetupProbes
{
  public:
    SetupProbes(std::string exe, std::string jobs_path, const fs::path &work)
        : exe_(std::move(exe)), jobs_path_(std::move(jobs_path)),
          store_(work / ("probe-store-" + std::to_string(::getpid())))
    {
    }
    ~SetupProbes() { fs::remove_all(store_); }

    /** Time one probe; false if it failed. */
    bool
    once()
    {
        const auto t0 = Clock::now();
        if (spawnWait({exe_, "probe", jobs_path_, store_.string()}) != 0)
            return false;
        times_.push_back(since(t0));
        return true;
    }

    double
    report() const
    {
        printTimes("setup", times_);
        return median(times_);
    }

  private:
    std::string exe_, jobs_path_;
    fs::path store_;
    std::vector<double> times_;
};

// ------------------------------------------------------------ fleet

struct FleetRun
{
    std::vector<SweepResult> results;
    OrchestratorResult orch;
    std::uint64_t worker_emissions = 0;
    double wall_s = 0.0;
};

/** Sum of the `kb-bench-emissions N` lines workers left in their logs. */
std::uint64_t
workerEmissions(const std::string &scratch)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(scratch, ec)) {
        if (e.path().extension() != ".log")
            continue;
        std::ifstream in(e.path());
        std::string line;
        while (std::getline(in, line)) {
            unsigned long long n = 0;
            if (std::sscanf(line.c_str(), "kb-bench-emissions %llu", &n) ==
                1)
                total += n;
        }
    }
    return total;
}

/**
 * One orchestrated sweep of the fleet grid: fsck the shared store,
 * deal the cells to @p workers re-execs of this binary, merge. Timed
 * from the fsck through the merge.
 */
FleetRun
orchestrateFleet(const std::string &exe, const std::string &jobs_path,
                 const std::vector<SweepResult> &skeleton,
                 const fs::path &store, const fs::path &scratch,
                 std::size_t workers)
{
    FleetRun run;
    const auto t0 = Clock::now();
    fs::create_directories(store);
    (void)CurveStore::fsck(store.string(), true);
    OrchestratorSpec spec;
    spec.program = exe;
    spec.args = {"worker", jobs_path, "--store", store.string()};
    spec.jobs = workers;
    spec.total_cells = gridCellCount(skeleton);
    spec.expect_signature = toHex16(sweepSignature(skeleton));
    spec.scratch_dir = scratch.string();
    run.orch = orchestrateSweep(spec);
    if (run.orch.ok) {
        run.results = skeleton;
        mergeShardFragments(run.results, run.orch.fragments);
    }
    run.wall_s = since(t0);
    run.worker_emissions = workerEmissions(scratch.string());
    removeOrchestratorScratch(scratch.string());
    return run;
}

/** Failed cells of one orchestrated run: digest mismatches, the whole
 *  grid when the run was lost, and each rejected fragment's slice. */
std::size_t
fleetFailures(const FleetRun &run, const std::vector<std::uint64_t> &oracle)
{
    if (!run.orch.ok)
        return oracle.size();
    const std::size_t slices = std::max<std::size_t>(1, run.orch.stats.slices);
    const std::size_t per_slice = (oracle.size() + slices - 1) / slices;
    return mismatchedCells(run.results, oracle) +
           run.orch.stats.fragments_rejected * per_slice;
}

int
cmdWorker(const std::string &jobs_path, const std::string &store_dir,
          const std::string &cells, const std::string &out_path)
{
    const JobsFile jf = readJobs(jobs_path);
    CurveStore::instance().setDiskDirectory(store_dir);
    const ExperimentEngine engine(1);
    const auto skeleton = engine.run(jf.jobs, kOwnNothing);
    CellRange range;
    if (!parseCellRange(cells, range) || range.hi > gridCellCount(skeleton))
        die("bad --cells " + cells);
    CellFragmentWriter writer(out_path, sweepSignature(skeleton),
                              skeleton.size());
    // One engine pass per job group, like the bench driver's worker:
    // a job's points share one emission and its curves.
    std::size_t lo_job = 0, lo_pt = 0, hi_job = 0, hi_pt = 0;
    cellCoordinates(skeleton, range.lo, lo_job, lo_pt);
    cellCoordinates(skeleton, range.hi - 1, hi_job, hi_pt);
    const auto in_range = cellRangeFilter(skeleton, range);
    for (std::size_t j = lo_job; j <= hi_job; ++j) {
        const auto group = engine.run(
            jf.jobs, [j, &in_range](std::size_t jj, std::size_t pp) {
                return jj == j && in_range(jj, pp);
            });
        const std::size_t p_lo = j == lo_job ? lo_pt : 0;
        const std::size_t p_hi =
            j == hi_job ? hi_pt + 1 : skeleton[j].points.size();
        for (std::size_t p = p_lo; p < p_hi; ++p)
            writer.appendCell(j, p, group[j].points[p]);
    }
    writer.finish();
    std::fprintf(stderr, "kb-bench-emissions %" PRIu64 "\n",
                 engineEmissionCount());
    return 0;
}

// ------------------------------------------------------------ output

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

void
printHostStamp()
{
    auto env = [](const char *name) {
        const char *v = std::getenv(name);
        return v && *v ? v : "unset";
    };
    std::printf("host nproc=%ld simd_isa=%s analyzer=%s KB_SIMD=%s "
                "KB_ANALYZER=%s KB_TRACE_BACKEND=%s backend=%s\n",
                ::sysconf(_SC_NPROCESSORS_ONLN), analyzerSimdIsa(),
                analyzerPathName(activeAnalyzerPath()), env("KB_SIMD"),
                env("KB_ANALYZER"), env("KB_TRACE_BACKEND"),
                activeTraceBackendName().c_str());
}

/** Shared state of one `measure` invocation. */
struct Bench
{
    std::string exe;
    std::string jobs_path;
    fs::path work;
    JobsFile jf;
    std::string oracle_path;
    std::vector<std::uint64_t> oracle;
    double seconds = 10.0;
    std::string tag;
};

/// Set-up probes before each fleet rep.
constexpr unsigned kProbesPerFleetRep = 25;
/// Pause between set-up probes while in-process replicas run.
constexpr auto kProbeInterval = std::chrono::milliseconds(200);
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kFleetWorkers = 2;
/// Warm in-process runs after each cold one are timed as a batch of
/// at least this many seconds; a single warm run is sub-millisecond.
constexpr double kWarmBatchS = 0.05;

/** In-process replicas: one per CPU, leaving one for the system. */
unsigned
replicaCount()
{
    const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
    return static_cast<unsigned>(std::clamp<long>(cpus - 1, 1, 3));
}

/** What one in-process replica measured. */
struct Samples
{
    std::vector<double> cold, warm;
    std::size_t attempted = 0, failed = 0;
    double rss_mb = 0.0;
};

void
writeSamples(const std::string &path, const Samples &s)
{
    std::ofstream out(path);
    for (double t : s.cold)
        out << "cold " << std::hexfloat << t << "\n";
    for (double t : s.warm)
        out << "warm " << std::hexfloat << t << "\n";
    out << "attempted " << s.attempted << "\nfailed " << s.failed
        << "\nrss " << std::hexfloat << s.rss_mb << "\n";
    if (!out)
        die("short write to " + path);
}

Samples
readSamples(const fs::path &path)
{
    std::ifstream in(path);
    if (!in)
        die("no replica output " + path.string());
    Samples s;
    std::string key, val;
    while (in >> key >> val) {
        if (key == "cold") s.cold.push_back(std::strtod(val.c_str(), nullptr));
        else if (key == "warm") s.warm.push_back(std::strtod(val.c_str(), nullptr));
        else if (key == "attempted") s.attempted = std::stoull(val);
        else if (key == "failed") s.failed = std::stoull(val);
        else if (key == "rss") s.rss_mb = std::strtod(val.c_str(), nullptr);
        else die("malformed replica output " + path.string());
    }
    if (s.cold.empty() || s.warm.empty())
        die("empty replica output " + path.string());
    return s;
}

/**
 * One in-process replica: cold sweeps, each followed by a batch of
 * warm ones, for @p b.seconds and at least kMinReps times; the samples
 * go to @p out_path. Cold runs go store-less. One untimed run up front,
 * with a private disk store attached, warms the process and fills the
 * store the warm runs read: each warm run starts from an empty tier 1,
 * like a fresh process, and must not emit a trace.
 */
int
cmdReplica(const Bench &b, const std::string &out_path)
{
    Samples s;
    const ExperimentEngine engine(1);
    auto &store = CurveStore::instance();
    const fs::path warm_dir =
        b.work / ("store-" + std::to_string(::getpid()));
    fs::remove_all(warm_dir);
    store.setDiskDirectory(warm_dir.string());
    store.clear();
    const auto fill = engine.run(b.jf.jobs);
    s.attempted += cellCount(fill);
    s.failed += mismatchedCells(fill, b.oracle);
    const auto start = Clock::now();
    while (s.cold.size() < kMinReps || since(start) < b.seconds) {
        detachStore();
        auto t0 = Clock::now();
        const auto res = engine.run(b.jf.jobs);
        s.cold.push_back(since(t0));
        s.attempted += cellCount(res);
        s.failed += mismatchedCells(res, b.oracle);
        store.setDiskDirectory(warm_dir.string());
        double batch = 0.0;
        unsigned runs = 0;
        while (runs == 0 || batch < kWarmBatchS) {
            store.clear();
            const std::uint64_t before = engineEmissionCount();
            t0 = Clock::now();
            const auto again = engine.run(b.jf.jobs);
            batch += since(t0);
            ++runs;
            s.attempted += cellCount(again);
            s.failed += engineEmissionCount() != before
                            ? cellCount(again)
                            : mismatchedCells(again, b.oracle);
        }
        s.warm.push_back(batch / runs);
    }
    s.rss_mb = peakRssMb(false);
    detachStore();
    fs::remove_all(warm_dir);
    writeSamples(out_path, s);
    return 0;
}

void
reportFailures(std::size_t attempted, std::size_t failed)
{
    std::printf("cells attempted=%zu failed=%zu failed_frac=%.6g\n",
                attempted, failed,
                attempted ? static_cast<double>(failed) / attempted : 1.0);
}

// ------------------------------------------------------------ --trace 0

int
measureEndToEnd(const Bench &b)
{
    SetupProbes probes(b.exe, b.jobs_path, b.work);
    std::vector<double> cold, warm;
    std::size_t attempted = 0, failed = 0;
    double rss_mb = 0.0;

    if (b.jf.workload == Workload::KernelMixFleet) {
        const auto start = Clock::now();
        detachStore();
        const auto skeleton =
            ExperimentEngine(1).run(b.jf.jobs, kOwnNothing);
        const std::string pid = std::to_string(::getpid());
        for (std::size_t rep = 0;
             cold.size() < kMinReps || since(start) < b.seconds; ++rep) {
            for (unsigned i = 0; i < kProbesPerFleetRep; ++i)
                if (!probes.once())
                    die("set-up probe failed");
            const std::string tag = pid + "-" + std::to_string(rep);
            const fs::path store = b.work / ("store-" + tag);
            fs::remove_all(store);
            const auto c = orchestrateFleet(b.exe, b.jobs_path, skeleton,
                                            store, b.work / ("orch-c" + tag),
                                            kFleetWorkers);
            const auto w = orchestrateFleet(b.exe, b.jobs_path, skeleton,
                                            store, b.work / ("orch-w" + tag),
                                            kFleetWorkers);
            fs::remove_all(store);
            cold.push_back(c.wall_s);
            warm.push_back(w.wall_s);
            attempted += 2 * b.oracle.size();
            failed += fleetFailures(c, b.oracle);
            // A warm run that re-emits served nothing from the store.
            failed += w.worker_emissions != 0 ? b.oracle.size()
                                              : fleetFailures(w, b.oracle);
            std::printf("rep %zu cold_s=%.4f warm_s=%.4f cold_emissions="
                        "%" PRIu64 " warm_emissions=%" PRIu64 "\n",
                        rep, c.wall_s, w.wall_s, c.worker_emissions,
                        w.worker_emissions);
        }
        rss_mb = peakRssMb(true);
    } else {
        // Replicas on separate CPUs: each core's speed drifts on its
        // own, so pooling their samples averages the drift out.
        const unsigned replicas = replicaCount();
        std::vector<pid_t> pids;
        std::vector<fs::path> outs;
        bool ok = true, probes_ok = true;
        for (unsigned r = 0; r < replicas; ++r) {
            outs.push_back(b.work / ("replica-" + std::to_string(::getpid()) +
                                     "-" + std::to_string(r) + ".txt"));
            fs::remove(outs.back());
            const pid_t pid = spawnAsync(
                {b.exe, "replica", b.jobs_path, b.oracle_path, "--seconds",
                 std::to_string(b.seconds), "--work", b.work.string(),
                 "--out", outs.back().string()});
            if (pid > 0)
                pids.push_back(pid);
            else
                ok = false;
        }
        // Probe set-up on the spare CPU until every replica has ended;
        // every started replica is waited for, even if one failed.
        for (std::size_t done = 0; done < pids.size();) {
            probes_ok = probes.once() && probes_ok;
            std::this_thread::sleep_for(kProbeInterval);
            for (pid_t &pid : pids) {
                int status = 0;
                if (pid <= 0 || ::waitpid(pid, &status, WNOHANG) != pid)
                    continue;
                ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
                pid = 0;
                ++done;
            }
        }
        if (!ok)
            die("a replica failed");
        if (!probes_ok)
            die("set-up probe failed");
        for (const auto &out : outs) {
            const Samples s = readSamples(out);
            fs::remove(out);
            std::printf("replica samples=%zu sweep_median_s=%.6f "
                        "warm_median_s=%.6f\n",
                        s.cold.size(), median(s.cold), median(s.warm));
            cold.insert(cold.end(), s.cold.begin(), s.cold.end());
            warm.insert(warm.end(), s.warm.begin(), s.warm.end());
            attempted += s.attempted;
            failed += s.failed;
            rss_mb = std::max(rss_mb, s.rss_mb);
        }
        std::printf("replicas=%u\n", replicas);
    }
    const double setup_s = probes.report();
    printTimes("sweep", cold);
    printTimes("warm", warm);
    reportFailures(attempted, failed);
    printResult(failed == 0, attempted, failed,
                {{"sweep_s", median(cold), "s"},
                 {"warm_s", median(warm), "s"},
                 {"setup_s", setup_s, "s"},
                 {"peak_rss_mb", rss_mb, "MiB"}});
    return 0;
}

// ------------------------------------------------------------ tracing

/**
 * In-memory span recorder for the traced run. Spans nest through an
 * open stack (single-threaded replay); chunk spans measured by
 * ChunkMarker are added closed. A layer's self time is the summed
 * duration of its spans minus the time their child spans cover, with
 * explicit carves moving a measured share (e.g. a bare render of the
 * same trace) from one layer to another.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        int run = 0;
    };

    explicit Tracer(int run_id) : epoch_(Clock::now()), run_(run_id) {}

    double now() const { return since(epoch_); }
    double at(Clock::time_point t) const
    {
        return std::chrono::duration<double>(t - epoch_).count();
    }

    int
    open(const std::string &name)
    {
        spans_.push_back({name, now(), 0.0,
                          stack_.empty() ? -1 : stack_.back(), run_});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        spans_[static_cast<std::size_t>(id)].end = now();
        stack_.pop_back();
    }

    /** Add an already finished child of the innermost open span. */
    void
    addClosed(const std::string &name, double start, double end)
    {
        spans_.push_back({name, start, end,
                          stack_.empty() ? -1 : stack_.back(), run_});
    }

    /** Move @p seconds of span @p id's self time to layer @p to. */
    void
    carve(int id, const std::string &to, double seconds)
    {
        carves_.push_back({id, to, seconds});
    }

    double
    duration(int id) const
    {
        const auto &s = spans_[static_cast<std::size_t>(id)];
        return s.end - s.start;
    }

    /** Layer name -> self seconds. */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const auto &s : spans_)
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] += self[i];
        for (const auto &c : carves_) {
            out[spans_[static_cast<std::size_t>(c.id)].name] -= c.seconds;
            out[c.to] += c.seconds;
        }
        return out;
    }

    /** Append every span as a tab-separated row (id, parent, run,
     *  name, start, end; seconds since this tracer's epoch). */
    void
    write(std::ostream &out) const
    {
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto &s = spans_[i];
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.9f\t%.9f", s.start, s.end);
            out << i << "\t" << s.parent << "\t" << s.run << "\t" << s.name
                << "\t" << buf << "\n";
        }
    }

    std::size_t size() const { return spans_.size(); }

  private:
    struct Carve
    {
        int id;
        std::string to;
        double seconds;
    };

    Clock::time_point epoch_;
    int run_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::vector<Carve> carves_;
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const std::string &name) : t_(t), id_(t.open(name)) {}
    ~SpanScope() { t_.close(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;
    int id() const { return id_; }

  private:
    Tracer &t_;
    int id_;
};

/** Swallows a trace, counting calls and words (a bare render). */
class NullSink final : public TraceSink
{
  public:
    void onAccess(const Access &) override { ++ops_, ++words_; }
    void
    onRun(std::uint64_t, std::uint64_t words, AccessType) override
    {
        ++ops_;
        words_ += words;
    }
    std::uint64_t ops() const { return ops_; }
    std::uint64_t words() const { return words_; }

  private:
    std::uint64_t ops_ = 0;
    std::uint64_t words_ = 0;
};

/**
 * Pipeline consumer that timestamps the start of every chunk it is
 * handed. The pipeline delivers each chunk to its consumers in attach
 * order, so markers attached between consumers bracket each
 * consumer's share of every chunk without timing individual ops.
 */
class ChunkMarker final : public TraceSink
{
  public:
    explicit ChunkMarker(std::size_t chunk_ops) : chunk_(chunk_ops) {}
    void onAccess(const Access &) override { tick(); }
    void onRun(std::uint64_t, std::uint64_t, AccessType) override { tick(); }
    const std::vector<Clock::time_point> &stamps() const { return stamps_; }

  private:
    void
    tick()
    {
        if (ops_++ % chunk_ == 0)
            stamps_.push_back(Clock::now());
    }
    std::size_t chunk_;
    std::uint64_t ops_ = 0;
    std::vector<Clock::time_point> stamps_;
};

/** What the traced replay measured beyond span times. */
struct LayerCounts
{
    std::uint64_t emissions = 0;
    std::uint64_t trace_words = 0;
    std::uint64_t chunks = 0;
    OptStreamStats opt;
    std::map<std::string, MemoryStats> models; ///< by metric prefix
    CurveStoreStats store;
    std::uint64_t disk_bytes = 0;
    OrchestratorStats orch;
    std::size_t orch_workers = 0;
    std::uint64_t warm_emissions = 0;
};

void
addStats(CurveStoreStats &acc, const CurveStoreStats &s)
{
    acc.hits += s.hits;
    acc.misses += s.misses;
    acc.disk_hits += s.disk_hits;
    acc.disk_stores += s.disk_stores;
}

std::uint64_t
dirBytes(const fs::path &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            total += e.file_size(ec);
    return total;
}

/// The engine's 8-way models: sets rounded up so a model never holds
/// fewer than m words (engine.cpp's setAssocSets).
std::uint64_t
setAssocSets(std::uint64_t m)
{
    return std::max<std::uint64_t>((m + 7) / 8, 1);
}
constexpr std::uint64_t kWays = 8;
constexpr std::uint64_t kRandomSeed = 7;

ReplayModelKey
replayKey(MemoryModelKind kind)
{
    ReplayModelKey key;
    key.family = static_cast<std::uint8_t>(kind);
    if (kind == MemoryModelKind::SetAssocLru ||
        kind == MemoryModelKind::SetAssocFifo)
        key.param = kWays;
    else if (kind == MemoryModelKind::RandomRepl)
        key.param = kRandomSeed;
    return key;
}

std::string
modelMetricPrefix(MemoryModelKind kind)
{
    switch (kind) {
      case MemoryModelKind::SetAssocLru:  return "mem.set_assoc_lru";
      case MemoryModelKind::SetAssocFifo: return "mem.set_assoc_fifo";
      case MemoryModelKind::RandomRepl:   return "mem.random";
      case MemoryModelKind::Lru:          return "mem.lru";
      case MemoryModelKind::Opt:          return "mem.opt";
    }
    return "?";
}

/** Schedule memory the point at capacity @p m replays: the fixed
 *  schedule, or the headroom fraction of m clamped to the kernel's
 *  minimum (the engine's per-point rule). */
std::uint64_t
pointScheduleM(const Kernel &kernel, const SweepResult &r, std::uint64_t m)
{
    std::uint64_t trace_m = r.job.schedule_m ? r.job.schedule_m : m;
    if (r.job.schedule_headroom > 0)
        trace_m = std::max(trace_m * r.job.schedule_headroom_num /
                               r.job.schedule_headroom,
                           kernel.minMemory(r.n_hint));
    return trace_m;
}

/**
 * Replays a workload's jobs as the public calls the engine makes,
 * with a span around each call, and cross-checks every model column
 * against the untraced engine result.
 */
class TracedReplay
{
  public:
    TracedReplay(Tracer &tracer, LayerCounts &counts)
        : t_(tracer), c_(counts), backend_(activeTraceBackend())
    {
    }

    /** Bare render of (kernel, n, m) into a null sink: the emission
     *  share carved out of every consumer span over that trace.
     *  Median of three, cached per trace. */
    double
    bareEmit(const Kernel &kernel, std::uint64_t n, std::uint64_t m,
             std::uint64_t *words = nullptr)
    {
        const auto key = std::make_tuple(kernel.name(), n, m);
        auto it = emit_cache_.find(key);
        if (it == emit_cache_.end()) {
            std::vector<double> ts;
            NullSink sink;
            for (int i = 0; i < 3; ++i) {
                sink = NullSink{};
                const auto t0 = Clock::now();
                backend_.emit(kernel, n, m, sink);
                ts.push_back(since(t0));
            }
            it = emit_cache_.emplace(key, std::make_pair(median(ts),
                                                         sink.words()))
                     .first;
        }
        if (words)
            *words = it->second.second;
        return it->second.first;
    }

    /** Count one emission of (kernel, n, m) in the layer counters and
     *  return its bare render time. */
    double
    emission(const Kernel &kernel, std::uint64_t n, std::uint64_t m)
    {
        std::uint64_t words = 0;
        const double e = bareEmit(kernel, n, m, &words);
        ++c_.emissions;
        c_.trace_words += words;
        return e;
    }

    /** Mirror of the engine's fixed-schedule job task; fills @p io
     *  [point][model]. */
    void
    fixedJob(const SweepResult &r,
             std::vector<std::vector<std::uint64_t>> &io)
    {
        const auto kernel = KernelRegistry::instance().shared(r.job.kernel);
        const SweepJob &job = r.job;
        const std::uint64_t n = kernel->regimeProblemSize(r.n_hint,
                                                          job.schedule_m);
        const TraceKey key{job.kernel, n, job.schedule_m};
        std::vector<std::uint64_t> grid;
        for (const auto &p : r.points)
            grid.push_back(p.sample.m);
        auto &store = CurveStore::instance();

        bool wants_lru = false, wants_sa = false, wants_opt = false;
        for (auto kind : job.models) {
            wants_lru |= kind == MemoryModelKind::Lru;
            wants_sa |= kind == MemoryModelKind::SetAssocLru;
            wants_opt |= kind == MemoryModelKind::Opt;
            if (kind == MemoryModelKind::SetAssocFifo ||
                kind == MemoryModelKind::RandomRepl)
                die("traced replay: fixed-schedule jobs here carry only "
                    "inclusion models");
        }

        std::shared_ptr<const MissCurve> lru;
        std::map<std::uint64_t, std::shared_ptr<const MissCurve>> sa;
        std::shared_ptr<const OptCurve> opt;
        {
            SpanScope s(t_, "engine.curve_store.find");
            if (wants_lru)
                lru = store.findLru(key);
            if (wants_sa) {
                for (auto m : grid)
                    sa.emplace(setAssocSets(m), nullptr);
                for (auto &[sets, curve] : sa)
                    curve = store.findSetAssoc(key, sets, kWays);
            }
            if (wants_opt)
                opt = store.findOpt(key, grid);
        }

        std::vector<std::uint64_t> missing_sets;
        for (auto &[sets, curve] : sa)
            if (!curve)
                missing_sets.push_back(sets);
        const bool need_lru = wants_lru && !lru;
        const bool fuse = need_lru && !missing_sets.empty();
        std::optional<MultiSetReuseAnalyzer> msa;
        ReuseDistanceAnalyzer fa;
        std::optional<OptNextUseRecorder> rec;
        // (consumer, layer) in the engine's branch order.
        std::vector<std::pair<TraceSink *, std::string>> branches;
        if (!missing_sets.empty()) {
            msa.emplace(missing_sets, kWays, activeAnalyzerPath(), fuse);
            branches.push_back({&*msa, fuse ? "trace.reuse.fused"
                                            : "trace.reuse.multi_set"});
        }
        if (need_lru && !fuse)
            branches.push_back({&fa, "trace.reuse.fully_assoc"});
        if (wants_opt && !opt) {
            rec.emplace();
            branches.push_back({&*rec, "mem.opt.pass1"});
        }

        if (!branches.empty())
            emitBranches(*kernel, n, job.schedule_m, branches,
                         emission(*kernel, n, job.schedule_m));

        {
            SpanScope s(t_, "engine.curve_store.store");
            if (need_lru) {
                lru = std::make_shared<const MissCurve>(
                    fuse ? msa->fullyAssocCurve() : fa.missCurve());
                store.storeLru(key, lru);
            }
            if (msa)
                for (std::size_t p = 0; p < msa->planeCount(); ++p) {
                    auto curve = std::make_shared<const MissCurve>(
                        msa->waysCurve(p));
                    store.storeSetAssoc(key, msa->setsAt(p), kWays, curve);
                    sa[msa->setsAt(p)] = std::move(curve);
                }
        }
        if (rec) {
            const double e = emission(*kernel, n, job.schedule_m);
            OptStreamStats stats;
            {
                SpanScope s(t_, "mem.opt.pass2");
                opt = std::make_shared<const OptCurve>(rec->finish(
                    [&](TraceSink &sink) {
                        backend_.emit(*kernel, n, job.schedule_m, sink);
                    },
                    grid, &stats));
                t_.carve(s.id(), "kernels.emit", e);
            }
            c_.opt.chunks_loaded += stats.chunks_loaded;
            c_.opt.chunks_prefetched += stats.chunks_prefetched;
            c_.opt.spilled_bytes += stats.spilled_bytes;
            c_.opt.peak_resident_bytes = std::max(
                c_.opt.peak_resident_bytes, stats.peak_resident_bytes);
            SpanScope s(t_, "engine.curve_store.store");
            store.storeOpt(key, opt);
        }

        io.assign(grid.size(), {});
        for (std::size_t p = 0; p < grid.size(); ++p)
            for (auto kind : job.models) {
                const std::uint64_t m = grid[p];
                if (kind == MemoryModelKind::Lru)
                    io[p].push_back(lru->ioWords(m));
                else if (kind == MemoryModelKind::SetAssocLru)
                    io[p].push_back(sa[setAssocSets(m)]->ioWords(kWays));
                else
                    io[p].push_back(opt->ioWords(m));
            }
    }

    /**
     * Mirror of the engine's per-point replay task (models_only jobs):
     * store probes, one emission into a ReplaySink over every missing
     * model, store writes. The fan-out span's consumer time is split
     * by single-model replays of the same trace (solo - bare render);
     * what remains is ReplaySink's own share.
     */
    void
    perPointJob(const SweepResult &r,
                std::vector<std::vector<std::uint64_t>> &io)
    {
        const auto kernel = KernelRegistry::instance().shared(r.job.kernel);
        const SweepJob &job = r.job;
        auto &store = CurveStore::instance();
        io.assign(r.points.size(), {});
        for (std::size_t p = 0; p < r.points.size(); ++p) {
            const std::uint64_t m = r.points[p].sample.m;
            const std::uint64_t trace_m = pointScheduleM(*kernel, r, m);
            const std::uint64_t n =
                kernel->regimeProblemSize(r.n_hint, trace_m);
            const TraceKey key{job.kernel, n, trace_m};

            std::vector<std::optional<std::uint64_t>> cached(
                job.models.size());
            {
                SpanScope s(t_, "engine.curve_store.find");
                for (std::size_t i = 0; i < job.models.size(); ++i)
                    cached[i] = store.findReplayIo(
                        key, replayKey(job.models[i]), m);
            }
            std::vector<std::unique_ptr<LocalMemory>> models;
            std::vector<LocalMemory *> ptrs;
            std::vector<MemoryModelKind> kinds;
            for (std::size_t i = 0; i < job.models.size(); ++i) {
                if (cached[i])
                    continue;
                if (job.models[i] == MemoryModelKind::Opt)
                    die("traced replay: per-point OPT is not mirrored");
                models.push_back(makeMemoryModel(job.models[i], m));
                ptrs.push_back(models.back().get());
                kinds.push_back(job.models[i]);
            }
            if (!ptrs.empty()) {
                const double e = emission(*kernel, n, trace_m);
                ReplaySink replay(ptrs);
                SpanScope s(t_, "trace.replay.fanout");
                backend_.emit(*kernel, n, trace_m, replay);
                replay.flush();
                t_.carve(s.id(), "kernels.emit", e);
                pending_.push_back({s.id(), kernel, n, trace_m, m, kinds, e});
            }
            std::size_t next = 0;
            SpanScope s(t_, "engine.curve_store.store");
            for (std::size_t i = 0; i < job.models.size(); ++i) {
                std::uint64_t v = 0;
                if (cached[i]) {
                    v = *cached[i];
                } else {
                    const auto &st = models[next++]->stats();
                    v = st.ioWords();
                    auto &acc = c_.models[modelMetricPrefix(job.models[i])];
                    acc.accesses += st.accesses;
                    acc.hits += st.hits;
                    acc.misses += st.misses;
                    acc.writebacks += st.writebacks;
                    store.storeReplayIo(key, replayKey(job.models[i]), m, v);
                }
                io[p].push_back(v);
            }
        }
    }

    /**
     * Single-model replays of every fan-out recorded by perPointJob,
     * run after the traced wall: carve each model's share (solo run
     * minus bare render) out of its fan-out span.
     */
    void
    splitFanouts(std::map<std::string, double> &model_s)
    {
        for (const auto &f : pending_)
            for (auto kind : f.kinds) {
                auto model = makeMemoryModel(kind, f.m);
                ReplaySink solo(*model);
                const auto t0 = Clock::now();
                backend_.emit(*f.kernel, f.n, f.trace_m, solo);
                solo.flush();
                const double share = std::max(0.0, since(t0) - f.emit_s);
                const std::string layer = modelMetricPrefix(kind) + ".replay";
                t_.carve(f.span, layer, share);
                model_s[layer] += share;
            }
    }

  private:
    /** Engine's emitThroughBranches: one consumer gets the emission
     *  directly, several share one AnalysisPipeline. */
    void
    emitBranches(const Kernel &kernel, std::uint64_t n, std::uint64_t m,
                 const std::vector<std::pair<TraceSink *, std::string>> &br,
                 double emit_s)
    {
        if (br.size() == 1) {
            SpanScope s(t_, br.front().second);
            backend_.emit(kernel, n, m, *br.front().first);
            t_.carve(s.id(), "kernels.emit", emit_s);
            return;
        }
        const std::size_t chunk = AnalysisPipeline::kDefaultChunkOps;
        std::vector<std::unique_ptr<ChunkMarker>> marks;
        AnalysisPipeline pipeline;
        for (const auto &b : br) {
            marks.push_back(std::make_unique<ChunkMarker>(chunk));
            pipeline.attach(*marks.back());
            pipeline.attach(*b.first);
        }
        marks.push_back(std::make_unique<ChunkMarker>(chunk));
        pipeline.attach(*marks.back());
        SpanScope s(t_, "trace.pipeline.render");
        backend_.emit(kernel, n, m, pipeline);
        pipeline.flush();
        // Consumer i owns [mark i, mark i+1) of every chunk.
        for (std::size_t i = 0; i < br.size(); ++i) {
            const auto &a = marks[i]->stamps();
            const auto &z = marks[i + 1]->stamps();
            for (std::size_t k = 0; k < a.size() && k < z.size(); ++k)
                t_.addClosed(br[i].second, t_.at(a[k]), t_.at(z[k]));
        }
        c_.chunks += pipeline.chunksDelivered();
        t_.carve(s.id(), "kernels.emit", emit_s);
    }

    struct Fanout
    {
        int span;
        std::shared_ptr<const Kernel> kernel;
        std::uint64_t n, trace_m, m;
        std::vector<MemoryModelKind> kinds;
        double emit_s;
    };

    Tracer &t_;
    LayerCounts &c_;
    const TraceBackend &backend_;
    std::map<std::tuple<std::string, std::uint64_t, std::uint64_t>,
             std::pair<double, std::uint64_t>>
        emit_cache_;
    std::vector<Fanout> pending_;
};

/** The untraced unit a workload's traced run mirrors. */
struct UnitResult
{
    std::vector<SweepResult> cold;
    std::size_t failed = 0;
    std::size_t attempted = 0;
    std::uint64_t emissions = 0;      ///< engine emissions, cold
    std::uint64_t warm_emissions = 0; ///< in-process + workers, warm
};

/**
 * One untraced unit: a cold in-process sweep; for the fleet also a
 * warm in-process sweep from the disk store it wrote, then an
 * orchestrated cold and warm pair on a second fresh store.
 */
UnitResult
runUnit(const Bench &b, const fs::path &store_dir)
{
    UnitResult u;
    const ExperimentEngine engine(1);
    auto &store = CurveStore::instance();
    const bool fleet = b.jf.workload == Workload::KernelMixFleet;
    store.setDiskDirectory(fleet ? store_dir.string() : "");
    store.clear();
    std::uint64_t before = engineEmissionCount();
    u.cold = engine.run(b.jf.jobs);
    u.emissions = engineEmissionCount() - before;
    u.attempted += cellCount(u.cold);
    u.failed += mismatchedCells(u.cold, b.oracle);
    if (fleet) {
        store.clear();
        before = engineEmissionCount();
        const auto warm = engine.run(b.jf.jobs);
        const std::uint64_t warm_emitted = engineEmissionCount() - before;
        u.warm_emissions += warm_emitted;
        u.attempted += cellCount(warm);
        // A warm run that re-emits served nothing from the store.
        u.failed += warm_emitted != 0 ? cellCount(warm)
                                      : mismatchedCells(warm, b.oracle);
        store.setDiskDirectory("");
        const auto skeleton = engine.run(b.jf.jobs, kOwnNothing);
        const fs::path orch_store = store_dir.string() + "-orch";
        const std::string pid = std::to_string(::getpid());
        const auto c = orchestrateFleet(b.exe, b.jobs_path, skeleton,
                                        orch_store, b.work / ("oc" + pid),
                                        kFleetWorkers);
        const auto w = orchestrateFleet(b.exe, b.jobs_path, skeleton,
                                        orch_store, b.work / ("ow" + pid),
                                        kFleetWorkers);
        fs::remove_all(orch_store);
        u.warm_emissions += w.worker_emissions;
        u.attempted += 2 * b.oracle.size();
        u.failed += fleetFailures(c, b.oracle);
        u.failed += w.worker_emissions != 0 ? b.oracle.size()
                                            : fleetFailures(w, b.oracle);
    }
    store.setDiskDirectory("");
    fs::remove_all(store_dir);
    return u;
}

/**
 * The traced mirror of runUnit(). Returns the traced wall time and
 * fills the span tree and counters; model columns are checked
 * against @p reference (the untraced cold results).
 */
double
tracedUnit(const Bench &b, const std::vector<SweepResult> &reference,
           const fs::path &store_dir, Tracer &t, LayerCounts &c,
           std::size_t &failed, std::map<std::string, double> &model_s)
{
    const bool fleet = b.jf.workload == Workload::KernelMixFleet;
    auto &store = CurveStore::instance();
    store.setDiskDirectory(fleet ? store_dir.string() : "");
    store.clear();
    TracedReplay replay(t, c);
    // Calibrate the bare renders before the wall starts.
    for (const auto &r : reference) {
        const auto kernel = KernelRegistry::instance().shared(r.job.kernel);
        for (const auto &p : r.points) {
            const std::uint64_t tm = pointScheduleM(*kernel, r, p.sample.m);
            replay.bareEmit(*kernel, kernel->regimeProblemSize(r.n_hint, tm),
                            tm);
        }
    }

    auto check = [&](const SweepResult &r,
                     const std::vector<std::vector<std::uint64_t>> &io) {
        for (std::size_t p = 0; p < r.points.size(); ++p)
            failed += p >= io.size() || io[p] != r.points[p].model_io;
    };
    auto replayAll = [&] {
        for (const auto &r : reference) {
            std::vector<std::vector<std::uint64_t>> io;
            if (r.job.schedule_m)
                replay.fixedJob(r, io);
            else
                replay.perPointJob(r, io);
            check(r, io);
        }
    };

    const double t0 = t.now();
    {
        SpanScope root(t, "engine.glue");
        replayAll();
        addStats(c.store, store.stats());
        if (fleet) {
            c.disk_bytes = dirBytes(store_dir);
            // Warm: a fresh tier 1 served from the disk store just
            // written; every curve must come back without an emission.
            store.clear();
            const std::uint64_t emitted = c.emissions;
            replayAll();
            addStats(c.store, store.stats());
            c.warm_emissions += c.emissions - emitted;
            if (c.emissions != emitted)
                failed += cellCount(reference);
            store.setDiskDirectory("");
            const auto skeleton =
                ExperimentEngine(1).run(b.jf.jobs, kOwnNothing);
            const fs::path orch_store = store_dir.string() + "-orch";
            const std::string pid = std::to_string(::getpid());
            for (const char *phase : {"cold", "warm"}) {
                SpanScope s(t, "engine.orchestrator");
                const auto run = orchestrateFleet(
                    b.exe, b.jobs_path, skeleton, orch_store,
                    b.work / (std::string("t") + phase + pid),
                    kFleetWorkers);
                const auto &st = run.orch.stats;
                c.orch.dispatched += st.dispatched;
                c.orch.retried += st.retried;
                c.orch.speculative += st.speculative;
                c.orch.fragments_rejected += st.fragments_rejected;
                c.orch.wall_s += st.wall_s;
                c.orch.busy_s += st.busy_s;
                c.orch_workers = kFleetWorkers;
                const bool warm = std::string(phase) == "warm";
                if (warm)
                    c.warm_emissions += run.worker_emissions;
                failed += warm && run.worker_emissions != 0
                              ? b.oracle.size()
                              : fleetFailures(run, b.oracle);
            }
            fs::remove_all(orch_store);
        }
    }
    const double wall = t.now() - t0;
    store.setDiskDirectory("");
    fs::remove_all(store_dir);
    // Ledger work after the wall: split each replay fan-out by model.
    replay.splitFanouts(model_s);
    return wall;
}

/** Like-for-like analyzer ledger over the workload's fixed-schedule
 *  traces: fully associative and multi-set passes run separately
 *  (simd on both) against the fused pass, each with its own
 *  emission. Also emission rates, bare and through a chunk pipeline. */
struct Ledger
{
    double fully_assoc_s = 0, multi_set_s = 0, fused_s = 0;
    double separate_wall_s = 0, fused_wall_s = 0;
    double emit_s = 0, render_s = 0;
    std::uint64_t ops = 0, words = 0;
};

/// Passes of each side of the fused-versus-separate ledger.
constexpr unsigned kLedgerReps = 3;

Ledger
runLedger(const std::vector<SweepResult> &reference)
{
    Ledger l;
    const TraceBackend &backend = activeTraceBackend();
    for (const auto &r : reference) {
        const auto kernel = KernelRegistry::instance().shared(r.job.kernel);
        // A per-point job contributes its largest point's trace.
        const std::uint64_t m =
            pointScheduleM(*kernel, r, r.points.back().sample.m);
        const std::uint64_t n = kernel->regimeProblemSize(r.n_hint, m);

        NullSink null;
        auto t0 = Clock::now();
        backend.emit(*kernel, n, m, null);
        const double e = since(t0);
        l.emit_s += e;
        l.ops += null.ops();
        l.words += null.words();

        ChunkMarker trivial(AnalysisPipeline::kDefaultChunkOps);
        AnalysisPipeline pipe;
        pipe.attach(trivial);
        t0 = Clock::now();
        backend.emit(*kernel, n, m, pipe);
        pipe.flush();
        l.render_s += since(t0);

        if (!r.job.schedule_m)
            continue;
        bool has_sa = false;
        for (auto kind : r.job.models)
            has_sa |= kind == MemoryModelKind::SetAssocLru;
        if (!has_sa)
            continue;
        std::vector<std::uint64_t> sets;
        for (const auto &p : r.points)
            sets.push_back(setAssocSets(p.sample.m));
        std::sort(sets.begin(), sets.end());
        sets.erase(std::unique(sets.begin(), sets.end()), sets.end());

        // One pass of each is at the mercy of the host's phase; the
        // three sides take turns and each reports its median.
        std::vector<double> fas, mss, fs_;
        for (unsigned rep = 0; rep < kLedgerReps; ++rep) {
            ReuseDistanceAnalyzer fa(AnalyzerPath::Simd);
            t0 = Clock::now();
            backend.emit(*kernel, n, m, fa);
            fas.push_back(since(t0));
            MultiSetReuseAnalyzer ms(sets, kWays, AnalyzerPath::Simd, false);
            t0 = Clock::now();
            backend.emit(*kernel, n, m, ms);
            mss.push_back(since(t0));
            MultiSetReuseAnalyzer fused(sets, kWays, AnalyzerPath::Simd,
                                        true);
            t0 = Clock::now();
            backend.emit(*kernel, n, m, fused);
            fs_.push_back(since(t0));
        }
        const double t_fa = median(fas), t_ms = median(mss),
                     t_f = median(fs_);
        l.fully_assoc_s += std::max(0.0, t_fa - e);
        l.multi_set_s += std::max(0.0, t_ms - e);
        l.fused_s += std::max(0.0, t_f - e);
        l.separate_wall_s += t_fa + t_ms;
        l.fused_wall_s += t_f;
    }
    return l;
}

/// Untraced/traced unit pairs a traced run makes at least.
constexpr std::size_t kMinTracedPairs = 2;

/** One traced replay of the unit and what it measured. */
struct TracedRep
{
    Tracer tracer;
    LayerCounts counts;
    std::map<std::string, double> model_s;
    double wall = 0.0;
};

int
measureTraced(const Bench &b)
{
    const std::string pid = std::to_string(::getpid());
    const fs::path store_dir = b.work / ("tstore-" + pid);

    // Untraced and traced units alternate through the window, so both
    // sample the same host phases. The traced rep with the median wall
    // is the one reported.
    std::vector<double> walls;
    std::vector<TracedRep> reps;
    UnitResult unit;
    std::size_t attempted = 0, failed = 0;
    const auto start = Clock::now();
    while (reps.size() < kMinTracedPairs || since(start) < b.seconds) {
        const auto t0 = Clock::now();
        unit = runUnit(b, store_dir);
        walls.push_back(since(t0));
        attempted += unit.attempted;
        failed += unit.failed;
        TracedRep rep{Tracer(static_cast<int>(reps.size())), {}, {}, 0.0};
        std::size_t traced_failed = 0;
        rep.wall = tracedUnit(b, unit.cold, store_dir, rep.tracer, rep.counts,
                              traced_failed, rep.model_s);
        attempted += cellCount(unit.cold);
        failed += traced_failed;
        reps.push_back(std::move(rep));
    }
    const double untraced = median(walls);
    std::vector<const TracedRep *> by_wall;
    for (const auto &r : reps)
        by_wall.push_back(&r);
    std::sort(by_wall.begin(), by_wall.end(),
              [](const TracedRep *x, const TracedRep *y) {
                  return x->wall < y->wall;
              });
    const TracedRep &pick = *by_wall[(by_wall.size() - 1) / 2];
    const Tracer &tracer = pick.tracer;
    LayerCounts counts = pick.counts;
    std::map<std::string, double> model_s = pick.model_s;
    const double traced = pick.wall;
    const Ledger ledger = runLedger(unit.cold);

    const auto self = tracer.selfTimes();
    double attributed = 0.0;
    for (const auto &[layer, s] : self)
        attributed += s;
    auto get = [&](const std::string &k) {
        const auto it = self.find(k);
        return it == self.end() ? 0.0 : it->second;
    };

    std::printf("traced wall %.4f s (median of %zu), untraced %.4f s "
                "(median of %zu), %zu spans\n",
                traced, reps.size(), untraced, walls.size(), tracer.size());
    std::printf("%-28s %10s %8s\n", "layer", "self_s", "share");
    for (const auto &[layer, s] : self)
        std::printf("%-28s %10.4f %7.1f%%\n", layer.c_str(), s,
                    100.0 * s / traced);
    std::printf("%-28s %10.4f %7.1f%%\n", "engine.unattributed",
                untraced - attributed, 100.0 * (untraced - attributed) / traced);
    std::printf("%-28s %10.4f %7.1f%%\n", "trace.overhead", traced - untraced,
                100.0 * (traced - untraced) / traced);
    if (counts.emissions != unit.emissions)
        std::printf("note: traced replay made %" PRIu64
                    " emissions, the engine %" PRIu64 "\n",
                    counts.emissions, unit.emissions);

    const fs::path span_dir = b.work / "spans";
    fs::create_directories(span_dir);
    std::ofstream spans(span_dir / (std::string(workloadName(b.jf.workload)) +
                                    "-" + b.tag + ".tsv"));
    spans << "id\tparent\trun\tname\tstart_s\tend_s\n";
    for (const auto &r : reps)
        r.tracer.write(spans);

    auto ratio = [](double a, double d) { return d > 0 ? a / d : 0.0; };
    std::vector<Metric> metrics = {
        {"kernels.emit_s", get("kernels.emit"), "s"},
        {"kernels.trace_words", double(counts.trace_words), "words"},
        {"kernels.emissions", double(unit.emissions), "count"},
        {"kernels.warm_emissions",
         double(unit.warm_emissions + counts.warm_emissions), "count"},
        {"kernels.emit_ops_per_s", ratio(double(ledger.ops), ledger.emit_s),
         "1/s"},
        {"kernels.render_ops_per_s",
         ratio(double(ledger.ops), ledger.render_s), "1/s"},
        {"kernels.render_words_per_s",
         ratio(double(ledger.words), ledger.render_s), "words/s"},
        {"trace.pipeline.render_s", get("trace.pipeline.render"), "s"},
        {"trace.pipeline.chunks", double(counts.chunks), "count"},
        {"trace.reuse.fully_assoc_s", ledger.fully_assoc_s, "s"},
        {"trace.reuse.multi_set_s", ledger.multi_set_s, "s"},
        {"trace.reuse.fused_s", ledger.fused_s, "s"},
        {"trace.reuse.fused_vs_separate",
         ratio(ledger.separate_wall_s, ledger.fused_wall_s), "x"},
        {"trace.reuse.self_s",
         get("trace.reuse.fused") + get("trace.reuse.multi_set") +
             get("trace.reuse.fully_assoc"),
         "s"},
        {"mem.opt.pass1_s", get("mem.opt.pass1"), "s"},
        {"mem.opt.pass2_s", get("mem.opt.pass2"), "s"},
        {"mem.opt.share", ratio(get("mem.opt.pass1") + get("mem.opt.pass2"),
                                traced),
         "fraction"},
        {"mem.opt.chunks_loaded", double(counts.opt.chunks_loaded), "count"},
        {"mem.opt.chunks_prefetched", double(counts.opt.chunks_prefetched),
         "count"},
        {"mem.opt.spilled_bytes", double(counts.opt.spilled_bytes), "bytes"},
        {"mem.opt.peak_resident_bytes",
         double(counts.opt.peak_resident_bytes), "bytes"},
    };
    double separate = 0.0;
    for (const char *prefix :
         {"mem.set_assoc_lru", "mem.set_assoc_fifo", "mem.random"}) {
        const std::string p = prefix;
        const MemoryStats st = counts.models[p];
        separate += model_s[p + ".replay"];
        metrics.push_back({p + ".replay_s", model_s[p + ".replay"], "s"});
        metrics.push_back({p + ".accesses", double(st.accesses), "count"});
        metrics.push_back({p + ".misses", double(st.misses), "count"});
        metrics.push_back({p + ".writebacks", double(st.writebacks), "count"});
        metrics.push_back({p + ".hit_ratio",
                           ratio(double(st.hits), double(st.accesses)),
                           "fraction"});
    }
    const double fanout = get("trace.replay.fanout") + separate;
    const auto &cs = counts.store;
    const double orch_busy_cap =
        counts.orch.wall_s * double(counts.orch_workers);
    metrics.insert(
        metrics.end(),
        {{"trace.replay.fanout_s", fanout, "s"},
         {"trace.replay.separate_s", separate, "s"},
         {"engine.curve_store.store_s", get("engine.curve_store.store"), "s"},
         {"engine.curve_store.find_s", get("engine.curve_store.find"), "s"},
         {"engine.curve_store.disk_stores", double(cs.disk_stores), "count"},
         {"engine.curve_store.disk_hits", double(cs.disk_hits), "count"},
         {"engine.curve_store.hit_ratio",
          ratio(double(cs.hits), double(cs.hits + cs.misses)), "fraction"},
         {"engine.curve_store.disk_bytes", double(counts.disk_bytes), "bytes"},
         {"engine.orchestrator.wall_s", get("engine.orchestrator"), "s"},
         {"engine.orchestrator.busy_s", counts.orch.busy_s, "s"},
         {"engine.orchestrator.utilization",
          ratio(counts.orch.busy_s, orch_busy_cap), "fraction"},
         {"engine.orchestrator.dispatched", double(counts.orch.dispatched),
          "count"},
         {"engine.orchestrator.retried", double(counts.orch.retried), "count"},
         {"engine.orchestrator.speculative", double(counts.orch.speculative),
          "count"},
         {"engine.orchestrator.fragments_rejected",
          double(counts.orch.fragments_rejected), "count"},
         {"engine.glue_s", get("engine.glue"), "s"},
         {"engine.unattributed_s", untraced - attributed, "s"},
         {"trace.overhead_s", traced - untraced, "s"},
         {"trace.traced_wall_s", traced, "s"},
         {"trace.untraced_wall_s", untraced, "s"}});
    reportFailures(attempted, failed);
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}

// ------------------------------------------------------------ main

int
usage()
{
    std::fprintf(stderr,
                 "usage: cio_harness gen JOBS --workload W --seed S "
                 "[--size full|tiny]\n"
                 "       cio_harness oracle JOBS OUT\n"
                 "       cio_harness measure JOBS ORACLE --seconds S "
                 "--trace 0|1 --work DIR --tag T\n"
                 "       cio_harness replica JOBS ORACLE --seconds S "
                 "--work DIR --out FILE\n"
                 "       cio_harness probe JOBS STORE\n"
                 "       cio_harness worker JOBS --store DIR --cells LO-HI "
                 "--shard-out PATH\n");
    return 2;
}

/** --key value pairs after the positional arguments. */
std::map<std::string, std::string>
flags(int argc, char **argv, int first)
{
    std::map<std::string, std::string> out;
    for (int i = first; i < argc; i += 2) {
        if (i + 1 >= argc || std::strncmp(argv[i], "--", 2) != 0)
            die(std::string("bad argument ") + argv[i]);
        out[argv[i] + 2] = argv[i + 1];
    }
    return out;
}

std::string
need(const std::map<std::string, std::string> &f, const std::string &key)
{
    const auto it = f.find(key);
    if (it == f.end())
        die("missing --" + key);
    return it->second;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    // An ambient store directory would turn cold runs warm.
    ::unsetenv("KB_CURVE_CACHE_DIR");
    const std::string cmd = argv[1];
    const std::string jobs = argv[2];
    if (cmd == "gen") {
        const auto f = flags(argc, argv, 3);
        const auto it = f.find("size");
        return cmdGen(jobs, need(f, "workload"), std::stoull(need(f, "seed")),
                      it == f.end() ? "full" : it->second);
    }
    if (cmd == "oracle" && argc == 4)
        return cmdOracle(jobs, argv[3]);
    if (cmd == "probe" && argc == 4)
        return cmdProbe(jobs, argv[3]);
    if (cmd == "worker") {
        const auto f = flags(argc, argv, 3);
        return cmdWorker(jobs, need(f, "store"), need(f, "cells"),
                         need(f, "shard-out"));
    }
    if ((cmd == "measure" || cmd == "replica") && argc >= 4) {
        const auto f = flags(argc, argv, 4);
        Bench b;
        b.exe = fs::absolute(argv[0]).string();
        b.jobs_path = fs::absolute(jobs).string();
        b.work = fs::absolute(need(f, "work"));
        b.jf = readJobs(jobs);
        b.oracle_path = fs::absolute(argv[3]).string();
        b.oracle = readDigests(b.oracle_path);
        b.seconds = std::stod(need(f, "seconds"));
        if (cmd == "replica")
            return cmdReplica(b, need(f, "out"));
        b.tag = need(f, "tag");
        fs::create_directories(b.work);
        printHostStamp();
        const std::string trace = need(f, "trace");
        if (trace == "0")
            return measureEndToEnd(b);
        if (trace == "1")
            return measureTraced(b);
        die("--trace must be 0 or 1");
    }
    return usage();
}
