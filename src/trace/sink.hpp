/**
 * @file
 * Trace sinks: destinations for the access streams emitted by kernel
 * schedules. A kernel writes its trace once; sinks decide whether to
 * count it, record it, replay it into a cache model, or fan it out.
 *
 * Sinks receive the stream through two entry points: onAccess() for
 * single accesses and onRun() for contiguous same-type runs. The run
 * form lets kernels hand a whole strip (a tile row, a merge segment)
 * to the sink in one virtual call; sinks that can process a run in
 * O(1) (counting, discarding) override it, everything else inherits
 * the word-at-a-time expansion.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "trace/access.hpp"

namespace kb {

/** Abstract consumer of a memory access stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Consume one access. */
    virtual void onAccess(const Access &access) = 0;

    /**
     * Consume a contiguous run of @p words same-type accesses starting
     * at @p base. Semantically identical to @p words onAccess() calls
     * with consecutive addresses; the default does exactly that.
     * Override when the sink can do better than O(words) work or wants
     * to avoid the per-word virtual dispatch.
     */
    virtual void
    onRun(std::uint64_t base, std::uint64_t words, AccessType type)
    {
        for (std::uint64_t i = 0; i < words; ++i)
            onAccess(Access{base + i, type});
    }

    /** Historical alias for onRun() (kept for emitters and tests). */
    void
    onRange(std::uint64_t base, std::uint64_t words, AccessType type)
    {
        onRun(base, words, type);
    }
};

/** Counts accesses without storing them; runs count in O(1). */
class CountingSink : public TraceSink
{
  public:
    void
    onAccess(const Access &access) override
    {
        if (access.isWrite())
            ++writes_;
        else
            ++reads_;
    }

    void
    onRun(std::uint64_t, std::uint64_t words, AccessType type) override
    {
        if (type == AccessType::Write)
            writes_ += words;
        else
            reads_ += words;
    }

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t total() const { return reads_ + writes_; }

  private:
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

/** Stores the full trace in memory (tests, OPT two-pass simulation). */
class VectorSink : public TraceSink
{
  public:
    void
    onAccess(const Access &access) override
    {
        trace_.push_back(access);
    }

    void
    onRun(std::uint64_t base, std::uint64_t words,
          AccessType type) override
    {
        // Grow geometrically: an exact-size reserve per run would
        // reallocate (and copy the whole trace) on every run.
        if (trace_.size() + words > trace_.capacity())
            trace_.reserve(std::max(trace_.size() + words,
                                    2 * trace_.capacity()));
        for (std::uint64_t i = 0; i < words; ++i)
            trace_.push_back(Access{base + i, type});
    }

    const std::vector<Access> &trace() const { return trace_; }
    std::vector<Access> take() { return std::move(trace_); }

  private:
    std::vector<Access> trace_;
};

/** Invokes a callback per access (adapters to cache models). */
class CallbackSink : public TraceSink
{
  public:
    using Callback = std::function<void(const Access &)>;
    using RunCallback =
        std::function<void(std::uint64_t base, std::uint64_t words,
                           AccessType type)>;

    explicit CallbackSink(Callback cb) : cb_(std::move(cb)) {}

    /**
     * Run-aware form: contiguous runs go to @p run_cb in one dispatch
     * instead of one std::function call per word, so adapters that can
     * stream a whole strip (replay into a model, bulk counting) keep
     * the emitters' O(1)-per-run granularity.
     */
    CallbackSink(Callback cb, RunCallback run_cb)
        : cb_(std::move(cb)), run_cb_(std::move(run_cb))
    {
    }

    void onAccess(const Access &access) override { cb_(access); }

    void
    onRun(std::uint64_t base, std::uint64_t words,
          AccessType type) override
    {
        if (run_cb_) {
            run_cb_(base, words, type);
            return;
        }
        // No run callback: expand locally, one std::function dispatch
        // per word but no virtual hop per word.
        for (std::uint64_t i = 0; i < words; ++i)
            cb_(Access{base + i, type});
    }

  private:
    Callback cb_;
    RunCallback run_cb_;
};

/** Discards everything (placeholder when only explicit I/O counts
 *  matter); runs are discarded in O(1). */
class NullSink : public TraceSink
{
  public:
    void onAccess(const Access &) override {}
    void onRun(std::uint64_t, std::uint64_t, AccessType) override {}
};

} // namespace kb
