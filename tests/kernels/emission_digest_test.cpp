/**
 * @file
 * Golden emission digests: for every built-in kernel at one fixed
 * small (n, m), an FNV-1a hash of the raw sink-call sequence that
 * Kernel::emitTrace delivers. Each call is hashed as the record
 * (is_run, base, words, type), so the digest pins the onAccess/onRun
 * split and its order, not just the expanded word stream.
 *
 * The expected values were recorded from the emitters as they stood
 * when this test was added. A mismatch means a kernel's emitted trace
 * changed: every curve, CurveStore entry and bench report built on it
 * may change too. A rewrite that only restructures an emitter must
 * leave its digest untouched.
 */

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "kernels/registry.hpp"
#include "trace/sink.hpp"

namespace kb {
namespace {

/** Folds each sink call into a running 64-bit FNV-1a hash. */
class DigestSink : public TraceSink
{
  public:
    void
    onAccess(const Access &access) override
    {
        record(false, access.addr, 1, access.type);
    }

    void
    onRun(std::uint64_t base, std::uint64_t words,
          AccessType type) override
    {
        record(true, base, words, type);
    }

    std::uint64_t digest() const { return hash_; }
    std::uint64_t calls() const { return calls_; }

  private:
    void
    record(bool is_run, std::uint64_t base, std::uint64_t words,
           AccessType type)
    {
        mixByte(is_run ? 1 : 0);
        mixWord(base);
        mixWord(words);
        mixByte(type == AccessType::Write ? 1 : 0);
        ++calls_;
    }

    void
    mixWord(std::uint64_t v)
    {
        // Little-endian byte order, independent of the host's.
        for (int i = 0; i < 8; ++i)
            mixByte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    mixByte(std::uint8_t b)
    {
        hash_ ^= b;
        hash_ *= 1099511628211ull; // FNV prime
    }

    std::uint64_t hash_ = 1469598103934665603ull; // FNV offset basis
    std::uint64_t calls_ = 0;
};

struct Golden
{
    const char *kernel;
    std::uint64_t n;
    std::uint64_t m;
    std::uint64_t calls;
    std::uint64_t digest;
};

/**
 * One point per built-in kernel. The sizes are small but leave ragged
 * edge tiles (n not a multiple of the tile), several recursion levels
 * (fft) and a pass-through merge group (sorting).
 */
constexpr Golden kGolden[] = {
    {"matmul", 37, 30, 31080, 0xc2316a4bf6a5ba64},
    {"triangularization", 29, 48, 2067, 0x7c038db2eddcec87},
    {"qr", 24, 40, 5652, 0x7779fdceb7919f23},
    {"grid1d", 300, 64, 170, 0xc568f0ca3b74b010},
    {"grid2d", 60, 256, 21888, 0x9fc5ad5bf5f646c3},
    {"grid3d", 24, 512, 332544, 0xb60496de0e923403},
    {"grid4d", 12, 2048, 967680, 0xca0cbffb7454e383},
    {"fft", 512, 8, 3712, 0xca5641dfb30c5703},
    {"sorting", 1024, 32, 4096, 0xd3316a928da8eb83},
    {"matvec", 50, 20, 5150, 0x28e46fa35fd9e0c8},
    {"trisolve", 50, 20, 612, 0xa9f8c422a9bc040d},
    {"spmv", 300, 64, 7500, 0x5338c5e3ee9427bc},
    {"stencil9", 40, 32, 9440, 0x3b2fef10b78e5243},
    {"stencil9t", 40, 64, 17808, 0xe17dba469db597d3},
};

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

TEST(EmissionDigest, EveryBuiltinKernelMatchesItsGoldenDigest)
{
    for (const Golden &g : kGolden) {
        SCOPED_TRACE(std::string(g.kernel) + " n=" + std::to_string(g.n) +
                     " m=" + std::to_string(g.m));
        const auto kernel = KernelRegistry::instance().shared(g.kernel);
        DigestSink sink;
        kernel->emitTrace(g.n, g.m, sink);
        EXPECT_EQ(sink.calls(), g.calls);
        EXPECT_EQ(hex(sink.digest()), hex(g.digest));
    }
}

/** The table covers the whole registry: a new kernel needs a digest. */
TEST(EmissionDigest, TableCoversEveryRegisteredKernel)
{
    const auto names = KernelRegistry::instance().names();
    ASSERT_EQ(names.size(), std::size(kGolden));
    for (const auto &name : names) {
        bool found = false;
        for (const Golden &g : kGolden)
            found = found || name == g.kernel;
        EXPECT_TRUE(found) << name << " has no golden digest";
    }
}

} // namespace
} // namespace kb
