/**
 * @file
 * Seed base of the randomized differential tests: KB_SEED if set,
 * else 0, so an unset KB_SEED keeps every test's historical seeds.
 * Printed once per test binary so a failing run can be replayed.
 */

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace kb {

inline std::uint64_t
seedBase()
{
    static const std::uint64_t base = [] {
        const char *env = std::getenv("KB_SEED");
        const std::uint64_t s = env ? std::strtoull(env, nullptr, 0) : 0;
        std::printf("[seed] base %llu (replay with KB_SEED=%llu)\n",
                    static_cast<unsigned long long>(s),
                    static_cast<unsigned long long>(s));
        return s;
    }();
    return base;
}

} // namespace kb
