/**
 * @file
 * Compatibility shim for the Cio(M) benchmark harness
 * (cio_bench/harness.cpp), which still emits through this interface.
 * It exists only for the harness: library and bench code call
 * Kernel::emitTrace directly and must not include this header.
 *
 * There is one emitter. TraceBackend::emit is Kernel::emitTrace, and
 * the active backend's name stays "scalar" so the harness's host
 * stamp reads as before.
 */

#pragma once

#include <cstdint>
#include <string>

#include "kernels/kernel.hpp"
#include "trace/sink.hpp"

namespace kb {

/** Forwards to Kernel::emitTrace. */
class TraceBackend
{
  public:
    void
    emit(const Kernel &kernel, std::uint64_t n, std::uint64_t m,
         TraceSink &sink) const
    {
        kernel.emitTrace(n, m, sink);
    }
};

/** The one emitter. */
inline const TraceBackend &
activeTraceBackend()
{
    static const TraceBackend backend;
    return backend;
}

/** Always "scalar", the name the harness has always stamped. */
inline std::string
activeTraceBackendName()
{
    return "scalar";
}

} // namespace kb
