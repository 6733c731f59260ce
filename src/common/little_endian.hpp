/**
 * @file
 * The one little-endian codec behind every binary format the simulator
 * reads or writes: the v2 trace (workload/trace.cpp), CGCTSNAP
 * snapshots and the RunResult codec (snapshot/), and the xxhash64 that
 * checksums the first two. The simulator targets little-endian hosts, so a
 * load or store is one unaligned copy; the static_assert keeps a
 * big-endian build from silently writing other bytes.
 */

#pragma once

#include <bit>
#include <cstring>
#include <type_traits>

namespace cgct {

static_assert(std::endian::native == std::endian::little,
              "the stored formats are little-endian, as the host must be");

/** The unsigned @p T stored little-endian at @p p (any alignment). */
template <class T>
inline T
loadLe(const void *p)
{
    static_assert(std::is_unsigned_v<T>, "load an unsigned width");
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/** Store @p v little-endian at @p p (any alignment). */
template <class T>
inline void
storeLe(void *p, T v)
{
    static_assert(std::is_unsigned_v<T>, "store an unsigned width");
    std::memcpy(p, &v, sizeof v);
}

} // namespace cgct
