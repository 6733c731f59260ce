/**
 * @file
 * Line-granularity coherence state: write-invalidate MOESI for the L2
 * (the system's coherence point) and MSI for the L1s, per Table 3.
 *
 * This header defines the states and the pure transition helpers; the cache
 * controllers in src/cache apply them. Keeping transitions as free
 * functions makes them directly unit- and property-testable.
 */

#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace cgct {

/** MOESI line states (L2). */
enum class LineState : std::uint8_t {
    Invalid,
    Shared,
    Exclusive,   ///< Clean, only copy.
    Owned,       ///< Dirty, other shared copies may exist; responsible.
    Modified,    ///< Dirty, only copy.
};

/** True if the line holds valid data. */
constexpr bool
isValid(LineState s)
{
    return s != LineState::Invalid;
}

/** True if this cache must eventually write the line back (dirty). */
constexpr bool
isDirty(LineState s)
{
    return s == LineState::Modified || s == LineState::Owned;
}

/** True if a store may proceed without an external request. */
constexpr bool
isWritable(LineState s)
{
    return s == LineState::Modified || s == LineState::Exclusive;
}

/**
 * The externally visible effect of a request on remote caches, i.e. what
 * the snoop asks them to do with their copies of the line.
 */
enum class SnoopKind : std::uint8_t {
    /** Read for a shared copy: dirty owners supply data and keep Owned. */
    Read,
    /** Read for an exclusive copy: every remote copy is invalidated. */
    ReadInvalidate,
    /** Invalidate without data transfer (upgrade, DCBZ, DCBI). */
    Invalidate,
    /** Flush: write dirty data back and invalidate (DCBF). */
    Flush,
    /** Write-back: no effect on remote caches. */
    None,
};

/** Map a request type onto the snoop it induces on remote caches. */
constexpr SnoopKind
snoopKindOf(RequestType type)
{
    switch (type) {
      case RequestType::Read:
      case RequestType::Ifetch:
      case RequestType::Prefetch:
        return SnoopKind::Read;
      case RequestType::ReadExclusive:
      case RequestType::PrefetchExclusive:
        return SnoopKind::ReadInvalidate;
      case RequestType::Upgrade:
      case RequestType::Dcbz:
      case RequestType::Dcbi:
        return SnoopKind::Invalidate;
      case RequestType::Dcbf:
        return SnoopKind::Flush;
      case RequestType::Writeback:
        return SnoopKind::None;
    }
    return SnoopKind::None;
}

/**
 * Result of applying a snoop to one remote cache's line.
 */
struct LineSnoopOutcome {
    LineState before = LineState::Invalid; ///< Remote's state when snooped.
    LineState next = LineState::Invalid;   ///< Remote's state afterwards.
    bool hadCopy = false;                  ///< Remote had a valid copy.
    bool suppliedData = false;             ///< Remote sources the data.
    bool wroteBack = false;                ///< Dirty data pushed to memory.
};

/**
 * Pure MOESI transition for a remote cache observing a snoop.
 *
 * @param current the remote cache's state for the line
 * @param kind    what the snoop demands
 */
LineSnoopOutcome applyLineSnoop(LineState current, SnoopKind kind);

/**
 * The state granted to a requester, given what the system found.
 *
 * @param type           the request
 * @param other_had_copy some remote cache retains a valid copy afterwards
 */
LineState grantedState(RequestType type, bool other_had_copy);

} // namespace cgct
