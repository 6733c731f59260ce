/**
 * @file
 * Tests for the MOESI line protocol: the full remote-snoop transition
 * matrix and granted-state rules, swept exhaustively with TEST_P.
 */

#include <gtest/gtest.h>

#include "coherence/protocol.hpp"

namespace cgct {
namespace {

TEST(LineProtocol, StatePredicates)
{
    EXPECT_FALSE(isValid(LineState::Invalid));
    EXPECT_TRUE(isValid(LineState::Shared));
    EXPECT_TRUE(isDirty(LineState::Modified));
    EXPECT_TRUE(isDirty(LineState::Owned));
    EXPECT_FALSE(isDirty(LineState::Exclusive));
    EXPECT_FALSE(isDirty(LineState::Shared));
    EXPECT_TRUE(isWritable(LineState::Modified));
    EXPECT_TRUE(isWritable(LineState::Exclusive));
    EXPECT_FALSE(isWritable(LineState::Owned));
    EXPECT_FALSE(isWritable(LineState::Shared));
}

TEST(LineProtocol, SnoopKindMapping)
{
    EXPECT_EQ(snoopKindOf(RequestType::Read), SnoopKind::Read);
    EXPECT_EQ(snoopKindOf(RequestType::Ifetch), SnoopKind::Read);
    EXPECT_EQ(snoopKindOf(RequestType::Prefetch), SnoopKind::Read);
    EXPECT_EQ(snoopKindOf(RequestType::ReadExclusive),
              SnoopKind::ReadInvalidate);
    EXPECT_EQ(snoopKindOf(RequestType::PrefetchExclusive),
              SnoopKind::ReadInvalidate);
    EXPECT_EQ(snoopKindOf(RequestType::Upgrade), SnoopKind::Invalidate);
    EXPECT_EQ(snoopKindOf(RequestType::Dcbz), SnoopKind::Invalidate);
    EXPECT_EQ(snoopKindOf(RequestType::Dcbi), SnoopKind::Invalidate);
    EXPECT_EQ(snoopKindOf(RequestType::Dcbf), SnoopKind::Flush);
    EXPECT_EQ(snoopKindOf(RequestType::Writeback), SnoopKind::None);
}

TEST(LineProtocol, SnoopReadOnModifiedSuppliesAndKeepsOwnership)
{
    const auto out = applyLineSnoop(LineState::Modified, SnoopKind::Read);
    EXPECT_TRUE(out.hadCopy);
    EXPECT_TRUE(out.suppliedData);
    EXPECT_EQ(out.next, LineState::Owned);
    EXPECT_EQ(out.before, LineState::Modified);
    EXPECT_FALSE(out.wroteBack);
}

TEST(LineProtocol, SnoopReadOnExclusiveSuppliesCleanAndShares)
{
    const auto out = applyLineSnoop(LineState::Exclusive, SnoopKind::Read);
    EXPECT_TRUE(out.suppliedData);
    EXPECT_EQ(out.next, LineState::Shared);
}

TEST(LineProtocol, SnoopReadOnSharedStaysShared)
{
    const auto out = applyLineSnoop(LineState::Shared, SnoopKind::Read);
    EXPECT_TRUE(out.hadCopy);
    EXPECT_FALSE(out.suppliedData);
    EXPECT_EQ(out.next, LineState::Shared);
}

TEST(LineProtocol, ReadInvalidateTakesEverything)
{
    for (LineState s : {LineState::Shared, LineState::Exclusive,
                        LineState::Owned, LineState::Modified}) {
        const auto out = applyLineSnoop(s, SnoopKind::ReadInvalidate);
        EXPECT_EQ(out.next, LineState::Invalid);
        EXPECT_TRUE(out.hadCopy);
    }
    // Dirty (and exclusive) holders supply the data cache-to-cache.
    EXPECT_TRUE(applyLineSnoop(LineState::Modified,
                               SnoopKind::ReadInvalidate).suppliedData);
    EXPECT_TRUE(applyLineSnoop(LineState::Owned,
                               SnoopKind::ReadInvalidate).suppliedData);
    EXPECT_FALSE(applyLineSnoop(LineState::Shared,
                                SnoopKind::ReadInvalidate).suppliedData);
}

TEST(LineProtocol, InvalidateDropsWithoutData)
{
    const auto out = applyLineSnoop(LineState::Modified,
                                    SnoopKind::Invalidate);
    EXPECT_EQ(out.next, LineState::Invalid);
    EXPECT_FALSE(out.suppliedData);
    EXPECT_FALSE(out.wroteBack);
}

TEST(LineProtocol, FlushWritesBackDirtyData)
{
    EXPECT_TRUE(applyLineSnoop(LineState::Modified,
                               SnoopKind::Flush).wroteBack);
    EXPECT_TRUE(applyLineSnoop(LineState::Owned,
                               SnoopKind::Flush).wroteBack);
    EXPECT_FALSE(applyLineSnoop(LineState::Shared,
                                SnoopKind::Flush).wroteBack);
    EXPECT_EQ(applyLineSnoop(LineState::Modified, SnoopKind::Flush).next,
              LineState::Invalid);
}

TEST(LineProtocol, InvalidLineIgnoresAllSnoops)
{
    for (SnoopKind k : {SnoopKind::Read, SnoopKind::ReadInvalidate,
                        SnoopKind::Invalidate, SnoopKind::Flush,
                        SnoopKind::None}) {
        const auto out = applyLineSnoop(LineState::Invalid, k);
        EXPECT_FALSE(out.hadCopy);
        EXPECT_EQ(out.next, LineState::Invalid);
        EXPECT_FALSE(out.suppliedData);
        EXPECT_FALSE(out.wroteBack);
    }
}

TEST(LineProtocol, GrantedStates)
{
    // A read with no other cached copy earns Exclusive (silent upgrades).
    EXPECT_EQ(grantedState(RequestType::Read, false),
              LineState::Exclusive);
    EXPECT_EQ(grantedState(RequestType::Read, true), LineState::Shared);
    EXPECT_EQ(grantedState(RequestType::Prefetch, false),
              LineState::Exclusive);
    // Instruction lines are always shared.
    EXPECT_EQ(grantedState(RequestType::Ifetch, false), LineState::Shared);
    EXPECT_EQ(grantedState(RequestType::Ifetch, true), LineState::Shared);
    // Exclusive-type requests always earn Modified.
    EXPECT_EQ(grantedState(RequestType::ReadExclusive, true),
              LineState::Modified);
    EXPECT_EQ(grantedState(RequestType::Upgrade, false),
              LineState::Modified);
    EXPECT_EQ(grantedState(RequestType::Dcbz, true), LineState::Modified);
}

/**
 * Property sweep over the full (state x snoop) matrix: invariants that
 * must hold for every combination.
 */
class SnoopMatrix
    : public ::testing::TestWithParam<std::tuple<LineState, SnoopKind>>
{
};

TEST_P(SnoopMatrix, Invariants)
{
    const auto [state, kind] = GetParam();
    const auto out = applyLineSnoop(state, kind);

    // before always reports the input state.
    EXPECT_EQ(out.before, state);
    // hadCopy iff the line was valid.
    EXPECT_EQ(out.hadCopy, isValid(state));
    // A snoop never upgrades the remote's permissions.
    if (isValid(state) && kind != SnoopKind::None)
        EXPECT_FALSE(isWritable(out.next));
    // Only previously valid lines can supply data or write back.
    if (!isValid(state)) {
        EXPECT_FALSE(out.suppliedData);
        EXPECT_FALSE(out.wroteBack);
    }
    // Invalidating snoops leave nothing behind.
    if (kind == SnoopKind::ReadInvalidate ||
        kind == SnoopKind::Invalidate || kind == SnoopKind::Flush) {
        EXPECT_EQ(out.next, LineState::Invalid);
    }
    // Write-backs never disturb remote caches.
    if (kind == SnoopKind::None)
        EXPECT_EQ(out.next, state);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SnoopMatrix,
    ::testing::Combine(
        ::testing::Values(LineState::Invalid, LineState::Shared,
                          LineState::Exclusive, LineState::Owned,
                          LineState::Modified),
        ::testing::Values(SnoopKind::Read, SnoopKind::ReadInvalidate,
                          SnoopKind::Invalidate, SnoopKind::Flush,
                          SnoopKind::None)));

} // namespace
} // namespace cgct
