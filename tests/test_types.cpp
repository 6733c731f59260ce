/**
 * @file
 * Unit tests for the fundamental type helpers: request classification,
 * categories, alignment, and time conversion.
 */

#include <gtest/gtest.h>

#include "common/types.hpp"

namespace cgct {
namespace {

TEST(Types, SystemCycleConversion)
{
    // 150 MHz system clock vs 1.5 GHz CPU clock: a factor of ten.
    EXPECT_EQ(systemCycles(1), 10u);
    EXPECT_EQ(systemCycles(16), 160u);
    EXPECT_EQ(systemCycles(0), 0u);
}

TEST(Types, WantsExclusive)
{
    EXPECT_TRUE(wantsExclusive(RequestType::ReadExclusive));
    EXPECT_TRUE(wantsExclusive(RequestType::Upgrade));
    EXPECT_TRUE(wantsExclusive(RequestType::PrefetchExclusive));
    EXPECT_TRUE(wantsExclusive(RequestType::Dcbz));
    EXPECT_FALSE(wantsExclusive(RequestType::Read));
    EXPECT_FALSE(wantsExclusive(RequestType::Ifetch));
    EXPECT_FALSE(wantsExclusive(RequestType::Prefetch));
    EXPECT_FALSE(wantsExclusive(RequestType::Writeback));
    EXPECT_FALSE(wantsExclusive(RequestType::Dcbf));
    EXPECT_FALSE(wantsExclusive(RequestType::Dcbi));
}

TEST(Types, IsDcbOp)
{
    EXPECT_TRUE(isDcbOp(RequestType::Dcbz));
    EXPECT_TRUE(isDcbOp(RequestType::Dcbf));
    EXPECT_TRUE(isDcbOp(RequestType::Dcbi));
    EXPECT_FALSE(isDcbOp(RequestType::Read));
    EXPECT_FALSE(isDcbOp(RequestType::Writeback));
}

TEST(Types, AllocatesLine)
{
    EXPECT_TRUE(allocatesLine(RequestType::Read));
    EXPECT_TRUE(allocatesLine(RequestType::ReadExclusive));
    EXPECT_TRUE(allocatesLine(RequestType::Ifetch));
    EXPECT_TRUE(allocatesLine(RequestType::Prefetch));
    EXPECT_TRUE(allocatesLine(RequestType::PrefetchExclusive));
    EXPECT_TRUE(allocatesLine(RequestType::Dcbz));
    EXPECT_FALSE(allocatesLine(RequestType::Upgrade));
    EXPECT_FALSE(allocatesLine(RequestType::Writeback));
    EXPECT_FALSE(allocatesLine(RequestType::Dcbf));
    EXPECT_FALSE(allocatesLine(RequestType::Dcbi));
}

TEST(Types, CategoryMapping)
{
    // Figure 2's four stacks.
    EXPECT_EQ(categoryOf(RequestType::Read), RequestCategory::DataReadWrite);
    EXPECT_EQ(categoryOf(RequestType::ReadExclusive),
              RequestCategory::DataReadWrite);
    EXPECT_EQ(categoryOf(RequestType::Upgrade),
              RequestCategory::DataReadWrite);
    EXPECT_EQ(categoryOf(RequestType::Prefetch),
              RequestCategory::DataReadWrite);
    EXPECT_EQ(categoryOf(RequestType::PrefetchExclusive),
              RequestCategory::DataReadWrite);
    EXPECT_EQ(categoryOf(RequestType::Ifetch), RequestCategory::Ifetch);
    EXPECT_EQ(categoryOf(RequestType::Writeback),
              RequestCategory::Writeback);
    EXPECT_EQ(categoryOf(RequestType::Dcbz), RequestCategory::DcbOp);
    EXPECT_EQ(categoryOf(RequestType::Dcbf), RequestCategory::DcbOp);
    EXPECT_EQ(categoryOf(RequestType::Dcbi), RequestCategory::DcbOp);
}

TEST(Types, AlignDown)
{
    EXPECT_EQ(alignDown(0x1234, 64), 0x1200u);
    EXPECT_EQ(alignDown(0x1240, 64), 0x1240u);
    EXPECT_EQ(alignDown(0x12ff, 512), 0x1200u);
    EXPECT_EQ(alignDown(0, 512), 0u);
}

TEST(Types, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(512));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(513));
}

TEST(Types, Log2i)
{
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(2), 1u);
    EXPECT_EQ(log2i(512), 9u);
    EXPECT_EQ(log2i(1ULL << 33), 33u);
}

TEST(Types, Names)
{
    EXPECT_EQ(requestTypeName(RequestType::Read), "Read");
    EXPECT_EQ(requestTypeName(RequestType::Dcbz), "Dcbz");
    EXPECT_EQ(cpuOpKindName(CpuOpKind::Store), "Store");
}

/** Every request type maps to exactly one category (sweep). */
class TypesCategorySweep
    : public ::testing::TestWithParam<RequestType>
{
};

TEST_P(TypesCategorySweep, CategoryIsValid)
{
    const auto cat = categoryOf(GetParam());
    EXPECT_LT(static_cast<int>(cat),
              static_cast<int>(RequestCategory::NumCategories));
    EXPECT_FALSE(requestTypeName(GetParam()).empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, TypesCategorySweep,
    ::testing::Values(RequestType::Read, RequestType::ReadExclusive,
                      RequestType::Upgrade, RequestType::Ifetch,
                      RequestType::Writeback, RequestType::Prefetch,
                      RequestType::PrefetchExclusive, RequestType::Dcbz,
                      RequestType::Dcbf, RequestType::Dcbi));

} // namespace
} // namespace cgct
