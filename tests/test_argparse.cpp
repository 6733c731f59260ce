/**
 * @file
 * Tests for the command-line parser used by the tools (strict unsigned
 * values included), and for the exact text of the diagnostics they
 * emit: warnOnce() when a flag is ignored, fatal() and panic().
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/argparse.hpp"
#include "common/log.hpp"

namespace cgct {
namespace {

TEST(ArgParse, DefaultsSurviveEmptyArgv)
{
    std::uint64_t n = 42;
    bool flag = false;
    ArgParser p("prog");
    p.addU64("n", &n, "a number");
    p.addFlag("flag", &flag, "a flag");
    const char *argv[] = {"prog"};
    EXPECT_TRUE(p.parse(1, argv));
    EXPECT_EQ(n, 42u);
    EXPECT_FALSE(flag);
}

TEST(ArgParse, ParsesSeparateAndEqualsValues)
{
    std::uint64_t n = 0;
    std::string s;
    double d = 0;
    ArgParser p("prog");
    p.addU64("n", &n, "");
    p.addString("s", &s, "");
    p.addDouble("d", &d, "");
    const char *argv[] = {"prog", "--n", "17", "--s=hello", "--d", "2.5"};
    EXPECT_TRUE(p.parse(6, argv));
    EXPECT_EQ(n, 17u);
    EXPECT_EQ(s, "hello");
    EXPECT_DOUBLE_EQ(d, 2.5);
}

TEST(ArgParse, FlagsTakeNoValue)
{
    bool flag = false;
    ArgParser p("prog");
    p.addFlag("on", &flag, "");
    const char *ok[] = {"prog", "--on"};
    EXPECT_TRUE(p.parse(2, ok));
    EXPECT_TRUE(flag);

    ArgParser p2("prog");
    p2.addFlag("on", &flag, "");
    std::string err;
    const char *bad[] = {"prog", "--on=1"};
    EXPECT_FALSE(p2.parse(2, bad, &err));
    EXPECT_NE(err.find("takes no value"), std::string::npos);
}

TEST(ArgParse, Positionals)
{
    std::string first = "default", second;
    ArgParser p("prog");
    p.addPositional("first", &first, "");
    p.addPositional("second", &second, "");
    const char *argv[] = {"prog", "alpha", "beta"};
    EXPECT_TRUE(p.parse(3, argv));
    EXPECT_EQ(first, "alpha");
    EXPECT_EQ(second, "beta");
}

TEST(ArgParse, OptionalPositionalKeepsDefault)
{
    std::string value = "fallback";
    ArgParser p("prog");
    p.addPositional("value", &value, "");
    const char *argv[] = {"prog"};
    EXPECT_TRUE(p.parse(1, argv));
    EXPECT_EQ(value, "fallback");
}

TEST(ArgParse, RequiredPositionalMissing)
{
    std::string value;
    ArgParser p("prog");
    p.addPositional("value", &value, "", /*required=*/true);
    std::string err;
    const char *argv[] = {"prog"};
    EXPECT_FALSE(p.parse(1, argv, &err));
    EXPECT_NE(err.find("missing required"), std::string::npos);
}

TEST(ArgParse, Errors)
{
    std::uint64_t n = 0;
    ArgParser p("prog");
    p.addU64("n", &n, "");
    std::string err;

    const char *unknown[] = {"prog", "--zap"};
    EXPECT_FALSE(p.parse(2, unknown, &err));
    EXPECT_NE(err.find("unknown option"), std::string::npos);

    const char *missing[] = {"prog", "--n"};
    EXPECT_FALSE(p.parse(2, missing, &err));
    EXPECT_NE(err.find("needs a value"), std::string::npos);

    const char *bad[] = {"prog", "--n", "xyz"};
    EXPECT_FALSE(p.parse(3, bad, &err));
    EXPECT_NE(err.find("bad value"), std::string::npos);

    const char *extra[] = {"prog", "positional"};
    EXPECT_FALSE(p.parse(2, extra, &err));
    EXPECT_NE(err.find("unexpected argument"), std::string::npos);
}

TEST(ArgParse, GivenTellsAnExplicitDefaultFromAnAbsentOption)
{
    unsigned seeds = 3;
    std::uint64_t ops = 10;
    bool json = false;
    ArgParser p("prog");
    p.addUnsigned("seeds", &seeds, "");
    p.addU64("ops", &ops, "");
    p.addFlag("json", &json, "");
    const char *argv[] = {"prog", "--seeds=3", "--json"};
    EXPECT_TRUE(p.parse(3, argv));
    EXPECT_EQ(seeds, 3u);
    EXPECT_TRUE(p.given("seeds"));
    EXPECT_TRUE(p.given("json"));
    EXPECT_FALSE(p.given("ops"));
    EXPECT_FALSE(p.given("nosuch"));
}

TEST(ArgParse, HelpRequested)
{
    ArgParser p("prog", "does things");
    std::uint64_t n = 3;
    p.addU64("n", &n, "the n");
    const char *argv[] = {"prog", "--help"};
    EXPECT_TRUE(p.parse(2, argv));
    EXPECT_TRUE(p.helpRequested());
    std::ostringstream os;
    p.printHelp(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("usage: prog"), std::string::npos);
    EXPECT_NE(out.find("does things"), std::string::npos);
    EXPECT_NE(out.find("--n"), std::string::npos);
    EXPECT_NE(out.find("default: 3"), std::string::npos);
}

TEST(ArgParse, HexValuesAccepted)
{
    std::uint64_t n = 0;
    ArgParser p("prog");
    p.addU64("addr", &n, "");
    const char *argv[] = {"prog", "--addr", "0x1000"};
    EXPECT_TRUE(p.parse(3, argv));
    EXPECT_EQ(n, 0x1000u);
}

TEST(ArgParse, ParseU64IsStrict)
{
    EXPECT_EQ(parseU64("0"), 0u);
    EXPECT_EQ(parseU64("512"), 512u);
    EXPECT_EQ(parseU64("0x200"), 512u);
    EXPECT_EQ(parseU64("18446744073709551615"), UINT64_MAX);
    // A sign: strtoull alone turns "-5" into 2^64 - 5.
    EXPECT_EQ(parseU64("-5"), std::nullopt);
    EXPECT_EQ(parseU64("+5"), std::nullopt);
    // Junk before, after or instead of the digits.
    EXPECT_EQ(parseU64(""), std::nullopt);
    EXPECT_EQ(parseU64(" 5"), std::nullopt);
    EXPECT_EQ(parseU64("5 "), std::nullopt);
    EXPECT_EQ(parseU64("12k"), std::nullopt);
    EXPECT_EQ(parseU64("abc"), std::nullopt);
    EXPECT_EQ(parseU64("0x"), std::nullopt);
    // Out of range.
    EXPECT_EQ(parseU64("18446744073709551616"), std::nullopt);
    EXPECT_EQ(parseU64("0x10000000000000000"), std::nullopt);
}

TEST(ArgParse, U64OptionRejectsASignAndKeepsItsValue)
{
    std::uint64_t n = 7;
    ArgParser p("prog");
    p.addU64("ops", &n, "");
    std::string err;
    for (const char *bad : {"-5", "+5", "5x", "99999999999999999999"}) {
        const char *argv[] = {"prog", "--ops", bad};
        EXPECT_FALSE(p.parse(3, argv, &err)) << bad;
        EXPECT_EQ(err, std::string("bad value '") + bad + "' for --ops");
        EXPECT_EQ(n, 7u);
    }
}

TEST(ArgParse, UnsignedOptionRejectsValuesAboveUintMax)
{
    // 2^32 + 4 would narrow to 4 if it were read as a u64 and cast.
    unsigned n = 7;
    ArgParser p("prog");
    p.addUnsigned("nodes", &n, "");
    std::string err;
    for (const char *bad : {"4294967300", "4294967296", "-1", "5x"}) {
        const char *argv[] = {"prog", "--nodes", bad};
        EXPECT_FALSE(p.parse(3, argv, &err)) << bad;
        EXPECT_EQ(err, std::string("bad value '") + bad + "' for --nodes");
        EXPECT_EQ(n, 7u);
    }
    const char *max[] = {"prog", "--nodes=4294967295"};
    EXPECT_TRUE(p.parse(2, max));
    EXPECT_EQ(n, 4294967295u);
    const char *hex[] = {"prog", "--nodes", "0x10"};
    EXPECT_TRUE(p.parse(3, hex));
    EXPECT_EQ(n, 16u);
}

class WarnOnceReset : public ::testing::Test
{
  protected:
    void SetUp() override { resetWarnOnceForTest(); }
    void TearDown() override { resetWarnOnceForTest(); }
};

TEST_F(WarnOnceReset, WarnOnceDeduplicatesByKey)
{
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(warnOnceFired(), 0u);
    EXPECT_TRUE(warnOnce("key-a", "test", "first %d", 1));
    EXPECT_FALSE(warnOnce("key-a", "test", "suppressed %d", 2));
    EXPECT_FALSE(warnOnce("key-a", "test", "suppressed %d", 3));
    EXPECT_TRUE(warnOnce("key-b", "test", "other"));
    EXPECT_EQ(warnOnceFired(), 2u);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(err, "[warn] test: first 1\n[warn] test: other\n");
}

TEST_F(WarnOnceReset, DiagnosticsKeepTheirExactText)
{
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(warnOnce("key-c", nullptr, "no component"));
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "[warn] cgct: no component\n");
    EXPECT_EXIT(fatal("bad %s", "config"), ::testing::ExitedWithCode(1),
                "^\\[fatal\\] bad config\n$");
    EXPECT_DEATH(panic("broken %d", 7), "^\\[panic\\] broken 7\n$");
}

} // namespace
} // namespace cgct
