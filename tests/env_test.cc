/**
 * @file
 * Edge-case tests for the shared MCD_* environment parsing helpers
 * (src/common/env.hh): malformed values, minimum bounds, permitted
 * zeros, and comma-list splitting.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hh"

namespace mcd
{
namespace
{

constexpr const char *VAR = "MCD_ENV_TEST_VAR";

class EnvTest : public ::testing::Test
{
  protected:
    void SetUp() override { unsetenv(VAR); }
    void TearDown() override { unsetenv(VAR); }

    void set(const char *value) { setenv(VAR, value, 1); }
};

TEST_F(EnvTest, UnsetKeepsFallback)
{
    EXPECT_EQ(envInt64(VAR, 42), 42);
    EXPECT_EQ(envU64(VAR, 42), 42u);
}

TEST_F(EnvTest, EmptyStringKeepsFallback)
{
    set("");
    EXPECT_EQ(envInt64(VAR, 42), 42);
}

TEST_F(EnvTest, ParsesPlainIntegers)
{
    set("12345");
    EXPECT_EQ(envInt64(VAR, 0), 12345);
    EXPECT_EQ(envInt(VAR, 0), 12345);
    EXPECT_EQ(envU64(VAR, 0), 12345u);
}

TEST_F(EnvTest, NonNumericKeepsFallback)
{
    set("banana");
    EXPECT_EQ(envInt64(VAR, 7), 7);
}

TEST_F(EnvTest, TrailingJunkKeepsFallback)
{
    // "12abc" must not silently parse as 12: a typo in a knob should
    // leave the default instead of half-applying.
    set("12abc");
    EXPECT_EQ(envInt64(VAR, 7), 7);
    set("12 ");
    EXPECT_EQ(envInt64(VAR, 7), 7);
}

TEST_F(EnvTest, BelowMinimumKeepsFallback)
{
    set("0");
    EXPECT_EQ(envInt64(VAR, 7), 7); // default min = 1
    set("-5");
    EXPECT_EQ(envInt64(VAR, 7), 7);
    EXPECT_EQ(envU64(VAR, 7u, 0), 7u); // negative, even with min 0
}

TEST_F(EnvTest, ZeroAllowedWhenMinimumIsZero)
{
    set("0");
    EXPECT_EQ(envInt64(VAR, 7, /*min=*/0), 0);
    EXPECT_EQ(envU64(VAR, 7u, /*min=*/0), 0u);
}

TEST_F(EnvTest, IntRejectsValuesAboveIntRange)
{
    // Wrapping 2^32+1 to interval=1 would be a silently half-applied
    // typo; out-of-range is malformed like any other bad value.
    set("4294967297");
    EXPECT_EQ(envInt(VAR, 7), 7);
    EXPECT_EQ(envInt64(VAR, 7), 4294967297);
}

TEST_F(EnvTest, StringRejectsEmptyAndWhitespace)
{
    // MCD_STORE goes through envString: a blank root is a typo, not a
    // request for a store rooted at "" or at "   ".
    EXPECT_EQ(envString(VAR, "fallback"), "fallback");
    EXPECT_EQ(envString(VAR), "");
    set("");
    EXPECT_EQ(envString(VAR, "fallback"), "fallback");
    set("   ");
    EXPECT_EQ(envString(VAR, "fallback"), "fallback");
    set("\t \n");
    EXPECT_EQ(envString(VAR, "fallback"), "fallback");
    // A real value comes back verbatim, inner spaces and all.
    set("/tmp/mcd store");
    EXPECT_EQ(envString(VAR, "fallback"), "/tmp/mcd store");
}

TEST(SplitList, Basics)
{
    EXPECT_EQ(splitList("a,b"), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(splitList("a"), (std::vector<std::string>{"a"}));
    EXPECT_TRUE(splitList("").empty());
    EXPECT_EQ(splitList("synthetic:mem=0.8"),
              (std::vector<std::string>{"synthetic:mem=0.8"}));
    EXPECT_EQ(splitList(",gsm,,adpcm,"),
              (std::vector<std::string>{"gsm", "adpcm"}));
    EXPECT_TRUE(splitList(",,,").empty());
}

TEST(SplitScenarioList, KeepsFamilyKnobsWhole)
{
    EXPECT_EQ(splitScenarioList("gsm,adpcm"),
              (std::vector<std::string>{"gsm", "adpcm"}));
    EXPECT_EQ(splitScenarioList("synthetic:mem=0.8,ilp=4,phases=6"),
              (std::vector<std::string>{
                  "synthetic:mem=0.8,ilp=4,phases=6"}));
    EXPECT_EQ(splitScenarioList("gsm,synthetic:mem=0.8,ilp=4,mcf"),
              (std::vector<std::string>{
                  "gsm", "synthetic:mem=0.8,ilp=4", "mcf"}));
    EXPECT_EQ(
        splitScenarioList("synthetic:mem=0.2,synthetic:mem=0.4,ilp=2"),
        (std::vector<std::string>{"synthetic:mem=0.2",
                                  "synthetic:mem=0.4,ilp=2"}));
}

TEST_F(EnvTest, ScenarioListFromEnvironment)
{
    set("gsm,synthetic:mem=0.8,ilp=4");
    EXPECT_EQ(envScenarioList(VAR),
              (std::vector<std::string>{"gsm",
                                        "synthetic:mem=0.8,ilp=4"}));
    unsetenv(VAR);
    EXPECT_TRUE(envScenarioList(VAR).empty());
}

} // namespace
} // namespace mcd
