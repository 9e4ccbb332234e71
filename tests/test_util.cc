/**
 * @file
 * Unit tests for the util library: PRNG determinism and statistical
 * sanity, bit vector behaviour, and string hashing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "util/bitvector.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace
{

using avf::BitVector;
using avf::isQuiet;
using avf::LogLevel;
using avf::logLevel;
using avf::parseLogLevel;
using avf::Rng;
using avf::setLogLevel;
using avf::setQuiet;

// avf_assert accepts a bare condition, a plain message, and a
// printf-style message — all pedantic-clean via __VA_OPT__.
TEST(Logging, AvfAssertPassesQuietlyInEveryArity)
{
    avf_assert(1 + 1 == 2);
    avf_assert(2 + 2 == 4, "arithmetic holds");
    avf_assert(3 + 3 == 6, "arithmetic holds: %d", 6);
}

TEST(LoggingDeathTest, AvfAssertWithoutMessageStillPanics)
{
    EXPECT_DEATH(avf_assert(1 == 2),
                 "assertion '1 == 2' failed");
}

TEST(LoggingDeathTest, AvfAssertFormatsMessage)
{
    EXPECT_DEATH(avf_assert(false, "value was %d", 41),
                 "value was 41");
}

TEST(Logging, LevelsMapOntoQuietSwitch)
{
    setLogLevel(LogLevel::Error);
    EXPECT_TRUE(isQuiet());
    EXPECT_EQ(logLevel(), LogLevel::Error);
    setQuiet(false);
    EXPECT_FALSE(isQuiet());
    EXPECT_EQ(logLevel(), LogLevel::Info);
    setLogLevel(LogLevel::Debug);
    EXPECT_FALSE(isQuiet());
    setQuiet(false); // restore the suite default
}

TEST(Logging, ParsesEveryLevelName)
{
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("error"), LogLevel::Error);
}

TEST(LoggingDeathTest, RejectsJunkLogLevel)
{
    // AVF_LOG_LEVEL goes through the same parser: junk is a fatal
    // config error, not a silent default.
    EXPECT_DEATH(parseLogLevel("verbose"), "not a log level");
    EXPECT_DEATH(parseLogLevel("INFO"), "not a log level");
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedStillWorks)
{
    Rng rng(0);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 100; ++i)
        seen.insert(rng.next());
    EXPECT_GT(seen.size(), 95u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowIsBoundedAndRoughlyUniform)
{
    Rng rng(11);
    constexpr std::uint64_t bound = 10;
    std::uint64_t counts[bound] = {};
    for (int i = 0; i < 100000; ++i) {
        std::uint64_t v = rng.below(bound);
        ASSERT_LT(v, bound);
        ++counts[v];
    }
    for (auto c : counts)
        EXPECT_NEAR(static_cast<double>(c), 10000.0, 600.0);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, GeometricMeanMatchesTheory)
{
    Rng rng(23);
    double p = 0.25;
    double sum = 0.0;
    int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // E[failures before success] = (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, GeometricRespectsCap)
{
    Rng rng(29);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LE(rng.geometric(0.001, 5), 5u);
}

TEST(Rng, GeometricClampsHugeDrawsToTheCap)
{
    // With p this small the inverse-CDF quotient is far above 2^64;
    // it must clamp to the cap, not wrap through an out-of-range cast.
    Rng rng(37);
    for (int i = 0; i < 10000; ++i) {
        ASSERT_EQ(rng.geometric(1e-20, 5), 5u);
        ASSERT_EQ(rng.geometric(1e-300), std::uint64_t{1} << 20);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(31);
    double sum = 0.0, sq = 0.0;
    int n = 50000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(HashString, StableAndDistinct)
{
    EXPECT_EQ(avf::hashString("mesa"), avf::hashString("mesa"));
    EXPECT_NE(avf::hashString("mesa"), avf::hashString("ammp"));
    EXPECT_NE(avf::hashString(""), avf::hashString("a"));
}

TEST(BitVector, SetTestReset)
{
    BitVector bits(130);
    EXPECT_EQ(bits.size(), 130u);
    EXPECT_TRUE(bits.none());
    bits.set(0);
    bits.set(64);
    bits.set(129);
    EXPECT_TRUE(bits.test(0));
    EXPECT_TRUE(bits.test(64));
    EXPECT_TRUE(bits.test(129));
    EXPECT_FALSE(bits.test(1));
    EXPECT_EQ(bits.count(), 3u);
    bits.reset(64);
    EXPECT_FALSE(bits.test(64));
    EXPECT_EQ(bits.count(), 2u);
}

TEST(BitVector, ClearAll)
{
    BitVector bits(100);
    for (std::size_t i = 0; i < 100; i += 3)
        bits.set(i);
    EXPECT_FALSE(bits.none());
    bits.clearAll();
    EXPECT_TRUE(bits.none());
    EXPECT_EQ(bits.count(), 0u);
}




} // namespace
