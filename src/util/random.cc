#include "util/random.hh"

#include <cmath>

#include "util/logging.hh"

namespace avf
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitMix64(sm);
    // xoshiro must not start from the all-zero state.
    if ((s[0] | s[1] | s[2] | s[3]) == 0)
        s[0] = 0x9e3779b97f4a7c15ull;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    avf_assert(bound > 0, "below() requires a positive bound");
    // Lemire's nearly-divisionless bounded draw.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        std::uint64_t threshold = -bound % bound;
        while (lo < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    avf_assert(lo <= hi, "range() requires lo <= hi");
    return lo + static_cast<std::int64_t>(
        below(static_cast<std::uint64_t>(hi - lo) + 1));
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

std::uint64_t
Rng::geometric(double p, std::uint64_t cap)
{
    if (p >= 1.0)
        return 0;
    if (p <= 0.0)
        return cap;
    // Inverse-CDF method.
    double u = uniform();
    double draws = std::floor(std::log1p(-u) / std::log1p(-p));
    // Clamp before the cast: a tiny p makes the quotient reach 2^64,
    // and converting such a double is undefined. Comparing with a
    // constant, not cap, saves a conversion on every draw.
    if (!(draws < 0x1p64))
        return cap;
    if (draws < 0.0)
        draws = 0.0;
    auto val = static_cast<std::uint64_t>(draws);
    return val > cap ? cap : val;
}

double
Rng::gaussian()
{
    // Irwin-Hall with 12 uniforms: mean 6, variance 1.
    double acc = 0.0;
    for (int i = 0; i < 12; ++i)
        acc += uniform();
    return acc - 6.0;
}

std::uint64_t
hashString(std::string_view str)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : str) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace avf
