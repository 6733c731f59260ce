#include "common/random.hpp"

#include <cmath>

#include "snapshot/serializer.hpp"

namespace cgct {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
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
    std::uint64_t x = seed;
    for (auto &s : state_)
        s = splitmix64(x);
    // Avoid the (astronomically unlikely) all-zero state.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0)
        state_[0] = 1;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    // Lemire's nearly-divisionless method.
    __uint128_t m = static_cast<__uint128_t>(next()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (lo < threshold) {
            m = static_cast<__uint128_t>(next()) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

std::uint64_t
Rng::nextGeometric(double p)
{
    if (p >= 1.0)
        return 1;
    if (p <= 0.0)
        p = 1e-9;
    const double u = 1.0 - nextDouble(); // in (0, 1]
    const double k = std::ceil(std::log(u) / std::log1p(-p));
    return k < 1.0 ? 1 : static_cast<std::uint64_t>(k);
}

std::uint64_t
Rng::nextZipf(std::uint64_t n, double s)
{
    if (n <= 1)
        return 0;
    // Inverse-CDF over the generalized harmonic number approximated by the
    // integral: H(x) ≈ (x^(1-s) - 1) / (1-s) for s != 1, ln(x) for s == 1.
    const double u = nextDouble();
    double x;
    if (std::abs(s - 1.0) < 1e-9) {
        x = std::exp(u * std::log(static_cast<double>(n)));
    } else {
        const double one_minus_s = 1.0 - s;
        const double hn = (std::pow(static_cast<double>(n), one_minus_s) -
                           1.0) / one_minus_s;
        x = std::pow(u * hn * one_minus_s + 1.0, 1.0 / one_minus_s);
    }
    auto idx = static_cast<std::uint64_t>(x);
    if (idx >= n)
        idx = n - 1;
    return idx;
}

Rng
Rng::fork(std::uint64_t salt)
{
    return Rng(next() ^ (salt * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL));
}

void
Rng::transfer(Archive &ar)
{
    for (std::uint64_t &w : state_)
        ar.u64(w);
}

} // namespace cgct
