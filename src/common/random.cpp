#include "common/random.hpp"

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

std::uint64_t
Rng::nextGeometric(double p)
{
    return GeometricDist(p)(*this);
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
