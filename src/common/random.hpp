/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis and
 * the request-timing perturbation methodology of Alameldeen et al. [27]
 * (multiple runs with small random delays added to memory requests).
 *
 * We use xoshiro256** — fast, high quality, and trivially seedable — so
 * every simulation is exactly reproducible from its seed.
 */

#pragma once

#include <cmath>
#include <cstdint>

namespace cgct {

class Archive;

/** xoshiro256** PRNG with SplitMix64 seeding. */
class Rng
{
  public:
    /** Construct from a 64-bit seed; identical seeds → identical streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
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

    /** Uniform integer in [0, bound) using Lemire's method. @pre bound>0 */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * Geometric-ish run length: returns k >= 1 with P(k) ∝ (1-p)^(k-1) p.
     * One draw of GeometricDist(p); a caller drawing repeatedly with the
     * same @p p builds the GeometricDist once instead.
     */
    std::uint64_t nextGeometric(double p);

    /**
     * Approximately Zipf-distributed index in [0, n) with exponent @p s:
     * one draw of ZipfDist(n, s), which see.
     */
    std::uint64_t nextZipf(std::uint64_t n, double s);

    /** Fork a child RNG with a decorrelated stream (for per-CPU streams). */
    Rng fork(std::uint64_t salt);

    /** Checkpoint layout: the raw xoshiro256** state. */
    void transfer(Archive &ar);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * The distribution Rng::nextGeometric(p) draws from, with log(1-p)
 * computed once: k >= 1 with P(k) ∝ (1-p)^(k-1) p, by inversion of one
 * uniform draw. p >= 1 always yields 1 and consumes no draw; p <= 0 is
 * taken as 1e-9. Used for sequential-run lengths and gaps in the workload
 * generator.
 */
class GeometricDist
{
  public:
    explicit GeometricDist(double p)
        : certain_(p >= 1.0),
          logQ_(certain_ ? 0.0 : std::log1p(-(p <= 0.0 ? 1e-9 : p)))
    {
    }

    std::uint64_t
    operator()(Rng &rng) const
    {
        if (certain_)
            return 1;
        const double u = 1.0 - rng.nextDouble(); // in (0, 1]
        const double k = std::ceil(std::log(u) / logQ_);
        return k < 1.0 ? 1 : static_cast<std::uint64_t>(k);
    }

  private:
    bool certain_;
    double logQ_;
};

/**
 * The distribution Rng::nextZipf(n, s) draws from, with its normalizer
 * computed once: an approximately Zipf-distributed index in [0, n) with
 * exponent s, by inverse CDF over the generalized harmonic number
 * approximated by its integral, H(x) ≈ (x^(1-s) - 1) / (1-s) for s != 1
 * and ln(x) for s == 1. n <= 1 always yields 0 and consumes no draw.
 * Used for hot-set skew in the workload profiles.
 */
class ZipfDist
{
  public:
    ZipfDist(std::uint64_t n, double s)
        : n_(n), harmonic_(std::abs(s - 1.0) < 1e-9),
          logN_(harmonic_ ? std::log(static_cast<double>(n)) : 0.0),
          oneMinusS_(1.0 - s),
          hn_(harmonic_ ? 0.0
                        : (std::pow(static_cast<double>(n), oneMinusS_) -
                           1.0) / oneMinusS_),
          invOneMinusS_(harmonic_ ? 0.0 : 1.0 / oneMinusS_)
    {
    }

    std::uint64_t
    operator()(Rng &rng) const
    {
        if (n_ <= 1)
            return 0;
        const double u = rng.nextDouble();
        const double x = harmonic_
                             ? std::exp(u * logN_)
                             : std::pow(u * hn_ * oneMinusS_ + 1.0,
                                        invOneMinusS_);
        const auto idx = static_cast<std::uint64_t>(x);
        return idx >= n_ ? n_ - 1 : idx;
    }

  private:
    std::uint64_t n_;
    bool harmonic_;
    double logN_;
    double oneMinusS_;
    double hn_;
    double invOneMinusS_;
};

} // namespace cgct
