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
    std::uint64_t next();

    /** Uniform integer in [0, bound) using Lemire's method. @pre bound>0 */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p);

    /**
     * Geometric-ish run length: returns k >= 1 with P(k) ∝ (1-p)^(k-1) p.
     * Used for sequential-run lengths in the workload generator.
     */
    std::uint64_t nextGeometric(double p);

    /**
     * Approximately Zipf-distributed index in [0, n) with exponent @p s,
     * implemented by inverse-CDF over a harmonic approximation. Used for
     * hot-set skew in the database workload profiles.
     */
    std::uint64_t nextZipf(std::uint64_t n, double s);

    /** Fork a child RNG with a decorrelated stream (for per-CPU streams). */
    Rng fork(std::uint64_t salt);

    /** Checkpoint layout: the raw xoshiro256** state. */
    void transfer(Archive &ar);

  private:
    std::uint64_t state_[4];
};

} // namespace cgct
