/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Workload generators must be reproducible across runs and platforms, so
 * we ship our own xoshiro256** implementation seeded by splitmix64 and do
 * not use <random> engines (whose distributions are not
 * implementation-defined ... distributions in libstdc++/libc++ differ).
 */

#ifndef PIMDSM_SIM_RANDOM_HH
#define PIMDSM_SIM_RANDOM_HH

#include <cstdint>

namespace pimdsm
{

class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Uniform 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) (bound > 0). */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return nextDouble() < p; }

  private:
    std::uint64_t s_[4];
};

} // namespace pimdsm

#endif // PIMDSM_SIM_RANDOM_HH
