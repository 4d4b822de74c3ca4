/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * A self-contained xoshiro256** implementation so that every experiment
 * in the repository is reproducible bit-for-bit across platforms and
 * standard-library versions (std::mt19937 distributions are not
 * portable across implementations).
 */

#ifndef TDC_COMMON_RNG_HH
#define TDC_COMMON_RNG_HH

#include <bit>
#include <cstdint>

namespace tdc
{

/**
 * xoshiro256** generator with SplitMix64 seeding.
 *
 * All simulation components draw randomness through this class so a
 * single seed fully determines an experiment.
 */
class Rng
{
  public:
    /** Seed via SplitMix64 expansion of @p seed. */
    explicit Rng(uint64_t seed = 0x2d2d2d2d5eedULL);

    /** Next raw 64-bit value. */
    uint64_t next()
    {
        const uint64_t result = std::rotl(state[1] * 5, 7) * 9;
        const uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = std::rotl(state[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0 */
    uint64_t nextBelow(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi */
    int64_t nextRange(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble() { return double(next() >> 11) * 0x1.0p-53; }

    /** Bernoulli draw with probability @p p. */
    bool nextBool(double p = 0.5) { return nextDouble() < p; }

    /** Exponentially distributed value with rate @p lambda. */
    double nextExponential(double lambda);

    /** Poisson-distributed count with mean @p mean (mean < ~700). */
    uint64_t nextPoisson(double mean);

    /** Standard normal via Box-Muller. */
    double nextGaussian();

  private:
    uint64_t state[4];
    bool haveSpareGaussian = false;
    double spareGaussian = 0.0;
};

} // namespace tdc

#endif // TDC_COMMON_RNG_HH
