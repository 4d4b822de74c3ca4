/**
 * @file
 * Synthetic per-core instruction stream driven by a WorkloadProfile.
 */

#ifndef TDC_WORKLOAD_INSTRUCTION_STREAM_HH
#define TDC_WORKLOAD_INSTRUCTION_STREAM_HH

#include <cstdint>

#include "common/rng.hh"
#include "workload/workload_profile.hh"

namespace tdc
{

/** One synthetic instruction as seen by the cache hierarchy. */
struct SyntheticInstr
{
    enum class Kind
    {
        kNonMem,
        kLoad,
        kStore,
    };

    Kind kind = Kind::kNonMem;

    /** Instruction-fetch misses the L1I (goes to L2). */
    bool ifetchMiss = false;

    /** For loads/stores: the data access misses the L1D. */
    bool l1dMiss = false;

    /** For L1D misses: the refill also misses the L2. */
    bool l2Miss = false;

    /** For L1D misses: the victim line is dirty (write-back to L2). */
    bool dirtyEvict = false;

    /** For L1D misses: served by dirty data in a peer core's L1. */
    bool dirtyShared = false;

    /** Uniform hash used to pick an L2 bank. */
    uint32_t bankHash = 0;

    /** Dead issue slots preceding this instruction (ILP stalls). */
    unsigned bubbles = 0;
};

/**
 * Stochastic instruction generator with two-state Markov burstiness.
 * Each core (or hardware thread) owns one stream seeded
 * independently, so runs are reproducible and baseline/protected
 * simulations can be paired sample-by-sample (the matched-pair
 * methodology the paper borrows from SimFlex).
 *
 * Every Bernoulli draw compares the top 53 bits of one Rng::next()
 * with an integer threshold the constructor precomputes (see
 * threshold()), which draws exactly what Rng::nextBool(p) would.
 * next() is inline so the simulator's issue loop can absorb it.
 */
class InstructionStream
{
  public:
    InstructionStream(const WorkloadProfile &profile, uint64_t seed);

    /** Generate the next instruction. */
    SyntheticInstr next()
    {
        // Markov burst phase transition.
        if (draw(phases[inBurst].toggle))
            inBurst = !inBurst;
        const Phase &phase = phases[inBurst];

        SyntheticInstr instr;
        instr.ifetchMiss = draw(ifetchMiss);
        instr.bankHash = uint32_t(rng.next());

        // ILP bubbles: geometric tail, capped so one draw cannot
        // freeze a core for long.
        if (draw(bubble)) {
            instr.bubbles = 1;
            while (instr.bubbles < 4 && draw(moreBubbles))
                ++instr.bubbles;
        }

        const uint64_t kind = rng.next() >> 11;
        if (kind < phase.load)
            instr.kind = SyntheticInstr::Kind::kLoad;
        else if (kind < phase.loadOrStore)
            instr.kind = SyntheticInstr::Kind::kStore;
        else
            return instr;

        instr.l1dMiss = draw(l1dMiss);
        if (instr.l1dMiss) {
            instr.l2Miss = draw(l2Miss);
            instr.dirtyEvict = draw(dirtyEvict);
            instr.dirtyShared = !instr.l2Miss && draw(dirtyShared);
        }
        return instr;
    }

    /** Whether the stream is currently in its bursty phase. */
    bool bursty() const { return inBurst; }

    /**
     * The integer threshold t with (x >> 11) < t exactly when
     * Rng::nextBool(p) — (x >> 11) * 2^-53 < p — holds for the draw x:
     * 0 for p <= 0, 2^53 for p >= 1, else ceil(p * 2^53).
     */
    static uint64_t threshold(double p);

  private:
    /** Thresholds that depend on the burst phase. */
    struct Phase
    {
        uint64_t toggle = 0;      ///< leave this phase
        uint64_t load = 0;        ///< draw below: load
        uint64_t loadOrStore = 0; ///< draw below (and not load): store
    };

    bool draw(uint64_t t) { return (rng.next() >> 11) < t; }

    Rng rng;
    Phase phases[2]; ///< [0] calm, [1] bursty
    uint64_t ifetchMiss = 0;
    uint64_t bubble = 0;
    uint64_t moreBubbles = 0;
    uint64_t l1dMiss = 0;
    uint64_t l2Miss = 0;
    uint64_t dirtyEvict = 0;
    uint64_t dirtyShared = 0;
    bool inBurst = false;
};

} // namespace tdc

#endif // TDC_WORKLOAD_INSTRUCTION_STREAM_HH
