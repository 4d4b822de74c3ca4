#include "workload/instruction_stream.hh"

#include <algorithm>
#include <cmath>

namespace tdc
{

uint64_t
InstructionStream::threshold(double p)
{
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return uint64_t(1) << 53;
    // p * 2^53 is exact, so m * 2^-53 < p iff m < ceil(p * 2^53).
    return uint64_t(std::ceil(std::ldexp(p, 53)));
}

InstructionStream::InstructionStream(const WorkloadProfile &profile,
                                     uint64_t seed)
    : rng(seed), ifetchMiss(threshold(profile.l1iMissRate)),
      bubble(threshold(profile.ilpBubbleProb)), moreBubbles(threshold(0.45)),
      l1dMiss(threshold(profile.l1dMissRate)),
      l2Miss(threshold(profile.l2MissRate)),
      dirtyEvict(threshold(profile.dirtyEvictFrac)),
      dirtyShared(threshold(profile.dirtySharedFrac))
{
    phases[0].toggle = threshold(profile.burstOnProb);
    phases[1].toggle = threshold(profile.burstOffProb);
    for (bool burst : {false, true}) {
        // Bursts boost the memory mix; the load and store shares
        // together stay within 90% of instructions.
        const double boost = burst ? profile.burstLoadBoost : 1.0;
        const double load_p = std::min(0.9, profile.loadFrac * boost);
        const double store_p =
            std::min(0.9 - load_p, profile.storeFrac * boost);
        phases[burst].load = threshold(load_p);
        phases[burst].loadOrStore = threshold(load_p + store_p);
    }
}

} // namespace tdc
