/**
 * @file
 * Cache-port occupancy model with the paper's port-stealing
 * optimization for read-before-write operations (Section 4).
 */

#ifndef TDC_CORE_PORT_SCHEDULER_HH
#define TDC_CORE_PORT_SCHEDULER_HH

#include <cassert>
#include <cstdint>
#include <vector>

namespace tdc
{

/**
 * Models the port occupancy of one cache (or one cache bank).
 *
 * Each cycle offers `ports` access slots. Demand accesses occupy a
 * slot in FIFO order; if the current cycle is full the access spills
 * into the next cycle (reported as delay). A 2D-protected cache turns
 * every write into a read-before-write: the read half is an *extra*
 * access. Without port stealing it is scheduled like any demand
 * access (in front of the write). With port stealing, the scheduler
 * first tries to absorb it into an idle slot observed during the past
 * `stealWindow` cycles — the store-queue residency during which the
 * read can issue early, after [27] — and only charges a slot when no
 * idle slot was available.
 */
class PortScheduler
{
  public:
    /**
     * @param ports access slots per cycle
     * @param steal_window how many past cycles of idle slots a stolen
     *        read may use (0 disables port stealing)
     */
    PortScheduler(unsigned ports, unsigned steal_window);

    /** Advance time to @p cycle (monotonic). */
    void advanceTo(uint64_t cycle)
    {
        assert(cycle >= now);
        if (cycle == now)
            return;

        // Record the idle slots of every fully elapsed cycle for
        // stealing. The horizon cycle may be partially used; cycles
        // between now and the horizon are fully booked (horizon
        // invariant). Only the last stealWindow cycles can survive in
        // the history, so a longer jump replays just those.
        if (stealWindow > 0) {
            const uint64_t from =
                cycle - now > stealWindow ? cycle - stealWindow : now;
            for (uint64_t c = from; c < cycle; ++c) {
                unsigned idle = ports;
                if (c < horizonCycle)
                    idle = 0;
                else if (c == horizonCycle)
                    idle = ports - horizonUsed;
                idleBank += idle - idleHistory[oldest];
                idleHistory[oldest] = idle;
                if (++oldest == stealWindow)
                    oldest = 0;
            }
        }

        now = cycle;
        if (horizonCycle < now) {
            horizonCycle = now;
            horizonUsed = 0;
        }
    }

    /**
     * Issue a demand access (read, write, or fill) at the current
     * cycle. Returns the queueing delay in cycles (0 = issued this
     * cycle).
     */
    unsigned issueDemand()
    {
        ++demandCount;
        if (horizonUsed >= ports) {
            ++horizonCycle;
            horizonUsed = 0;
        }
        ++horizonUsed;
        const unsigned delay = unsigned(horizonCycle - now);
        delaySum += delay;
        return delay;
    }

    /**
     * Issue the read half of a read-before-write. Returns the number
     * of *charged* port slots (0 if the read was absorbed by port
     * stealing, 1 if it consumed a demand slot).
     */
    unsigned issueStolenRead();

    uint64_t demandIssued() const { return demandCount; }
    uint64_t stolenAbsorbed() const { return absorbedCount; }
    uint64_t stolenCharged() const { return chargedCount; }
    uint64_t totalDelay() const { return delaySum; }

    /** Fraction of RBW reads hidden by stealing (0 if none issued). */
    double stealEfficiency() const;

  private:
    unsigned ports;
    unsigned stealWindow;
    uint64_t now = 0;

    /** Next cycle with a free slot >= now, and slots already used in it. */
    uint64_t horizonCycle = 0;
    unsigned horizonUsed = 0;

    /**
     * Idle slots of the last stealWindow cycles: a ring whose slot
     * `oldest` is the oldest cycle (and the next one overwritten).
     * It starts all zero, which behaves exactly like a shorter
     * history: empty cycles add nothing and are never stolen from.
     */
    std::vector<unsigned> idleHistory;
    unsigned oldest = 0;
    /** Sum of idleHistory. */
    unsigned idleBank = 0;

    uint64_t demandCount = 0;
    uint64_t absorbedCount = 0;
    uint64_t chargedCount = 0;
    uint64_t delaySum = 0;
};

} // namespace tdc

#endif // TDC_CORE_PORT_SCHEDULER_HH
