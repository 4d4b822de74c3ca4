#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/rng.hh"
#include "core/port_scheduler.hh"

namespace tdc
{
namespace
{

TEST(PortScheduler, DemandWithinBandwidthHasNoDelay)
{
    PortScheduler ps(2, 0);
    for (uint64_t c = 0; c < 10; ++c) {
        ps.advanceTo(c);
        EXPECT_EQ(ps.issueDemand(), 0u);
        EXPECT_EQ(ps.issueDemand(), 0u);
    }
    EXPECT_EQ(ps.totalDelay(), 0u);
    EXPECT_EQ(ps.demandIssued(), 20u);
}

TEST(PortScheduler, OversubscriptionSpillsToNextCycle)
{
    PortScheduler ps(1, 0);
    ps.advanceTo(0);
    EXPECT_EQ(ps.issueDemand(), 0u); // fills cycle 0
    EXPECT_EQ(ps.issueDemand(), 1u); // spills to cycle 1
    EXPECT_EQ(ps.issueDemand(), 2u); // spills to cycle 2
    EXPECT_EQ(ps.totalDelay(), 3u);
}

TEST(PortScheduler, BacklogDrainsOverTime)
{
    PortScheduler ps(1, 0);
    ps.advanceTo(0);
    ps.issueDemand();
    ps.issueDemand(); // backlog 1 cycle deep
    ps.advanceTo(5);  // plenty of idle time elapses
    EXPECT_EQ(ps.issueDemand(), 0u);
}

TEST(PortScheduler, NoStealingChargesEveryRead)
{
    PortScheduler ps(1, 0);
    ps.advanceTo(0);
    EXPECT_EQ(ps.issueStolenRead(), 1u);
    EXPECT_EQ(ps.stolenCharged(), 1u);
    EXPECT_EQ(ps.stolenAbsorbed(), 0u);
    EXPECT_EQ(ps.stealEfficiency(), 0.0);
}

TEST(PortScheduler, StealingAbsorbsIntoIdleSlots)
{
    // One port, idle cycles 0..9, then a burst of stolen reads at 10:
    // the window holds 8 idle slots, so 8 reads are free.
    PortScheduler ps(1, 8);
    ps.advanceTo(10); // cycles 0..9 idle
    unsigned charged = 0;
    for (int i = 0; i < 10; ++i)
        charged += ps.issueStolenRead();
    EXPECT_EQ(ps.stolenAbsorbed(), 8u);
    EXPECT_EQ(charged, 2u);
    EXPECT_NEAR(ps.stealEfficiency(), 0.8, 1e-9);
}

TEST(PortScheduler, BusyPortLeavesNothingToSteal)
{
    PortScheduler ps(1, 8);
    for (uint64_t c = 0; c < 8; ++c) {
        ps.advanceTo(c);
        ps.issueDemand(); // saturate every cycle
    }
    ps.advanceTo(8);
    EXPECT_EQ(ps.issueStolenRead(), 1u);
    EXPECT_EQ(ps.stolenAbsorbed(), 0u);
}

TEST(PortScheduler, WindowLimitsHowFarBackStealingSees)
{
    // Idle at cycles 0..1, then saturated 2..9: a window of 4 only
    // remembers the busy cycles.
    PortScheduler ps(1, 4);
    ps.advanceTo(2);
    for (uint64_t c = 2; c < 10; ++c) {
        ps.advanceTo(c);
        ps.issueDemand();
    }
    ps.advanceTo(10);
    EXPECT_EQ(ps.issueStolenRead(), 1u); // old idle slots expired
}

TEST(PortScheduler, MultiPortIdleSlotsAccumulate)
{
    PortScheduler ps(2, 16);
    // One demand per cycle leaves one idle slot per cycle.
    for (uint64_t c = 0; c < 6; ++c) {
        ps.advanceTo(c);
        ps.issueDemand();
    }
    ps.advanceTo(6);
    unsigned absorbed = 0;
    for (int i = 0; i < 6; ++i)
        absorbed += ps.issueStolenRead() == 0 ? 1 : 0;
    EXPECT_EQ(absorbed, 6u);
}

TEST(PortScheduler, ChargedStolenReadOccupiesARealSlot)
{
    PortScheduler ps(1, 0);
    ps.advanceTo(0);
    ps.issueStolenRead();             // takes cycle 0
    EXPECT_EQ(ps.issueDemand(), 1u);  // demand pushed to cycle 1
}

/**
 * The original PortScheduler, kept verbatim as the differential
 * oracle: it walks every elapsed cycle and keeps the idle history in
 * an unbounded-then-trimmed deque. The production scheduler must
 * return the same value from every call and agree on every counter.
 */
class NaivePortScheduler
{
  public:
    NaivePortScheduler(unsigned ports_, unsigned steal_window)
        : ports(ports_), stealWindow(steal_window)
    {
    }

    void advanceTo(uint64_t cycle)
    {
        if (cycle == now)
            return;
        for (uint64_t c = now; c < cycle; ++c) {
            unsigned used = 0;
            if (c < horizonCycle)
                used = ports;
            else if (c == horizonCycle)
                used = horizonUsed;
            const unsigned idle = ports - used;
            if (stealWindow > 0) {
                idleHistory.push_back(idle);
                idleBank += idle;
                while (idleHistory.size() > stealWindow) {
                    idleBank -= idleHistory.front();
                    idleHistory.pop_front();
                }
            }
        }
        now = cycle;
        if (horizonCycle < now) {
            horizonCycle = now;
            horizonUsed = 0;
        }
    }

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

    unsigned issueStolenRead()
    {
        if (stealWindow > 0 && idleBank > 0) {
            --idleBank;
            for (auto &slot : idleHistory) {
                if (slot > 0) {
                    --slot;
                    break;
                }
            }
            ++absorbedCount;
            return 0;
        }
        ++chargedCount;
        issueDemand();
        --demandCount;
        return 1;
    }

    unsigned ports;
    unsigned stealWindow;
    uint64_t now = 0;
    uint64_t horizonCycle = 0;
    unsigned horizonUsed = 0;
    std::deque<unsigned> idleHistory;
    unsigned idleBank = 0;
    uint64_t demandCount = 0;
    uint64_t absorbedCount = 0;
    uint64_t chargedCount = 0;
    uint64_t delaySum = 0;
};

TEST(PortScheduler, MatchesNaiveOracleOnRandomSequences)
{
    for (unsigned ports : {1u, 2u}) {
        for (unsigned window : {0u, 1u, 4u, 12u, 16u}) {
            for (uint64_t seed = 1; seed <= 8; ++seed) {
                SCOPED_TRACE(testing::Message()
                             << "ports " << ports << " window " << window
                             << " seed " << seed);
                PortScheduler fast(ports, window);
                NaivePortScheduler naive(ports, window);
                Rng rng(seed * 1000 + window * 10 + ports);
                // Jumps of 0..3x the window, so some exceed it (and
                // a window of 0 still sees time move).
                const uint64_t max_jump = std::max(3u * window, 3u);
                // Seeds vary the share of advances, from a saturated
                // port (horizon far ahead) to a mostly idle one.
                const uint64_t advance_share = 2 + seed % 4;
                uint64_t now = 0;
                for (int step = 0; step < 4000; ++step) {
                    const uint64_t op = rng.nextBelow(10);
                    if (op < advance_share) {
                        now += rng.nextBelow(max_jump + 1);
                        fast.advanceTo(now);
                        naive.advanceTo(now);
                    } else if (op < advance_share + 4) {
                        ASSERT_EQ(fast.issueDemand(), naive.issueDemand())
                            << "step " << step;
                    } else {
                        ASSERT_EQ(fast.issueStolenRead(),
                                  naive.issueStolenRead())
                            << "step " << step;
                    }
                    ASSERT_EQ(fast.demandIssued(), naive.demandCount);
                    ASSERT_EQ(fast.stolenAbsorbed(), naive.absorbedCount);
                    ASSERT_EQ(fast.stolenCharged(), naive.chargedCount);
                    ASSERT_EQ(fast.totalDelay(), naive.delaySum);
                }
            }
        }
    }
}

} // namespace
} // namespace tdc
