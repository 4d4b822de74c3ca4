/**
 * @file
 * Lifetime monotonicity for chipkill sessions, the paired-seed form of
 * the PR 9 suite: every configuration in a comparison faces the exact
 * same event timelines (same trial seeds), so more spare chips or a
 * shorter scrub interval can never be worse — as an identity on the
 * shared histories, not a statistical tendency.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/parallel.hh"
#include "reliability/lifetime.hh"
#include "scheme/scheme.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

LifetimeParams
dramParams(double scrub_hours, int spares)
{
    LifetimeParams p;
    p.mix = parseFitMix("jaguar*10000");
    p.missionHours = 5.0 * 8760.0;
    p.scrubIntervalHours = scrub_hours;
    p.spareRows = spares;
    p.trials = 24;
    p.seed = 90210;
    return p;
}

LifetimeResult
runDram(const std::string &spec, const LifetimeParams &base)
{
    const SchemePtr scheme = parseScheme(spec);
    LifetimeParams p = base;
    p.schemeSpec = scheme->spec();
    return runLifetime(p, [&](Rng &fill) {
        return scheme->openSession(fill);
    });
}

TEST(DramLifetime, EveryDramVariantOpensASession)
{
    for (const std::string spec :
         {"dram:chipkill/x4", "dram:iecc+chipkill/x8",
          "dram:chipkill/x4/cols"}) {
        LifetimeParams p = dramParams(168.0, 1);
        p.trials = 6;
        const LifetimeResult res = runDram(spec, p);
        EXPECT_EQ(res.trials, 6) << spec;
        EXPECT_GT(res.events, 0) << spec;
        EXPECT_GT(res.scrubs, 0) << spec;
        EXPECT_GT(res.deviceHours, 0.0) << spec;
    }
}

TEST(DramLifetime, MoreSpareChipsAreNeverWorse)
{
    const LifetimeResult none = runDram("dram:chipkill/x4",
                                        dramParams(168.0, 0));
    const LifetimeResult some = runDram("dram:chipkill/x4",
                                        dramParams(168.0, 2));
    const LifetimeResult many = runDram("dram:chipkill/x4",
                                        dramParams(168.0, 6));
    EXPECT_LE(some.failures(), none.failures());
    EXPECT_LE(many.failures(), some.failures());
    EXPECT_GE(some.deviceHours, none.deviceHours);
    EXPECT_GE(many.deviceHours, some.deviceHours);
    EXPECT_GE(many.repairs, some.repairs);
    EXPECT_EQ(none.repairs, 0);
    // Paired comparison: identical timelines, so event totals agree
    // and a longer-lived device only injects more of its own timeline.
    EXPECT_EQ(none.events, many.events);
    EXPECT_GE(some.hardEvents, none.hardEvents);
    EXPECT_GE(many.hardEvents, some.hardEvents);
}

TEST(DramLifetime, MoreScrubbingIsNeverWorse)
{
    const LifetimeResult monthly = runDram("dram:chipkill/x4",
                                           dramParams(720.0, 0));
    const LifetimeResult daily = runDram("dram:chipkill/x4",
                                         dramParams(24.0, 0));
    const LifetimeResult per_event = runDram("dram:chipkill/x4",
                                             dramParams(0.0, 0));
    EXPECT_LE(daily.failures(), monthly.failures());
    EXPECT_LE(per_event.failures(), daily.failures());
    EXPECT_GE(daily.deviceHours, monthly.deviceHours);
    EXPECT_GE(per_event.deviceHours, daily.deviceHours);
}

TEST(DramLifetime, IeccMonotonicityHoldsToo)
{
    const LifetimeResult none = runDram("dram:iecc+chipkill/x8",
                                        dramParams(168.0, 0));
    const LifetimeResult some = runDram("dram:iecc+chipkill/x8",
                                        dramParams(168.0, 4));
    EXPECT_LE(some.failures(), none.failures());
    EXPECT_GE(some.deviceHours, none.deviceHours);
    EXPECT_EQ(none.events, some.events);
}

TEST(DramLifetime, ColumnRepairMonotonicityAndGranularity)
{
    // /cols spends the budget column-by-column; monotonicity must hold
    // at that granularity as well (spares here count columns).
    const LifetimeResult none = runDram("dram:chipkill/x4/cols",
                                        dramParams(168.0, 0));
    const LifetimeResult some = runDram("dram:chipkill/x4/cols",
                                        dramParams(168.0, 8));
    EXPECT_LE(some.failures(), none.failures());
    EXPECT_GE(some.deviceHours, none.deviceHours);
    EXPECT_EQ(none.events, some.events);
    EXPECT_EQ(none.repairs, 0);
}

TEST(DramLifetime, BitIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    setParallelThreads(1);
    const LifetimeResult one = runDram("dram:chipkill/x4",
                                       dramParams(168.0, 2));
    for (unsigned threads : {2u, 8u}) {
        setParallelThreads(threads);
        EXPECT_EQ(runDram("dram:chipkill/x4", dramParams(168.0, 2)), one)
            << threads;
    }
}

} // namespace
} // namespace tdc
