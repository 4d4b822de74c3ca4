/**
 * @file
 * Exact injection and lifetime outcomes pinned per scheme family.
 *
 * Every cached figure cell and every result-cache key assumes the
 * draw order of a trial: golden fill first, then the fault event,
 * both from the trial's shardSeed stream. These pins record the
 * (corrected, detectedOnly, silent) counts of every registered
 * example scheme against six fault shapes, plus one lifetime cell per
 * family, so any change to the fill, injection or verify order shows
 * up here as a changed count rather than as a silently stale cache.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "reliability/result_cache.hh"
#include "scheme/scheme.hh"

namespace tdc
{
namespace
{

struct InjectionPin
{
    const char *scheme;
    const char *fault;
    int corrected;
    int detectedOnly;
    int silent;
};

// 8 trials, seed 31, for every exampleSchemeSpecs() entry.
const std::vector<InjectionPin> kInjectionPins = {
    {"conv:secded/i4", "single", 8, 0, 0},
    {"conv:secded/i4", "8x8@0.5", 0, 8, 0},
    {"conv:secded/i4", "32x32", 0, 7, 1},
    {"conv:secded/i4", "hammer:3@0.3", 0, 0, 8},
    {"conv:secded/i4", "chip:any", 8, 0, 0},
    {"conv:secded/i4", "senseamp:16", 8, 0, 0},
    {"conv:oecned/i4", "single", 8, 0, 0},
    {"conv:oecned/i4", "8x8@0.5", 8, 0, 0},
    {"conv:oecned/i4", "32x32", 8, 0, 0},
    {"conv:oecned/i4", "hammer:3@0.3", 0, 8, 0},
    {"conv:oecned/i4", "chip:any", 8, 0, 0},
    {"conv:oecned/i4", "senseamp:16", 8, 0, 0},
    {"conv:dected/i16", "single", 8, 0, 0},
    {"conv:dected/i16", "8x8@0.5", 8, 0, 0},
    {"conv:dected/i16", "32x32", 8, 0, 0},
    {"conv:dected/i16", "hammer:3@0.3", 0, 0, 8},
    {"conv:dected/i16", "chip:any", 8, 0, 0},
    {"conv:dected/i16", "senseamp:16", 8, 0, 0},
    {"conv:qecped/i8", "single", 8, 0, 0},
    {"conv:qecped/i8", "8x8@0.5", 8, 0, 0},
    {"conv:qecped/i8", "32x32", 8, 0, 0},
    {"conv:qecped/i8", "hammer:3@0.3", 0, 7, 1},
    {"conv:qecped/i8", "chip:any", 8, 0, 0},
    {"conv:qecped/i8", "senseamp:16", 8, 0, 0},
    {"conv:secded/i2/w256", "single", 8, 0, 0},
    {"conv:secded/i2/w256", "8x8@0.5", 0, 2, 6},
    {"conv:secded/i2/w256", "32x32", 0, 8, 0},
    {"conv:secded/i2/w256", "hammer:3@0.3", 0, 0, 8},
    {"conv:secded/i2/w256", "chip:any", 8, 0, 0},
    {"conv:secded/i2/w256", "senseamp:16", 8, 0, 0},
    {"2d:edc8/i4+vp32", "single", 8, 0, 0},
    {"2d:edc8/i4+vp32", "8x8@0.5", 8, 0, 0},
    {"2d:edc8/i4+vp32", "32x32", 8, 0, 0},
    {"2d:edc8/i4+vp32", "hammer:3@0.3", 8, 0, 0},
    {"2d:edc8/i4+vp32", "chip:any", 0, 8, 0},
    {"2d:edc8/i4+vp32", "senseamp:16", 8, 0, 0},
    {"2d:edc16/i2+vp32/w256", "single", 8, 0, 0},
    {"2d:edc16/i2+vp32/w256", "8x8@0.5", 8, 0, 0},
    {"2d:edc16/i2+vp32/w256", "32x32", 8, 0, 0},
    {"2d:edc16/i2+vp32/w256", "hammer:3@0.3", 8, 0, 0},
    {"2d:edc16/i2+vp32/w256", "chip:any", 0, 8, 0},
    {"2d:edc16/i2+vp32/w256", "senseamp:16", 8, 0, 0},
    {"2d:secded/i4+vp32", "single", 8, 0, 0},
    {"2d:secded/i4+vp32", "8x8@0.5", 8, 0, 0},
    {"2d:secded/i4+vp32", "32x32", 8, 0, 0},
    {"2d:secded/i4+vp32", "hammer:3@0.3", 8, 0, 0},
    {"2d:secded/i4+vp32", "chip:any", 8, 0, 0},
    {"2d:secded/i4+vp32", "senseamp:16", 8, 0, 0},
    {"wt:edc8/i4", "single", 0, 8, 0},
    {"wt:edc8/i4", "8x8@0.5", 0, 8, 0},
    {"wt:edc8/i4", "32x32", 0, 8, 0},
    {"wt:edc8/i4", "hammer:3@0.3", 0, 5, 3},
    {"wt:edc8/i4", "chip:any", 0, 8, 0},
    {"wt:edc8/i4", "senseamp:16", 0, 8, 0},
    {"prod:256x256", "single", 8, 0, 0},
    {"prod:256x256", "8x8@0.5", 0, 8, 0},
    {"prod:256x256", "32x32", 0, 0, 8},
    {"prod:256x256", "hammer:3@0.3", 0, 5, 3},
    {"prod:256x256", "chip:any", 0, 8, 0},
    {"prod:256x256", "senseamp:16", 0, 0, 8},
    {"prod:64x64", "single", 8, 0, 0},
    {"prod:64x64", "8x8@0.5", 0, 6, 2},
    {"prod:64x64", "32x32", 0, 0, 8},
    {"prod:64x64", "hammer:3@0.3", 0, 4, 4},
    {"prod:64x64", "chip:any", 0, 8, 0},
    {"prod:64x64", "senseamp:16", 0, 0, 8},
    {"dram:chipkill/x4", "single", 8, 0, 0},
    {"dram:chipkill/x4", "8x8@0.5", 0, 8, 0},
    {"dram:chipkill/x4", "32x32", 0, 8, 0},
    {"dram:chipkill/x4", "hammer:3@0.3", 0, 7, 1},
    {"dram:chipkill/x4", "chip:any", 8, 0, 0},
    {"dram:chipkill/x4", "senseamp:16", 6, 2, 0},
    {"dram:iecc+chipkill/x8", "single", 8, 0, 0},
    {"dram:iecc+chipkill/x8", "8x8@0.5", 4, 4, 0},
    {"dram:iecc+chipkill/x8", "32x32", 0, 8, 0},
    {"dram:iecc+chipkill/x8", "hammer:3@0.3", 0, 8, 0},
    {"dram:iecc+chipkill/x8", "chip:any", 8, 0, 0},
    {"dram:iecc+chipkill/x8", "senseamp:16", 8, 0, 0},
    {"dram:chipkill/x8/r16/b4/cols", "single", 8, 0, 0},
    {"dram:chipkill/x8/r16/b4/cols", "8x8@0.5", 2, 6, 0},
    {"dram:chipkill/x8/r16/b4/cols", "32x32", 0, 8, 0},
    {"dram:chipkill/x8/r16/b4/cols", "hammer:3@0.3", 0, 8, 0},
    {"dram:chipkill/x8/r16/b4/cols", "chip:any", 8, 0, 0},
    {"dram:chipkill/x8/r16/b4/cols", "senseamp:16", 7, 1, 0},
};

const char *const kPinnedFaults[] = {"single",       "8x8@0.5",
                                     "32x32",        "hammer:3@0.3",
                                     "chip:any",     "senseamp:16"};

std::string
pinLine(const std::string &scheme, const std::string &fault,
        const InjectionOutcome &o)
{
    return "    {\"" + scheme + "\", \"" + fault + "\", " +
           std::to_string(o.corrected) + ", " +
           std::to_string(o.detectedOnly) + ", " +
           std::to_string(o.silent) + "},\n";
}

TEST(SchemeInjection, OutcomesPinnedPerFamily)
{
    std::string actual, expected;
    for (const std::string &spec : exampleSchemeSpecs()) {
        const SchemePtr scheme = parseScheme(spec);
        for (const char *fault : kPinnedFaults) {
            const InjectionOutcome o =
                scheme->injectAndRecover(parseFaultModel(fault), 8, 31);
            EXPECT_EQ(o.trials, 8) << spec << " " << fault;
            actual += pinLine(spec, fault, o);
        }
    }
    for (const InjectionPin &p : kInjectionPins) {
        InjectionOutcome o;
        o.corrected = p.corrected;
        o.detectedOnly = p.detectedOnly;
        o.silent = p.silent;
        expected += pinLine(p.scheme, p.fault, o);
    }
    EXPECT_EQ(actual, expected);
}

struct LifetimePin
{
    const char *scheme;
    int survived;
    int dueTrials;
    int sdcTrials;
    int64_t events;
    int64_t hardEvents;
    int64_t correctedEvents;
    int64_t dueEvents;
    int64_t sdcEvents;
    int64_t scrubs;
    int64_t repairs;
    double deviceHours;
};

// jaguar*10000, 5-year mission, weekly scrub, 2 spares, 8 trials,
// seed 31: one small cell per family.
const std::vector<LifetimePin> kLifetimePins = {
    {"conv:secded/i4/r64",
     0, 7, 1, 233, 19, 18, 9, 1, 26, 10, 38306.575709493372},
    {"wt:edc8/i4/r64",
     0, 8, 0, 233, 6, 0, 8, 0, 8, 0, 13813.134635014645},
    {"2d:edc8/i4+vp32/r64",
     0, 8, 0, 233, 8, 4, 8, 0, 12, 0, 17012.341176596583},
    {"prod:64x64",
     0, 7, 1, 233, 7, 2, 7, 1, 10, 0, 15079.370239875974},
    {"dram:iecc+chipkill/x8",
     0, 8, 0, 233, 19, 21, 8, 0, 28, 8, 38235.653467526681},
};

std::string
lifetimeLine(const std::string &scheme, const LifetimeResult &r)
{
    char hours[64];
    std::snprintf(hours, sizeof hours, "%.17g", r.deviceHours);
    return "    {\"" + scheme + "\", " + std::to_string(r.survived) + ", " +
           std::to_string(r.dueTrials) + ", " +
           std::to_string(r.sdcTrials) + ", " + std::to_string(r.events) +
           ", " + std::to_string(r.hardEvents) + ", " +
           std::to_string(r.correctedEvents) + ", " +
           std::to_string(r.dueEvents) + ", " +
           std::to_string(r.sdcEvents) + ", " + std::to_string(r.scrubs) +
           ", " + std::to_string(r.repairs) + ", " + hours + "},\n";
}

TEST(SchemeInjection, LifetimeCellsPinnedPerFamily)
{
    resultCache().setDirectory("");
    resultCache().clearMemory();
    std::string actual, expected;
    for (const char *spec :
         {"conv:secded/i4/r64", "wt:edc8/i4/r64", "2d:edc8/i4+vp32/r64",
          "prod:64x64", "dram:iecc+chipkill/x8"}) {
        LifetimeParams p;
        p.mix = parseFitMix("jaguar*10000");
        p.scrubIntervalHours = 168.0;
        p.spareRows = 2;
        p.trials = 8;
        p.seed = 31;
        const LifetimeResult r = cachedSchemeLifetime(*parseScheme(spec), p);
        EXPECT_EQ(r.trials, 8) << spec;
        actual += lifetimeLine(spec, r);
    }
    for (const LifetimePin &p : kLifetimePins) {
        LifetimeResult r;
        r.survived = p.survived;
        r.dueTrials = p.dueTrials;
        r.sdcTrials = p.sdcTrials;
        r.events = p.events;
        r.hardEvents = p.hardEvents;
        r.correctedEvents = p.correctedEvents;
        r.dueEvents = p.dueEvents;
        r.sdcEvents = p.sdcEvents;
        r.scrubs = p.scrubs;
        r.repairs = p.repairs;
        r.deviceHours = p.deviceHours;
        expected += lifetimeLine(p.scheme, r);
    }
    EXPECT_EQ(actual, expected);
    resultCache().clearMemory();
}

} // namespace
} // namespace tdc
