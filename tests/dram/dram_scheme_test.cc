/**
 * @file
 * The dram: scheme family end to end: spec parsing and canonical
 * round-trips, name/overhead pins, injectAndRecover determinism and
 * coverage behavior, and the dead-chip erasure ride-through that makes
 * IECC+chipkill survive a standing chip kill plus a second fault.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "common/rng.hh"
#include "scheme/dram_scheme.hh"
#include "scheme/scheme.hh"

namespace tdc
{
namespace
{

/** EXPECT a parse failure whose message quotes @p needle. */
void
expectParseError(const std::string &spec, const std::string &needle)
{
    try {
        parseScheme(spec);
        FAIL() << spec << " parsed";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << spec << " -> " << e.what();
    }
}

TEST(DramScheme, NamesAndSpecsArePinned)
{
    const SchemePtr x4 = parseScheme("dram:chipkill/x4");
    EXPECT_EQ(x4->name(), "Chipkill(x4,RS15/12)");
    EXPECT_EQ(x4->spec(), "dram:chipkill/x4");

    const SchemePtr x8 = parseScheme("dram:iecc+chipkill/x8");
    EXPECT_EQ(x8->name(), "IECC+Chipkill(x8,RS11/8)");
    EXPECT_EQ(x8->spec(), "dram:iecc+chipkill/x8");
}

TEST(DramScheme, CanonicalSpecOmitsDefaultsAndKeepsOverrides)
{
    // Explicit defaults normalize away.
    EXPECT_EQ(parseScheme("dram:chipkill/x4/r32/b2")->spec(),
              "dram:chipkill/x4");
    // Non-defaults and /cols survive.
    EXPECT_EQ(parseScheme("dram:chipkill/x8/r16/b4/cols")->spec(),
              "dram:chipkill/x8/r16/b4/cols");
    // Round-trip through the registry.
    const SchemePtr s = parseScheme("dram:iecc+chipkill/x4/cols");
    EXPECT_EQ(parseScheme(s->spec())->spec(), s->spec());
}

TEST(DramScheme, StorageOverheadPins)
{
    // Plain chipkill: 3 check chips per k data chips.
    EXPECT_NEAR(parseScheme("dram:chipkill/x4")->storageOverhead(),
                3.0 / 12.0, 1e-12);
    EXPECT_NEAR(parseScheme("dram:chipkill/x8")->storageOverhead(),
                3.0 / 8.0, 1e-12);
    // IECC adds per-chip SEC-DED check columns on top.
    EXPECT_GT(parseScheme("dram:iecc+chipkill/x4")->storageOverhead(),
              parseScheme("dram:chipkill/x4")->storageOverhead());
}

TEST(DramScheme, MalformedSpecsQuoteTheToken)
{
    expectParseError("dram:", "variant");
    expectParseError("dram:secded/x4", "secded");
    expectParseError("dram:chipkill", "width");
    expectParseError("dram:chipkill/x5", "x5");
    expectParseError("dram:chipkill/x4/z9", "z9");
    expectParseError("dram:chipkill/x4/r0", "r0");
    expectParseError("dram:chipkill/x4/b65", "b65");
}

TEST(DramScheme, InjectAndRecoverIsDeterministic)
{
    const SchemePtr s = parseScheme("dram:chipkill/x4");
    const FaultModel chip = FaultModel::chipKill();
    const InjectionOutcome a = s->injectAndRecover(chip, 20, 777);
    const InjectionOutcome b = s->injectAndRecover(chip, 20, 777);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.trials, 20);
}

TEST(DramScheme, ChipKillIsAlwaysCorrected)
{
    // A whole-chip failure is exactly one symbol per codeword: SSC
    // territory, whichever chip dies.
    for (const char *spec : {"dram:chipkill/x4", "dram:chipkill/x8",
                             "dram:iecc+chipkill/x4"}) {
        const InjectionOutcome o = parseScheme(spec)->injectAndRecover(
            FaultModel::chipKill(), 30, 4242);
        EXPECT_EQ(o.corrected, o.trials) << spec;
        EXPECT_EQ(o.silent, 0) << spec;
    }
}

TEST(DramScheme, SingleBitAndFullColumnAreCorrected)
{
    const SchemePtr s = parseScheme("dram:chipkill/x4");
    for (const FaultModel &fm :
         {FaultModel::singleBit(), FaultModel::fullColumn()}) {
        const InjectionOutcome o = s->injectAndRecover(fm, 25, 99);
        EXPECT_EQ(o.corrected, o.trials) << fm.describe();
    }
}

TEST(DramScheme, NoSilentCorruptionAcrossShapes)
{
    // Whatever the coverage, d=4 symbol decoding must never pass
    // corrupted data unflagged for these footprints.
    const SchemePtr s = parseScheme("dram:iecc+chipkill/x8");
    for (const FaultModel &fm :
         {FaultModel::chipKill(), FaultModel::rowHammer(3, 0.5),
          FaultModel::senseAmp(16), FaultModel::cluster(8, 8)}) {
        const InjectionOutcome o = s->injectAndRecover(fm, 20, 31337);
        EXPECT_EQ(o.silent, 0) << fm.describe();
    }
}

TEST(DramScheme, SessionSurvivesChipKillThenSecondFault)
{
    // Hard chip kill -> two scrubs mark the chip dead (standing
    // erasure) -> a later single-bit fault elsewhere is erasure+error,
    // still within d=4 reach. The ride-through that motivates the
    // dead-chip detector.
    const SchemePtr s = parseScheme("dram:chipkill/x4");
    Rng fill(2024);
    const std::unique_ptr<DeviceSession> session = s->openSession(fill);
    Rng rng(555);

    FaultModel kill = FaultModel::chipKill(2);
    kill.persistence = FaultPersistence::kStuckAt;
    session->inject(kill, rng);
    EXPECT_EQ(session->scrubAndVerify(), DeviceSession::Verdict::kCorrected);
    EXPECT_EQ(session->scrubAndVerify(), DeviceSession::Verdict::kCorrected);

    // Chip 2 is now a standing erasure; a transient single bit in some
    // other chip must still come back corrected.
    FaultModel single = FaultModel::singleBit();
    single.colLo = 40; // chip 10 on x4
    session->inject(single, rng);
    EXPECT_EQ(session->scrubAndVerify(), DeviceSession::Verdict::kCorrected);
}

TEST(DramScheme, TransientChipKillHealsInsteadOfGoingDead)
{
    // A transient whole-chip upset is scrubbed away on the first pass;
    // the dead-chip streak detector must NOT retire the chip, so a
    // later kill of a DIFFERENT chip is still plain SSC.
    const SchemePtr s = parseScheme("dram:chipkill/x4");
    Rng fill(77);
    const std::unique_ptr<DeviceSession> session = s->openSession(fill);
    Rng rng(1);

    session->inject(FaultModel::chipKill(0), rng);
    EXPECT_EQ(session->scrubAndVerify(), DeviceSession::Verdict::kCorrected);
    EXPECT_TRUE(session->stuckRows().empty());

    FaultModel kill = FaultModel::chipKill(5);
    kill.persistence = FaultPersistence::kStuckAt;
    session->inject(kill, rng);
    EXPECT_EQ(session->scrubAndVerify(), DeviceSession::Verdict::kCorrected);
}

TEST(DramScheme, SpareUnitsFollowTheRepairGranularity)
{
    Rng rng(9);
    FaultModel kill = FaultModel::chipKill(1);
    kill.persistence = FaultPersistence::kStuckAt;

    // Chip granularity: one repair unit for the whole chip.
    Rng chip_fill(3);
    const std::unique_ptr<DeviceSession> chips =
        parseScheme("dram:chipkill/x4")->openSession(chip_fill);
    chips->inject(kill, rng);
    chips->scrubAndVerify();
    ASSERT_EQ(chips->stuckRows().size(), 1u);
    EXPECT_EQ(chips->stuckRows()[0].first, 1u);
    chips->repairRow(1);
    EXPECT_TRUE(chips->stuckRows().empty());
    EXPECT_EQ(chips->scrubAndVerify(), DeviceSession::Verdict::kCorrected);

    // Column granularity: the same kill needs symbolBits spare columns.
    Rng col_fill(3);
    const std::unique_ptr<DeviceSession> cols =
        parseScheme("dram:chipkill/x4/cols")->openSession(col_fill);
    cols->inject(kill, rng);
    cols->scrubAndVerify();
    ASSERT_EQ(cols->stuckRows().size(), 4u); // cols 4..7
    EXPECT_EQ(cols->stuckRows()[0].first, 4u);
    for (size_t c = 4; c < 8; ++c)
        cols->repairRow(c);
    EXPECT_TRUE(cols->stuckRows().empty());
    EXPECT_EQ(cols->scrubAndVerify(), DeviceSession::Verdict::kCorrected);
}

TEST(DramScheme, CachedInjectIsByteIdenticalColdAndWarm)
{
    const SchemePtr s = parseScheme("dram:iecc+chipkill/x8");
    const FaultModel fm = FaultModel::senseAmp(8);
    const InjectionOutcome cold = cachedInjectAndRecover(*s, fm, 15, 606);
    const InjectionOutcome warm = cachedInjectAndRecover(*s, fm, 15, 606);
    EXPECT_EQ(cold, warm);
    EXPECT_EQ(cold, s->injectAndRecover(fm, 15, 606));
}

} // namespace
} // namespace tdc
