/**
 * @file
 * Determinism contract of the 2D recovery sweep: each trial builds a
 * fresh 2D-protected L1 bank (2d:edc8/i4+vp32), injects one clustered
 * event, scrubs, and checks the contents against the golden data.
 * Counter-based seeding makes the campaign a pure function of its
 * arguments, so 1, 2, 4 or 8 workers must reproduce the serial
 * counters bit for bit. (The soft-error and yield sweeps are pinned
 * the same way in tests/reliability/sweep_determinism_test.cc.)
 */

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "scheme/scheme.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

TEST(SweepDeterminism, RecoverySweepIdenticalAtEveryThreadCount)
{
    ThreadGuard guard;
    const SchemePtr bank = parseScheme("2d:edc8/i4+vp32");
    const FaultModel fault = FaultModel::cluster(16, 16);

    setParallelThreads(1);
    const InjectionOutcome serial = bank->injectAndRecover(fault, 12, 2026);
    EXPECT_EQ(serial.trials, 12);
    EXPECT_EQ(serial.corrected + serial.detectedOnly + serial.silent,
              serial.trials);
    // A 16x16 cluster is inside the guaranteed 32x32 coverage.
    EXPECT_EQ(serial.corrected, serial.trials);

    for (unsigned threads : {2u, 4u, 8u}) {
        setParallelThreads(threads);
        EXPECT_EQ(bank->injectAndRecover(fault, 12, 2026), serial)
            << threads << " threads";
    }
}

TEST(SweepDeterminism, BeyondCoverageClustersAreCountedNotSilent)
{
    ThreadGuard guard;
    setParallelThreads(4);
    // A solid 33x64 cluster breaks both guarantees (33 > 32 columns,
    // 64 > 32 rows; every vertical group holds two full-width faulty
    // rows whose parity contributions cancel), but the horizontal
    // EDC8 still sees an odd bit count in every faulty word — the
    // sweep must report the trials as detected, never silent.
    const InjectionOutcome res =
        parseScheme("2d:edc8/i4+vp32")
            ->injectAndRecover(FaultModel::cluster(33, 64), 6, 5);
    EXPECT_EQ(res.trials, 6);
    EXPECT_EQ(res.corrected, 0);
    EXPECT_EQ(res.detectedOnly, 6);
    EXPECT_EQ(res.silent, 0);
}

} // namespace
} // namespace tdc
