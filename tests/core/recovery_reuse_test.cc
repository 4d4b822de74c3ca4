/**
 * @file
 * TwoDimArray reuses a failed recovery while no data or parity cell
 * has changed since it ran. These tests pin that a reused recovery is
 * indistinguishable from a rerun (same report, same counters except
 * the reuse count) and that every cell mutation forces a fresh march.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "array/fault.hh"
#include "common/rng.hh"
#include "core/twod_array.hh"

namespace tdc
{
namespace
{

/** Fill every word with random data. */
void
fill(TwoDimArray &arr, Rng &rng)
{
    for (size_t r = 0; r < arr.rows(); ++r)
        for (size_t s = 0; s < arr.wordsPerRow(); ++s)
            arr.writeWord(r, s, BitVector(arr.dataBits(), rng.next()));
}

/** Flip physical column @p col in every row: Figure 3's 1x256 row on
 *  the L1 bank. Every parity group sees an even number of flips, so
 *  EDC8 horizontal detects it and recovery cannot locate it. */
void
flipColumn(TwoDimArray &arr, size_t col)
{
    for (size_t r = 0; r < arr.rows(); ++r)
        arr.cells().flipBit(r, col);
}

/** An L1 bank whose full-column fault has just failed one recovery. */
class FailedFullColumn : public testing::Test
{
  protected:
    static constexpr size_t kColumn = 37;

    FailedFullColumn() : arr(TwoDimConfig::l1Default())
    {
        Rng rng(190);
        fill(arr, rng);
        flipColumn(arr, kColumn);
        arr.resetStats();
        EXPECT_FALSE(arr.recover().success);
        failed = arr.lastRecovery();
        EXPECT_EQ(arr.stats().recoveryReuses, 0u);
        EXPECT_GE(failed.rowReads, arr.rows());
    }

    /** Slot of the word the faulty column belongs to. */
    size_t faultySlot() const { return arr.interleave().slotOf(kColumn); }

    TwoDimArray arr;
    RecoveryReport failed;
};

TEST_F(FailedFullColumn, LaterDueReadsReuseItWithoutMarching)
{
    const size_t slot = faultySlot();
    constexpr uint64_t kReads = 50;
    const uint64_t data_reads = arr.cells().readCount();
    const uint64_t parity_reads = arr.vertical().cells().readCount();
    for (uint64_t i = 0; i < kReads; ++i) {
        const AccessResult res = arr.readWord(i % arr.rows(), slot);
        EXPECT_EQ(res.status, DecodeStatus::kDetectedUncorrectable);
        EXPECT_EQ(arr.lastRecovery(), failed);
    }
    EXPECT_EQ(arr.stats().recoveries, 1 + kReads);
    EXPECT_EQ(arr.stats().recoveryFailures, 1 + kReads);
    EXPECT_EQ(arr.stats().recoveryReuses, kReads);
    // Each read touches its own row twice (the access and the retry
    // after recovery) and marches nothing.
    EXPECT_EQ(arr.cells().readCount() - data_reads, 2 * kReads);
    EXPECT_EQ(arr.vertical().cells().readCount(), parity_reads);
}

TEST_F(FailedFullColumn, ScrubAndWritesOverTheFaultReuseItToo)
{
    EXPECT_FALSE(arr.scrub());
    EXPECT_EQ(arr.stats().recoveryReuses, 1u);
    // A write over a detected-uncorrectable old word recovers first;
    // the failure is reused, and the write itself then changes a cell,
    // so the next recovery marches again.
    arr.writeWord(5, faultySlot(), BitVector(arr.dataBits(), 7));
    EXPECT_EQ(arr.stats().recoveries, 3u);
    EXPECT_EQ(arr.stats().recoveryReuses, 2u);
    EXPECT_FALSE(arr.recover().success);
    EXPECT_EQ(arr.stats().recoveryReuses, 2u);
}

TEST_F(FailedFullColumn, EveryMutatorForcesAFreshMarch)
{
    // Each mutation leaves the visible contents as they were (or puts
    // them back), so the fresh march fails again; only the version
    // tells the bank that something may have changed.
    using Mutation = std::function<void(MemoryArray &)>;
    const std::vector<std::pair<std::string, Mutation>> mutations = {
        {"writeRow",
         [](MemoryArray &m) { m.writeRow(1, m.readRow(1)); }},
        {"xorRow",
         [](MemoryArray &m) { m.xorRow(2, BitVector(m.cols())); }},
        {"writeBit",
         [](MemoryArray &m) { m.writeBit(3, 9, m.readBit(3, 9)); }},
        {"flipBit twice",
         [](MemoryArray &m) {
             m.flipBit(4, 10);
             m.flipBit(4, 10);
         }},
        {"addStuckAt",
         [](MemoryArray &m) { m.addStuckAt(5, 11, m.readBit(5, 11)); }},
        {"clearFault", [](MemoryArray &m) { m.clearFault(5, 11); }},
        {"addStuckAt again",
         [](MemoryArray &m) { m.addStuckAt(6, 12, m.readBit(6, 12)); }},
        {"clearRowFaults", [](MemoryArray &m) { m.clearRowFaults(6); }},
        {"addStuckAt once more",
         [](MemoryArray &m) { m.addStuckAt(7, 13, m.readBit(7, 13)); }},
        {"clearAllFaults", [](MemoryArray &m) { m.clearAllFaults(); }},
    };
    for (const bool on_parity : {false, true}) {
        for (const auto &[name, mutate] : mutations) {
            SCOPED_TRACE(name + (on_parity ? " on parity" : " on data"));
            // The failure is reusable before the mutation...
            const uint64_t reuses = arr.stats().recoveryReuses;
            EXPECT_FALSE(arr.recover().success);
            ASSERT_EQ(arr.stats().recoveryReuses, reuses + 1);

            mutate(on_parity ? arr.vertical().cells() : arr.cells());
            // ...and marches again after it.
            const uint64_t before = arr.cells().readCount();
            EXPECT_FALSE(arr.recover().success);
            EXPECT_EQ(arr.stats().recoveryReuses, reuses + 1);
            EXPECT_GE(arr.cells().readCount() - before, arr.rows());
            EXPECT_EQ(arr.lastRecovery(), failed);
        }
    }
}

TEST_F(FailedFullColumn, UndoingTheFlipMakesTheNextRecoverySucceed)
{
    flipColumn(arr, kColumn);
    EXPECT_TRUE(arr.recover().success);
    EXPECT_EQ(arr.stats().recoveryReuses, 0u);
    EXPECT_EQ(arr.stats().recoveryFailures, 1u);
    EXPECT_TRUE(arr.verifyClean());
}

TEST(RecoveryReuse, AFailedRecoveryThatWroteIsNotReused)
{
    // SECDED horizontal over 64 rows, V = 8. A double error in one
    // word of rows 0..15 (two faulty rows per group, same columns, so
    // the vertical mismatch cancels) defeats both recovery paths. A
    // single-bit error in row 40 is corrected in line by the first
    // march, which therefore wrote a cell: only the second failure,
    // which wrote nothing, may be reused.
    TwoDimConfig cfg = TwoDimConfig::secdedHorizontal();
    cfg.dataRows = 64;
    cfg.verticalParityRows = 8;
    TwoDimArray arr(cfg);
    Rng rng(191);
    fill(arr, rng);
    const size_t c0 = arr.interleave().physicalColumn(0, 0);
    const size_t c1 = arr.interleave().physicalColumn(0, 1);
    for (size_t r = 0; r < 16; ++r) {
        arr.cells().flipBit(r, c0);
        arr.cells().flipBit(r, c1);
    }
    arr.cells().flipBit(40, arr.interleave().physicalColumn(2, 5));

    EXPECT_FALSE(arr.recover().success);
    EXPECT_EQ(arr.readWord(40, 2).status, DecodeStatus::kClean);
    const RecoveryReport first = arr.lastRecovery();
    EXPECT_FALSE(arr.recover().success);
    EXPECT_EQ(arr.stats().recoveryReuses, 0u);
    EXPECT_EQ(arr.lastRecovery(), first);
    EXPECT_FALSE(arr.recover().success);
    EXPECT_EQ(arr.stats().recoveryReuses, 1u);
    EXPECT_EQ(arr.stats().recoveries, 3u);
    EXPECT_EQ(arr.stats().recoveryFailures, 3u);
}

/** Stats with the reuse count zeroed, for comparison with a twin
 *  that never reuses. */
TwoDimStats
withoutReuses(TwoDimStats s)
{
    s.recoveryReuses = 0;
    return s;
}

TEST(RecoveryReuse, MatchesATwinThatNeverReuses)
{
    // The twin rewrites row 0 with its own visible contents before
    // every access, which changes nothing a decoder can see but bumps
    // the data version, so it never reuses a recovery. Both banks see
    // the same faults, reads and writes and must agree on everything
    // but the reuse count.
    struct Shape
    {
        const char *name;
        CodeKind horizontal;
        size_t parityRows;
    };
    const Shape shapes[] = {
        {"2d:edc8/i4+vp32", CodeKind::kEdc8, 32},
        {"2d:edc8/i4+vp16", CodeKind::kEdc8, 16},
        {"2d:edc8/i4+vp8", CodeKind::kEdc8, 8},
        {"2d:secded/i4+vp32", CodeKind::kSecDed, 32},
        {"2d:secded/i4+vp4", CodeKind::kSecDed, 4},
    };
    uint64_t total_reuses = 0;
    for (const Shape &shape : shapes) {
        TwoDimConfig cfg = TwoDimConfig::l1Default();
        cfg.horizontalKind = shape.horizontal;
        cfg.dataRows = 64;
        cfg.verticalParityRows = shape.parityRows;
        for (uint64_t trial = 0; trial < 12; ++trial) {
            SCOPED_TRACE(std::string(shape.name) + " trial " +
                         std::to_string(trial));
            TwoDimArray arr(cfg), twin(cfg);
            Rng fill_a(trial), fill_b(trial);
            fill(arr, fill_a);
            fill(twin, fill_b);

            // The same random footprints on both: up to three clusters
            // of any width and height, solid or sparse, transient or
            // stuck-at.
            Rng shape_rng(1000 + trial);
            const size_t events = 1 + shape_rng.nextBelow(3);
            for (size_t e = 0; e < events; ++e) {
                const size_t width = 1 + shape_rng.nextBelow(48);
                const size_t height = 1 + shape_rng.nextBelow(cfg.dataRows);
                const double density = shape_rng.nextBool() ? 1.0 : 0.5;
                const FaultPersistence p =
                    shape_rng.nextBelow(4) == 0
                        ? FaultPersistence::kStuckAt
                        : FaultPersistence::kTransient;
                const uint64_t seed = shape_rng.next();
                Rng ia(seed), ib(seed);
                FaultInjector(ia).injectCluster(arr.cells(), width, height,
                                                density, -1, -1, p);
                FaultInjector(ib).injectCluster(twin.cells(), width,
                                                height, density, -1, -1, p);
            }

            const auto defeat = [&twin] {
                twin.cells().writeRow(0, twin.cells().readRow(0));
            };
            defeat();
            ASSERT_EQ(arr.scrub(), twin.scrub());
            Rng ops(2000 + trial);
            for (size_t r = 0; r < arr.rows(); ++r) {
                for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
                    if (ops.nextBelow(8) == 0) {
                        const BitVector value(arr.dataBits(), ops.next());
                        defeat();
                        arr.writeWord(r, s, value);
                        twin.writeWord(r, s, value);
                    }
                    defeat();
                    const AccessResult a = arr.readWord(r, s);
                    const AccessResult b = twin.readWord(r, s);
                    ASSERT_EQ(a.status, b.status) << r << "/" << s;
                    ASSERT_EQ(a.data, b.data) << r << "/" << s;
                    ASSERT_EQ(arr.lastRecovery(), twin.lastRecovery());
                }
            }
            EXPECT_EQ(withoutReuses(arr.stats()), twin.stats());
            EXPECT_EQ(twin.stats().recoveryReuses, 0u);
            total_reuses += arr.stats().recoveryReuses;
        }
    }
    // The footprints include unrecoverable ones, so reuse did happen.
    EXPECT_GT(total_reuses, 0u);
}

} // namespace
} // namespace tdc
