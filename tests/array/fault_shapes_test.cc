/**
 * @file
 * The device-derived DRAM fault shapes: chip kill, row hammer and
 * sense-amp failure. Parse/spec round-trips (with the chip-kill spec()
 * special case: colLo is a chip selector, not a cell anchor), malformed
 * specs quoting the offending token, and exact injector footprints on
 * a symbol-annotated array. Also: cluster and burst footprints larger
 * than the array clamp to it instead of indexing past its edge.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "array/fault.hh"
#include "array/memory_array.hh"
#include "common/rng.hh"

namespace tdc
{
namespace
{

void
expectFaultError(const std::string &spec)
{
    try {
        parseFaultModel(spec);
        FAIL() << spec << " parsed";
    } catch (const std::invalid_argument &e) {
        // The offending spec must be quoted for actionable driver errors.
        EXPECT_NE(std::string(e.what()).find("\"" + spec + "\""),
                  std::string::npos)
            << spec << " -> " << e.what();
    }
}

/** 8 rows x 4 chips of 4-bit symbols. */
MemoryArray
symbolArray()
{
    MemoryArray arr(8, 16);
    arr.setSymbolBits(4);
    return arr;
}

TEST(DramFaultParse, ChipKillRoundTrips)
{
    const FaultModel any = parseFaultModel("chip:any");
    EXPECT_EQ(any.shape, FaultShape::kChipKill);
    EXPECT_EQ(any.colLo, -1);
    EXPECT_EQ(any.spec(), "chip:any");

    const FaultModel zero = parseFaultModel("chip:0");
    EXPECT_EQ(zero.colLo, 0); // chip 0 is a legal selector
    EXPECT_EQ(zero.spec(), "chip:0");

    const FaultModel three = parseFaultModel("chip:3");
    EXPECT_EQ(three.colLo, 3);
    EXPECT_EQ(parseFaultModel(three.spec()).spec(), "chip:3");
}

TEST(DramFaultParse, HardChipKillSpecSkipsAnchorSuffix)
{
    FaultModel m = FaultModel::chipKill(2);
    m.persistence = FaultPersistence::kStuckAt;
    // colLo = 2 is the chip selector; the generic "/@row,col" anchor
    // suffix must not leak into the spec, only "/hard".
    EXPECT_EQ(m.spec(), "chip:2/hard");
}

TEST(DramFaultParse, RowHammerRoundTrips)
{
    const FaultModel solid = parseFaultModel("hammer:3");
    EXPECT_EQ(solid.shape, FaultShape::kRowHammer);
    EXPECT_EQ(solid.height, 3u);
    EXPECT_EQ(solid.density, 1.0);
    EXPECT_EQ(solid.spec(), "hammer:3");

    const FaultModel sparse = parseFaultModel("hammer:4@0.5");
    EXPECT_EQ(sparse.height, 4u);
    EXPECT_EQ(sparse.density, 0.5);
    EXPECT_EQ(sparse.spec(), "hammer:4@0.5");
    EXPECT_EQ(parseFaultModel(sparse.spec()).spec(), sparse.spec());
}

TEST(DramFaultParse, SenseAmpRoundTrips)
{
    const FaultModel m = parseFaultModel("senseamp:16");
    EXPECT_EQ(m.shape, FaultShape::kSenseAmp);
    EXPECT_EQ(m.height, 16u);
    EXPECT_EQ(m.spec(), "senseamp:16");
    EXPECT_EQ(parseFaultModel(m.spec()).spec(), m.spec());
}

TEST(DramFaultParse, MalformedSpecsQuoteTheToken)
{
    expectFaultError("chip:");
    expectFaultError("chip:x");
    expectFaultError("chip:1.5");
    expectFaultError("chip:70000");
    expectFaultError("hammer:");
    expectFaultError("hammer:0");
    expectFaultError("hammer:4@0");
    expectFaultError("hammer:4@1.5");
    expectFaultError("senseamp:0");
    expectFaultError("senseamp:");
}

TEST(DramFaultParse, DescribeLabels)
{
    EXPECT_EQ(FaultModel::chipKill().describe(), "chip kill");
    EXPECT_EQ(FaultModel::chipKill(3).describe(), "chip 3 kill");
    EXPECT_EQ(FaultModel::rowHammer(4, 0.5).describe(),
              "hammer 4 rows @50%");
    EXPECT_EQ(FaultModel::rowHammer(2).describe(), "hammer 2 rows");
    EXPECT_EQ(FaultModel::senseAmp(16).describe(), "sense-amp 2x16");
}

TEST(DramFaultInject, ChipKillCoversExactlyOneSymbolGroup)
{
    MemoryArray arr = symbolArray();
    Rng rng(1);
    FaultInjector injector(rng);
    const FaultEvent ev = injector.inject(arr, FaultModel::chipKill(2));
    EXPECT_EQ(ev.shape, FaultShape::kChipKill);
    EXPECT_EQ(ev.cells.size(), 8u * 4u);
    EXPECT_EQ(ev.rowLo, 0u);
    EXPECT_EQ(ev.rowHi, 7u);
    EXPECT_EQ(ev.colLo, 8u);  // chip 2 -> columns 8..11
    EXPECT_EQ(ev.colHi, 11u);
    for (size_t r = 0; r < 8; ++r)
        for (size_t c = 0; c < 16; ++c)
            EXPECT_EQ(arr.readBit(r, c), c >= 8 && c < 12)
                << r << "," << c;
}

TEST(DramFaultInject, RandomChipKillAlignsToSymbolBoundary)
{
    Rng rng(7);
    FaultInjector injector(rng);
    for (int i = 0; i < 10; ++i) {
        MemoryArray arr = symbolArray();
        const FaultEvent ev = injector.inject(arr, FaultModel::chipKill());
        EXPECT_EQ(ev.colLo % 4, 0u);
        EXPECT_EQ(ev.colHi, ev.colLo + 3);
        EXPECT_EQ(ev.cells.size(), 8u * 4u);
    }
}

TEST(DramFaultInject, HardChipKillInstallsStuckAts)
{
    MemoryArray arr = symbolArray();
    Rng rng(3);
    FaultInjector injector(rng);
    FaultModel m = FaultModel::chipKill(1);
    m.persistence = FaultPersistence::kStuckAt;
    injector.inject(arr, m);
    EXPECT_EQ(arr.faultCount(), 8u * 4u);
    EXPECT_TRUE(arr.isStuck(0, 4));
    EXPECT_TRUE(arr.isStuck(7, 7));
    EXPECT_FALSE(arr.isStuck(0, 3));
}

TEST(DramFaultInject, SolidHammerFillsTheBand)
{
    MemoryArray arr = symbolArray();
    Rng rng(5);
    FaultInjector injector(rng);
    FaultModel m = FaultModel::rowHammer(2);
    m.rowLo = 3;
    const FaultEvent ev = injector.inject(arr, m);
    EXPECT_EQ(ev.rowLo, 3u);
    EXPECT_EQ(ev.rowHi, 4u);
    EXPECT_EQ(ev.cells.size(), 2u * 16u);
}

TEST(DramFaultInject, SparseHammerStaysInBandAndIsNonEmpty)
{
    Rng rng(11);
    FaultInjector injector(rng);
    for (int i = 0; i < 20; ++i) {
        MemoryArray arr = symbolArray();
        FaultModel m = FaultModel::rowHammer(3, 0.05);
        const FaultEvent ev = injector.inject(arr, m);
        // The injector re-rolls an empty draw: every event observable.
        EXPECT_FALSE(ev.cells.empty());
        for (const auto &[r, c] : ev.cells) {
            EXPECT_GE(r, ev.rowLo);
            EXPECT_LE(r, ev.rowHi);
            EXPECT_LT(c, 16u);
        }
        EXPECT_LE(ev.rowHi - ev.rowLo, 2u);
    }
}

TEST(DramFaultInject, HammerBandClampsToArrayHeight)
{
    MemoryArray arr(4, 8);
    Rng rng(2);
    FaultInjector injector(rng);
    const FaultEvent ev = injector.inject(arr, FaultModel::rowHammer(64));
    EXPECT_EQ(ev.rowLo, 0u);
    EXPECT_EQ(ev.rowHi, 3u);
    EXPECT_EQ(ev.cells.size(), 4u * 8u);
}

TEST(DramFaultInject, SenseAmpIsTwoAdjacentColumns)
{
    MemoryArray arr = symbolArray();
    Rng rng(6);
    FaultInjector injector(rng);
    FaultModel m = FaultModel::senseAmp(4);
    m.rowLo = 2;
    m.colLo = 5;
    const FaultEvent ev = injector.inject(arr, m);
    EXPECT_EQ(ev.rowLo, 2u);
    EXPECT_EQ(ev.rowHi, 5u);
    EXPECT_EQ(ev.colLo, 5u);
    EXPECT_EQ(ev.colHi, 6u);
    EXPECT_EQ(ev.cells.size(), 4u * 2u);
}

TEST(DramFaultInject, EventDescribeNamesTheNewShapes)
{
    MemoryArray arr = symbolArray();
    Rng rng(8);
    FaultInjector injector(rng);
    EXPECT_NE(injector.inject(arr, FaultModel::chipKill(0))
                  .describe()
                  .find("chip-kill"),
              std::string::npos);
    EXPECT_NE(injector.inject(arr, FaultModel::rowHammer(2))
                  .describe()
                  .find("row-hammer"),
              std::string::npos);
    EXPECT_NE(injector.inject(arr, FaultModel::senseAmp(3))
                  .describe()
                  .find("sense-amp"),
              std::string::npos);
}

/** Every cell of @p ev lies inside its bounding box, and the box lies
 *  inside @p arr. */
void
expectInsideArray(const FaultEvent &ev, const MemoryArray &arr)
{
    EXPECT_LE(ev.rowLo, ev.rowHi);
    EXPECT_LE(ev.colLo, ev.colHi);
    EXPECT_LT(ev.rowHi, arr.rows());
    EXPECT_LT(ev.colHi, arr.cols());
    for (const auto &[r, c] : ev.cells) {
        EXPECT_GE(r, ev.rowLo);
        EXPECT_LE(r, ev.rowHi);
        EXPECT_GE(c, ev.colLo);
        EXPECT_LE(c, ev.colHi);
    }
}

TEST(FaultFootprintClamp, TallClusterFailsOneWholeColumn)
{
    MemoryArray arr(8, 16);
    Rng rng(3);
    FaultInjector injector(rng);
    const FaultEvent ev = injector.inject(arr, parseFaultModel("1x256"));
    expectInsideArray(ev, arr);
    EXPECT_EQ(ev.rowLo, 0u);
    EXPECT_EQ(ev.rowHi, 7u);
    EXPECT_EQ(ev.colLo, ev.colHi);
    EXPECT_EQ(ev.cells.size(), 8u);
}

TEST(FaultFootprintClamp, WideAndSquareClustersClampBothAxes)
{
    MemoryArray arr(8, 16);
    Rng rng(4);
    FaultInjector injector(rng);
    const FaultEvent wide = injector.inject(arr, parseFaultModel("300x2"));
    expectInsideArray(wide, arr);
    EXPECT_EQ(wide.colLo, 0u);
    EXPECT_EQ(wide.colHi, 15u);
    EXPECT_EQ(wide.rowHi - wide.rowLo, 1u);
    EXPECT_EQ(wide.cells.size(), 2u * 16u);

    MemoryArray all(8, 16);
    const FaultEvent square =
        injector.inject(all, parseFaultModel("300x300"));
    expectInsideArray(square, all);
    EXPECT_EQ(square.cells.size(), 8u * 16u);
}

TEST(FaultFootprintClamp, SparseOversizedClusterStaysInsideTheArray)
{
    Rng rng(9);
    FaultInjector injector(rng);
    for (int i = 0; i < 10; ++i) {
        MemoryArray arr(8, 16);
        const FaultEvent ev =
            injector.inject(arr, parseFaultModel("64x64@0.5"));
        expectInsideArray(ev, arr);
        EXPECT_EQ(ev.rowHi - ev.rowLo, 7u);
        EXPECT_LE(ev.cells.size(), 8u * 16u);
        EXPECT_FALSE(ev.cells.empty());
    }
}

TEST(FaultFootprintClamp, RowAndColumnBurstsClampToTheArray)
{
    MemoryArray arr(8, 16);
    Rng rng(5);
    FaultInjector injector(rng);
    const FaultEvent row = injector.inject(arr, parseFaultModel("row:300"));
    expectInsideArray(row, arr);
    EXPECT_EQ(row.colLo, 0u);
    EXPECT_EQ(row.colHi, 15u);
    EXPECT_EQ(row.cells.size(), 16u);

    const FaultEvent col = injector.inject(arr, parseFaultModel("col:65"));
    expectInsideArray(col, arr);
    EXPECT_EQ(col.rowLo, 0u);
    EXPECT_EQ(col.rowHi, 7u);
    EXPECT_EQ(col.cells.size(), 8u);
}

TEST(FaultFootprintClamp, InRangeFootprintsDrawUnchangedAnchors)
{
    // The clamp must not change what an in-range footprint draws: the
    // anchors still come from nextBelow over the footprint's slack, in
    // the same order, so recorded campaign outcomes stay valid.
    for (uint64_t seed : {1u, 21u, 77u}) {
        MemoryArray arr(8, 16);
        Rng rng(seed), ref(seed);
        FaultInjector injector(rng);

        const FaultEvent cluster =
            injector.inject(arr, parseFaultModel("16x8"));
        EXPECT_EQ(cluster.rowLo, ref.nextBelow(8 - 8 + 1));
        EXPECT_EQ(cluster.colLo, ref.nextBelow(16 - 16 + 1));

        const FaultEvent small =
            injector.inject(arr, parseFaultModel("4x2"));
        EXPECT_EQ(small.rowLo, ref.nextBelow(8 - 2 + 1));
        EXPECT_EQ(small.colLo, ref.nextBelow(16 - 4 + 1));

        const FaultEvent row =
            injector.inject(arr, parseFaultModel("row:12"));
        EXPECT_EQ(row.rowLo, ref.nextBelow(8));
        EXPECT_EQ(row.colLo, ref.nextBelow(16 - 12 + 1));

        const FaultEvent col = injector.inject(arr, parseFaultModel("col:5"));
        EXPECT_EQ(col.colLo, ref.nextBelow(16));
        EXPECT_EQ(col.rowLo, ref.nextBelow(8 - 5 + 1));

        EXPECT_EQ(rng.next(), ref.next()) << "seed " << seed;
    }
}

} // namespace
} // namespace tdc
