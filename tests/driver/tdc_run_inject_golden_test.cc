/**
 * @file
 * Byte-for-byte pin of the injection figures. The text below is the
 * stdout of one "tdc_run --figure fig3 --figure related-work --figure
 * chipkill --figure lifetime" invocation, recorded while campaign-grid
 * cells still ran concurrently over the worker pool. However the cells
 * and their Monte-Carlo trials are scheduled, this output must stay
 * exactly the same, padding and all, at any thread count.
 */

#include <gtest/gtest.h>

#include "driver/tdc_run.hh"

namespace tdc
{
namespace
{

const char *const kInjectFiguresText =
    "=== Figure 3: coverage and overhead on a 256x256 data array ===\n"
    "\n"
    "Scheme                   Storage overhead  Guaranteed coverage\n"
    "--------------------------------------------------------------\n"
    "(a) SECDED+Intv4         12.5%             4-bit row bursts   \n"
    "(b) OECNED+Intv4         89.1%             32-bit row bursts  \n"
    "(c) 2D EDC8+Intv4/EDC32  25.0%             32x32-bit clusters \n"
    "\n"
    "--- Injection campaigns (40 solid clusters per point) ---\n"
    "\n"
    "Error footprint  SECDED+Intv4   OECNED+Intv4  2D (EDC8, EDC32)  2D (SECDED, EDC32)\n"
    "----------------------------------------------------------------------------------\n"
    "1x1              corrected      corrected     corrected         corrected         \n"
    "4x1              corrected      corrected     corrected         corrected         \n"
    "8x1              detected only  corrected     corrected         corrected         \n"
    "32x1             NOT covered    corrected     corrected         NOT covered       \n"
    "4x4              corrected      corrected     corrected         corrected         \n"
    "8x8              detected only  corrected     corrected         corrected         \n"
    "16x16            NOT covered    corrected     corrected         NOT covered       \n"
    "32x32            NOT covered    corrected     corrected         corrected         \n"
    "1x32             corrected      corrected     corrected         corrected         \n"
    "1x256            corrected      corrected     detected only     corrected         \n"
    "\n"
    "Paper shape: (a) corrects only <=4-bit row bursts; (b) buys 32-bit bursts at 89%\n"
    "storage; (c) corrects full 32x32 clusters at 25%. Full-column failures (1x256)\n"
    "need the SECDED-horizontal variant (the grey box of Figure 4(b)): with an even\n"
    "number of rows per vertical group the column flip is parity-invisible, so the\n"
    "EDC-only scheme detects but cannot locate it -- SECDED pinpoints and fixes it\n"
    "row by row.\n"
    "=== Related work: HV product code vs 2D coding (256x256 array) ===\n"
    "\n"
    "Storage overhead: product code 0.8%, 2D coding 25.0%\n"
    "\n"
    "Error footprint  HV product code    2D (EDC8+Intv4, EDC32)\n"
    "----------------------------------------------------------\n"
    "1x1              corrected          corrected             \n"
    "3x1              corrected          corrected             \n"
    "1x3              corrected          corrected             \n"
    "2x2              SILENT corruption  corrected             \n"
    "8x8              SILENT corruption  corrected             \n"
    "32x32            SILENT corruption  corrected             \n"
    "\n"
    "The product code is cheaper but collapses on any 2x2 block (silently!) and on\n"
    "even per-line patterns; the paper's scheme interleaves both dimensions so solid\n"
    "clusters within 32x32 never cancel, and detection never requires reading the\n"
    "vertical code.\n"
    "=== Chipkill/DDC vs 2D coding: coverage vs storage ===\n"
    "\n"
    "One scheme per protection class: interleaved SECDED, the paper's 2D coding,\n"
    "the HV product code, and two chipkill-class DRAM ranks -- RS(15,12) SSC-DSD\n"
    "over x4 chips, and x8 chips with per-chip IECC SEC-DED feeding chip erasures\n"
    "into a shortened RS(11,8).\n"
    "\n"
    "Scheme                    Storage overhead  Guaranteed coverage                       \n"
    "--------------------------------------------------------------------------------------\n"
    "SECDED+Intv4              12.5%             4-bit row bursts                          \n"
    "2D(EDC8+Intv4,EDC32)      62.5%             32x32-bit clusters                        \n"
    "HVProd(64x64)             3.1%              any single cell + HV-flagged patterns     \n"
    "Chipkill(x4,RS15/12)      25.0%             any single chip (SSC), double-chip detect \n"
    "IECC+Chipkill(x8,RS11/8)  123.4%            1 bit per chip + any single chip (erasure)\n"
    "\n"
    "Chipkill comparison: 50 events/cell, seed 10107\n"
    "\n"
    "Fault         SECDED+Intv4       2D(EDC8+Intv4,EDC32)  HVProd(64x64)      Chipkill(x4,RS15/12)  IECC+Chipkill(x8,RS11/8)\n"
    "------------------------------------------------------------------------------------------------------------------------\n"
    "single        corrected          corrected             corrected          corrected             corrected               \n"
    "row:4         corrected          corrected             detected only      partially corrected   partially corrected     \n"
    "8x8           detected only      corrected             SILENT corruption  detected only         partially corrected     \n"
    "fullcol       corrected          detected only         detected only      corrected             corrected               \n"
    "chip:any      corrected          detected only         detected only      corrected             corrected               \n"
    "hammer:3@0.5  SILENT corruption  corrected             NOT covered        NOT covered           detected only           \n"
    "senseamp:16   corrected          corrected             SILENT corruption  partially corrected   corrected               \n"
    "\n"
    "The symbol code rides out whole-chip kills and anything confined to one chip,\n"
    "but a dense multi-row hammer band spans chips and only detects; 2D coding\n"
    "covers the wide SRAM-shaped clusters the symbol code cannot locate. IECC\n"
    "buys per-chip bit repair and erasure marking at a steep check-bit cost on\n"
    "narrow bursts -- the coverage-vs-storage trade the table quantifies.\n"
    "=== Lifetime/FIT reliability: fault accumulation over 5-year missions ===\n"
    "\n"
    "Jaguar field-failure FIT mix accelerated 10000x (accelerated testing);\n"
    "transient events flip bits, permanent events stick rows/cols/cells. Each cell\n"
    "reports the censored MTTF estimate, the FIT rate, and surviving trials.\n"
    "\n"
    "Lifetime vs scrub interval: jaguar*10000 mix, 5-year missions, 60 trials/cell\n"
    "\n"
    "Mix / scrub / spares      SECDED+Intv4                        EDC8+Intv4(Wr-through)              2D(EDC8+Intv4,EDC32)                HVProd(64x64)                     \n"
    "------------------------------------------------------------------------------------------------------------------------------------------------------------------------\n"
    "jaguar*10000 T=event s=0  mttf 4.84e+03h fit 2.07e+05 (0/60)  mttf 1.66e+03h fit 6.01e+05 (0/60)  mttf 2.44e+03h fit 4.1e+05 (0/60)   mttf 2.27e+03h fit 4.4e+05 (0/60) \n"
    "jaguar*10000 T=24h s=0    mttf 4.84e+03h fit 2.07e+05 (0/60)  mttf 1.66e+03h fit 6.01e+05 (0/60)  mttf 2.44e+03h fit 4.1e+05 (0/60)   mttf 2.27e+03h fit 4.4e+05 (0/60) \n"
    "jaguar*10000 T=168h s=0   mttf 4.84e+03h fit 2.07e+05 (0/60)  mttf 1.66e+03h fit 6.01e+05 (0/60)  mttf 2.44e+03h fit 4.1e+05 (0/60)   mttf 2.27e+03h fit 4.4e+05 (0/60) \n"
    "jaguar*10000 T=720h s=0   mttf 4.83e+03h fit 2.07e+05 (0/60)  mttf 1.66e+03h fit 6.01e+05 (0/60)  mttf 2.41e+03h fit 4.15e+05 (0/60)  mttf 2.26e+03h fit 4.43e+05 (0/60)\n"
    "\n"
    "Frequent checking shrinks the accumulation window (Section 2.1's per-read\n"
    "limit is T=event); monthly scrubbing lets independent events meet in one\n"
    "window and overwhelm the horizontal code.\n"
    "\n"
    "Lifetime vs spare-row budget: jaguar*10000 mix, weekly scrub, 60 trials/cell\n"
    "\n"
    "Mix / scrub / spares     SECDED+Intv4                        EDC8+Intv4(Wr-through)              2D(EDC8+Intv4,EDC32)               HVProd(64x64)                    \n"
    "---------------------------------------------------------------------------------------------------------------------------------------------------------------------\n"
    "jaguar*10000 T=168h s=0  mttf 4.84e+03h fit 2.07e+05 (0/60)  mttf 1.66e+03h fit 6.01e+05 (0/60)  mttf 2.44e+03h fit 4.1e+05 (0/60)  mttf 2.27e+03h fit 4.4e+05 (0/60)\n"
    "jaguar*10000 T=168h s=2  mttf 4.97e+03h fit 2.01e+05 (0/60)  mttf 1.66e+03h fit 6.01e+05 (0/60)  mttf 2.44e+03h fit 4.1e+05 (0/60)  mttf 2.27e+03h fit 4.4e+05 (0/60)\n"
    "jaguar*10000 T=168h s=8  mttf 5.18e+03h fit 1.93e+05 (0/60)  mttf 1.66e+03h fit 6.01e+05 (0/60)  mttf 2.44e+03h fit 4.1e+05 (0/60)  mttf 2.27e+03h fit 4.4e+05 (0/60)\n"
    "\n"
    "Spare rows retire accumulated stuck-at rows after each clean scrub, so the\n"
    "permanent-fault population stops compounding; transient-dominated failures\n"
    "are unaffected.\n";

TEST(TdcRunInjectFigures, MatchRecordedText)
{
    std::string out, err;
    ASSERT_EQ(tdcRun({"--figure", "fig3", "--figure", "related-work",
                      "--figure", "chipkill", "--figure", "lifetime"},
                     out, err),
              0)
        << err;
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(out, kInjectFiguresText);
}

} // namespace
} // namespace tdc
