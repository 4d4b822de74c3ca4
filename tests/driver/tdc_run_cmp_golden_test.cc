/**
 * @file
 * Byte-for-byte pin of the CMP-simulation figures. The text below is
 * the stdout of one "tdc_run --figure fig5 --figure fig6 --figure
 * ablation" invocation, recorded before fig6 and ablations 3-5 moved
 * onto runCmpBatch and before the simulator's inner loop was
 * tightened. Every CmpSimulator change must keep it exactly, padding
 * and all, at any thread count. Each figure run alone, and the three
 * in any order, must print the same sections.
 */

#include <gtest/gtest.h>

#include "driver/tdc_run.hh"

namespace tdc
{
namespace
{

const char *const kCmpFiguresText =
    "=== Figure 5: performance (IPC) loss in 2D-protected caches ===\n"
    "\n"
    "--- Figure 5(a: fat baseline) ---\n"
    "\n"
    "Workload  L1 D-cache  L1 + port stealing  L2 cache  L1(steal) + L2\n"
    "------------------------------------------------------------------\n"
    "OLTP      4.2%        2.0%                0.6%      2.6%          \n"
    "DSS       3.6%        1.5%                0.5%      2.0%          \n"
    "Web       3.9%        1.8%                0.5%      2.4%          \n"
    "Moldyn    8.1%        4.5%                0.0%      4.6%          \n"
    "Ocean     7.3%        3.7%                0.3%      4.0%          \n"
    "Sparse    6.3%        3.0%                0.4%      3.4%          \n"
    "Average   5.5%        2.8%                0.4%      3.1%          \n"
    "\n"
    "--- Figure 5(b: lean baseline) ---\n"
    "\n"
    "Workload  L1 D-cache  L1 + port stealing  L2 cache  L1(steal) + L2\n"
    "------------------------------------------------------------------\n"
    "OLTP      5.4%        1.6%                1.3%      2.9%          \n"
    "DSS       3.5%        0.8%                0.6%      1.3%          \n"
    "Web       5.9%        2.1%                1.4%      3.2%          \n"
    "Moldyn    7.7%        3.1%                0.0%      3.1%          \n"
    "Ocean     3.2%        0.7%                1.0%      1.6%          \n"
    "Sparse    1.8%        0.3%                1.0%      1.2%          \n"
    "Average   4.6%        1.4%                0.9%      2.2%          \n"
    "\n"
    "Paper shape: full protection costs low single digits (paper: 2.9% fat / 1.8% lean\n"
    "average); port stealing removes most of the fat CMP's L1 port contention; the\n"
    "lean CMP's loss has a larger L2 component than the fat CMP's.\n"
    "=== Figure 6: cache access breakdown per 100 CPU cycles ===\n"
    "\n"
    "--- Figure 6(a) fat baseline: L1 data cache accesses / 100 cycles (per core) ---\n"
    "\n"
    "Workload  Read:Data  Write  Fill/Evict  Extra read (2D)  Total  Extra %\n"
    "-----------------------------------------------------------------------\n"
    "OLTP      32.0       14.8   1.4         16.2             64.4   25.1%  \n"
    "DSS       42.7       11.4   1.3         12.7             68.1   18.7%  \n"
    "Web       32.5       13.3   1.3         14.6             61.7   23.6%  \n"
    "Moldyn    59.6       22.0   0.7         22.7             104.9  21.6%  \n"
    "Ocean     52.9       19.7   2.9         22.5             98.0   23.0%  \n"
    "Sparse    58.0       15.4   3.7         19.2             96.4   19.9%  \n"
    "\n"
    "--- Figure 6(b) lean baseline: L1 data cache accesses / 100 cycles (per core) ---\n"
    "\n"
    "Workload  Read:Data  Write  Fill/Evict  Extra read (2D)  Total  Extra %\n"
    "-----------------------------------------------------------------------\n"
    "OLTP      31.2       14.4   1.4         15.8             62.8   25.2%  \n"
    "DSS       35.9       9.5    1.1         10.6             57.1   18.6%  \n"
    "Web       35.2       14.4   1.4         15.8             66.8   23.6%  \n"
    "Moldyn    43.4       15.9   0.5         16.4             76.2   21.5%  \n"
    "Ocean     26.1       9.6    1.4         11.1             48.2   23.0%  \n"
    "Sparse    24.0       6.4    1.6         7.9              39.9   19.9%  \n"
    "\n"
    "--- Figure 6(c) fat baseline: L2 cache accesses / 100 cycles (all cores) ---\n"
    "\n"
    "Workload  Read:Inst  Read:Data  Write  Fill/Evict  Extra read (2D)  Total\n"
    "-------------------------------------------------------------------------\n"
    "OLTP      8.3        5.0        2.3    1.0         3.3              19.9 \n"
    "DSS       6.3        4.9        1.3    1.5         2.8              16.9 \n"
    "Web       9.4        4.7        1.8    0.6         2.4              18.9 \n"
    "Moldyn    0.8        2.7        1.3    0.7         2.0              7.4  \n"
    "Ocean     0.8        11.1       5.8    5.1         10.9             33.7 \n"
    "Sparse    0.8        14.8       4.4    7.5         11.9             39.4 \n"
    "\n"
    "--- Figure 6(d) lean baseline: L2 cache accesses / 100 cycles (all cores) ---\n"
    "\n"
    "Workload  Read:Inst  Read:Data  Write  Fill/Evict  Extra read (2D)  Total\n"
    "-------------------------------------------------------------------------\n"
    "OLTP      16.2       10.0       4.5    2.0         6.6              39.3 \n"
    "DSS       10.8       8.2        2.2    2.6         4.8              28.6 \n"
    "Web       20.3       10.3       4.0    1.3         5.4              41.3 \n"
    "Moldyn    1.1        4.1        1.9    1.0         3.0              11.2 \n"
    "Ocean     0.8        11.2       5.9    5.2         11.1             34.1 \n"
    "Sparse    0.6        12.4       3.8    6.3         10.1             33.2 \n"
    "\n"
    "Paper shape: writes (the source of read-before-write traffic) are a small\n"
    "fraction of accesses; 2D coding adds roughly 20% extra reads; the fat CMP has\n"
    "higher per-core L1 bandwidth, the lean CMP higher aggregate L2 bandwidth.\n"
    "=== Ablations: 2D coding design choices ===\n"
    "\n"
    "--- Ablation 1: vertical interleave factor (256-row bank, EDC8+Intv4 horizontal) ---\n"
    "\n"
    "V (parity rows)  Vertical storage  Total overhead  Max cluster height  Corrects 32x32?  Recovery row reads\n"
    "----------------------------------------------------------------------------------------------------------\n"
    "8                3.1%              15.6%           8                   no               514               \n"
    "16               6.2%              18.8%           16                  no               519               \n"
    "32               12.5%             25.0%           32                  yes              512               \n"
    "64               25.0%             37.5%           64                  yes              384               \n"
    "\n"
    "V trades vertical storage and coverage height; V=32 (the paper's choice) is the\n"
    "smallest factor that covers 32x32 clusters.\n"
    "\n"
    "--- Ablation 2: horizontal code choice ---\n"
    "\n"
    "Horizontal  Storage (H only)  Inline single-bit fix  Detect width (Intv4)  32x32 corrected?\n"
    "-------------------------------------------------------------------------------------------\n"
    "EDC8        12.5%             no                     32                    yes             \n"
    "EDC16       25.0%             no                     64                    yes             \n"
    "SECDED      12.5%             yes                    8                     yes             \n"
    "\n"
    "SECDED horizontal adds inline correction (the yield configuration of Section 5.2)\n"
    "at the same storage as EDC8; EDC16 widens detection but doubles check bits.\n"
    "\n"
    "--- Ablation 3: port-stealing window (fat CMP, OLTP) ---\n"
    "\n"
    "Steal window (cycles)  IPC loss vs baseline\n"
    "-------------------------------------------\n"
    "0                      4.4%                \n"
    "1                      2.1%                \n"
    "2                      0.8%                \n"
    "4                      0.1%                \n"
    "8                      -0.0%               \n"
    "16                     0.0%                \n"
    "\n"
    "A few cycles of store-queue residency are enough to absorb most read-before-\n"
    "write reads into idle port slots.\n"
    "\n"
    "--- Ablation 4: isolated read-before-write cost (full 2D, both machines) ---\n"
    "\n"
    "Machine  Workload  Extra reads / 100 cycles  IPC loss\n"
    "-----------------------------------------------------\n"
    "fat      OLTP      68.3                      2.7%    \n"
    "fat      Ocean     100.8                     4.0%    \n"
    "lean     OLTP      132.7                     2.8%    \n"
    "lean     Ocean     99.4                      1.4%    \n"
    "\n"
    "--- Ablation 5: 2D write-back L1 vs EDC write-through L1 (both over 2D L2) ---\n"
    "\n"
    "Machine  Workload  Scheme         IPC loss  L2 writes / 100 cycles\n"
    "------------------------------------------------------------------\n"
    "fat      OLTP      L1+steal L2    2.7%      2.3                   \n"
    "fat      OLTP      WT-L1 + 2D-L2  37.1%     40.0                  \n"
    "fat      Web       L1+steal L2    2.3%      1.8                   \n"
    "fat      Web       WT-L1 + 2D-L2  32.9%     37.8                  \n"
    "lean     OLTP      L1+steal L2    2.8%      4.5                   \n"
    "lean     OLTP      WT-L1 + 2D-L2  71.6%     34.9                  \n"
    "lean     Web       L1+steal L2    3.3%      4.0                   \n"
    "lean     Web       WT-L1 + 2D-L2  72.1%     34.4                  \n"
    "\n"
    "Write-through duplicates every store into the shared L2: several times the L2\n"
    "write traffic of the write-back 2D scheme, and a larger IPC cost on the lean CMP\n"
    "whose threads contend for L2 banks (the Section 2.1/5.1 argument for 2D-protected\n"
    "write-back L1 caches).\n"
    "\n"
    "--- Ablation 6: scrub interval vs per-read checking (16MB, SECDED words) ---\n"
    "\n"
    "Scrub interval  E[uncorrectable] / 5 years  P(survive 5 years)\n"
    "--------------------------------------------------------------\n"
    "per-read check  0.0000                      100.00%           \n"
    "1 h             0.0026                      99.74%            \n"
    "24 h            0.0627                      93.93%            \n"
    "168 h           0.4386                      64.49%            \n"
    "720 h           1.8795                      15.27%            \n"
    "\n"
    "Scrubbing's vulnerability window grows linearly with the interval (Section 2.1);\n"
    "checking on every read eliminates it, which is why the 2D scheme keeps the\n"
    "horizontal check on the access path.\n"
    "\n"
    "--- Ablation 7: recovery latency vs bank size (Section 4: 'a few hundred or\n"
    "    thousand cycles, depending on the number of rows') ---\n"
    "\n"
    "Bank rows  Fault            Recovery row reads  Reads / bank rows\n"
    "-----------------------------------------------------------------\n"
    "64         32x32 corrected  128                 2.00             \n"
    "128        32x32 corrected  256                 2.00             \n"
    "256        32x32 corrected  512                 2.00             \n"
    "512        32x32 corrected  1024                2.00             \n"
    "1024       32x32 corrected  2048                2.00             \n"
    "\n"
    "Recovery costs a small constant number of bank marches (O(rows)), independent\n"
    "of the error size — cheap because errors are rare (the paper's argument that the\n"
    "recovery path needs no optimization).\n"
    "\n";

TEST(TdcRunCmpFigures, Fig5Fig6AblationMatchRecordedText)
{
    std::string out, err;
    ASSERT_EQ(tdcRun({"--figure", "fig5", "--figure", "fig6", "--figure",
                      "ablation"},
                     out, err),
              0)
        << err;
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(out, kCmpFiguresText);
}

/** The section of kCmpFiguresText from @p heading to @p next_heading
 *  (or to the end when that is empty). */
std::string
cmpSection(const std::string &heading, const std::string &next_heading)
{
    const std::string all = kCmpFiguresText;
    const size_t begin = all.find(heading);
    const size_t end =
        next_heading.empty() ? all.size() : all.find(next_heading);
    EXPECT_NE(begin, std::string::npos) << heading;
    EXPECT_NE(end, std::string::npos) << next_heading;
    return all.substr(begin, end - begin);
}

TEST(TdcRunCmpFigures, EachFigureAloneMatchesCombinedRun)
{
    const std::string fig5 =
        cmpSection("=== Figure 5:", "=== Figure 6:");
    const std::string fig6 = cmpSection("=== Figure 6:", "=== Ablations:");
    const std::string ablation = cmpSection("=== Ablations:", "");
    ASSERT_EQ(fig5 + fig6 + ablation, kCmpFiguresText);

    // One process throughout, so later calls reuse simulations that
    // earlier ones ran: every order must still print the same text.
    const auto run = [](const std::vector<std::string> &args) {
        std::string out, err;
        EXPECT_EQ(tdcRun(args, out, err), 0) << err;
        EXPECT_TRUE(err.empty()) << err;
        return out;
    };
    EXPECT_EQ(run({"--figure", "fig6"}), fig6);
    EXPECT_EQ(run({"--figure", "ablation"}), ablation);
    EXPECT_EQ(run({"--figure", "fig5"}), fig5);
    EXPECT_EQ(run({"--figure", "ablation", "--figure", "fig6", "--figure",
                   "fig5"}),
              ablation + fig6 + fig5);
}

} // namespace
} // namespace tdc
