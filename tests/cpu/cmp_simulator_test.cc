#include <gtest/gtest.h>

#include <string>

#include "cpu/cmp_simulator.hh"

namespace tdc
{
namespace
{

constexpr uint64_t kCycles = 60000;

CmpSimResult
simulate(const CmpConfig &m, const std::string &workload,
         const ProtectionConfig &prot, uint64_t seed = 42)
{
    CmpSimulator sim(m, workloadByName(workload), prot, seed);
    return sim.run(kCycles);
}

double
ipcLoss(const CmpSimResult &base, const CmpSimResult &prot)
{
    return (base.ipc() - prot.ipc()) / base.ipc();
}

TEST(CmpConfig, Table1Machines)
{
    const CmpConfig fat = CmpConfig::fat();
    EXPECT_EQ(fat.cores, 4u);
    EXPECT_EQ(fat.issueWidth, 4u);
    EXPECT_TRUE(fat.outOfOrder);
    EXPECT_EQ(fat.l1Ports, 2u);
    EXPECT_EQ(fat.l2HitLatency, 16u);

    const CmpConfig lean = CmpConfig::lean();
    EXPECT_EQ(lean.cores, 8u);
    EXPECT_EQ(lean.issueWidth, 2u);
    EXPECT_FALSE(lean.outOfOrder);
    EXPECT_EQ(lean.threadsPerCore, 4u);
    EXPECT_EQ(lean.l1Ports, 1u);
    EXPECT_EQ(lean.l2HitLatency, 12u);
}

TEST(ProtectionConfig, Labels)
{
    EXPECT_EQ(ProtectionConfig::none().label(), "baseline");
    EXPECT_EQ(ProtectionConfig::l1Only(false).label(), "L1");
    EXPECT_EQ(ProtectionConfig::l1Only(true).label(), "L1+steal");
    EXPECT_EQ(ProtectionConfig::l2Only().label(), "L2");
    EXPECT_EQ(ProtectionConfig::full().label(), "L1+steal L2");
}

TEST(CmpSimulator, Deterministic)
{
    const CmpSimResult a =
        simulate(CmpConfig::fat(), "OLTP", ProtectionConfig::none());
    const CmpSimResult b =
        simulate(CmpConfig::fat(), "OLTP", ProtectionConfig::none());
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1ReadsData, b.l1ReadsData);
}

TEST(CmpSimulator, IpcWithinMachineLimits)
{
    for (const auto &w : standardWorkloads()) {
        const CmpSimResult fat = simulate(CmpConfig::fat(), w.name,
                                          ProtectionConfig::none());
        EXPECT_GT(fat.ipc(), 1.0) << w.name;
        EXPECT_LT(fat.ipc(), 16.0) << w.name; // 4 cores x 4-wide

        const CmpSimResult lean = simulate(CmpConfig::lean(), w.name,
                                           ProtectionConfig::none());
        EXPECT_GT(lean.ipc(), 1.0) << w.name;
        EXPECT_LT(lean.ipc(), 16.0) << w.name; // 8 cores x 2-wide
    }
}

TEST(CmpSimulator, BaselineIssuesNoExtraReads)
{
    const CmpSimResult r =
        simulate(CmpConfig::fat(), "OLTP", ProtectionConfig::none());
    EXPECT_EQ(r.l1ExtraReads, 0u);
    EXPECT_EQ(r.l2ExtraReads, 0u);
    EXPECT_GT(r.l1ReadsData, 0u);
    EXPECT_GT(r.l2ReadsData, 0u);
    EXPECT_GT(r.l2ReadsInst, 0u); // OLTP misses the L1I
}

TEST(CmpSimulator, TwoDimL1AddsOneExtraReadPerArrayWrite)
{
    const CmpSimResult r = simulate(CmpConfig::fat(), "OLTP",
                                    ProtectionConfig::l1Only(false));
    // Every store drain and every fill triggers a read-before-write.
    EXPECT_EQ(r.l1ExtraReads, r.l1Writes + r.l1FillEvict);
    EXPECT_EQ(r.l2ExtraReads, 0u);
}

TEST(CmpSimulator, TwoDimL2AddsExtraReadsOnWritebacks)
{
    const CmpSimResult r =
        simulate(CmpConfig::fat(), "OLTP", ProtectionConfig::l2Only());
    EXPECT_EQ(r.l1ExtraReads, 0u);
    // Every L2 array write — write-backs from L1 and memory refills —
    // triggers one read-before-write.
    EXPECT_EQ(r.l2ExtraReads, r.l2Writes + r.l2FillEvict);
    EXPECT_GT(r.l2Writes, 0u);
    EXPECT_GT(r.l2FillEvict, 0u);
}

TEST(CmpSimulator, ExtraReadsAreTensOfPercentOfTraffic)
{
    // Figure 6: 2D coding adds roughly 20% more cache accesses.
    const CmpSimResult r = simulate(CmpConfig::fat(), "Web",
                                    ProtectionConfig::full(true));
    const uint64_t total = r.l1ReadsData + r.l1Writes + r.l1FillEvict +
                           r.l1ExtraReads;
    const double frac = double(r.l1ExtraReads) / double(total);
    EXPECT_GT(frac, 0.10);
    EXPECT_LT(frac, 0.35);
}

TEST(CmpSimulator, ProtectionCostsIpcButModestly)
{
    // The paper's headline: both machines tolerate full 2D protection
    // with low single-digit IPC loss.
    for (const CmpConfig &m : {CmpConfig::fat(), CmpConfig::lean()}) {
        double total_loss = 0.0;
        for (const auto &w : standardWorkloads()) {
            const CmpSimResult base =
                simulate(m, w.name, ProtectionConfig::none());
            const CmpSimResult prot =
                simulate(m, w.name, ProtectionConfig::full(true));
            const double loss = ipcLoss(base, prot);
            EXPECT_GE(loss, -0.01) << m.name << " " << w.name;
            EXPECT_LT(loss, 0.10) << m.name << " " << w.name;
            total_loss += loss;
        }
        EXPECT_LT(total_loss / 6.0, 0.05) << m.name;
    }
}

TEST(CmpSimulator, PortStealingRecoversMostL1Contention)
{
    // Figure 5(a): port stealing removes the bulk of the L1 port
    // contention caused by read-before-write.
    const CmpConfig fat = CmpConfig::fat();
    for (const char *w : {"OLTP", "Web", "Moldyn"}) {
        const CmpSimResult base =
            simulate(fat, w, ProtectionConfig::none());
        const CmpSimResult nosteal =
            simulate(fat, w, ProtectionConfig::l1Only(false));
        const CmpSimResult steal =
            simulate(fat, w, ProtectionConfig::l1Only(true));
        const double loss_nosteal = ipcLoss(base, nosteal);
        const double loss_steal = ipcLoss(base, steal);
        EXPECT_LT(loss_steal, loss_nosteal * 0.6) << w;
    }
}

TEST(CmpSimulator, FatSuffersMoreFromL1LeanFromL2)
{
    // The bandwidth-usage asymmetry of Section 5.1: the fat CMP's
    // loss is dominated by L1 port pressure, the lean CMP sees a
    // relatively larger L2 share.
    auto shares = [](const CmpConfig &m) {
        double l1 = 0, l2 = 0;
        for (const char *w : {"OLTP", "Web"}) {
            const CmpSimResult base =
                simulate(m, w, ProtectionConfig::none());
            l1 += ipcLoss(base,
                          simulate(m, w, ProtectionConfig::l1Only(false)));
            l2 += ipcLoss(base, simulate(m, w, ProtectionConfig::l2Only()));
        }
        return std::pair<double, double>(l1, l2);
    };
    const auto [fat_l1, fat_l2] = shares(CmpConfig::fat());
    const auto [lean_l1, lean_l2] = shares(CmpConfig::lean());
    // L2 loss share is larger on the lean machine than on the fat one.
    EXPECT_GT(lean_l2 / (lean_l1 + lean_l2 + 1e-9),
              fat_l2 / (fat_l1 + fat_l2 + 1e-9));
}

TEST(CmpSimulator, LeanL2TrafficExceedsFat)
{
    // Eight lean cores push more aggregate L2 traffic than four fat
    // cores (Figure 6(c) vs (d)).
    const CmpSimResult fat = simulate(CmpConfig::fat(), "OLTP",
                                      ProtectionConfig::none());
    const CmpSimResult lean = simulate(CmpConfig::lean(), "OLTP",
                                       ProtectionConfig::none());
    const auto l2_total = [](const CmpSimResult &r) {
        return r.per100(r.l2ReadsInst + r.l2ReadsData + r.l2Writes +
                        r.l2FillEvict);
    };
    EXPECT_GT(l2_total(lean), l2_total(fat));
}

TEST(CmpSimulator, ScientificWorkloadsSkipL1I)
{
    const CmpSimResult r = simulate(CmpConfig::fat(), "Moldyn",
                                    ProtectionConfig::none());
    const CmpSimResult o = simulate(CmpConfig::fat(), "OLTP",
                                    ProtectionConfig::none());
    EXPECT_LT(r.per100(r.l2ReadsInst), o.per100(o.l2ReadsInst) * 0.3);
}

/**
 * Every counter of one 20k-cycle OLTP run per (machine, protection),
 * recorded before the simulator's inner loop was tightened (inline
 * RNG draws, ring-buffer port history, due-time skip in the pending
 * scan). Any kernel change must reproduce them exactly. Window -1
 * keeps the machine's default steal window.
 */
struct PinnedRun
{
    const char *machine;
    const char *protection;
    int stealWindow;
    uint64_t counters[12];
};

const PinnedRun kPinnedRuns[] = {
    {"fat", "none", -1,
     {20000, 88101, 27188, 12601, 1225, 0, 151, 1663, 1079, 490, 220, 0}},
    {"fat", "l1", -1,
     {20000, 83735, 25905, 11987, 1173, 13160, 144, 1596, 1030, 472, 211, 0}},
    {"fat", "l1+steal", -1,
     {20000, 85906, 26573, 12285, 1197, 13482, 150, 1629, 1055, 477, 216, 0}},
    {"fat", "l1+steal+l2", -1,
     {20000, 85330, 26397, 12210, 1189, 13399, 146, 1621, 1049, 473, 215, 688}},
    {"fat", "wt", -1,
     {20000, 54647, 16869, 7792, 730, 0, 81, 1047, 653, 8078, 138, 8216}},
    {"lean", "none", -1,
     {20000, 163738, 50410, 23358, 2322, 0, 251, 3261, 2080, 927, 447, 0}},
    {"lean", "l1", -1,
     {20000, 155391, 47847, 22162, 2193, 24355, 235, 3093, 1964, 877, 421, 0}},
    {"lean", "l1+steal", -1,
     {20000, 161310, 49692, 23004, 2288, 25292, 247, 3203, 2045, 916, 439, 0}},
    {"lean", "l1+steal+l2", -1,
     {20000, 159109, 49026, 22684, 2251, 24935, 246, 3157, 2015, 899, 435, 1334}},
    {"lean", "wt", -1,
     {20000, 47945, 14749, 6848, 659, 0, 68, 946, 603, 7112, 140, 7252}},
    {"fat", "l1+steal", 0,
     {20000, 83735, 25905, 11987, 1173, 13160, 144, 1596, 1030, 472, 211, 0}},
    {"fat", "l1+steal", 1,
     {20000, 85906, 26573, 12285, 1197, 13482, 150, 1629, 1055, 477, 216, 0}},
    {"fat", "l1+steal", 16,
     {20000, 88101, 27188, 12601, 1225, 13826, 151, 1663, 1079, 490, 220, 0}},
};

CmpSimResult
fromCounters(const uint64_t (&c)[12])
{
    CmpSimResult r;
    r.cycles = c[0];
    r.instructions = c[1];
    r.l1ReadsData = c[2];
    r.l1Writes = c[3];
    r.l1FillEvict = c[4];
    r.l1ExtraReads = c[5];
    r.l1DirtyTransfers = c[6];
    r.l2ReadsInst = c[7];
    r.l2ReadsData = c[8];
    r.l2Writes = c[9];
    r.l2FillEvict = c[10];
    r.l2ExtraReads = c[11];
    return r;
}

std::string
describe(const CmpSimResult &r)
{
    return std::to_string(r.cycles) + " " + std::to_string(r.instructions) +
           " " + std::to_string(r.l1ReadsData) + " " +
           std::to_string(r.l1Writes) + " " + std::to_string(r.l1FillEvict) +
           " " + std::to_string(r.l1ExtraReads) + " " +
           std::to_string(r.l1DirtyTransfers) + " " +
           std::to_string(r.l2ReadsInst) + " " +
           std::to_string(r.l2ReadsData) + " " + std::to_string(r.l2Writes) +
           " " + std::to_string(r.l2FillEvict) + " " +
           std::to_string(r.l2ExtraReads);
}

TEST(CmpSimulator, CountersPinned)
{
    for (const PinnedRun &pin : kPinnedRuns) {
        CmpConfig m = std::string(pin.machine) == "lean" ? CmpConfig::lean()
                                                         : CmpConfig::fat();
        if (pin.stealWindow >= 0)
            m.stealWindow = unsigned(pin.stealWindow);
        CmpSimulator sim(m, workloadByName("OLTP"),
                         ProtectionConfig::parse(pin.protection), 42);
        const CmpSimResult got = sim.run(20000);
        const CmpSimResult want = fromCounters(pin.counters);
        EXPECT_TRUE(got == want)
            << pin.machine << " " << pin.protection << " window "
            << pin.stealWindow << ": got {" << describe(got)
            << "}, want {" << describe(want) << "}";
    }
}

} // namespace
} // namespace tdc
