#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "workload/instruction_stream.hh"
#include "workload/workload_profile.hh"

namespace tdc
{
namespace
{

TEST(WorkloadProfile, SixStandardWorkloadsInFigureOrder)
{
    const auto &all = standardWorkloads();
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all[0].name, "OLTP");
    EXPECT_EQ(all[1].name, "DSS");
    EXPECT_EQ(all[2].name, "Web");
    EXPECT_EQ(all[3].name, "Moldyn");
    EXPECT_EQ(all[4].name, "Ocean");
    EXPECT_EQ(all[5].name, "Sparse");
}

TEST(WorkloadProfile, CommercialVsScientificSplit)
{
    for (const auto &w : standardWorkloads()) {
        const bool is_sci = w.name == "Moldyn" || w.name == "Ocean" ||
                            w.name == "Sparse";
        EXPECT_EQ(w.scientific, is_sci) << w.name;
    }
}

TEST(WorkloadProfile, CommercialHasInstructionFootprint)
{
    // Commercial workloads miss the L1I visibly; scientific kernels
    // fit (the Read:Inst traffic split of Figure 6(c)/(d)).
    for (const auto &w : standardWorkloads()) {
        if (w.scientific)
            EXPECT_LT(w.l1iMissRate, 0.005) << w.name;
        else
            EXPECT_GT(w.l1iMissRate, 0.01) << w.name;
    }
}

TEST(WorkloadProfile, LookupByName)
{
    EXPECT_EQ(workloadByName("Ocean").name, "Ocean");
    EXPECT_DOUBLE_EQ(workloadByName("DSS").loadFrac, 0.30);
}

TEST(WorkloadProfile, ProbabilitiesAreSane)
{
    for (const auto &w : standardWorkloads()) {
        EXPECT_GT(w.loadFrac, 0.0);
        EXPECT_GT(w.storeFrac, 0.0);
        EXPECT_LT(w.loadFrac + w.storeFrac, 0.6) << w.name;
        EXPECT_GT(w.loadFrac, w.storeFrac) << w.name;
        EXPECT_GT(w.l1dMissRate, 0.0);
        EXPECT_LT(w.l1dMissRate, 0.2);
        EXPECT_GT(w.l2MissRate, 0.0);
        EXPECT_LT(w.l2MissRate, 0.8);
    }
}

TEST(InstructionStream, DeterministicPerSeed)
{
    const WorkloadProfile &w = workloadByName("OLTP");
    InstructionStream a(w, 7);
    InstructionStream b(w, 7);
    for (int i = 0; i < 1000; ++i) {
        const SyntheticInstr x = a.next();
        const SyntheticInstr y = b.next();
        ASSERT_EQ(x.kind, y.kind);
        ASSERT_EQ(x.l1dMiss, y.l1dMiss);
        ASSERT_EQ(x.bubbles, y.bubbles);
        ASSERT_EQ(x.bankHash, y.bankHash);
    }
}

TEST(InstructionStream, MixMatchesProfileFractions)
{
    const WorkloadProfile &w = workloadByName("DSS");
    InstructionStream s(w, 11);
    const int n = 200000;
    int loads = 0, stores = 0, l1d_misses = 0, data_ops = 0;
    for (int i = 0; i < n; ++i) {
        const SyntheticInstr instr = s.next();
        if (instr.kind == SyntheticInstr::Kind::kLoad)
            ++loads;
        if (instr.kind == SyntheticInstr::Kind::kStore)
            ++stores;
        if (instr.kind != SyntheticInstr::Kind::kNonMem) {
            ++data_ops;
            l1d_misses += instr.l1dMiss;
        }
    }
    // Bursts boost the memory mix above the base fractions, so allow
    // a one-sided margin.
    EXPECT_GT(double(loads) / n, w.loadFrac * 0.9);
    EXPECT_LT(double(loads) / n, w.loadFrac * 1.4);
    EXPECT_GT(double(stores) / n, w.storeFrac * 0.9);
    EXPECT_NEAR(double(l1d_misses) / data_ops, w.l1dMissRate,
                w.l1dMissRate * 0.2);
}

TEST(InstructionStream, BurstsOccurAndEnd)
{
    const WorkloadProfile &w = workloadByName("Web");
    InstructionStream s(w, 13);
    bool saw_burst = false, saw_calm_after_burst = false;
    for (int i = 0; i < 100000; ++i) {
        s.next();
        if (s.bursty())
            saw_burst = true;
        else if (saw_burst)
            saw_calm_after_burst = true;
    }
    EXPECT_TRUE(saw_burst);
    EXPECT_TRUE(saw_calm_after_burst);
}

TEST(InstructionStream, BubblesReflectIlpParameter)
{
    const WorkloadProfile &oltp = workloadByName("OLTP"); // low ILP
    const WorkloadProfile &mol = workloadByName("Moldyn"); // high ILP
    InstructionStream a(oltp, 17);
    InstructionStream b(mol, 17);
    uint64_t bub_a = 0, bub_b = 0;
    for (int i = 0; i < 100000; ++i) {
        bub_a += a.next().bubbles;
        bub_b += b.next().bubbles;
    }
    EXPECT_GT(bub_a, bub_b);
}

TEST(InstructionStream, MissFlagsOnlyOnDataOps)
{
    const WorkloadProfile &w = workloadByName("Sparse");
    InstructionStream s(w, 19);
    for (int i = 0; i < 10000; ++i) {
        const SyntheticInstr instr = s.next();
        if (instr.kind == SyntheticInstr::Kind::kNonMem) {
            EXPECT_FALSE(instr.l1dMiss);
            EXPECT_FALSE(instr.l2Miss);
        }
        if (!instr.l1dMiss) {
            EXPECT_FALSE(instr.l2Miss);
            EXPECT_FALSE(instr.dirtyEvict);
        }
    }
}

TEST(InstructionStream, ThresholdSplitsDrawsLikeNextBool)
{
    EXPECT_EQ(InstructionStream::threshold(0.0), 0u);
    EXPECT_EQ(InstructionStream::threshold(-0.5), 0u);
    EXPECT_EQ(InstructionStream::threshold(1.0), uint64_t(1) << 53);
    EXPECT_EQ(InstructionStream::threshold(7.0), uint64_t(1) << 53);
    EXPECT_EQ(InstructionStream::threshold(std::ldexp(12345.0, -53)),
              12345u);
    EXPECT_EQ(InstructionStream::threshold(0.75), uint64_t(3) << 51);

    // Around each threshold, the integer comparison agrees with the
    // double comparison nextBool makes on the same 53-bit draw.
    for (double p : {std::ldexp(1.0, -53), std::ldexp(12345.0, -53), 0.1,
                     0.45, 0.5, 0.5 + std::ldexp(1.0, -53), 0.75,
                     1.0 - std::ldexp(1.0, -53), std::ldexp(1.0, -60)}) {
        const uint64_t t = InstructionStream::threshold(p);
        for (uint64_t m : {t - 1, t, t + 1}) {
            if (m >= uint64_t(1) << 53)
                continue;
            EXPECT_EQ(m < t, double(m) * 0x1.0p-53 < p)
                << "p=" << p << " m=" << m;
        }
    }
}

/**
 * The instruction stream as first written: every Bernoulli draw is an
 * Rng::nextBool(p) double comparison and the load/store split is one
 * nextDouble(). InstructionStream must reproduce it draw for draw.
 */
class ReferenceStream
{
  public:
    ReferenceStream(const WorkloadProfile &profile_, uint64_t seed)
        : profile(profile_), rng(seed)
    {
    }

    SyntheticInstr next()
    {
        if (inBurst) {
            if (rng.nextBool(profile.burstOffProb))
                inBurst = false;
        } else {
            if (rng.nextBool(profile.burstOnProb))
                inBurst = true;
        }
        const double boost = inBurst ? profile.burstLoadBoost : 1.0;
        const double load_p = std::min(0.9, profile.loadFrac * boost);
        const double store_p =
            std::min(0.9 - load_p, profile.storeFrac * boost);

        SyntheticInstr instr;
        instr.ifetchMiss = rng.nextBool(profile.l1iMissRate);
        instr.bankHash = uint32_t(rng.next());
        if (rng.nextBool(profile.ilpBubbleProb)) {
            instr.bubbles = 1;
            while (instr.bubbles < 4 && rng.nextBool(0.45))
                ++instr.bubbles;
        }
        const double draw = rng.nextDouble();
        if (draw < load_p)
            instr.kind = SyntheticInstr::Kind::kLoad;
        else if (draw < load_p + store_p)
            instr.kind = SyntheticInstr::Kind::kStore;
        if (instr.kind != SyntheticInstr::Kind::kNonMem) {
            instr.l1dMiss = rng.nextBool(profile.l1dMissRate);
            if (instr.l1dMiss) {
                instr.l2Miss = rng.nextBool(profile.l2MissRate);
                instr.dirtyEvict = rng.nextBool(profile.dirtyEvictFrac);
                instr.dirtyShared =
                    !instr.l2Miss && rng.nextBool(profile.dirtySharedFrac);
            }
        }
        return instr;
    }

    bool bursty() const { return inBurst; }

  private:
    const WorkloadProfile profile;
    Rng rng;
    bool inBurst = false;
};

/** Compare @p n instructions of the stream and the reference. */
void
expectMatchesReference(const WorkloadProfile &w, uint64_t seed, int n)
{
    InstructionStream got(w, seed);
    ReferenceStream want(w, seed);
    for (int i = 0; i < n; ++i) {
        const SyntheticInstr x = got.next();
        const SyntheticInstr y = want.next();
        ASSERT_EQ(x.kind, y.kind) << w.name << " seed " << seed << " #" << i;
        ASSERT_EQ(x.ifetchMiss, y.ifetchMiss) << w.name << " #" << i;
        ASSERT_EQ(x.l1dMiss, y.l1dMiss) << w.name << " #" << i;
        ASSERT_EQ(x.l2Miss, y.l2Miss) << w.name << " #" << i;
        ASSERT_EQ(x.dirtyEvict, y.dirtyEvict) << w.name << " #" << i;
        ASSERT_EQ(x.dirtyShared, y.dirtyShared) << w.name << " #" << i;
        ASSERT_EQ(x.bankHash, y.bankHash) << w.name << " #" << i;
        ASSERT_EQ(x.bubbles, y.bubbles) << w.name << " #" << i;
        ASSERT_EQ(got.bursty(), want.bursty()) << w.name << " #" << i;
    }
}

TEST(InstructionStream, MatchesDoubleDrawReference)
{
    for (const WorkloadProfile &w : standardWorkloads())
        for (uint64_t seed : {1ull, 42ull, 0x9e3779b97f4a7c15ull})
            expectMatchesReference(w, seed, 200000);

    // Degenerate probabilities: never (0), always (1) and above 1.
    WorkloadProfile always;
    always.name = "always";
    always.loadFrac = 0.0;
    always.storeFrac = 1.5;
    always.l1iMissRate = 1.0;
    always.l1dMissRate = 1.0;
    always.l2MissRate = 0.0;
    always.dirtyEvictFrac = 2.0;
    always.dirtySharedFrac = 1.0;
    always.ilpBubbleProb = 1.0;
    always.burstOnProb = 0.5;
    always.burstOffProb = 1.0;
    always.burstLoadBoost = 0.0;
    expectMatchesReference(always, 3, 20000);

    WorkloadProfile never = always;
    never.name = "never";
    never.loadFrac = 1.0;
    never.storeFrac = 0.0;
    never.l1iMissRate = 0.0;
    never.l1dMissRate = 0.5;
    never.l2MissRate = 1.0;
    never.dirtyEvictFrac = 0.0;
    never.dirtySharedFrac = 0.0;
    never.ilpBubbleProb = 0.0;
    never.burstOnProb = 0.0;
    never.burstOffProb = 0.0;
    never.burstLoadBoost = 3.0;
    expectMatchesReference(never, 5, 20000);

    // Bursts push loadFrac * burstLoadBoost past the 0.9 cap, leaving
    // a zero (or clipped) store share.
    WorkloadProfile capped = workloadByName("Web");
    capped.name = "capped";
    capped.loadFrac = 0.6;
    capped.storeFrac = 0.25;
    capped.burstLoadBoost = 1.8;
    capped.burstOnProb = 0.3;
    capped.burstOffProb = 0.2;
    expectMatchesReference(capped, 7, 50000);
    capped.loadFrac = 0.5;
    capped.burstLoadBoost = 1.7;
    expectMatchesReference(capped, 8, 50000);

    // Probabilities that are exact multiples of 2^-53, where a
    // threshold off by one would split the draws differently.
    WorkloadProfile exact = workloadByName("OLTP");
    exact.name = "exact";
    exact.l1iMissRate = std::ldexp(12345.0, -53);
    exact.l1dMissRate = 0.75;
    exact.l2MissRate = 0.5 + std::ldexp(1.0, -53);
    exact.dirtyEvictFrac = 1.0 - std::ldexp(1.0, -53);
    exact.loadFrac = 0.5;
    exact.storeFrac = 0.25;
    exact.burstLoadBoost = 1.5;
    expectMatchesReference(exact, 11, 50000);
}

} // namespace
} // namespace tdc
