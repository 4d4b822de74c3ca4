/**
 * @file
 * runCmpBatch contract: every result equals a direct CmpSimulator run
 * of its spec, at any pool size, whether it was simulated in this
 * batch or served from the process-wide memo. Ground truth always
 * comes from direct CmpSimulator::run calls, and each check uses
 * seeds no earlier batch in the process has run, so the memo cannot
 * vouch for itself.
 */

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "cpu/cmp_batch.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

CmpSimResult
simulate(const CmpRunSpec &spec, uint64_t cycles)
{
    CmpSimulator sim(spec.machine, spec.workload, spec.protection,
                     spec.seed);
    return sim.run(cycles);
}

TEST(CmpBatch, MatchesIndividualRunsAtEveryThreadCount)
{
    ThreadGuard guard;
    constexpr uint64_t kCycles = 20000;
    const std::vector<WorkloadProfile> &workloads = standardWorkloads();
    for (unsigned threads : {1u, 2u, 4u}) {
        // A fresh seed per pool size: every run is a memo miss.
        const uint64_t seed = 700 + threads;
        std::vector<CmpRunSpec> specs;
        for (size_t i = 0; i < 3 && i < workloads.size(); ++i) {
            specs.push_back({CmpConfig::fat(), workloads[i],
                             ProtectionConfig::none(), seed});
            specs.push_back({CmpConfig::lean(), workloads[i],
                             ProtectionConfig::full(true), seed});
        }

        setParallelThreads(threads);
        const std::vector<CmpSimResult> got = runCmpBatch(specs, kCycles);
        ASSERT_EQ(got.size(), specs.size());
        for (size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], simulate(specs[i], kCycles))
                << i << " at " << threads << " threads";
    }
}

TEST(CmpBatch, DuplicateSpecsWithinAndAcrossBatchesAgree)
{
    ThreadGuard guard;
    setParallelThreads(4);
    constexpr uint64_t kCycles = 8000;
    const CmpRunSpec a{CmpConfig::fat(), workloadByName("OLTP"),
                       ProtectionConfig::full(true), 801};
    const CmpRunSpec b{CmpConfig::lean(), workloadByName("Ocean"),
                       ProtectionConfig::l2Only(), 801};
    const CmpSimResult want_a = simulate(a, kCycles);
    const CmpSimResult want_b = simulate(b, kCycles);
    ASSERT_NE(want_a, want_b);

    const std::vector<CmpSimResult> first =
        runCmpBatch({a, b, a, a}, kCycles);
    ASSERT_EQ(first.size(), 4u);
    EXPECT_EQ(first[0], want_a);
    EXPECT_EQ(first[1], want_b);
    EXPECT_EQ(first[2], want_a);
    EXPECT_EQ(first[3], want_a);

    // The same runs again, reordered and mixed with a new one.
    const CmpRunSpec c{CmpConfig::fat(), workloadByName("Web"),
                       ProtectionConfig::none(), 801};
    const std::vector<CmpSimResult> second =
        runCmpBatch({b, c, a, b}, kCycles);
    ASSERT_EQ(second.size(), 4u);
    EXPECT_EQ(second[0], want_b);
    EXPECT_EQ(second[1], simulate(c, kCycles));
    EXPECT_EQ(second[2], want_a);
    EXPECT_EQ(second[3], want_b);
    EXPECT_TRUE(runCmpBatch({}, kCycles).empty());
}

TEST(CmpBatch, ConcurrentBatchesShareTheMemo)
{
    ThreadGuard guard;
    setParallelThreads(4);
    constexpr uint64_t kCycles = 4000;
    std::vector<CmpRunSpec> pool;
    for (const char *name : {"DSS", "Moldyn", "Sparse"})
        for (const ProtectionConfig &prot :
             {ProtectionConfig::none(), ProtectionConfig::full(true)})
            pool.push_back({CmpConfig::fat(), workloadByName(name), prot,
                            851});

    // Eight overlapping batches at once, each from its own worker (a
    // nested batch runs serially there), racing on lookups and stores.
    constexpr size_t kBatches = 8;
    std::vector<std::vector<CmpRunSpec>> batches(kBatches);
    for (size_t b = 0; b < kBatches; ++b)
        for (size_t k = 0; k < 4; ++k)
            batches[b].push_back(pool[(b + 2 * k) % pool.size()]);
    std::vector<std::vector<CmpSimResult>> got(kBatches);
    parallelFor(kBatches, [&](size_t b) {
        got[b] = runCmpBatch(batches[b], kCycles);
    });

    for (size_t b = 0; b < kBatches; ++b) {
        ASSERT_EQ(got[b].size(), batches[b].size());
        for (size_t k = 0; k < got[b].size(); ++k)
            EXPECT_EQ(got[b][k], simulate(batches[b][k], kCycles))
                << "batch " << b << " run " << k;
    }
}

TEST(CmpBatch, SpecDifferingInOneFieldIsSimulatedAfresh)
{
    ThreadGuard guard;
    setParallelThreads(2);
    constexpr uint64_t kCycles = 8000;
    // Port stealing on, so the steal window matters.
    const CmpRunSpec stealing{CmpConfig::fat(), workloadByName("OLTP"),
                              ProtectionConfig::full(true), 901};
    // L2-only, the write-back twin of the write-through L1 scheme.
    const CmpRunSpec write_back{CmpConfig::lean(), workloadByName("Web"),
                                ProtectionConfig::l2Only(), 901};
    runCmpBatch({stealing, write_back}, kCycles);
    runCmpBatch({stealing}, kCycles + 1000);

    CmpRunSpec window = stealing;
    window.machine.stealWindow = 2;
    CmpRunSpec sharing = stealing;
    sharing.workload.dirtySharedFrac = 0.5;
    CmpRunSpec write_through = write_back;
    write_through.protection.l1WriteThrough = true;
    CmpRunSpec reseeded = stealing;
    reseeded.seed = 902;

    struct Variant
    {
        const char *field;
        CmpRunSpec base;
        CmpRunSpec spec;
        uint64_t cycles;
    };
    const Variant variants[] = {
        {"machine.stealWindow", stealing, window, kCycles},
        {"workload.dirtySharedFrac", stealing, sharing, kCycles},
        {"protection.l1WriteThrough", write_back, write_through, kCycles},
        {"seed", stealing, reseeded, kCycles},
        {"cycles", stealing, stealing, kCycles + 500},
    };
    for (const Variant &v : variants) {
        const CmpSimResult want = simulate(v.spec, v.cycles);
        // The field matters: a stale memo hit would be visible.
        ASSERT_NE(want, simulate(v.base, kCycles)) << v.field;
        const std::vector<CmpSimResult> got =
            runCmpBatch({v.spec}, v.cycles);
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0], want) << v.field;
    }
}

} // namespace
} // namespace tdc
