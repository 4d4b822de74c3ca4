/**
 * @file
 * Determinism-differential tests for the Figure 5 IPC-loss campaign:
 * every cell and the Average row must equal the values computed by
 * hand from direct matched-pair CmpSimulator runs, at every
 * worker-pool size. Each pool size uses its own seed, so no check is
 * served by runs an earlier check put in runCmpBatch's memo.
 */

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/table.hh"
#include "cpu/ipc_campaign.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

IpcLossCampaignSpec
smallSpec()
{
    IpcLossCampaignSpec spec =
        IpcLossCampaignSpec::figure5(CmpConfig::fat(), "--- test ---");
    spec.cycles = 20000; // keep the grid cheap for unit testing
    spec.seed = 7;
    return spec;
}

/** IPC of a direct (unbatched, unmemoized) simulation. */
double
directIpc(const IpcLossCampaignSpec &spec, const WorkloadProfile &w,
          const ProtectionConfig &prot)
{
    CmpSimulator sim(spec.machine, w, prot, spec.seed);
    return sim.run(spec.cycles).ipc();
}

/** Check every cell and the Average row of the campaign for @p spec
 *  against losses recomputed from direct matched-pair runs. */
void
expectMatchesDirectRuns(const IpcLossCampaignSpec &spec)
{
    const CampaignResult res = runIpcLossCampaign(spec);
    const std::vector<WorkloadProfile> &workloads = standardWorkloads();
    const size_t np = spec.protections.size();
    ASSERT_EQ(res.rows.size(), workloads.size() + 1); // + Average row
    const std::vector<std::string> &avg_row = res.rows.back();
    ASSERT_EQ(avg_row.size(), np + 1);
    EXPECT_EQ(avg_row[0], "Average");

    std::vector<double> sum(np, 0.0);
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        const double base =
            directIpc(spec, workloads[wi], ProtectionConfig::none());
        ASSERT_EQ(res.rows[wi].size(), np + 1);
        for (size_t pi = 0; pi < np; ++pi) {
            const double loss =
                (base - directIpc(spec, workloads[wi],
                                  spec.protections[pi])) /
                base;
            sum[pi] += loss;
            EXPECT_EQ(res.rows[wi][1 + pi], Table::pct(loss))
                << workloads[wi].name << " column " << pi;
        }
    }
    for (size_t pi = 0; pi < np; ++pi)
        EXPECT_EQ(avg_row[1 + pi],
                  Table::pct(sum[pi] / double(workloads.size())))
            << "Average column " << pi;
}

TEST(IpcCampaign, MatchesHandComputedLossTable)
{
    expectMatchesDirectRuns(smallSpec());
}

TEST(IpcCampaign, IdenticalAtEveryThreadCount)
{
    ThreadGuard guard;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        setParallelThreads(threads);
        IpcLossCampaignSpec spec = smallSpec();
        spec.seed = 100 + threads;
        SCOPED_TRACE(std::to_string(threads) + " threads");
        expectMatchesDirectRuns(spec);
    }
}

} // namespace
} // namespace tdc
