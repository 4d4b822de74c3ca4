/**
 * @file
 * Unit and determinism-differential tests of the campaign-grid
 * executor: it must assemble tables correctly, be bit-identical at
 * every worker-pool size, and run its cells serially on the caller so
 * each cell's own trial sweep gets the whole pool. (The injection-campaign arms live behind
 * the ProtectionScheme API now and are covered by the scheme-layer
 * tests.)
 */

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hh"
#include "reliability/campaign.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

CampaignGrid
arithmeticGrid()
{
    CampaignGrid grid;
    grid.title = "--- test ---";
    grid.rowHeader = "Row";
    grid.rowLabels = {"r0", "r1", "r2"};
    grid.colHeaders = {"c0", "c1"};
    grid.cell = [](size_t row, size_t col) {
        // Derived from the cell index only: any execution order must
        // produce the same table.
        return std::to_string(shardSeed(41, row * 2 + col) % 1000);
    };
    grid.summary = [](const std::vector<std::vector<std::string>> &cells) {
        std::vector<std::string> row{"sum-rows",
                                     std::to_string(cells.size())};
        return std::vector<std::vector<std::string>>{row};
    };
    return grid;
}

TEST(Campaign, GridAssemblesLabelsCellsAndSummary)
{
    const CampaignResult res = runCampaignGrid(arithmeticGrid());
    ASSERT_EQ(res.headers.size(), 3u);
    EXPECT_EQ(res.headers[0], "Row");
    ASSERT_EQ(res.cells.size(), 3u);
    ASSERT_EQ(res.cells[0].size(), 2u);
    // rows = 3 grid rows + 1 summary row, each led by its label.
    ASSERT_EQ(res.rows.size(), 4u);
    EXPECT_EQ(res.rows[1][0], "r1");
    EXPECT_EQ(res.rows[1][1], res.cells[1][0]);
    EXPECT_EQ(res.rows[3][0], "sum-rows");
    EXPECT_EQ(res.rows[3][1], "3");
    // The rendered output embeds the title and all four rows.
    const std::string text = res.render();
    EXPECT_NE(text.find("--- test ---"), std::string::npos);
    EXPECT_NE(text.find("sum-rows"), std::string::npos);
}

TEST(Campaign, GridIdenticalAtEveryThreadCount)
{
    ThreadGuard guard;
    setParallelThreads(1);
    const std::string serial = runCampaignGrid(arithmeticGrid()).render();
    for (unsigned threads : {2u, 4u, 8u}) {
        setParallelThreads(threads);
        EXPECT_EQ(runCampaignGrid(arithmeticGrid()).render(), serial)
            << threads << " threads";
    }
}

TEST(Campaign, CellsRunInRowMajorOrderOnCaller)
{
    ThreadGuard guard;
    setParallelThreads(4);
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> order;
    std::set<std::thread::id> threads;
    CampaignGrid grid = arithmeticGrid();
    grid.cell = [&](size_t row, size_t col) {
        std::lock_guard<std::mutex> lock(mu);
        order.emplace_back(row, col);
        threads.insert(std::this_thread::get_id());
        return std::string("x");
    };
    runCampaignGrid(grid);
    const std::vector<std::pair<size_t, size_t>> row_major = {
        {0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}};
    EXPECT_EQ(order, row_major);
    EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(Campaign, CellSweepsReachThePool)
{
    ThreadGuard guard;
    setParallelThreads(4);
    CampaignGrid grid = arithmeticGrid();
    std::mutex mu;
    // Distinct threads seen by each cell's own sweep.
    std::vector<std::set<std::thread::id>> seen(3 * 2);
    grid.cell = [&](size_t row, size_t col) {
        std::set<std::thread::id> &threads = seen[row * 2 + col];
        std::vector<uint64_t> sink(300);
        // A Monte-Carlo-style sweep inside the cell: a few hundred busy
        // items. Item 0 also waits (bounded) for a second thread to
        // show up, so the check does not depend on how fast the pool's
        // workers wake.
        parallelFor(sink.size(), [&](size_t i) {
            {
                std::lock_guard<std::mutex> lock(mu);
                threads.insert(std::this_thread::get_id());
            }
            sink[i] = i;
            for (uint64_t k = 0; k < 2000; ++k)
                sink[i] = shardSeed(sink[i], k);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(5);
            while (i == 0 && std::chrono::steady_clock::now() < deadline) {
                {
                    std::lock_guard<std::mutex> lock(mu);
                    if (threads.size() > 1)
                        break;
                }
                std::this_thread::yield();
            }
        });
        return std::to_string(sink.back());
    };
    runCampaignGrid(grid);
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_GT(seen[i].size(), 1u) << "cell " << i;
}

} // namespace
} // namespace tdc
