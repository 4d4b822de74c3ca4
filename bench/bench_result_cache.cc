/**
 * @file
 * Campaign result-cache benchmarks (BENCH_0008_result_cache.json):
 * cold vs warm figure and custom-grid runs through the tdc_run driver.
 *
 * "Cold" clears the in-memory tier every iteration and runs with no
 * disk tier — the pre-cache baseline. "Warm" measures replay from the
 * in-memory tier; "WarmDisk" drops the memory tier every iteration and
 * replays from a populated --cache-dir, the fresh-process case. The
 * cold/warm ratio is the headline speedup the cache buys a repeated
 * figure run (acceptance floor: >= 10x on fig7).
 *
 * Fig3Cold and InjectFiguresCold (BENCH_0012_campaign_grid.json) time
 * the cold injection figures alone — fig3, and fig3 + related-work +
 * chipkill + lifetime — in wall-clock time, since their Monte-Carlo
 * trials run on the whole worker pool.
 */

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "driver/tdc_run.hh"
#include "reliability/result_cache.hh"

namespace
{

namespace fs = std::filesystem;

std::string
run(const std::vector<std::string> &args)
{
    std::string out, err;
    const int code = tdc::tdcRun(args, out, err);
    if (code != 0)
        benchmark::DoNotOptimize(err);
    return out;
}

/** Cold: no disk tier, memory tier cleared before every iteration. */
void
benchCold(benchmark::State &state, const std::vector<std::string> &args)
{
    tdc::resultCache().setDirectory("");
    for (auto _ : state) {
        state.PauseTiming();
        tdc::resultCache().clearMemory();
        state.ResumeTiming();
        std::string out = run(args);
        benchmark::DoNotOptimize(out);
    }
}

/** Warm: one priming run, then every iteration replays from memory. */
void
benchWarm(benchmark::State &state, const std::vector<std::string> &args)
{
    tdc::resultCache().setDirectory("");
    tdc::resultCache().clearMemory();
    run(args); // prime
    for (auto _ : state) {
        std::string out = run(args);
        benchmark::DoNotOptimize(out);
    }
}

/** WarmDisk: primed --cache-dir, memory tier dropped per iteration —
 *  a fresh process against a shared cache directory. */
void
benchWarmDisk(benchmark::State &state, const std::vector<std::string> &args)
{
    const fs::path dir =
        fs::temp_directory_path() / "tdc_bench_result_cache";
    fs::remove_all(dir);
    tdc::resultCache().setDirectory(dir.string());
    tdc::resultCache().clearMemory();
    run(args); // prime the disk tier
    for (auto _ : state) {
        state.PauseTiming();
        tdc::resultCache().clearMemory();
        state.ResumeTiming();
        std::string out = run(args);
        benchmark::DoNotOptimize(out);
    }
    tdc::resultCache().setDirectory("");
    fs::remove_all(dir);
}

const std::vector<std::string> kFig7 = {"--figure", "fig7"};
const std::vector<std::string> kFig8 = {"--figure", "fig8"};
const std::vector<std::string> kGrid = {
    "--scheme", "2d:edc8/i4+vp32", "--scheme", "conv:secded/i4",
    "--scheme", "2d:edc16/i2+vp32", "--fault", "single",
    "--fault", "32x32", "--fault", "row:32", "--events", "100"};
const std::vector<std::string> kFig3 = {"--figure", "fig3"};
const std::vector<std::string> kInjectFigures = {
    "--figure", "fig3",     "--figure", "related-work",
    "--figure", "chipkill", "--figure", "lifetime"};
const std::vector<std::string> kOptimize = {
    "--optimize", "2d:edc{8,16,32}/i{1,2,4}+vp32", "--trials", "20"};

void BM_Fig7Cold(benchmark::State &s) { benchCold(s, kFig7); }
void BM_Fig7Warm(benchmark::State &s) { benchWarm(s, kFig7); }
void BM_Fig7WarmDisk(benchmark::State &s) { benchWarmDisk(s, kFig7); }
void BM_Fig8Cold(benchmark::State &s) { benchCold(s, kFig8); }
void BM_Fig8Warm(benchmark::State &s) { benchWarm(s, kFig8); }
void BM_CustomGridCold(benchmark::State &s) { benchCold(s, kGrid); }
void BM_CustomGridWarm(benchmark::State &s) { benchWarm(s, kGrid); }
void BM_CustomGridWarmDisk(benchmark::State &s) { benchWarmDisk(s, kGrid); }
void BM_OptimizeCold(benchmark::State &s) { benchCold(s, kOptimize); }
void BM_OptimizeWarm(benchmark::State &s) { benchWarm(s, kOptimize); }
void BM_Fig3Cold(benchmark::State &s) { benchCold(s, kFig3); }
void BM_InjectFiguresCold(benchmark::State &s)
{
    benchCold(s, kInjectFigures);
}

BENCHMARK(BM_Fig7Cold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig7Warm)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig7WarmDisk)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig8Cold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig8Warm)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CustomGridCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CustomGridWarm)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CustomGridWarmDisk)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OptimizeCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OptimizeWarm)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig3Cold)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_InjectFiguresCold)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
