/**
 * @file
 * Lifetime/FIT engine benchmarks (BENCH_0009_lifetime.json): the cost
 * of evolving protected devices over accelerated 5-year missions.
 *
 * - Engine/<scheme>: runLifetime on one scheme, 64-row geometry,
 *   jaguar*10000, weekly scrub — the per-cell cost of a lifetime
 *   campaign (threads at the pool default).
 * - Timeline: drawEventTimeline alone, the pure Poisson part.
 * - FigureColdVsWarm: "--figure lifetime" through the driver, cold
 *   (memory tier cleared) vs warm (replayed from the result cache) —
 *   the same cold/warm contract the other campaign benches pin.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "driver/tdc_run.hh"
#include "reliability/lifetime.hh"
#include "reliability/result_cache.hh"
#include "scheme/scheme.hh"

namespace
{

void
benchEngine(benchmark::State &state, const std::string &spec)
{
    const tdc::SchemePtr scheme = tdc::parseScheme(spec);
    tdc::LifetimeParams p;
    p.schemeSpec = scheme->spec();
    p.mix = tdc::parseFitMix("jaguar*10000");
    p.missionHours = 5.0 * 8760.0;
    p.scrubIntervalHours = 168.0;
    p.spareRows = 2;
    p.trials = 40;
    p.seed = 4242;
    for (auto _ : state) {
        const tdc::LifetimeResult res =
            tdc::runLifetime(p, [&](tdc::Rng &fill) {
                return scheme->openSession(fill);
            });
        benchmark::DoNotOptimize(res);
    }
}

void
benchTimeline(benchmark::State &state)
{
    const tdc::FitMix mix = tdc::parseFitMix("jaguar*10000");
    uint64_t seed = 0;
    for (auto _ : state) {
        const std::vector<tdc::LifetimeEvent> timeline =
            tdc::drawEventTimeline(mix, 5.0 * 8760.0, ++seed);
        benchmark::DoNotOptimize(timeline);
    }
}

std::string
runFigure()
{
    std::string out, err;
    const int code = tdc::tdcRun({"--figure", "lifetime"}, out, err);
    if (code != 0)
        benchmark::DoNotOptimize(err);
    return out;
}

void
benchFigureCold(benchmark::State &state)
{
    tdc::resultCache().setDirectory("");
    for (auto _ : state) {
        state.PauseTiming();
        tdc::resultCache().clearMemory();
        state.ResumeTiming();
        std::string out = runFigure();
        benchmark::DoNotOptimize(out);
    }
}

void
benchFigureWarm(benchmark::State &state)
{
    tdc::resultCache().setDirectory("");
    tdc::resultCache().clearMemory();
    runFigure(); // prime
    for (auto _ : state) {
        std::string out = runFigure();
        benchmark::DoNotOptimize(out);
    }
    tdc::resultCache().clearMemory();
}

BENCHMARK_CAPTURE(benchEngine, conv_secded, "conv:secded/i4/r64")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(benchEngine, twodim, "2d:edc8/i4+vp32/r64")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(benchEngine, prod, "prod:64x64")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(benchTimeline)->Unit(benchmark::kMicrosecond);
BENCHMARK(benchFigureCold)->Unit(benchmark::kMillisecond);
BENCHMARK(benchFigureWarm)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
