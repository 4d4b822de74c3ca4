/**
 * @file
 * DRAM/chipkill backend benchmarks (BENCH_0010_chipkill.json): the
 * cost of symbol-granular protection next to the bit-granular schemes.
 *
 * - RsDecode/<b>: the GF(2^b) SSC-DSD fast decoder over a random mix
 *   of clean / single-error / garbage words (the scrub inner loop).
 * - Inject/<scheme>: injectAndRecover Monte-Carlo cells on the dram:
 *   schemes (threads at the pool default).
 * - Engine/chipkill: runLifetime on a chipkill rank, jaguar*10000,
 *   weekly scrub with 2 spare chips.
 * - FigureColdVsWarm: "--figure chipkill" through the driver, cold
 *   (memory tier cleared) vs warm (replayed from the result cache).
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "driver/tdc_run.hh"
#include "ecc/reed_solomon.hh"
#include "reliability/lifetime.hh"
#include "reliability/result_cache.hh"
#include "scheme/scheme.hh"

namespace
{

void
benchRsDecode(benchmark::State &state, unsigned symbol_bits,
              size_t data_symbols)
{
    const tdc::SymbolRsCode rs(symbol_bits, data_symbols);
    tdc::Rng rng(1);
    // A mix of clean, single-error, and garbage words: the syndrome
    // fast path, the locator path, and the reject path together.
    std::vector<std::vector<uint32_t>> words;
    for (int i = 0; i < 64; ++i) {
        std::vector<uint32_t> word(rs.codeSymbols(), 0);
        for (size_t j = rs.kCheckSymbols; j < word.size(); ++j)
            word[j] = uint32_t(rng.nextBelow(rs.field().size()));
        rs.encode(word);
        if (i % 4 == 1)
            word[rng.nextBelow(word.size())] ^=
                uint32_t(rng.nextBelow(rs.field().size() - 1)) + 1;
        if (i % 4 == 2)
            for (uint32_t &sym : word)
                sym = uint32_t(rng.nextBelow(rs.field().size()));
        words.push_back(std::move(word));
    }
    std::vector<uint32_t> scratch;
    for (auto _ : state) {
        for (const std::vector<uint32_t> &word : words) {
            scratch = word;
            const tdc::SymbolDecodeResult res = rs.decode(scratch);
            benchmark::DoNotOptimize(res);
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(words.size()));
}

void
benchInject(benchmark::State &state, const std::string &spec)
{
    const tdc::SchemePtr scheme = tdc::parseScheme(spec);
    const tdc::FaultModel fault = tdc::parseFaultModel("chip:any");
    for (auto _ : state) {
        const tdc::InjectionOutcome out =
            scheme->injectAndRecover(fault, 50, 10107);
        benchmark::DoNotOptimize(out);
    }
}

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

std::string
runFigure()
{
    std::string out, err;
    const int code = tdc::tdcRun({"--figure", "chipkill"}, out, err);
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

BENCHMARK_CAPTURE(benchRsDecode, gf16_rs15_12, 4, 12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(benchRsDecode, gf256_rs11_8, 8, 8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(benchInject, chipkill_x4, "dram:chipkill/x4")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(benchInject, iecc_chipkill_x8, "dram:iecc+chipkill/x8")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(benchEngine, chipkill_x4, "dram:chipkill/x4")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(benchFigureCold)->Unit(benchmark::kMillisecond);
BENCHMARK(benchFigureWarm)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
