/**
 * @file
 * CMP timing-simulator benchmarks (BENCH_0011_cmp_sim.json): the
 * kernel behind fig5, fig6 and ablations 3-5.
 *
 * - CmpSimulatorRun/<machine>: one CmpSimulator::run of 150k cycles,
 *   OLTP, full 2D protection with port stealing (l1+steal+l2), seed
 *   42 — the shape of one fig6 cell.
 * - InstructionStreamNext/<workload>: 64k InstructionStream::next()
 *   calls on one stream (seed 42), the per-instruction draw cost that
 *   every simulated hardware thread pays each issue slot.
 * - PortSchedulerSteal: one L1-like scheduler (2 ports, 12-cycle steal
 *   window) driven by a fixed per-cycle mix of demand accesses and
 *   stolen reads, with occasional multi-cycle jumps, isolating the
 *   port model's per-cycle cost.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "core/port_scheduler.hh"
#include "cpu/cmp_simulator.hh"
#include "workload/instruction_stream.hh"

namespace
{

constexpr uint64_t kRunCycles = 150000;

void
BM_CmpSimulatorRun(benchmark::State &state, const tdc::CmpConfig &machine)
{
    const tdc::WorkloadProfile &workload = tdc::workloadByName("OLTP");
    const tdc::ProtectionConfig protection =
        tdc::ProtectionConfig::parse("l1+steal+l2");
    for (auto _ : state) {
        tdc::CmpSimulator sim(machine, workload, protection, 42);
        const tdc::CmpSimResult r = sim.run(kRunCycles);
        benchmark::DoNotOptimize(r.instructions);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(kRunCycles));
}
BENCHMARK_CAPTURE(BM_CmpSimulatorRun, fat, tdc::CmpConfig::fat())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CmpSimulatorRun, lean, tdc::CmpConfig::lean())
    ->Unit(benchmark::kMillisecond);

void
BM_InstructionStreamNext(benchmark::State &state, const char *workload)
{
    constexpr int64_t kInstrs = 1 << 16;
    tdc::InstructionStream stream(tdc::workloadByName(workload), 42);
    for (auto _ : state) {
        uint64_t sum = 0;
        for (int64_t i = 0; i < kInstrs; ++i) {
            const tdc::SyntheticInstr instr = stream.next();
            sum += unsigned(instr.kind) + instr.bubbles + instr.l1dMiss +
                   instr.bankHash;
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * kInstrs);
}
BENCHMARK_CAPTURE(BM_InstructionStreamNext, OLTP, "OLTP")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_InstructionStreamNext, Ocean, "Ocean")
    ->Unit(benchmark::kMicrosecond);

/** One cycle of scheduler traffic. */
struct SchedStep
{
    uint8_t advance; ///< cycles to move forward first
    uint8_t demands;
    uint8_t stolen;
};

void
BM_PortSchedulerSteal(benchmark::State &state)
{
    constexpr size_t kSteps = 100000;
    std::vector<SchedStep> steps(kSteps);
    tdc::Rng rng(7);
    for (SchedStep &s : steps) {
        // Mostly single-cycle steps; one in 16 jumps up to 40 cycles,
        // past the steal window.
        s.advance = rng.nextBelow(16) == 0 ? uint8_t(2 + rng.nextBelow(39))
                                           : 1;
        s.demands = uint8_t(rng.nextBelow(3));
        s.stolen = rng.nextBool(0.3) ? 1 : 0;
    }
    for (auto _ : state) {
        tdc::PortScheduler ports(2, 12);
        uint64_t now = 0;
        unsigned charged = 0;
        for (const SchedStep &s : steps) {
            now += s.advance;
            ports.advanceTo(now);
            for (unsigned d = 0; d < s.demands; ++d)
                ports.issueDemand();
            for (unsigned r = 0; r < s.stolen; ++r)
                charged += ports.issueStolenRead();
        }
        benchmark::DoNotOptimize(charged);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(kSteps));
}
BENCHMARK(BM_PortSchedulerSteal)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
