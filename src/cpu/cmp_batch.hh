/**
 * @file
 * Batched CMP simulation: run many independent (machine, workload,
 * protection, seed) combinations across the worker pool. The Figure
 * 5/6 studies are grids of such runs; each CmpSimulator instance is
 * self-contained, so the grid is embarrassingly parallel and the
 * per-spec results are independent of thread count by construction.
 *
 * A simulation is a pure function of (spec, cycles), so each distinct
 * pair is simulated once per process: fig6 reads other counters of
 * fig5's full-protection runs, and the ablations repeat some of them.
 */

#ifndef TDC_CPU_CMP_BATCH_HH
#define TDC_CPU_CMP_BATCH_HH

#include <vector>

#include "cpu/cmp_simulator.hh"

namespace tdc
{

/** One simulation to run. */
struct CmpRunSpec
{
    CmpConfig machine;
    WorkloadProfile workload;
    ProtectionConfig protection;
    uint64_t seed = 1;

    bool operator==(const CmpRunSpec &) const = default;
};

/**
 * Run every spec for @p cycles cycles; results[i] corresponds to
 * specs[i] and equals CmpSimulator(specs[i]...).run(cycles).
 *
 * Results are memoized for the life of the process, keyed on
 * (spec, cycles) equality. Specs found in the memo are not rerun; the
 * distinct rest of the batch is simulated across the parallelFor pool
 * and then added to the memo. The memo is in memory only and never
 * written to disk. Thread-safe; the memo lock is not held while
 * simulating.
 */
std::vector<CmpSimResult> runCmpBatch(const std::vector<CmpRunSpec> &specs,
                                      uint64_t cycles);

} // namespace tdc

#endif // TDC_CPU_CMP_BATCH_HH
