#include "cpu/cmp_batch.hh"

#include <algorithm>
#include <mutex>

#include "common/parallel.hh"

namespace tdc
{

namespace
{

/** One finished simulation. */
struct MemoEntry
{
    CmpRunSpec spec;
    uint64_t cycles = 0;
    CmpSimResult result;
};

/** Every distinct run simulated so far in this process. A few hundred
 *  bytes per run and a few dozen runs per figure, so a linear scan is
 *  cheap next to one simulation. */
std::mutex memoMutex;
std::vector<MemoEntry> memo;

/** The memoized result of (spec, cycles), or nullptr. Caller holds
 *  memoMutex. */
const CmpSimResult *
findMemo(const CmpRunSpec &spec, uint64_t cycles)
{
    for (const MemoEntry &e : memo)
        if (e.cycles == cycles && e.spec == spec)
            return &e.result;
    return nullptr;
}

} // namespace

std::vector<CmpSimResult>
runCmpBatch(const std::vector<CmpRunSpec> &specs, uint64_t cycles)
{
    std::vector<CmpSimResult> results(specs.size());

    // Specs to simulate (distinct memo misses) and, per spec, which
    // of them supplies its result (kHit: the memo already did).
    constexpr size_t kHit = SIZE_MAX;
    std::vector<const CmpRunSpec *> misses;
    std::vector<size_t> source(specs.size(), kHit);
    {
        std::lock_guard<std::mutex> lock(memoMutex);
        for (size_t i = 0; i < specs.size(); ++i) {
            if (const CmpSimResult *hit = findMemo(specs[i], cycles)) {
                results[i] = *hit;
                continue;
            }
            const auto dup =
                std::find_if(misses.begin(), misses.end(),
                             [&](const CmpRunSpec *m) {
                                 return *m == specs[i];
                             });
            source[i] = size_t(dup - misses.begin());
            if (dup == misses.end())
                misses.push_back(&specs[i]);
        }
    }

    std::vector<CmpSimResult> fresh(misses.size());
    parallelFor(misses.size(), [&](size_t j) {
        const CmpRunSpec &spec = *misses[j];
        CmpSimulator sim(spec.machine, spec.workload, spec.protection,
                         spec.seed);
        fresh[j] = sim.run(cycles);
    });

    {
        std::lock_guard<std::mutex> lock(memoMutex);
        // A concurrent batch may have stored the same run meanwhile.
        for (size_t j = 0; j < misses.size(); ++j)
            if (!findMemo(*misses[j], cycles))
                memo.push_back({*misses[j], cycles, fresh[j]});
    }
    for (size_t i = 0; i < specs.size(); ++i)
        if (source[i] != kHit)
            results[i] = fresh[source[i]];
    return results;
}

} // namespace tdc
