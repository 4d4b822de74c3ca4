#include "core/port_scheduler.hh"

#include <cassert>

namespace tdc
{

PortScheduler::PortScheduler(unsigned ports_, unsigned steal_window)
    : ports(ports_), stealWindow(steal_window), idleHistory(steal_window, 0)
{
    assert(ports > 0);
}

unsigned
PortScheduler::issueStolenRead()
{
    if (stealWindow > 0 && idleBank > 0) {
        // Absorbed into an idle slot observed within the window: the
        // read issued early from the store queue and costs nothing
        // now.
        --idleBank;
        // Consume the oldest recorded idle slot.
        unsigned i = oldest;
        while (idleHistory[i] == 0)
            i = i + 1 == stealWindow ? 0 : i + 1;
        --idleHistory[i];
        ++absorbedCount;
        return 0;
    }
    ++chargedCount;
    issueDemand();
    --demandCount; // counted separately as a charged stolen read
    return 1;
}

double
PortScheduler::stealEfficiency() const
{
    const uint64_t total = absorbedCount + chargedCount;
    return total == 0 ? 0.0 : double(absorbedCount) / double(total);
}

} // namespace tdc
