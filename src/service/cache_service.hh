/**
 * @file
 * The request-stream front end of the study: a sharded cache service
 * that serves millions of timestamped read/write requests against
 * TwoDimCacheStore shards, with the paper's read-before-write port
 * stealing and asynchronous background scrub + fault arrival competing
 * for port slots under live traffic — reporting throughput and
 * p50/p99/p999 latency next to the reliability verdicts
 * (corrected / DUE / SDC).
 *
 * Sharding and determinism: requests partition by address (shard =
 * address mod shards); each shard owns its own store, port scheduler,
 * histogram, and counter-based RNG streams, and shards run over the
 * common/parallel worker pool. Every per-shard outcome is a pure
 * function of (config, that shard's request subsequence), and shard
 * reports merge in ascending shard order — so the full report is
 * bit-identical at any TDC_THREADS setting.
 */

#ifndef TDC_SERVICE_CACHE_SERVICE_HH
#define TDC_SERVICE_CACHE_SERVICE_HH

#include <cstdint>
#include <vector>

#include "array/fault.hh"
#include "common/table.hh"
#include "core/twod_cache_store.hh"
#include "service/latency_histogram.hh"
#include "service/request.hh"

namespace tdc
{

/** Configuration of one cache-service instance. */
struct ServiceConfig
{
    /** Per-bank 2D protection (the --scheme 2d:... axis). */
    TwoDimConfig bank = TwoDimConfig::l1Default();

    size_t banksPerShard = 4;
    size_t shards = 4;

    /** Port slots per cycle per shard. */
    unsigned ports = 1;

    /** Idle-slot window the RBW read may steal from (0 disables). */
    unsigned stealWindow = 8;

    /**
     * Ticks between background scrub steps (one row readback per
     * step, walking banks round-robin); 0 disables scrubbing. Scrub
     * reads ride idle port slots like stolen RBW reads.
     */
    uint64_t scrubInterval = 0;

    /** Ticks between injected fault events; 0 disables injection. */
    uint64_t faultInterval = 0;

    /** Fault model of the online events (the --fault axis). */
    FaultModel fault = FaultModel::singleBit();

    /** Base seed; every stream derives via domain-separated shards. */
    uint64_t seed = 12345;

    /** Base access latencies in cycles (before queueing/recovery). */
    unsigned readLatency = 2;
    unsigned writeLatency = 2;

    /** Record a per-request outcome vector (latency + verdict). */
    bool recordOutcomes = false;

    /** Flat words one shard serves. */
    size_t wordsPerShard() const;

    /** Flat words of the whole service (the request address space). */
    size_t totalWords() const { return shards * wordsPerShard(); }
};

/** Per-request result (recorded when ServiceConfig::recordOutcomes). */
struct RequestOutcome
{
    uint32_t latency = 0;             ///< cycles, queueing included
    DecodeStatus status = DecodeStatus::kClean;
    bool silent = false;              ///< read returned wrong data unflagged

    bool operator==(const RequestOutcome &) const = default;
};

/** Scalar service counters (merged field-wise, shard order). */
struct ServiceCounters
{
    uint64_t requests = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t rbwAbsorbed = 0;  ///< RBW reads hidden by port stealing
    uint64_t rbwCharged = 0;   ///< RBW reads that cost a demand slot
    uint64_t portDelay = 0;    ///< summed queueing delay, cycles
    uint64_t corrected = 0;    ///< reads repaired (in-line or sweep)
    uint64_t due = 0;          ///< detected-uncorrectable reads
    uint64_t sdc = 0;          ///< silently wrong reads
    uint64_t recoveries = 0;   ///< sweeps started by any access
    /** Sweep latency charged to demand reads and writes. */
    uint64_t recoveryRowReads = 0;
    uint64_t scrubSteps = 0;
    uint64_t scrubRepairs = 0; ///< scrub reads that fixed something
    uint64_t scrubDue = 0;     ///< scrub reads left uncorrectable
    uint64_t faultEvents = 0;

    ServiceCounters &operator+=(const ServiceCounters &o);
    bool operator==(const ServiceCounters &) const = default;
};

/** One shard's slice of the report. */
struct ShardServiceReport
{
    ServiceCounters counters;
    LatencyHistogram latency;
    TwoDimStats store; ///< aggregated bank stats of the shard's store

    bool operator==(const ShardServiceReport &) const = default;
};

/** Full service run outcome. */
struct ServiceReport
{
    std::vector<ShardServiceReport> shards; ///< ascending shard order
    ShardServiceReport total;               ///< merged in shard order
    uint64_t ticks = 0;                     ///< simulated duration
    std::vector<RequestOutcome> outcomes;   ///< per input request, opt.

    /** Served requests per 1000 simulated cycles. */
    double throughputPerKTick() const;

    bool operator==(const ServiceReport &) const = default;
};

/**
 * The concurrent cache service. Construction validates the config
 * (throws std::invalid_argument on zero shards/banks/ports); serve()
 * validates addresses (throws std::out_of_range on any address >=
 * totalWords(), store untouched) and requires per-shard ticks to be
 * served in non-decreasing order (earlier ticks clamp forward).
 */
class CacheService
{
  public:
    explicit CacheService(const ServiceConfig &config);

    const ServiceConfig &config() const { return cfg; }

    /** Serve @p requests (arrival order; ticks non-decreasing). */
    ServiceReport serve(const std::vector<ServiceRequest> &requests) const;

  private:
    ServiceConfig cfg;
};

/** Per-shard latency/throughput table ("all" row last). */
Table serviceLatencyTable(const ServiceReport &report);

/** Per-shard reliability table ("all" row last). */
Table serviceReliabilityTable(const ServiceReport &report);

} // namespace tdc

#endif // TDC_SERVICE_CACHE_SERVICE_HH
