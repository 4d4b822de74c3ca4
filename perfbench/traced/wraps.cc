/**
 * @file
 * Linker wrappers: with -Wl,--wrap=SYM every call into SYM from another
 * object file lands in __wrap_SYM, which records a span (or a counter
 * tick) and forwards to __real_SYM, the original definition. Symbols,
 * probe names and the PERFBENCH_HAVE_* gates come from wrap_config.h,
 * generated from wraps.json by tools/resolve_wraps.py after checking
 * with nm that each symbol is still defined in the tdc archives. A
 * wrapper whose symbol is gone compiles out and its layer reads as
 * absent. Member functions are declared as free functions taking the
 * object pointer first, which is their Itanium C++ ABI calling form.
 */

#include "wrap_config.h"

#include "span_log.hh"

#define PB_REAL(M) __asm__("__real_" PERFBENCH_SYM_##M)
#define PB_WRAP(M) __asm__("__wrap_" PERFBENCH_SYM_##M)
#define PB_PROBE(M)                                                          \
    [[maybe_unused]] const int kProbe##M =                                   \
        perfbench::registerProbe(PERFBENCH_PROBE_##M)

using perfbench::SpanScope;

// --- cpu ------------------------------------------------------------

#if PERFBENCH_HAVE_CPU_SIM_RUN && __has_include("cpu/cmp_simulator.hh")
#include "cpu/cmp_simulator.hh"
PB_PROBE(CPU_SIM_RUN);
tdc::CmpSimResult realSimRun(tdc::CmpSimulator *, uint64_t)
    PB_REAL(CPU_SIM_RUN);
tdc::CmpSimResult wrapSimRun(tdc::CmpSimulator *, uint64_t)
    PB_WRAP(CPU_SIM_RUN);
tdc::CmpSimResult
wrapSimRun(tdc::CmpSimulator *self, uint64_t cycles)
{
    SpanScope span(PERFBENCH_PROBE_CPU_SIM_RUN, cycles);
    return realSimRun(self, cycles);
}
#endif

#if PERFBENCH_HAVE_CPU_BATCH && __has_include("cpu/cmp_batch.hh")
#include "cpu/cmp_batch.hh"
PB_PROBE(CPU_BATCH);
std::vector<tdc::CmpSimResult>
realBatch(const std::vector<tdc::CmpRunSpec> &, uint64_t) PB_REAL(CPU_BATCH);
std::vector<tdc::CmpSimResult>
wrapBatch(const std::vector<tdc::CmpRunSpec> &, uint64_t) PB_WRAP(CPU_BATCH);
std::vector<tdc::CmpSimResult>
wrapBatch(const std::vector<tdc::CmpRunSpec> &specs, uint64_t cycles)
{
    SpanScope span(PERFBENCH_PROBE_CPU_BATCH, specs.size());
    return realBatch(specs, cycles);
}
#endif

#if PERFBENCH_HAVE_CPU_IPC_CAMPAIGN && __has_include("cpu/ipc_campaign.hh")
#include "cpu/ipc_campaign.hh"
PB_PROBE(CPU_IPC_CAMPAIGN);
tdc::CampaignResult realIpc(const tdc::IpcLossCampaignSpec &)
    PB_REAL(CPU_IPC_CAMPAIGN);
tdc::CampaignResult wrapIpc(const tdc::IpcLossCampaignSpec &)
    PB_WRAP(CPU_IPC_CAMPAIGN);
tdc::CampaignResult
wrapIpc(const tdc::IpcLossCampaignSpec &spec)
{
    SpanScope span(PERFBENCH_PROBE_CPU_IPC_CAMPAIGN);
    return realIpc(spec);
}
#endif

// --- reliability ------------------------------------------------------

#if PERFBENCH_HAVE_REL_GRID && __has_include("reliability/campaign.hh")
#include "reliability/campaign.hh"
PB_PROBE(REL_GRID);
tdc::CampaignResult realGrid(const tdc::CampaignGrid &) PB_REAL(REL_GRID);
tdc::CampaignResult wrapGrid(const tdc::CampaignGrid &) PB_WRAP(REL_GRID);
tdc::CampaignResult
wrapGrid(const tdc::CampaignGrid &grid)
{
    SpanScope span(PERFBENCH_PROBE_REL_GRID);
    return realGrid(grid);
}
#endif

#if PERFBENCH_HAVE_REL_RENDER && __has_include("reliability/campaign.hh")
#include "reliability/campaign.hh"
PB_PROBE(REL_RENDER);
std::string realRender(const tdc::CampaignResult *) PB_REAL(REL_RENDER);
std::string wrapRender(const tdc::CampaignResult *) PB_WRAP(REL_RENDER);
std::string
wrapRender(const tdc::CampaignResult *self)
{
    SpanScope span(PERFBENCH_PROBE_REL_RENDER);
    return realRender(self);
}
#endif

#if __has_include("reliability/result_cache.hh")
#include "reliability/result_cache.hh"
#endif

#if PERFBENCH_HAVE_REL_CACHE_OUTCOME &&                                      \
    __has_include("reliability/result_cache.hh")
PB_PROBE(REL_CACHE_OUTCOME);
tdc::InjectionOutcome
realOutcome(tdc::ResultCache *, const std::string &,
            const std::function<tdc::InjectionOutcome()> &)
    PB_REAL(REL_CACHE_OUTCOME);
tdc::InjectionOutcome
wrapOutcome(tdc::ResultCache *, const std::string &,
            const std::function<tdc::InjectionOutcome()> &)
    PB_WRAP(REL_CACHE_OUTCOME);
tdc::InjectionOutcome
wrapOutcome(tdc::ResultCache *self, const std::string &key,
            const std::function<tdc::InjectionOutcome()> &compute)
{
    SpanScope span(PERFBENCH_PROBE_REL_CACHE_OUTCOME);
    return realOutcome(self, key, compute);
}
#endif

#if PERFBENCH_HAVE_REL_CACHE_MEMOIZE &&                                      \
    __has_include("reliability/result_cache.hh")
PB_PROBE(REL_CACHE_MEMOIZE);
tdc::ResultCache::Record
realMemoize(tdc::ResultCache *, const std::string &,
            const std::function<tdc::ResultCache::Record()> &)
    PB_REAL(REL_CACHE_MEMOIZE);
tdc::ResultCache::Record
wrapMemoize(tdc::ResultCache *, const std::string &,
            const std::function<tdc::ResultCache::Record()> &)
    PB_WRAP(REL_CACHE_MEMOIZE);
tdc::ResultCache::Record
wrapMemoize(tdc::ResultCache *self, const std::string &key,
            const std::function<tdc::ResultCache::Record()> &compute)
{
    SpanScope span(PERFBENCH_PROBE_REL_CACHE_MEMOIZE);
    return realMemoize(self, key, compute);
}
#endif

#if PERFBENCH_HAVE_REL_CACHE_REALS &&                                        \
    __has_include("reliability/result_cache.hh")
PB_PROBE(REL_CACHE_REALS);
std::vector<double>
realReals(tdc::ResultCache *, const std::string &, size_t,
          const std::function<std::vector<double>()> &)
    PB_REAL(REL_CACHE_REALS);
std::vector<double>
wrapReals(tdc::ResultCache *, const std::string &, size_t,
          const std::function<std::vector<double>()> &)
    PB_WRAP(REL_CACHE_REALS);
std::vector<double>
wrapReals(tdc::ResultCache *self, const std::string &key, size_t count,
          const std::function<std::vector<double>()> &compute)
{
    SpanScope span(PERFBENCH_PROBE_REL_CACHE_REALS);
    return realReals(self, key, count, compute);
}
#endif

// --- scheme / array ---------------------------------------------------

#if __has_include("scheme/scheme.hh")
#include "scheme/scheme.hh"
#endif

#if PERFBENCH_HAVE_SCHEME_INJECT && __has_include("scheme/scheme.hh")
PB_PROBE(SCHEME_INJECT);
tdc::InjectionOutcome realInject(const tdc::ProtectionScheme &,
                                 const tdc::FaultModel &, int, uint64_t)
    PB_REAL(SCHEME_INJECT);
tdc::InjectionOutcome wrapInject(const tdc::ProtectionScheme &,
                                 const tdc::FaultModel &, int, uint64_t)
    PB_WRAP(SCHEME_INJECT);
tdc::InjectionOutcome
wrapInject(const tdc::ProtectionScheme &scheme, const tdc::FaultModel &fault,
           int trials, uint64_t seed)
{
    SpanScope span(PERFBENCH_PROBE_SCHEME_INJECT,
                   trials > 0 ? uint64_t(trials) : 0);
    return realInject(scheme, fault, trials, seed);
}
#endif

#if PERFBENCH_HAVE_SCHEME_LIFETIME && __has_include("scheme/scheme.hh")
PB_PROBE(SCHEME_LIFETIME);
tdc::LifetimeResult realLifetime(const tdc::ProtectionScheme &,
                                 tdc::LifetimeParams)
    PB_REAL(SCHEME_LIFETIME);
tdc::LifetimeResult wrapLifetime(const tdc::ProtectionScheme &,
                                 tdc::LifetimeParams)
    PB_WRAP(SCHEME_LIFETIME);
tdc::LifetimeResult
wrapLifetime(const tdc::ProtectionScheme &scheme, tdc::LifetimeParams params)
{
    SpanScope span(PERFBENCH_PROBE_SCHEME_LIFETIME,
                   params.trials > 0 ? uint64_t(params.trials) : 0);
    return realLifetime(scheme, std::move(params));
}
#endif

#if PERFBENCH_HAVE_SCHEME_PARSE && __has_include("scheme/scheme.hh")
PB_PROBE(SCHEME_PARSE);
tdc::SchemePtr realParseScheme(const std::string &) PB_REAL(SCHEME_PARSE);
tdc::SchemePtr wrapParseScheme(const std::string &) PB_WRAP(SCHEME_PARSE);
tdc::SchemePtr
wrapParseScheme(const std::string &spec)
{
    SpanScope span(PERFBENCH_PROBE_SCHEME_PARSE);
    return realParseScheme(spec);
}
#endif

#if PERFBENCH_HAVE_ARRAY_PARSE_FAULT && __has_include("array/fault.hh")
#include "array/fault.hh"
PB_PROBE(ARRAY_PARSE_FAULT);
tdc::FaultModel realParseFault(const std::string &) PB_REAL(ARRAY_PARSE_FAULT);
tdc::FaultModel wrapParseFault(const std::string &) PB_WRAP(ARRAY_PARSE_FAULT);
tdc::FaultModel
wrapParseFault(const std::string &spec)
{
    SpanScope span(PERFBENCH_PROBE_ARRAY_PARSE_FAULT);
    return realParseFault(spec);
}
#endif

// --- service ----------------------------------------------------------

#if PERFBENCH_HAVE_SERVICE_BUILD && __has_include("service/request_gen.hh")
#include "service/request_gen.hh"
PB_PROBE(SERVICE_BUILD);
std::vector<tdc::ServiceRequest>
realBuild(const tdc::RequestStreamSpec &, size_t, uint64_t)
    PB_REAL(SERVICE_BUILD);
std::vector<tdc::ServiceRequest>
wrapBuild(const tdc::RequestStreamSpec &, size_t, uint64_t)
    PB_WRAP(SERVICE_BUILD);
std::vector<tdc::ServiceRequest>
wrapBuild(const tdc::RequestStreamSpec &spec, size_t words, uint64_t seed)
{
    SpanScope span(PERFBENCH_PROBE_SERVICE_BUILD);
    std::vector<tdc::ServiceRequest> requests = realBuild(spec, words, seed);
    span.setArg(requests.size());
    return requests;
}
#endif

#if PERFBENCH_HAVE_SERVICE_SERVE && __has_include("service/cache_service.hh")
#include "service/cache_service.hh"
PB_PROBE(SERVICE_SERVE);
tdc::ServiceReport realServe(const tdc::CacheService *,
                             const std::vector<tdc::ServiceRequest> &)
    PB_REAL(SERVICE_SERVE);
tdc::ServiceReport wrapServe(const tdc::CacheService *,
                             const std::vector<tdc::ServiceRequest> &)
    PB_WRAP(SERVICE_SERVE);
tdc::ServiceReport
wrapServe(const tdc::CacheService *self,
          const std::vector<tdc::ServiceRequest> &requests)
{
    SpanScope span(PERFBENCH_PROBE_SERVICE_SERVE, requests.size());
    return realServe(self, requests);
}
#endif

// --- core: counted, not spanned (one call per word access) -----------

#if __has_include("core/twod_cache_store.hh")
#include "core/twod_cache_store.hh"
#endif

#if PERFBENCH_HAVE_CORE_READ && __has_include("core/twod_cache_store.hh")
PB_PROBE(CORE_READ);
const int kReadSlot = perfbench::registerCounter(PERFBENCH_PROBE_CORE_READ);
tdc::AccessResult realRead(tdc::TwoDimCacheStore *, size_t) PB_REAL(CORE_READ);
tdc::AccessResult wrapRead(tdc::TwoDimCacheStore *, size_t) PB_WRAP(CORE_READ);
tdc::AccessResult
wrapRead(tdc::TwoDimCacheStore *self, size_t word)
{
    perfbench::CountScope count(kReadSlot);
    return realRead(self, word);
}
#endif

#if PERFBENCH_HAVE_CORE_WRITE && __has_include("core/twod_cache_store.hh")
PB_PROBE(CORE_WRITE);
const int kWriteSlot = perfbench::registerCounter(PERFBENCH_PROBE_CORE_WRITE);
void realWrite(tdc::TwoDimCacheStore *, size_t, const tdc::BitVector &)
    PB_REAL(CORE_WRITE);
void wrapWrite(tdc::TwoDimCacheStore *, size_t, const tdc::BitVector &)
    PB_WRAP(CORE_WRITE);
void
wrapWrite(tdc::TwoDimCacheStore *self, size_t word,
          const tdc::BitVector &value)
{
    perfbench::CountScope count(kWriteSlot);
    realWrite(self, word, value);
}
#endif

#if __has_include("core/twod_array.hh")
#include "core/twod_array.hh"
#endif

#if PERFBENCH_HAVE_CORE_ARRAY_READ && __has_include("core/twod_array.hh")
PB_PROBE(CORE_ARRAY_READ);
const int kArrayReadSlot =
    perfbench::registerCounter(PERFBENCH_PROBE_CORE_ARRAY_READ);
tdc::AccessResult realArrayRead(tdc::TwoDimArray *, size_t, size_t)
    PB_REAL(CORE_ARRAY_READ);
tdc::AccessResult wrapArrayRead(tdc::TwoDimArray *, size_t, size_t)
    PB_WRAP(CORE_ARRAY_READ);
tdc::AccessResult
wrapArrayRead(tdc::TwoDimArray *self, size_t row, size_t slot)
{
    perfbench::CountScope count(kArrayReadSlot);
    return realArrayRead(self, row, slot);
}
#endif

#if PERFBENCH_HAVE_CORE_ARRAY_WRITE && __has_include("core/twod_array.hh")
PB_PROBE(CORE_ARRAY_WRITE);
const int kArrayWriteSlot =
    perfbench::registerCounter(PERFBENCH_PROBE_CORE_ARRAY_WRITE);
void realArrayWrite(tdc::TwoDimArray *, size_t, size_t, const tdc::BitVector &)
    PB_REAL(CORE_ARRAY_WRITE);
void wrapArrayWrite(tdc::TwoDimArray *, size_t, size_t, const tdc::BitVector &)
    PB_WRAP(CORE_ARRAY_WRITE);
void
wrapArrayWrite(tdc::TwoDimArray *self, size_t row, size_t slot,
               const tdc::BitVector &value)
{
    perfbench::CountScope count(kArrayWriteSlot);
    realArrayWrite(self, row, slot, value);
}
#endif

// --- driver -----------------------------------------------------------

#if __has_include("driver/tdc_run.hh")
#include "driver/tdc_run.hh"
#endif

#if PERFBENCH_HAVE_DRIVER_STR && __has_include("driver/tdc_run.hh")
PB_PROBE(DRIVER_STR);
std::string realStr(const tdc::RunContext *) PB_REAL(DRIVER_STR);
std::string wrapStr(const tdc::RunContext *) PB_WRAP(DRIVER_STR);
std::string
wrapStr(const tdc::RunContext *self)
{
    SpanScope span(PERFBENCH_PROBE_DRIVER_STR);
    return realStr(self);
}
#endif

#if PERFBENCH_HAVE_DRIVER_TDCRUN && __has_include("driver/tdc_run.hh")
PB_PROBE(DRIVER_TDCRUN);
int realTdcRun(const std::vector<std::string> &, std::string &, std::string &)
    PB_REAL(DRIVER_TDCRUN);
int wrapTdcRun(const std::vector<std::string> &, std::string &, std::string &)
    PB_WRAP(DRIVER_TDCRUN);
int
wrapTdcRun(const std::vector<std::string> &args, std::string &out,
           std::string &err)
{
    SpanScope span(PERFBENCH_PROBE_DRIVER_TDCRUN);
    return realTdcRun(args, out, err);
}
#endif
