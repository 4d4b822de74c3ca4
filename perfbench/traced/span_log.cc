#include "span_log.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench
{

namespace
{

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name = nullptr;
    int64_t parent = -1;
    int64_t start = 0;
    int64_t end = 0;
    uint64_t arg = 0;
};

struct Counter
{
    uint64_t calls = 0;
    int64_t ns = 0;
};

/** Span ids are (thread << kThreadShift) | index within the thread. */
constexpr int kThreadShift = 40;

/** Main-thread open spans visible to other threads (deeper ones are not). */
constexpr int kMainDepth = 64;

} // namespace

struct ThreadLog
{
    int64_t thread = 0;
    std::vector<Span> spans;
    std::vector<int64_t> open; ///< ids of open spans, innermost last
    std::vector<Counter> counters;
};

namespace
{

struct Registry
{
    std::mutex mutex; ///< guards logs, counterNames, probes
    std::vector<std::unique_ptr<ThreadLog>> logs;
    std::vector<const char *> counterNames;
    std::vector<const char *> probes;

    /** The main thread's open-span stack, mirrored for fork parents. */
    std::atomic<ThreadLog *> main{nullptr};
    std::atomic<int> mainDepth{0};
    std::atomic<int64_t> mainIds[kMainDepth] = {};
    std::atomic<const char *> mainNames[kMainDepth] = {};
};

Registry &
registry()
{
    static Registry r;
    return r;
}

ThreadLog &
threadLog()
{
    thread_local ThreadLog *log = [] {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.logs.push_back(std::make_unique<ThreadLog>());
        r.logs.back()->thread = int64_t(r.logs.size() - 1);
        return r.logs.back().get();
    }();
    return *log;
}

/**
 * Parent of a span @p name opened on a thread with nothing open: the
 * innermost main-thread span below the first open span of the same
 * name. The pool's submitting thread runs loop bodies too, so while a
 * worker starts a cell the main thread may be inside a sibling cell;
 * stopping at the first same-named span skips that sibling and lands
 * on the fork point (the grid or batch that submitted both).
 */
int64_t
forkParent(Registry &r, const char *name)
{
    const int depth =
        std::min(r.mainDepth.load(std::memory_order_acquire), kMainDepth);
    int64_t parent = -1;
    for (int i = 0; i < depth; ++i) {
        const char *open = r.mainNames[i].load(std::memory_order_relaxed);
        if (open == nullptr || std::strcmp(open, name) == 0)
            break;
        parent = r.mainIds[i].load(std::memory_order_relaxed);
    }
    return parent;
}

} // namespace

SpanScope::SpanScope(const char *name, uint64_t arg)
    : log_(&threadLog()), index_(log_->spans.size())
{
    Registry &r = registry();
    const bool main = r.main.load(std::memory_order_relaxed) == log_;
    const int64_t parent = !log_->open.empty() ? log_->open.back()
                           : main              ? -1
                                               : forkParent(r, name);
    log_->spans.push_back({name, parent, nowNs(), 0, arg});
    const int64_t id = (log_->thread << kThreadShift) | int64_t(index_);
    if (main) {
        const size_t depth = log_->open.size();
        if (depth < size_t(kMainDepth)) {
            r.mainIds[depth].store(id, std::memory_order_relaxed);
            r.mainNames[depth].store(name, std::memory_order_relaxed);
        }
        r.mainDepth.store(int(depth + 1), std::memory_order_release);
    }
    log_->open.push_back(id);
}

SpanScope::~SpanScope()
{
    log_->spans[index_].end = nowNs();
    log_->open.pop_back();
    Registry &r = registry();
    if (r.main.load(std::memory_order_relaxed) == log_)
        r.mainDepth.store(int(log_->open.size()), std::memory_order_release);
}

void
SpanScope::setArg(uint64_t arg)
{
    log_->spans[index_].arg = arg;
}

int
registerCounter(const char *name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.counterNames.push_back(name);
    return int(r.counterNames.size() - 1);
}

CountScope::CountScope(int slot) : slot_(slot), start_(nowNs()) {}

CountScope::~CountScope()
{
    const int64_t end = nowNs();
    ThreadLog &log = threadLog();
    if (log.counters.size() <= size_t(slot_))
        log.counters.resize(size_t(slot_) + 1);
    ++log.counters[size_t(slot_)].calls;
    log.counters[size_t(slot_)].ns += end - start_;
}

void
markMainThread()
{
    registry().main.store(&threadLog(), std::memory_order_relaxed);
}

int
registerProbe(const char *probe)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.probes.push_back(probe);
    return int(r.probes.size() - 1);
}

void
writeSpanLog(std::FILE *out)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::fprintf(out, "# perfbench span log v1\n");
    for (const char *probe : r.probes)
        std::fprintf(out, "P %s\n", probe);
    for (const auto &log : r.logs) {
        for (size_t i = 0; i < log->spans.size(); ++i) {
            const Span &s = log->spans[i];
            std::fprintf(out, "S %lld %lld %lld %lld %lld %llu %s\n",
                         (long long)((log->thread << kThreadShift) |
                                     int64_t(i)),
                         (long long)s.parent, (long long)log->thread,
                         (long long)s.start, (long long)s.end,
                         (unsigned long long)s.arg, s.name);
        }
        for (size_t slot = 0; slot < log->counters.size(); ++slot) {
            const Counter &c = log->counters[slot];
            if (c.calls != 0)
                std::fprintf(out, "C %lld %llu %lld %s\n",
                             (long long)log->thread,
                             (unsigned long long)c.calls, (long long)c.ns,
                             r.counterNames[slot]);
        }
    }
}

} // namespace perfbench
