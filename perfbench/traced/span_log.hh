/**
 * @file
 * In-memory span log of the traced tdc_run harness. Wrappers open a
 * SpanScope (one record per call: name, start, end, thread, parent,
 * one integer attribute) or a CountScope (per-thread call count and
 * busy time, for functions called millions of times). Nothing is
 * written until writeSpanLog() runs at exit.
 *
 * Parents: a span's parent is the innermost open span of its own
 * thread; a span opened on a thread with nothing open (a worker of the
 * common/parallel pool) takes the main thread's span that submitted
 * the parallel region (see forkParent in span_log.cc).
 */

#ifndef PERFBENCH_TRACED_SPAN_LOG_HH
#define PERFBENCH_TRACED_SPAN_LOG_HH

#include <cstdint>
#include <cstdio>

namespace perfbench
{

struct ThreadLog;

/** Records one span from construction to destruction. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, uint64_t arg = 0);
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Set the span's integer attribute (e.g. a count the result holds). */
    void setArg(uint64_t arg);

  private:
    ThreadLog *log_;
    uint64_t index_;
};

/** A counter slot: one per counted function, registered once. */
int registerCounter(const char *name);

/** Adds one call and its duration to a counter slot of this thread. */
class CountScope
{
  public:
    explicit CountScope(int slot);
    ~CountScope();
    CountScope(const CountScope &) = delete;
    CountScope &operator=(const CountScope &) = delete;

  private:
    int slot_;
    int64_t start_;
};

/** Mark the calling thread as the run's main thread. */
void markMainThread();

/** Note that the wrapper for @p probe was compiled in. */
int registerProbe(const char *probe);

/**
 * Write every thread's spans and counters plus the compiled-in probe
 * list to @p out. Call once, after all traced work has returned.
 */
void writeSpanLog(std::FILE *out);

} // namespace perfbench

#endif // PERFBENCH_TRACED_SPAN_LOG_HH
