/**
 * @file
 * Shared pieces of the benchmark binary: arguments, the result record
 * every workload fills, small statistics helpers and the in-memory
 * span log of the traced runs.
 *
 * A workload run either measures the end-to-end metrics (untraced) or,
 * with --trace 1, runs the same work once untraced and once under
 * spans recorded here, around the benchmark's own calls into each src/
 * module. Nothing inside src/ is instrumented for the benchmark.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tensor/kernels.hh"

namespace perfbench {

/** Command-line arguments of one workload run. */
struct Args
{
    std::string workload;
    uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs: the self-test's "every metric at a toy size". */
    bool toy = false;
    /**
     * Self-test hook: name of one correctness check whose compared
     * value is deliberately corrupted, so the check must trip.
     */
    std::string corrupt;
    /** Trace Event Format output of a traced run ("" = none). */
    std::string traceOut;
    /** Provenance passed in by run.py (the binary cannot see git). */
    std::string gitSha = "unknown";
    std::string sourceSha = "unknown";
};

/** Default seed: the one the guard-trip check is pinned to. */
constexpr uint64_t kDefaultSeed = 42;

/**
 * Thread budget on a 4-core shared host. Every workload keeps the pool
 * inline (1 thread): training is then timed in on-CPU seconds of one
 * thread (CpuTimer), which a host preempting the virtual CPU does not
 * inflate, and on a virtual machine the pool's per-call hand-offs made
 * whole runs 2-3x slower at random. Serving runs kServeReaders readers
 * plus 1 writer.
 */
constexpr size_t kServeReaders = 2;
constexpr size_t kPoolThreads = 1;

/**
 * Stopwatch over the on-CPU time of the process (user + system, all
 * threads). With the pool inline it equals the wall time of the timed
 * code minus the time its thread was not running: preempted by the
 * host (steal) or waiting behind other processes.
 */
class CpuTimer
{
  public:
    CpuTimer() { reset(); }
    void reset() { start_ = now(); }
    double seconds() const { return now() - start_; }
    double milliseconds() const { return seconds() * 1e3; }

  private:
    static double now();
    double start_ = 0.0;
};

/**
 * Set-up is repeated and its median reported: at least kMinSetups
 * times, more while less than kSetupBudgetS has passed.
 */
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 2.0;

inline bool
moreSetups(int done, double elapsed_s)
{
    return done < kMinSetups ||
           (done < kMaxSetups && elapsed_s < kSetupBudgetS);
}

/** True when the self-test asked to corrupt `check`. */
bool corrupting(const Args &a, const char *check);

/** Metrics, counts and correctness verdict of one run. */
class Result
{
  public:
    /** Record one metric; printed in the final JSON object. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Record a correctness check; a failed check fails the run. */
    void check(bool ok, const std::string &what);

    bool correct() const { return failures_.empty(); }

    /** Human-readable line printed before the final JSON object. */
    void note(const std::string &line);

    /** The final line: {"correct", "attempted", "failed", "metrics"}. */
    std::string json() const;

    uint64_t attempted = 0;
    uint64_t failed = 0;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> failures_;
};

/** printf into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

double median(std::vector<double> v);

/** Linear-interpolated quantile q in [0, 1] of an unsorted sample. */
double quantile(std::vector<double> v, double q);

/** Peak resident set of this process so far (getrusage), in MiB. */
double peakRssMb();

/** Bit-for-bit equality of two doubles (NaN payloads included). */
bool sameBits(double a, double b);

/** GEMM and buffer-pool counters accumulated between two readings. */
cascade::kernels::KernelStats
kernelDelta(const cascade::kernels::KernelStats &before,
            const cascade::kernels::KernelStats &after);

/**
 * In-memory span log of one thread: name, start, end, parent span and
 * batch id per span. Not thread-safe; give each thread its own log
 * and share the epoch so their times line up.
 */
class SpanLog
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Span
    {
        const char *name = nullptr; ///< "<layer>.<call>"; static string
        double start = 0.0;         ///< seconds since the shared epoch
        double end = 0.0;
        int parent = -1;            ///< index in this log, -1 = root
        int64_t batch = -1;         ///< batch id (-1 = none)
    };

    SpanLog(Clock::time_point epoch, int tid) : epoch_(epoch), tid_(tid)
    {}

    /** RAII span around one call. */
    class Scope
    {
      public:
        Scope(SpanLog *log, const char *name, int64_t batch = -1)
            : log_(log), idx_(log ? log->open(name, batch) : 0)
        {}
        ~Scope()
        {
            if (log_)
                log_->close(idx_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        size_t idx_;
    };

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_)
            .count();
    }

    const std::vector<Span> &spans() const { return spans_; }
    int tid() const { return tid_; }

    /**
     * Self seconds per span name: each span's duration minus the part
     * its direct children cover.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Durations (seconds) of every span called `name`. */
    std::vector<double> durations(const char *name) const;

  private:
    size_t open(const char *name, int64_t batch);
    void close(size_t idx);

    Clock::time_point epoch_;
    int tid_;
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

/** Run `fn` inside a span (no span when `log` is null). */
template <class Fn>
decltype(auto)
traced(SpanLog *log, const char *name, int64_t batch, Fn &&fn)
{
    SpanLog::Scope scope(log, name, batch);
    return fn();
}

/**
 * Write the spans of several thread logs as one Trace Event Format
 * file (the format of --trace-out; chrome://tracing and Perfetto open
 * it). The category of a span is its layer, the name's prefix.
 */
bool writeTraceEvents(const std::string &path,
                      const std::vector<const SpanLog *> &logs);

/** The layer of a span name: everything before the first '.'. */
std::string layerOf(const std::string &name);

/** Run one workload; fills `res`. */
void runTrainWorkload(const Args &a, Result &res);
void runServeWorkload(const Args &a, Result &res);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
