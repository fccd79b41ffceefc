/**
 * @file
 * The benchmark's span recorder and small measurement helpers.
 *
 * Spans are recorded by the benchmark around its own calls into the
 * simulator's public API (no simulator code is instrumented).  Each
 * span has a name, start/end on the steady clock, the span that caused
 * it (the enclosing span on the same thread, or an explicit parent for
 * work fanned out to other threads) and the sweep point or request id
 * it belongs to.  Spans stay in memory while the benchmark runs and are
 * written as JSONL at exit.  Recording is off unless enabled, and a
 * disabled Scope costs one branch.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

struct Span
{
    const char *name = "";
    std::int64_t startNs = 0; ///< since the tracer's epoch
    std::int64_t endNs = 0;
    std::uint64_t id = 0;     ///< 1-based; 0 = no span
    std::uint64_t parent = 0;
    std::uint64_t item = 0;   ///< sweep point or request id
};

/** Busy and self time of one span name over a set of spans. */
struct LayerTime
{
    double busyMs = 0.0; ///< sum of span durations
    double selfMs = 0.0; ///< busy minus the time child spans cover
    std::uint64_t calls = 0;
};

class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** RAII span.  The parent is the innermost open Scope on this
     *  thread unless `parent` is given (fan-out to a worker thread). */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, std::uint64_t item = 0,
              std::uint64_t parent = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        std::uint64_t id() const { return span_.id; }

      private:
        Tracer *tracer_;
        Span span_;
        std::uint64_t savedParent_ = 0;
        std::uint64_t savedItem_ = 0;
    };

    /** Every span recorded so far, in completion order. */
    std::vector<Span> spans() const;

    /** Busy/self time per span name over the spans whose root (the
     *  outermost ancestor) is `root`.  Self time subtracts the union of
     *  the children's intervals, so parallel children are not counted
     *  twice. */
    std::map<std::string, LayerTime> layerTimes(std::uint64_t root) const;

    /** Append every recorded span as one JSON object per line. */
    bool writeJsonl(const std::string &path, const std::string &tag) const;

  private:
    std::int64_t nowNs() const;

    bool enabled_ = false;
    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< guarded by mutex_
    std::uint64_t nextId_ = 1; ///< guarded by mutex_
};

/** Nearest-rank percentile (p in [0, 1]); 0 for an empty sample. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** Streaming 64-bit FNV-1a over the simulated results of a pass. */
class Digest
{
  public:
    Digest &bytes(const void *data, std::size_t len);
    Digest &u64(std::uint64_t v) { return bytes(&v, sizeof v); }
    /** Raw IEEE-754 bit pattern: a speed-only change must leave every
     *  simulated double bit-identical. */
    Digest &f64(double v) { return bytes(&v, sizeof v); }
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
