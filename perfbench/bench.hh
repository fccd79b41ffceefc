/**
 * @file
 * Shared types of the benchmark program: what one pass of a workload
 * reports, and the workload interface main.cc drives.
 *
 * A run of the benchmark is a sequence of passes.  Each pass sets the
 * workload up from scratch (timed as set-up), runs the workload's fixed
 * work once (timed as wall time) and checks its outputs; the reported
 * times are medians over passes.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "trace.hh"

namespace perfbench
{

/** Full size for measurement; tiny for the benchmark's own tests. */
enum class Size
{
    Full,
    Tiny,
};

/** Simulated statistics summed over the Systems of a pass.  These are
 *  simulated, not host, quantities: a speed-only change must leave
 *  every one identical, so all of them feed the pass digest. */
struct SimCounters
{
    std::uint64_t systems = 0;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t rounds = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t atomics = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2LocalHits = 0;
    std::uint64_t l2RemoteHits = 0;
    std::uint64_t offchipMisses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t nocPackets = 0;
    std::uint64_t flitHops = 0;
    double onchipJ = 0.0;

    /** Read one System's chip counters (call after its run). */
    static SimCounters of(piton::sim::System &sys);
    void add(const SimCounters &o);
    void fold(Digest &d) const;
};

/** What one pass reports.  Latencies are per result: a `miss` is a
 *  result the simulator had to compute (a sweep point, a service cache
 *  miss), a `hit` one the service answered from its result cache. */
struct PassResult
{
    double wallS = 0.0;
    std::vector<double> missMs;
    std::vector<double> hitUs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Digest of the pass's simulated results and response bodies. */
    Digest digest;
    /** Mean absolute relative deviation from the paper, percent. */
    double paperErrPct = 0.0;
    SimCounters sim;
    /** Span id of the timed phase (0 when untraced). */
    std::uint64_t rootSpan = 0;
    /** Per-layer values the workload measures itself (traced passes). */
    std::map<std::string, double> layer;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the state the timed phase starts from (timed as setup). */
    virtual void setup(std::uint64_t seed) = 0;
    /** Run the fixed work once and check it; teardown() follows. */
    virtual PassResult run(std::uint64_t seed, Tracer &tr) = 0;
    virtual void teardown() = 0;
    /** Thread counts the workload uses, for the provenance record. */
    virtual std::map<std::string, unsigned> threads() const = 0;
};

/** Threads the sweeps fan their points out over (common/parallel). */
unsigned sweepWorkers();

std::unique_ptr<Workload> makeSteadySweep(Size size);
std::unique_ptr<Workload> makeMemoryStall(Size size);
/** `inject_faults` adds a malformed request, a shed request and an
 *  expired deadline to the sequence (the benchmark's own tests). */
std::unique_ptr<Workload> makeServiceMix(Size size, bool inject_faults);

/**
 * The service hit path, measured after a sweep's timed phase: a
 * loopback server primed at set-up with a fixed set of small requests,
 * then `hits` repeats of them from one closed-loop TCP client.  The
 * sweeps' timed phase never touches the service, so an engine change
 * predicts no change here.
 */
class HitProbe
{
  public:
    explicit HitProbe(Size size);
    ~HitProbe();
    HitProbe(const HitProbe &) = delete;
    HitProbe &operator=(const HitProbe &) = delete;

    void start();
    void run(std::uint64_t seed, Tracer &tr, PassResult &out);
    void stop();

    /** The primed server and client, shared with service_mix. */
    struct Impl;

  private:
    std::unique_ptr<Impl> impl_;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
