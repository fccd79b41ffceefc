/**
 * @file
 * service_mix: a closed loop of one client waiting on each reply from
 * an in-process ExperimentServer over loopback TCP, as the search
 * oracle, sweeps and fleet do.  A seeded request sequence, shaped like
 * a search's sessions, interleaves exact repeats of a primed set
 * (result-cache reads) with fresh misses (result-cache writes) of every
 * executing kind: MeasurePower, EnergyRun, PlacedRun with duty steps,
 * sampled EnergyRun, and Sweep requests whose prefix image is already
 * cached (the checkpoint fork).
 *
 * Also the HitProbe the sweep workloads run after their timed phase.
 */

#include <algorithm>
#include <array>
#include <cmath>

#include <malloc.h>

#include "bench.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "workloads/microbenchmarks.hh"

namespace perfbench
{

using namespace piton;
using namespace piton::service;

namespace
{

/** Scheduler workers; with the I/O thread and the one client, the
 *  service stays within 3 threads. */
constexpr unsigned kSchedulerThreads = 1;

/** splitmix64: the benchmark's own seeded stream, so request
 *  parameters do not depend on any simulator RNG. */
class Stream
{
  public:
    explicit Stream(std::uint64_t seed) : s_(seed) {}
    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    std::uint32_t below(std::uint32_t n) { return next() % n; }
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

  private:
    std::uint64_t s_;
};

ExperimentRequest
powerRequest(workloads::Microbench bench, std::uint32_t cores,
             std::uint32_t tpc, std::uint64_t seed)
{
    ExperimentRequest r;
    r.kind = Kind::MeasurePower;
    r.workload.bench = static_cast<std::uint16_t>(bench);
    r.workload.cores = cores;
    r.workload.threadsPerCore = tpc;
    r.workload.totalElements = 256;
    r.samples = 8;
    r.warmupCycles = 4000;
    r.seed = seed;
    return r;
}

ExperimentRequest
energyRequest(workloads::Microbench bench, std::uint32_t cores,
              std::uint32_t tpc, std::uint64_t iterations, std::uint64_t seed)
{
    ExperimentRequest r;
    r.kind = Kind::EnergyRun;
    r.workload.bench = static_cast<std::uint16_t>(bench);
    r.workload.cores = cores;
    r.workload.threadsPerCore = tpc;
    r.workload.iterations = iterations;
    r.workload.totalElements = 256;
    r.maxCycles = 50'000'000;
    r.seed = seed;
    return r;
}

/** Three distinct tiles at seeded PLL duty steps. */
ExperimentRequest
placedRequest(Stream &rng, std::uint64_t seed)
{
    ExperimentRequest r =
        energyRequest(workloads::Microbench::Int, 3, 1, 300, seed);
    r.kind = Kind::PlacedRun;
    while (r.placement.size() < 3) {
        const auto t = static_cast<std::uint16_t>(rng.below(25));
        if (std::find(r.placement.begin(), r.placement.end(), t)
            == r.placement.end())
            r.placement.push_back(t);
    }
    // Duty numerators on the PLL grid; canonicalize clamps to [1, den].
    for (std::size_t i = 0; i < r.placement.size(); ++i)
        r.tileFreqSteps.push_back(
            static_cast<std::uint16_t>(1 + rng.below(12)));
    return r;
}

ExperimentRequest
sampledRequest(std::uint64_t seed)
{
    ExperimentRequest r =
        energyRequest(workloads::Microbench::Int, 2, 1, 120, seed);
    r.sampledSlices = 2;
    r.sampledIntervalInsns = 8000;
    return r;
}

/** A Sweep sharing prefix `prefix` (workload, operating point, seed and
 *  warm-up) with the primed sweeps; only the tails differ. */
ExperimentRequest
sweepOnPrefix(std::uint32_t prefix, std::uint64_t base_seed,
              std::vector<SweepTail> tails)
{
    ExperimentRequest r;
    r.kind = Kind::Sweep;
    r.workload.bench = static_cast<std::uint16_t>(
        prefix ? workloads::Microbench::HP : workloads::Microbench::Int);
    r.workload.cores = 4;
    r.workload.threadsPerCore = 1;
    r.warmupCycles = 16 * r.cyclesPerSample;
    r.seed = base_seed + prefix;
    r.tails = std::move(tails);
    return r;
}

/** Fig. 9's paper anchors (bench_fig9): fmax at 0.8 V and 1.0 V. */
constexpr std::array<double, 2> kFig9Vdd = {0.8, 1.0};
constexpr std::array<double, 2> kFig9PaperMhz = {285.74, 514.33};

/** The primed repeat set: small power and energy requests, the Fig. 9
 *  V-f curve, and one Sweep on each cached prefix. */
std::vector<ExperimentRequest>
repeatSet(std::uint64_t seed, Size size)
{
    Stream rng(seed ^ 0x5e7);
    std::vector<ExperimentRequest> out;
    const std::uint32_t n_power = size == Size::Full ? 8 : 2;
    // One draw per statement: argument evaluation order is unspecified.
    for (std::uint32_t i = 0; i < n_power + 2; ++i) {
        const auto bench = rng.below(2) ? workloads::Microbench::HP
                                        : workloads::Microbench::Int;
        const std::uint32_t cores = 1 + rng.below(4);
        const std::uint32_t tpc = 1 + rng.below(2);
        const std::uint64_t iterations = 200 + rng.below(200);
        const std::uint64_t s = rng.next();
        out.push_back(i < n_power
                          ? powerRequest(bench, cores, tpc, s)
                          : energyRequest(bench, cores, tpc, iterations, s));
    }
    ExperimentRequest vf;
    vf.kind = Kind::VfCurve;
    vf.voltages.assign(kFig9Vdd.begin(), kFig9Vdd.end());
    out.push_back(vf);
    for (std::uint32_t p = 0; p < 2; ++p)
        out.push_back(sweepOnPrefix(p, seed, {{1.0, 4}}));
    return out;
}

double
meanMs(const std::map<std::string, LayerTime> &lt, const std::string &name)
{
    const auto it = lt.find(name);
    return it == lt.end() || it->second.calls == 0
               ? 0.0
               : it->second.busyMs / static_cast<double>(it->second.calls);
}

} // namespace

/**
 * One loopback server with its client connection and primed repeat
 * set: the state both the HitProbe and service_mix start their timed
 * phase from.
 */
struct HitProbe::Impl
{
    Size size;
    std::unique_ptr<ExperimentServer> server;
    std::unique_ptr<TcpClient> tcp;
    std::unique_ptr<LocalClient> local;
    std::vector<ExperimentRequest> repeats;
    std::vector<std::vector<std::uint8_t>> coldBodies;
    std::uint64_t primeFailures = 0;
    /** Most requests the scheduler held (queued or running), read right
     *  after each miss's submit over this server's lifetime. */
    std::size_t queueDepthMax = 0;

    explicit Impl(Size s) : size(s) {}

    void
    start(std::uint64_t seed)
    {
        ServerConfig cfg;
        cfg.port = 0;
        cfg.workerId = "perfbench";
        cfg.scheduler.threads = kSchedulerThreads;
        // One closed-loop client keeps at most one request pending; the
        // second slot absorbs the hand-off between a reply and the next
        // submit.  A third pipelined request is shed.
        cfg.scheduler.maxPending = 2;
        cfg.scheduler.queueCapacity = 4;
        server = std::make_unique<ExperimentServer>(cfg);
        server->start();
        tcp = std::make_unique<TcpClient>(server->port());
        local = std::make_unique<LocalClient>(server->scheduler());

        repeats = repeatSet(seed, size);
        coldBodies.clear();
        primeFailures = 0;
        queueDepthMax = 0;
        for (const ExperimentRequest &r : repeats) {
            const ClientResult res = miss(r);
            primeFailures += res.status == Status::Ok ? 0 : 1;
            coldBodies.push_back(res.body);
        }
    }

    void
    stop()
    {
        local.reset();
        tcp.reset();
        if (server)
            server->stop();
        server.reset();
    }

    /** A request the simulator has to compute, over TCP.  The
     *  scheduler's queue depth is read while it is in flight; a hit is
     *  too short for that read not to dominate its latency. */
    ClientResult
    miss(const ExperimentRequest &req)
    {
        const std::uint64_t id = tcp->submit(req);
        readQueueDepth();
        return tcp->waitFor(id);
    }

    /** The scheduler's queue depth once the server has admitted what
     *  was just sent: polled until non-zero, for at most 0.2 ms (a
     *  request shed or already finished leaves it at 0). */
    void
    readQueueDepth()
    {
        const Clock::time_point t0 = Clock::now();
        std::size_t depth = 0;
        do
            depth = server->scheduler().metrics().queueDepth;
        while (depth == 0 && secondsSince(t0) < 2e-4);
        queueDepthMax = std::max(queueDepthMax, depth);
    }

    /** One repeat over TCP; a hit must come from the cache with the
     *  cold body's bytes. */
    void
    hit(std::size_t r, std::uint64_t item, Tracer &tr, PassResult &out)
    {
        ClientResult res;
        const Clock::time_point t0 = Clock::now();
        {
            Tracer::Scope s(tr, "service.hit", item);
            res = tcp->run(repeats[r]);
        }
        out.hitUs.push_back(secondsSince(t0) * 1e6);
        ++out.attempted;
        out.failed += res.status == Status::Ok && res.servedFromCache
                              && res.body == coldBodies[r]
                          ? 0
                          : 1;
    }

    /**
     * After the timed phase: the same hits again through a LocalClient
     * on the same scheduler.  Each body must equal the cold body, which
     * every TCP hit already matched, so TCP and in-process bodies agree.
     * Traced passes also time the per-hit steps a client can call
     * itself.  Returns the span the replay ran under.
     */
    std::uint64_t
    replayLocal(const std::vector<std::size_t> &hits, Tracer &tr,
                PassResult &out)
    {
        Tracer::Scope root(tr, "local_replay");
        for (std::size_t i = 0; i < hits.size(); ++i) {
            const ExperimentRequest &req = repeats[hits[i]];
            ClientResult res;
            {
                Tracer::Scope s(tr, "service.hit_local", i + 1);
                res = local->run(req);
            }
            ++out.attempted;
            out.failed += res.status == Status::Ok && res.servedFromCache
                                  && res.body == coldBodies[hits[i]]
                              ? 0
                              : 1;
            if (!tr.enabled())
                continue;
            ExperimentRequest canon = req;
            {
                Tracer::Scope s(tr, "service.canonicalize", i + 1);
                canon.canonicalize();
            }
            {
                Tracer::Scope s(tr, "service.cache_key", i + 1);
                (void)canon.cacheKey();
            }
            {
                Tracer::Scope s(tr, "service.decode", i + 1);
                (void)ExperimentResponse::decodeBody(res.body);
            }
        }
        return root.id();
    }

    /** Scheduler and cache counters of this server's lifetime. */
    void
    collect(Tracer &tr, PassResult &out) const
    {
        out.attempted += repeats.size();
        out.failed += primeFailures;
        for (std::size_t i = 0; i < coldBodies.size(); ++i)
            out.digest.bytes(coldBodies[i].data(), coldBodies[i].size());
        if (!tr.enabled())
            return;
        const SchedulerMetrics m = server->scheduler().metrics();
        const auto ratio = [](const CacheStats &c) {
            const double n = static_cast<double>(c.hits + c.misses);
            return n > 0.0 ? static_cast<double>(c.hits) / n : 0.0;
        };
        out.layer["service.sched_p50_ms"] = m.latencyP50Ms;
        out.layer["service.sched_p99_ms"] = m.latencyP99Ms;
        out.layer["service.result_hit_ratio"] = ratio(m.resultCache);
        out.layer["service.prefix_hit_ratio"] = ratio(m.prefixCache);
        out.layer["service.coalesced"] =
            static_cast<double>(m.resultCache.coalesced);
        out.layer["service.evictions"] =
            static_cast<double>(m.resultCache.evictions);
        out.layer["service.shed"] = static_cast<double>(m.shed);
        out.layer["service.errors"] = static_cast<double>(m.errors);
        out.layer["service.deadline_expired"] =
            static_cast<double>(m.deadlineExpired);
        out.layer["service.queue_depth_max"] =
            static_cast<double>(queueDepthMax);
    }

    /** Per-hit means (µs): TCP hits from the timed spans, the local
     *  replay and the per-hit steps from the replay's spans. */
    static void
    hitLayers(const std::map<std::string, LayerTime> &timed,
              const std::map<std::string, LayerTime> &replay,
              PassResult &out)
    {
        const double hit = meanMs(timed, "service.hit") * 1e3;
        const double local = meanMs(replay, "service.hit_local") * 1e3;
        out.layer["service.hit_us"] = hit;
        out.layer["service.hit_local_us"] = local;
        out.layer["service.wire_us"] = hit - local;
        out.layer["service.canonicalize_us"] =
            meanMs(replay, "service.canonicalize") * 1e3;
        out.layer["service.cache_key_us"] =
            meanMs(replay, "service.cache_key") * 1e3;
        out.layer["service.decode_us"] =
            meanMs(replay, "service.decode") * 1e3;
    }
};

HitProbe::HitProbe(Size size) : impl_(std::make_unique<Impl>(size)) {}
HitProbe::~HitProbe() { impl_->stop(); }

void
HitProbe::start()
{
    // Fixed inputs: the probe is the same on every pass and seed.
    impl_->start(0x9e37);
}

void
HitProbe::run(std::uint64_t seed, Tracer &tr, PassResult &out)
{
    Stream rng(seed ^ 0x4b17);
    const std::size_t n = impl_->size == Size::Full ? 1000 : 20;
    std::vector<std::size_t> hits;
    for (std::size_t i = 0; i < n; ++i)
        hits.push_back(rng.below(
            static_cast<std::uint32_t>(impl_->repeats.size())));
    std::uint64_t root = 0;
    {
        Tracer::Scope probe(tr, "probe");
        root = probe.id();
        for (std::size_t i = 0; i < n; ++i)
            impl_->hit(hits[i], i + 1, tr, out);
    }
    const std::uint64_t replay = impl_->replayLocal(hits, tr, out);
    impl_->collect(tr, out);
    if (tr.enabled())
        Impl::hitLayers(tr.layerTimes(root), tr.layerTimes(replay), out);
}

void
HitProbe::stop()
{
    impl_->stop();
}

namespace
{

const char *const kMissSpan[] = {"service.miss.power", "service.miss.energy",
                                 "service.miss.placed",
                                 "service.miss.sampled",
                                 "service.miss.sweep"};
constexpr std::size_t kMissKinds = 5;

/**
 * One search session's traffic, as measured on bench_search's GA
 * engine searching the oracle its random and SA engines filled
 * (seeds 1-8, 24 calls each; see BENCHMARK.md): the founding
 * population, 6 revisits in a row, then the later generations' misses
 * with about one revisit among them.  7 of 24 requests are repeats;
 * the GA measured 6-8 (25-33 %).
 */
constexpr std::size_t kBurstHits = 6;
constexpr std::size_t kSessionMisses = 17;

class ServiceMix : public Workload
{
  public:
    ServiceMix(Size size, bool inject_faults)
        : size_(size), injectFaults_(inject_faults), svc_(size)
    {
    }

    void setup(std::uint64_t seed) override { svc_.start(seed); }
    void teardown() override { svc_.stop(); }

    std::map<std::string, unsigned> threads() const override
    {
        return {{"clients", 1},
                {"scheduler_threads", kSchedulerThreads},
                {"server_io_threads", 1}};
    }

    PassResult
    run(std::uint64_t seed, Tracer &tr) override
    {
        // Fixed shares: every miss kind equally often, in sessions of
        // kBurstHits repeats, then kSessionMisses misses with one more
        // repeat after a seeded number of them.
        const std::size_t sessions = size_ == Size::Full ? 5 : 1;
        const std::size_t session_misses =
            size_ == Size::Full ? kSessionMisses : kMissKinds;

        struct Item
        {
            int kind; ///< miss kind, or -1 for a repeat
            std::size_t repeat = 0;
            ExperimentRequest req;
        };
        Stream rng(seed);
        std::vector<Item> misses;
        for (std::size_t i = 0; i < sessions * session_misses; ++i) {
            const int kind = static_cast<int>(i % kMissKinds);
            const std::uint64_t s = rng.next();
            ExperimentRequest req;
            switch (kind) {
              case 0:
                req = powerRequest(workloads::Microbench::Int, 4, 2, s);
                req.samples = 4;
                break;
              case 1:
                req = energyRequest(workloads::Microbench::Int, 2, 1, 300, s);
                break;
              case 2: req = placedRequest(rng, s); break;
              case 3: req = sampledRequest(s); break;
              default: {
                const std::uint32_t prefix = rng.below(2);
                req = sweepOnPrefix(prefix, seed,
                                    {{0.05 + 0.9 * rng.unit(), 2}});
                break;
              }
            }
            misses.push_back({kind, 0, std::move(req)});
        }
        for (std::size_t i = misses.size(); i > 1; --i)
            std::swap(misses[i - 1],
                      misses[rng.below(static_cast<std::uint32_t>(i))]);

        const auto n_rep = static_cast<std::uint32_t>(svc_.repeats.size());
        std::vector<Item> seq;
        for (std::size_t k = 0; k < sessions; ++k) {
            for (std::size_t i = 0; i < kBurstHits; ++i)
                seq.push_back({-1, rng.below(n_rep), {}});
            const std::size_t lone =
                1 + rng.below(static_cast<std::uint32_t>(session_misses));
            for (std::size_t i = 0; i < session_misses; ++i) {
                seq.push_back(std::move(misses[k * session_misses + i]));
                if (i + 1 == lone)
                    seq.push_back({-1, rng.below(n_rep), {}});
            }
        }

        PassResult out;
        std::vector<std::size_t> hits;
        const Clock::time_point t0 = Clock::now();
        {
            Tracer::Scope pass(tr, "pass");
            out.rootSpan = pass.id();
            for (std::size_t i = 0; i < seq.size(); ++i) {
                if (seq[i].kind < 0) {
                    svc_.hit(seq[i].repeat, i + 1, tr, out);
                    hits.push_back(seq[i].repeat);
                    continue;
                }
                Tracer::Scope s(tr, kMissSpan[seq[i].kind], i + 1);
                const Clock::time_point m0 = Clock::now();
                const ClientResult res = svc_.miss(seq[i].req);
                out.missMs.push_back(secondsSince(m0) * 1e3);
                ++out.attempted;
                out.failed += res.status == Status::Ok && !res.servedFromCache
                                  ? 0
                                  : 1;
                out.digest.bytes(res.body.data(), res.body.size());
            }
            if (injectFaults_)
                faults(rng, out);
        }
        out.wallS = secondsSince(t0);
        const std::uint64_t replay = svc_.replayLocal(hits, tr, out);
        out.paperErrPct = fig9Error(out);
        svc_.collect(tr, out);
        if (tr.enabled()) {
            const auto lt = tr.layerTimes(out.rootSpan);
            HitProbe::Impl::hitLayers(lt, tr.layerTimes(replay), out);
            for (std::size_t k = 0; k < kMissKinds; ++k)
                out.layer[std::string("service.miss_ms.")
                          + (kMissSpan[k] + sizeof "service.miss." - 1)] =
                    meanMs(lt, kMissSpan[k]);
        }
        return out;
    }

  private:
    /** Fig. 9 fmax from the V-f curve the service returned. */
    double
    fig9Error(PassResult &out) const
    {
        for (std::size_t r = 0; r < svc_.repeats.size(); ++r) {
            if (svc_.repeats[r].kind != Kind::VfCurve)
                continue;
            const ExperimentResponse resp =
                ExperimentResponse::decodeBody(svc_.coldBodies[r]);
            if (resp.vfPoints.size() != kFig9Vdd.size()) {
                ++out.failed;
                return 0.0;
            }
            double sum = 0.0;
            for (std::size_t i = 0; i < kFig9Vdd.size(); ++i)
                sum += std::fabs(resp.vfPoints[i].fmaxMhz - kFig9PaperMhz[i])
                       / kFig9PaperMhz[i];
            return 100.0 * sum / static_cast<double>(kFig9Vdd.size());
        }
        return 0.0;
    }

    /** A malformed request (Error), a third pipelined request past the
     *  admission bound (Shed) and a deadline shorter than the run
     *  (DeadlineExpired).  Each must be counted as failed. */
    void
    faults(Stream &rng, PassResult &out)
    {
        const ExperimentRequest bad = energyRequest(
            workloads::Microbench::Int, 2, 1, /*iterations=*/0, rng.next());
        std::vector<ExperimentRequest> burst;
        for (int i = 0; i < 3; ++i)
            burst.push_back(sampledRequest(rng.next()));
        ExperimentRequest late = sampledRequest(rng.next());
        late.deadlineMs = 1;

        // The previous reply reaches the client before its admission
        // slot is released; wait for that, so exactly one is shed.
        svc_.server->scheduler().drain();
        std::vector<std::uint64_t> ids;
        for (const ExperimentRequest &r : burst)
            ids.push_back(svc_.tcp->submit(r));
        svc_.readQueueDepth();
        std::vector<ClientResult> results;
        for (const std::uint64_t id : ids)
            results.push_back(svc_.tcp->waitFor(id));
        results.push_back(svc_.tcp->run(bad));
        results.push_back(svc_.tcp->run(late));
        for (const ClientResult &r : results) {
            ++out.attempted;
            out.failed += r.status == Status::Ok ? 0 : 1;
        }
    }

    Size size_;
    bool injectFaults_;
    HitProbe::Impl svc_;
};

} // namespace

std::unique_ptr<Workload>
makeServiceMix(Size size, bool inject_faults)
{
    // Each pass restarts the server, and glibc hands the new I/O and
    // worker threads the exited threads' arenas in whatever order they
    // first allocate.  With several arenas, peak RSS then varied by a
    // third between runs; with one it varies by a few percent.
    mallopt(M_ARENA_MAX, 1);
    return std::make_unique<ServiceMix>(size, inject_faults);
}

} // namespace perfbench
