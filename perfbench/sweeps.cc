/**
 * @file
 * The two sweep workloads: steady_sweep (Fig. 13 shape, System::measure
 * on steady-state loops) and memory_stall (Table VII ldx streams under
 * System::measure plus Fig. 14 Hist runs under runToCompletion).  Each
 * point is a fresh sim::System; points fan out over a fixed number of
 * workers with common/parallel's parallelFor, and every result lands
 * in its own slot, so the pass digest does not depend on scheduling.
 */

#include <algorithm>
#include <cmath>
#include <thread>

#include "bench.hh"
#include "common/parallel.hh"
#include "core/equations.hh"
#include "core/scaling_experiments.hh"
#include "workloads/memory_tests.hh"
#include "workloads/microbenchmarks.hh"

namespace perfbench
{

using namespace piton;

SimCounters
SimCounters::of(sim::System &sys)
{
    arch::PitonChip &chip = sys.pitonChip();
    const arch::MemStats &m = chip.memSystem().stats();
    const arch::NocStats &n = chip.memSystem().noc().stats();
    const power::RailEnergy &e = chip.ledger().total();
    SimCounters c;
    c.systems = 1;
    c.insts = chip.totalInsts();
    c.cycles = chip.now();
    c.rounds = chip.runAheadRounds();
    c.loads = m.loads;
    c.stores = m.stores;
    c.atomics = m.atomics;
    c.l1Hits = m.l1Hits;
    c.l2LocalHits = m.localL2Hits;
    c.l2RemoteHits = m.remoteL2Hits;
    c.offchipMisses = m.offChipMisses;
    c.invalidations = m.invalidationsSent;
    c.nocPackets = n.packets;
    c.flitHops = n.flitHops;
    c.onchipJ = e.get(power::Rail::Vdd) + e.get(power::Rail::Vcs);
    return c;
}

void
SimCounters::add(const SimCounters &o)
{
    systems += o.systems;
    insts += o.insts;
    cycles += o.cycles;
    rounds += o.rounds;
    loads += o.loads;
    stores += o.stores;
    atomics += o.atomics;
    l1Hits += o.l1Hits;
    l2LocalHits += o.l2LocalHits;
    l2RemoteHits += o.l2RemoteHits;
    offchipMisses += o.offchipMisses;
    invalidations += o.invalidations;
    nocPackets += o.nocPackets;
    flitHops += o.flitHops;
    onchipJ += o.onchipJ;
}

void
SimCounters::fold(Digest &d) const
{
    for (const std::uint64_t v :
         {systems, insts, cycles, rounds, loads, stores, atomics, l1Hits,
          l2LocalHits, l2RemoteHits, offchipMisses, invalidations,
          nocPackets, flitHops})
        d.u64(v);
    d.f64(onchipJ);
}

unsigned
sweepWorkers()
{
    // Fixed at 4 (the reference host's CPU count), never more threads
    // than the host has.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(4u, hw);
}

namespace
{

/** One sweep point's outputs, written into its own slot. */
struct PointOut
{
    double values[4] = {0.0, 0.0, 0.0, 0.0};
    bool ok = true;
    double latencyMs = 0.0;
    SimCounters sim;
};

/**
 * Shared skeleton: fan `n` points out over sweepWorkers(), each inside
 * a "point" span parented to the pass span, then fold the slots into
 * the pass result in index order.
 */
template <typename Fn>
std::vector<PointOut>
fanOut(std::size_t n, Tracer &tr, PassResult &out, Fn &&point)
{
    std::vector<PointOut> slots(n);
    const Clock::time_point t0 = Clock::now();
    {
        Tracer::Scope pass(tr, "pass");
        out.rootSpan = pass.id();
        const std::uint64_t root = pass.id();
        parallelFor(n, sweepWorkers(), [&](std::size_t i) {
            Tracer::Scope span(tr, "point", i + 1, root);
            const Clock::time_point p0 = Clock::now();
            point(i, slots[i]);
            slots[i].latencyMs = secondsSince(p0) * 1e3;
        });
    }
    out.wallS = secondsSince(t0);
    for (const PointOut &p : slots) {
        ++out.attempted;
        out.failed += p.ok ? 0 : 1;
        out.missMs.push_back(p.latencyMs);
        for (const double v : p.values)
            out.digest.f64(v);
        p.sim.fold(out.digest);
        out.sim.add(p.sim);
    }
    return slots;
}

double
meanAbsRelErrPct(const std::vector<double> &got,
                 const std::vector<double> &paper)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i)
        sum += std::fabs(got[i] - paper[i]) / std::fabs(paper[i]);
    return 100.0 * sum / static_cast<double>(got.size());
}

/** Both sweeps: the hit probe is set up and run around each pass. */
class SweepWorkload : public Workload
{
  public:
    explicit SweepWorkload(Size size) : probe_(size) {}

    void setup(std::uint64_t) override { probe_.start(); }
    void teardown() override { probe_.stop(); }

    std::map<std::string, unsigned> threads() const override
    {
        return {{"sweep_workers", sweepWorkers()},
                {"probe_clients", 1},
                {"probe_scheduler_threads", 1},
                {"probe_server_io_threads", 1}};
    }

  protected:
    HitProbe probe_;
};

// ---- steady_sweep ---------------------------------------------------

class SteadySweep : public SweepWorkload
{
  public:
    explicit SteadySweep(Size size) : SweepWorkload(size)
    {
        const bool full = size == Size::Full;
        // Fig. 13's Chip #3 and its Hist warm-up (PowerScalingExperiment).
        base_.chipId = 3;
        base_.warmupCycles = full ? 600'000 : 4000;
        samples_ = full ? 16 : 2;
        const std::vector<std::uint32_t> grid =
            full ? std::vector<std::uint32_t>{25, 13, 1}
                 : std::vector<std::uint32_t>{2, 1};
        // Largest core counts first, so the slowest points do not
        // start last and leave the other workers idle.  Three core
        // counts of six points each: the miss p50 and p90 ranks fall
        // inside the 13- and 25-core groups, not between two groups.
        for (const std::uint32_t c : grid)
            for (const auto b :
                 {workloads::Microbench::Int, workloads::Microbench::HP,
                  workloads::Microbench::Hist})
                for (const std::uint32_t tpc : {1u, 2u})
                    tasks_.push_back({b, tpc, c});
    }

    PassResult
    run(std::uint64_t seed, Tracer &tr) override
    {
        PassResult out;
        const auto slots = fanOut(
            tasks_.size(), tr, out, [&](std::size_t i, PointOut &p) {
                const Task &t = tasks_[i];
                sim::SystemOptions o = base_;
                o.seed = deriveTaskSeed(seed, i);
                std::unique_ptr<sim::System> sys;
                {
                    Tracer::Scope s(tr, "sim.construct");
                    sys = std::make_unique<sim::System>(o);
                }
                std::vector<isa::Program> programs;
                {
                    Tracer::Scope s(tr, "workloads.load");
                    programs = workloads::loadMicrobench(
                        *sys, t.bench, t.cores, t.tpc, /*iterations=*/0,
                        core::PowerScalingExperiment::kHistElements);
                }
                board::PowerMeasurement m;
                {
                    Tracer::Scope s(tr, "sim.measure");
                    m = sys->measure(samples_);
                }
                p.values[0] = m.onChipMeanW();
                p.values[1] = m.onChipStddevW();
                p.ok = std::isfinite(p.values[0]) && p.values[0] > 0.0;
                p.sim = SimCounters::of(*sys);
            });

        // Fig. 13 mW/core slopes against the paper's (bench_fig13).
        std::vector<core::PowerScalingPoint> points;
        for (std::size_t i = 0; i < tasks_.size(); ++i)
            points.push_back({tasks_[i].bench, tasks_[i].tpc,
                              tasks_[i].cores, slots[i].values[0],
                              slots[i].values[1]});
        std::vector<double> got, paper;
        for (const auto &tr_ : core::PowerScalingExperiment::trends(points)) {
            got.push_back(tr_.mwPerCore);
            paper.push_back(paperSlope(tr_.bench, tr_.threadsPerCore));
        }
        out.paperErrPct = meanAbsRelErrPct(got, paper);
        probe_.run(seed, tr, out);
        return out;
    }

  private:
    struct Task
    {
        workloads::Microbench bench;
        std::uint32_t tpc;
        std::uint32_t cores;
    };

    static double
    paperSlope(workloads::Microbench b, std::uint32_t tpc)
    {
        switch (b) {
          case workloads::Microbench::Int: return tpc == 1 ? 22.8 : 37.4;
          case workloads::Microbench::HP: return tpc == 1 ? 35.6 : 57.8;
          default: return tpc == 1 ? 14.5 : 14.4;
        }
    }

    sim::SystemOptions base_;
    std::uint32_t samples_ = 0;
    std::vector<Task> tasks_;
};

// ---- memory_stall ---------------------------------------------------

class MemoryStall : public SweepWorkload
{
  public:
    explicit MemoryStall(Size size) : SweepWorkload(size)
    {
        const bool full = size == Size::Full;
        samples_ = full ? 512 : 2;
        if (!full)
            t7Base_.warmupCycles = 2000;
        fig14Base_.chipId = 3; // MtVsMcExperiment's chip
        histElements_ = full ? 16384 : 256;
        histOuterIters_ = full ? 8 : 1;
        using workloads::MemoryScenario;
        // Slowest first (25 requesting tiles), as in steady_sweep.
        scenarios_ = {MemoryScenario::L1Hit, MemoryScenario::LocalL2Hit,
                      MemoryScenario::L2Miss, MemoryScenario::RemoteL2Hit4,
                      MemoryScenario::RemoteL2Hit8};
        if (!full)
            scenarios_ = {MemoryScenario::L2Miss, MemoryScenario::L1Hit};
        for (const std::uint32_t tpc : {1u, 2u})
            for (std::uint32_t th = full ? 24 : 2; th >= 2; th -= 2)
                histRuns_.push_back({tpc, th});
    }

    PassResult
    run(std::uint64_t seed, Tracer &tr) override
    {
        PassResult out;
        const std::size_t n_t7 = scenarios_.size();
        const auto slots = fanOut(
            n_t7 + histRuns_.size(), tr, out,
            [&](std::size_t i, PointOut &p) {
                if (i < n_t7)
                    tableVii(scenarios_[i], deriveTaskSeed(seed, i), tr, p);
                else
                    fig14Hist(histRuns_[i - n_t7], deriveTaskSeed(seed, i),
                              tr, p);
            });

        // Table VII mean LDX energy against the paper (bench_table7).
        static const double kPaperNj[] = {0.28646, 1.54, 1.87, 1.97, 308.7};
        std::vector<double> got, paper;
        for (std::size_t i = 0; i < n_t7; ++i) {
            got.push_back(slots[i].values[0]);
            paper.push_back(kPaperNj[static_cast<int>(scenarios_[i])]);
        }
        out.paperErrPct = meanAbsRelErrPct(got, paper);
        probe_.run(seed, tr, out);
        return out;
    }

  private:
    struct HistRun
    {
        std::uint32_t tpc;
        std::uint32_t threads;
    };

    /** MemoryEnergyExperiment's protocol: an idle reference System,
     *  then the scenario's ldx streams on every requesting tile. */
    void
    tableVii(workloads::MemoryScenario scenario, std::uint64_t seed,
             Tracer &tr, PointOut &p) const
    {
        using workloads::MemoryScenario;
        sim::SystemOptions o = t7Base_;
        o.seed = seed;
        const bool remote = scenario == MemoryScenario::RemoteL2Hit4
                            || scenario == MemoryScenario::RemoteL2Hit8;
        const std::uint32_t cores = remote ? 1 : 25;

        double p_idle = 0.0;
        {
            std::unique_ptr<sim::System> idle;
            {
                Tracer::Scope s(tr, "sim.construct");
                idle = std::make_unique<sim::System>(o);
            }
            Tracer::Scope s(tr, "sim.measure");
            p_idle = idle->measure(samples_).onChipMeanW();
            p.sim.add(SimCounters::of(*idle));
        }

        std::unique_ptr<sim::System> sys;
        {
            Tracer::Scope s(tr, "sim.construct");
            sys = std::make_unique<sim::System>(o);
        }
        std::vector<isa::Program> programs;
        {
            Tracer::Scope s(tr, "workloads.load");
            Rng rng(0x7E57 + static_cast<std::uint64_t>(scenario));
            programs.reserve(cores);
            for (TileId t = 0; t < cores; ++t) {
                const workloads::MemoryTestPlan plan =
                    workloads::makeMemoryTestPlan(scenario, t);
                workloads::initMemoryTestData(sys->pitonChip().memory(),
                                              plan, rng);
                programs.push_back(workloads::makeMemoryTestProgram(plan));
                sys->loadProgram(t, 0, &programs.back());
            }
        }
        board::PowerMeasurement m;
        {
            Tracer::Scope s(tr, "sim.measure");
            m = sys->measure(samples_);
        }
        const double f = mhzToHz(o.coreClockMhz);
        p.values[0] = jToNj(core::epiJoules(
            m.onChipMeanW(), p_idle, f,
            workloads::memoryScenarioLatency(scenario), cores));
        p.values[1] = m.onChipStddevW();
        p.ok = std::isfinite(p.values[0]) && p.values[0] > 0.0;
        p.sim.add(SimCounters::of(*sys));
    }

    /** MtVsMcExperiment's Hist point: a finite run to completion. */
    void
    fig14Hist(const HistRun &h, std::uint64_t seed, Tracer &tr,
              PointOut &p) const
    {
        sim::SystemOptions o = fig14Base_;
        o.seed = seed;
        std::unique_ptr<sim::System> sys;
        {
            Tracer::Scope s(tr, "sim.construct");
            sys = std::make_unique<sim::System>(o);
        }
        std::vector<isa::Program> programs;
        {
            Tracer::Scope s(tr, "workloads.load");
            programs = workloads::loadMicrobench(
                *sys, workloads::Microbench::Hist, h.threads / h.tpc, h.tpc,
                histOuterIters_, histElements_);
        }
        sim::CompletionResult r;
        {
            Tracer::Scope s(tr, "sim.run");
            r = sys->runToCompletion(4'000'000'000ULL);
        }
        p.values[0] = r.seconds;
        p.values[1] = r.onChipEnergyJ;
        p.values[2] = r.activeEnergyJ;
        p.values[3] = r.idleEnergyJ;
        p.ok = r.completed && !r.stalled;
        p.sim = SimCounters::of(*sys);
    }

    sim::SystemOptions t7Base_;
    sim::SystemOptions fig14Base_;
    std::uint32_t samples_ = 0;
    std::uint64_t histElements_ = 0;
    std::uint64_t histOuterIters_ = 0;
    std::vector<workloads::MemoryScenario> scenarios_;
    std::vector<HistRun> histRuns_;
};

} // namespace

std::unique_ptr<Workload>
makeSteadySweep(Size size)
{
    return std::make_unique<SteadySweep>(size);
}

std::unique_ptr<Workload>
makeMemoryStall(Size size)
{
    return std::make_unique<MemoryStall>(size);
}

} // namespace perfbench
