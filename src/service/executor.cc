#include "service/executor.hh"

#include <algorithm>
#include <utility>

#include "board/measurement.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/vf_experiments.hh"
#include "sampling/profiler.hh"
#include "sampling/sampled_run.hh"
#include "sim/system.hh"
#include "sim/warm_start.hh"
#include "workloads/microbenchmarks.hh"

namespace piton::service
{

namespace
{

RailStatsWire
toWire(const RunningStats &s)
{
    RailStatsWire w;
    w.count = s.count();
    w.meanW = s.mean();
    w.stddevW = s.stddev();
    w.minW = s.min();
    w.maxW = s.max();
    return w;
}

MeasureResult
toWire(const board::PowerMeasurement &m, double die_c)
{
    MeasureResult r;
    r.vdd = toWire(m.vddW);
    r.vcs = toWire(m.vcsW);
    r.vio = toWire(m.vioW);
    r.onChip = toWire(m.onChipW);
    r.dieTempC = die_c;
    return r;
}

workloads::Microbench
benchOf(const ExperimentRequest &req)
{
    return static_cast<workloads::Microbench>(req.workload.bench);
}

/** Shared Sweep prefix: fresh system + workload + warmup windows.
 *  Identical for the donor (warm) and per-point (cold) paths — that
 *  identity is what makes warm == cold bit-exact. */
std::vector<isa::Program>
runSweepPrefix(sim::System &sys, const ExperimentRequest &req)
{
    std::vector<isa::Program> programs = workloads::loadMicrobench(
        sys, benchOf(req), req.workload.cores, req.workload.threadsPerCore,
        /*iterations=*/0, req.workload.totalElements);
    const std::uint64_t windows = std::max<std::uint64_t>(
        1, req.warmupCycles / req.cyclesPerSample);
    for (std::uint64_t w = 0; w < windows; ++w)
        sys.windowTruePowers(req.cyclesPerSample);
    return programs;
}

SweepPointResult
runSweepTail(sim::System &sys, const SweepTail &tail)
{
    SweepPointResult r;
    r.fanEffectiveness = tail.fanEffectiveness;
    sys.thermalModel().setFanEffectiveness(tail.fanEffectiveness);
    // Pin the thermal state at the new fan point's equilibrium (the
    // measure() protocol: sample windows sit far below the thermal
    // time constants).
    for (int i = 0; i < 4; ++i) {
        const auto p =
            sys.windowTruePowers(sys.options().cyclesPerSample);
        sys.thermalModel().setState(
            sys.thermalModel().steadyState(p[0] + p[1]));
    }
    RunningStats on_chip;
    for (std::uint32_t w = 0; w < tail.windows; ++w) {
        const auto p =
            sys.windowTruePowers(sys.options().cyclesPerSample);
        on_chip.add(p[0] + p[1]);
    }
    r.onChip = toWire(on_chip);
    r.finalDieC = sys.dieTempC();
    return r;
}

/** Obtain the sweep's warm-start state: from the prefix cache when
 *  available (single-flight: one simulation per prefix key), else by
 *  simulating the prefix directly. */
sim::SweepWarmStart
sweepWarmStart(const ExperimentRequest &req, ResultCache *prefix_cache,
               std::uint32_t version_salt)
{
    const sim::SystemOptions opts = req.systemOptions();
    const auto simulatePrefix = [&] {
        sim::System donor(opts);
        const auto programs = runSweepPrefix(donor, req);
        return sim::SweepWarmStart::capture(donor);
    };
    if (prefix_cache == nullptr)
        return simulatePrefix();

    const Hash128 key = req.prefixKey(version_salt);
    ResultCache::Acquired acq = prefix_cache->acquire(key);
    if (acq.hit())
        return sim::SweepWarmStart::fromShared(opts,
                                               std::move(acq.payload));
    if (acq.leader) {
        try {
            sim::SweepWarmStart ws = simulatePrefix();
            prefix_cache->publish(key, ws.sharedBytes());
            return ws;
        } catch (...) {
            prefix_cache->abandon(key);
            throw;
        }
    }
    // Another request is simulating this prefix: share its image, or
    // fall back to simulating locally if the leader failed.
    CachePayload image = acq.pending.get();
    if (image)
        return sim::SweepWarmStart::fromShared(opts, std::move(image));
    return simulatePrefix();
}

ExperimentResponse
runMeasurePower(const ExperimentRequest &req)
{
    sim::System sys(req.systemOptions());
    const auto programs = workloads::loadMicrobench(
        sys, benchOf(req), req.workload.cores, req.workload.threadsPerCore,
        /*iterations=*/0, req.workload.totalElements);
    const board::PowerMeasurement m = sys.measure(req.samples);
    ExperimentResponse resp;
    resp.kind = req.kind;
    resp.measure = toWire(m, sys.dieTempC());
    return resp;
}

ExperimentResponse
runMeasureStatic(const ExperimentRequest &req)
{
    sim::System sys(req.systemOptions());
    const board::PowerMeasurement m = sys.measureStatic(req.samples);
    ExperimentResponse resp;
    resp.kind = req.kind;
    resp.measure = toWire(m, sys.dieTempC());
    return resp;
}

/** Load the (finite) workload of an EnergyRun or PlacedRun: onto the
 *  explicit placement when there is one, onto tiles 0..cores-1
 *  otherwise (the two are identical for the identity placement). */
std::vector<isa::Program>
loadEnergyWorkload(sim::System &sys, const ExperimentRequest &req)
{
    if (req.kind == Kind::PlacedRun) {
        std::vector<TileId> tiles(req.placement.begin(),
                                  req.placement.end());
        return workloads::loadMicrobenchOnTiles(
            sys, benchOf(req), tiles, req.workload.threadsPerCore,
            req.workload.iterations, req.workload.totalElements);
    }
    return workloads::loadMicrobench(
        sys, benchOf(req), req.workload.cores, req.workload.threadsPerCore,
        req.workload.iterations, req.workload.totalElements);
}

void
fillEnergy(EnergyResult &e, const sim::CompletionResult &r)
{
    e.completed = r.completed ? 1 : 0;
    e.stalled = r.stalled ? 1 : 0;
    e.cycles = r.cycles;
    e.seconds = r.seconds;
    e.insts = r.insts;
    e.onChipEnergyJ = r.onChipEnergyJ;
    e.activeEnergyJ = r.activeEnergyJ;
    e.idleEnergyJ = r.idleEnergyJ;
}

ExperimentResponse
runEnergy(const ExperimentRequest &req, const RunControl &ctl)
{
    sim::System sys(req.systemOptions());
    const auto programs = loadEnergyWorkload(sys, req);
    ExperimentResponse resp;
    resp.kind = req.kind;
    if (req.sampledSlices == 0) {
        fillEnergy(resp.energy, sys.runToCompletion(req.maxCycles));
        return resp;
    }
    // Sampled opt-in (DESIGN.md §14 through the service): profile the
    // run once, then stitch the estimate from representative slices.
    // Everything feeding the estimate is canonical request state plus
    // fixed constants, so equal requests stitch bit-identical bodies.
    sampling::ProfilerOptions popts;
    popts.intervalInsns = req.sampledIntervalInsns;
    popts.captureImages = true;
    popts.telemetry = false;
    sampling::IntervalProfiler prof(sys, popts);
    const sim::CompletionResult r = prof.run(req.maxCycles);
    if (!r.completed) {
        // Nothing meaningful to stitch; report the exact partial run.
        fillEnergy(resp.energy, r);
        return resp;
    }
    if (ctl.isCancelled())
        return ExperimentResponse::failure(Status::Cancelled, req.kind,
                                           "cancelled");
    if (ctl.deadlineExpired())
        return ExperimentResponse::failure(Status::DeadlineExpired,
                                           req.kind, "deadline expired");
    sampling::SampledOptions sopts;
    // threads stays 1: the scheduler already runs requests in parallel.
    sopts.maxSlices = req.sampledSlices;
    const sampling::SampledEstimate est =
        sampling::runSampled(prof.intervals(), sys.options(), sopts);
    resp.energy.completed = 1;
    resp.energy.cycles = r.cycles;
    resp.energy.seconds = est.seconds;
    resp.energy.insts = est.totalInsns;
    resp.energy.onChipEnergyJ = est.energyJ;
    resp.energy.sampled = 1;
    resp.energy.energyCi95J = est.energyCi95J;
    resp.energy.epiCi95 = est.epiCi95;
    resp.energy.simulatedFrac = est.simulatedFrac;
    return resp;
}

ExperimentResponse
runVfCurve(const ExperimentRequest &req, const RunControl &ctl)
{
    const core::VfScalingExperiment vf;
    ExperimentResponse resp;
    resp.kind = req.kind;
    for (const double v : req.voltages) {
        if (ctl.isCancelled())
            return ExperimentResponse::failure(Status::Cancelled,
                                               req.kind, "cancelled");
        if (ctl.deadlineExpired())
            return ExperimentResponse::failure(Status::DeadlineExpired,
                                               req.kind,
                                               "deadline expired");
        const core::VfPoint p = vf.measure(req.chipId, v);
        VfPointResult r;
        r.vddV = p.vddV;
        r.fmaxMhz = p.fmaxMhz;
        r.nextStepMhz = p.nextStepMhz;
        r.thermallyLimited = p.thermallyLimited ? 1 : 0;
        r.dieTempC = p.dieTempC;
        resp.vfPoints.push_back(r);
    }
    return resp;
}

ExperimentResponse
runSweep(const ExperimentRequest &req, const RunControl &ctl,
         ResultCache *prefix_cache, std::uint32_t version_salt)
{
    const sim::SweepWarmStart ws =
        sweepWarmStart(req, prefix_cache, version_salt);
    if (ctl.isCancelled())
        return ExperimentResponse::failure(Status::Cancelled, req.kind,
                                           "cancelled");
    if (ctl.deadlineExpired())
        return ExperimentResponse::failure(Status::DeadlineExpired,
                                           req.kind, "deadline expired");
    ExperimentResponse resp;
    resp.kind = req.kind;
    for (const SweepTail &tail : req.tails) {
        if (ctl.isCancelled())
            return ExperimentResponse::failure(Status::Cancelled,
                                               req.kind, "cancelled");
        if (ctl.deadlineExpired())
            return ExperimentResponse::failure(Status::DeadlineExpired,
                                               req.kind,
                                               "deadline expired");
        const std::unique_ptr<sim::System> sys = ws.fork();
        resp.points.push_back(runSweepTail(*sys, tail));
    }
    return resp;
}

} // namespace

ExperimentResponse
runExperiment(const ExperimentRequest &canon, const RunControl &ctl,
              ResultCache *prefix_cache, std::uint32_t version_salt)
{
    if (ctl.isCancelled())
        return ExperimentResponse::failure(Status::Cancelled, canon.kind,
                                           "cancelled before execution");
    if (ctl.deadlineExpired())
        return ExperimentResponse::failure(Status::DeadlineExpired,
                                           canon.kind,
                                           "deadline expired in queue");
    try {
        switch (canon.kind) {
        case Kind::MeasurePower:
            return runMeasurePower(canon);
        case Kind::MeasureStatic:
            return runMeasureStatic(canon);
        case Kind::EnergyRun:
        case Kind::PlacedRun:
            return runEnergy(canon, ctl);
        case Kind::Sweep:
            return runSweep(canon, ctl, prefix_cache, version_salt);
        case Kind::VfCurve:
            return runVfCurve(canon, ctl);
        case Kind::KindCount:
            break;
        }
        return ExperimentResponse::failure(Status::Error, canon.kind,
                                           "unknown kind");
    } catch (const std::exception &e) {
        return ExperimentResponse::failure(Status::Error, canon.kind,
                                           e.what());
    }
}

} // namespace piton::service
