/**
 * @file
 * Saturation bench for the distributed experiment fleet (src/fleet):
 * drives the shared deterministic load set (fleet/load.hh) through a
 * coordinator over in-process piton-served workers and reports
 * per-configuration throughput, scaling vs a single worker, and
 * byte-identity against a single-node LocalClient reference.
 *
 * Phases:
 *
 *  1. reference    — every point served by one in-process scheduler;
 *     the resulting bodies are the byte-identity baseline;
 *  2. fleet W=1    — same points through a coordinator over ONE
 *     worker (coordination overhead measured, not hidden);
 *  3. fleet W=N    — same points over N workers, driven from
 *     --concurrency client threads; near-linear scaling expected on
 *     multi-core hosts (on a single-CPU container the workers share
 *     one core, so the ratio is reported, not gated);
 *  4. failover     — N workers again, killing the worker that owns a
 *     known upcoming point after a quarter of the load: the remaining
 *     requests re-route, and every body must STILL match phase 1.
 *
 * Flags (bench_util.hh):
 *   --points N           load-set size (default 64)
 *   --fleet-workers N    workers in phases 3/4 (default 2)
 *   --threads N          scheduler threads per worker (default 1)
 *   --concurrency N      client threads driving the fleet (default 4)
 *   --verify             hard-fail unless every phase's bodies are
 *                        byte-identical to the reference, all
 *                        statuses Ok, and the failover phase actually
 *                        failed over (failovers > 0)
 *   --require-scaling X  hard-fail if phase-3 throughput < X times
 *                        phase 2 (leave unset on single-CPU hosts)
 *   --out DIR            export fleet.* telemetry gauges
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "fleet/coordinator.hh"
#include "fleet/load.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "telemetry/export.hh"
#include "telemetry/recorder.hh"

namespace
{

using namespace piton;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

struct WorkerSet
{
    std::vector<std::unique_ptr<service::ExperimentServer>> servers;
    std::vector<std::uint16_t> ports;
};

WorkerSet
spawnWorkers(std::size_t count, unsigned threads, std::size_t points)
{
    WorkerSet set;
    for (std::size_t i = 0; i < count; ++i) {
        service::ServerConfig cfg;
        cfg.port = 0; // ephemeral
        cfg.workerId = "bench-w" + std::to_string(i);
        cfg.scheduler.threads = threads;
        cfg.scheduler.maxPending = points + 8;
        cfg.scheduler.queueCapacity = points + 8;
        auto server = std::make_unique<service::ExperimentServer>(cfg);
        server->start();
        set.ports.push_back(server->port());
        set.servers.push_back(std::move(server));
    }
    return set;
}

struct PhaseResult
{
    double ms = 0.0;
    std::size_t identical = 0;
    std::size_t ok = 0;
    fleet::FleetMetrics metrics;
};

/** Drive all `points` through `coord` from `concurrency` threads,
 *  comparing each body against the reference.  `kill_after` > 0 stops
 *  `victim` once that many requests have completed. */
PhaseResult
drivePhase(fleet::FleetCoordinator &coord, std::size_t points,
           unsigned concurrency,
           const std::vector<std::vector<std::uint8_t>> &reference,
           std::size_t kill_after = 0,
           service::ExperimentServer *victim = nullptr)
{
    PhaseResult out;
    std::vector<std::uint8_t> ok(points, 0), identical(points, 0);
    std::atomic<std::size_t> completed{0};
    std::atomic<bool> killed{false};
    const Clock::time_point t0 = Clock::now();
    parallelFor(points, concurrency, [&](std::size_t i) {
        const service::ClientResult r = coord.run(fleet::loadPoint(i));
        ok[i] = r.status == service::Status::Ok ? 1 : 0;
        identical[i] = r.body == reference[i] ? 1 : 0;
        const std::size_t done =
            completed.fetch_add(1, std::memory_order_relaxed) + 1;
        if (victim != nullptr && done >= kill_after
            && !killed.exchange(true))
            victim->stop(); // in-flight work drains, then the port dies
    });
    out.ms = msSince(t0);
    for (std::size_t i = 0; i < points; ++i) {
        out.ok += ok[i];
        out.identical += identical[i];
    }
    out.metrics = coord.metrics();
    return out;
}

void
printPhase(const char *name, const PhaseResult &r, std::size_t points)
{
    std::printf("%-12s %8.2f ms, %8.1f req/s, %zu/%zu ok, %zu/%zu "
                "byte-identical, retries %llu, failovers %llu\n",
                name, r.ms,
                1e3 * static_cast<double>(points) / std::max(r.ms, 1e-9),
                r.ok, points, r.identical, points,
                static_cast<unsigned long long>(r.metrics.retries),
                static_cast<unsigned long long>(r.metrics.failovers));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace piton;

    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, /*def_samples=*/4, /*def_threads=*/1, {"--verify"},
        0,
        {"--points", "--fleet-workers", "--concurrency",
         "--require-scaling"});
    const auto points = static_cast<std::size_t>(
        args.number("--points", 64, 0, cli::kMaxCount));
    const auto fleet_workers = static_cast<std::size_t>(
        args.number("--fleet-workers", 2, 1, cli::kMaxCount));
    const auto concurrency = static_cast<unsigned>(
        args.number("--concurrency", 4, 1, cli::kMaxCount));
    const double require_scaling = args.real("--require-scaling", 0.0);
    const bool verify = args.hasFlag("--verify");

    bench::banner("FLEET", "distributed fleet saturation");
    std::printf("%zu points, %zu fleet worker(s) x %u scheduler "
                "thread(s), %u client thread(s)\n\n",
                points, fleet_workers, args.threads, concurrency);

    // Phase 1: single-node reference.
    service::SchedulerConfig ref_cfg;
    ref_cfg.threads = args.threads;
    ref_cfg.maxPending = points + 8;
    ref_cfg.queueCapacity = points + 8;
    service::ExperimentScheduler ref_sched(ref_cfg);
    service::LocalClient reference(ref_sched);
    std::vector<std::vector<std::uint8_t>> ref_bodies(points);
    const Clock::time_point ref_t0 = Clock::now();
    for (std::size_t i = 0; i < points; ++i) {
        const service::ClientResult r = reference.run(fleet::loadPoint(i));
        if (r.status != service::Status::Ok) {
            std::fprintf(stderr, "reference point %zu failed\n", i);
            return 1;
        }
        ref_bodies[i] = r.body;
    }
    const double ref_ms = msSince(ref_t0);
    std::printf("%-12s %8.2f ms, %8.1f req/s\n", "reference", ref_ms,
                1e3 * static_cast<double>(points)
                    / std::max(ref_ms, 1e-9));

    // Phase 2: fleet over one worker (coordination overhead).
    PhaseResult one;
    {
        WorkerSet ws = spawnWorkers(1, args.threads, points);
        fleet::FleetConfig fcfg;
        fcfg.workerPorts = ws.ports;
        fleet::FleetCoordinator coord(fcfg);
        one = drivePhase(coord, points, concurrency, ref_bodies);
        for (auto &s : ws.servers)
            s->stop();
    }
    printPhase("fleet W=1", one, points);

    // Phase 3: the full fleet.
    PhaseResult full;
    {
        WorkerSet ws = spawnWorkers(fleet_workers, args.threads, points);
        fleet::FleetConfig fcfg;
        fcfg.workerPorts = ws.ports;
        fleet::FleetCoordinator coord(fcfg);
        full = drivePhase(coord, points, concurrency, ref_bodies);
        for (auto &s : ws.servers)
            s->stop();
    }
    char label[32];
    std::snprintf(label, sizeof(label), "fleet W=%zu", fleet_workers);
    printPhase(label, full, points);
    const double scaling = one.ms / std::max(full.ms, 1e-9);
    std::printf("scaling: %.2fx at %zu workers (1.0x = no gain; "
                "single-CPU hosts serialize the workers)\n\n",
                scaling, fleet_workers);

    // Phase 4: failover.  The victim owns a point from the second
    // half of the load, so at least one post-kill request MUST
    // re-route — failovers > 0 is then a hard invariant, not luck.
    PhaseResult failover;
    bool failover_hit_victim = false;
    {
        const std::size_t nw = std::max<std::size_t>(2, fleet_workers);
        WorkerSet ws = spawnWorkers(nw, args.threads, points);
        fleet::FleetConfig fcfg;
        fcfg.workerPorts = ws.ports;
        fleet::FleetCoordinator coord(fcfg);
        const std::string victim_id =
            coord.ownerOf(fleet::loadPoint(points / 2 + points / 4));
        service::ExperimentServer *victim = nullptr;
        for (std::size_t i = 0; i < nw; ++i)
            if (ws.servers[i]->workerId() == victim_id)
                victim = ws.servers[i].get();
        failover_hit_victim = victim != nullptr;
        failover = drivePhase(coord, points, concurrency, ref_bodies,
                              /*kill_after=*/points / 4, victim);
        for (auto &s : ws.servers)
            s->stop();

        if (!args.outDir.empty()) {
            telemetry::TelemetryRecorder rec;
            coord.exportTelemetry(rec);
            telemetry::exportTelemetry(args.outDir, "fleet_throughput",
                                       rec);
            std::printf("telemetry exported to %s/fleet_throughput.*\n",
                        args.outDir.c_str());
        }
    }
    printPhase("failover", failover, points);

    if (verify) {
        const bool bodies_ok = one.identical == points
                               && full.identical == points
                               && failover.identical == points;
        const bool status_ok = one.ok == points && full.ok == points
                               && failover.ok == points;
        const bool failed_over =
            failover_hit_victim && failover.metrics.failovers > 0;
        const bool scaling_ok =
            require_scaling <= 0.0 || scaling >= require_scaling;
        const bool pass =
            bodies_ok && status_ok && failed_over && scaling_ok;
        std::printf("\nverify: %s (bodies %s, statuses %s, failover %s"
                    "%s)\n",
                    pass ? "PASS" : "FAIL", bodies_ok ? "ok" : "FAIL",
                    status_ok ? "ok" : "FAIL",
                    failed_over ? "ok" : "FAIL",
                    require_scaling > 0.0
                        ? (scaling_ok ? ", scaling ok" : ", scaling FAIL")
                        : "");
        if (!pass)
            return 1;
    }
    return 0;
}
