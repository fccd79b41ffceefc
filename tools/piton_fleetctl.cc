/**
 * @file
 * piton-fleetctl: coordinator CLI for a fleet of piton-served workers.
 *
 *   piton-fleetctl --workers P1,P2[,...] ping
 *   piton-fleetctl --workers ... stats
 *   piton-fleetctl --workers ... run <preset> [--samples N]
 *                  [--deadline-ms N] [--repeat N] [--expect-identical]
 *   piton-fleetctl --workers ... sweep [--points N] [--verify]
 *   piton-fleetctl --workers ... shutdown
 *
 * Requests are consistent-hash routed across the workers with
 * automatic failover (DESIGN.md §15).  `sweep` drives the shared
 * deterministic load set (fleet/load.hh) through the fleet; with
 * --verify each response body is compared byte-for-byte against an
 * in-process single-node LocalClient reference — the fleet's
 * determinism contract, exercised end to end.  `shutdown` gracefully
 * stops every reachable worker.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "fleet/coordinator.hh"
#include "fleet/load.hh"
#include "service/client.hh"

namespace
{

using namespace piton;

/** The usage text: every command plus the preset list. */
std::string
usageText()
{
    std::string text = "--workers P1,P2[,...] <command>\n"
                       "commands:\n"
                       "  ping\n"
                       "  stats\n"
                       "  run <preset> [--samples N] [--deadline-ms N]"
                       " [--repeat N] [--expect-identical]\n"
                       "  sweep [--points N] [--verify]\n"
                       "  shutdown\n"
                       "presets:";
    for (const std::string &name : service::presetNames())
        text += " " + name;
    return text;
}

int
cmdPing(fleet::FleetCoordinator &coord)
{
    const std::size_t up = coord.checkHealthOnce();
    for (const fleet::WorkerSnapshot &w : coord.workerSnapshots())
        std::printf("%-16s port %5u  %s\n", w.id.c_str(),
                    static_cast<unsigned>(w.port), w.up ? "up" : "DOWN");
    const fleet::FleetMetrics m = coord.metrics();
    std::printf("%zu/%zu workers up\n", up, m.workersTotal);
    return up == m.workersTotal ? 0 : 1;
}

int
cmdStats(fleet::FleetCoordinator &coord)
{
    const service::SchedulerMetrics sum = coord.stats();
    std::printf("aggregate: submitted %" PRIu64 "  completed %" PRIu64
                "  shed %" PRIu64 "  errors %" PRIu64
                "  cache hits %" PRIu64 " (rate %.3f)\n",
                sum.submitted, sum.completed, sum.shed, sum.errors,
                sum.cacheHits, sum.hitRate);
    for (const fleet::WorkerDetail &d : coord.workerDetails()) {
        const fleet::WorkerSnapshot &w = d.snapshot;
        std::printf("%-16s port %5u  %-4s  served %" PRIu64
                    "  failures %" PRIu64,
                    w.id.c_str(), static_cast<unsigned>(w.port),
                    w.up ? "up" : "DOWN", w.requests, w.failures);
        if (d.statsOk)
            std::printf("  result-cache %" PRIu64 " hits / %" PRIu64
                        " misses",
                        d.stats.metrics.resultCache.hits,
                        d.stats.metrics.resultCache.misses);
        std::printf("\n");
    }
    const fleet::FleetMetrics m = coord.metrics();
    std::printf("fleet: requests %" PRIu64 "  retries %" PRIu64
                "  failovers %" PRIu64 "  hit rate %.3f\n",
                m.requests, m.retries, m.failovers, m.hitRate);
    return 0;
}

int
cmdSweep(fleet::FleetCoordinator &coord, long points, bool verify)
{
    // Single-node reference, built lazily only when verifying.
    service::ExperimentScheduler *ref_sched = nullptr;
    service::SchedulerConfig ref_cfg;
    ref_cfg.threads = 1;
    service::ExperimentScheduler ref(ref_cfg);
    if (verify)
        ref_sched = &ref;
    service::LocalClient reference(ref);

    long mismatches = 0, failures = 0;
    for (long i = 0; i < points; ++i) {
        const service::ExperimentRequest req =
            fleet::loadPoint(static_cast<std::size_t>(i));
        const service::ClientResult got = coord.run(req);
        if (got.status != service::Status::Ok) {
            std::fprintf(stderr, "point %ld: status %s\n", i,
                         service::statusName(got.status));
            ++failures;
            continue;
        }
        if (ref_sched != nullptr) {
            const service::ClientResult want = reference.run(req);
            if (got.body != want.body) {
                std::fprintf(stderr,
                             "point %ld: fleet body differs from "
                             "single-node reference\n",
                             i);
                ++mismatches;
            }
        }
    }
    const fleet::FleetMetrics m = coord.metrics();
    std::printf("%ld points: %" PRIu64 " requests, %" PRIu64
                " retries, %" PRIu64 " failovers, hit rate %.3f\n",
                points, m.requests, m.retries, m.failovers, m.hitRate);
    if (verify) {
        if (mismatches == 0 && failures == 0)
            std::printf("verify: all %ld bodies byte-identical to "
                        "single-node reference\n",
                        points);
        else
            std::fprintf(stderr, "verify FAILED: %ld mismatches, %ld "
                         "failures\n",
                         mismatches, failures);
    }
    return mismatches == 0 && failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Parse the whole command line before building the coordinator,
    // which connects to every worker.
    const std::string usage = usageText();
    const cli::Args global =
        cli::parse(argc, argv, {{}, {"--workers"}, 0, true}, usage);
    const std::vector<std::uint16_t> ports = global.ports("--workers");
    if (ports.empty())
        global.fail("missing", "--workers");
    if (global.positionals.empty())
        global.fail("missing", "<command>");
    const std::vector<std::string> commands = {"ping", "stats", "run",
                                               "sweep", "shutdown"};
    const std::string command =
        commands[global.toChoice("command", global.positionals[0], commands)];
    cli::Spec spec;
    if (command == "run")
        spec = {{"--expect-identical"},
                {"--samples", "--deadline-ms", "--repeat"},
                1};
    else if (command == "sweep")
        spec = {{"--verify"}, {"--points"}};
    const cli::Args args =
        cli::parse(argc, argv, spec, usage, global.next());

    service::ExperimentRequest req;
    if (command == "run") {
        if (args.positionals.empty())
            args.fail("missing", "<preset>");
        const std::vector<std::string> presets = service::presetNames();
        req = service::presetRequest(
            presets[args.toChoice("preset", args.positionals[0], presets)]);
        req.samples = static_cast<std::uint32_t>(
            args.number("--samples", req.samples, 0, cli::kMaxCount));
        req.deadlineMs = static_cast<std::uint32_t>(
            args.number("--deadline-ms", req.deadlineMs, 0, cli::kMaxCount));
    }
    const auto repeat =
        static_cast<long>(args.number("--repeat", 1, 0, cli::kMaxCount));
    const bool expect_identical = args.hasFlag("--expect-identical");
    const auto points =
        static_cast<long>(args.number("--points", 16, 0, cli::kMaxCount));

    try {
        fleet::FleetConfig cfg;
        cfg.workerPorts = ports;
        cfg.clientName = "piton-fleetctl";
        fleet::FleetCoordinator coord(cfg);

        if (command == "ping")
            return cmdPing(coord);
        if (command == "stats")
            return cmdStats(coord);
        if (command == "shutdown") {
            int rc = 0;
            for (const std::uint16_t port : ports) {
                try {
                    service::TcpClient client(port);
                    client.shutdownServer();
                    std::printf("port %u shut down\n",
                                static_cast<unsigned>(port));
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "port %u: %s\n",
                                 static_cast<unsigned>(port), e.what());
                    rc = 1;
                }
            }
            return rc;
        }
        if (command == "sweep")
            return cmdSweep(coord, points, args.hasFlag("--verify"));

        std::vector<std::uint8_t> first_body;
        for (long n = 0; n < repeat; ++n) {
            const service::ClientResult r = coord.run(req);
            if (n == 0) {
                first_body = r.body;
                std::printf("status: %s%s (worker %s)\n",
                            service::statusName(r.status),
                            r.servedFromCache ? " (cached)" : "",
                            coord.ownerOf(req).c_str());
                if (r.status != service::Status::Ok) {
                    if (!r.response.error.empty())
                        std::fprintf(stderr, "error: %s\n",
                                     r.response.error.c_str());
                    return 1;
                }
                continue;
            }
            if (expect_identical && r.body != first_body) {
                std::fprintf(stderr,
                             "FAIL: response %ld differs from first\n",
                             n);
                return 1;
            }
        }
        if (repeat > 1 && expect_identical)
            std::printf("%ld repeats byte-identical\n", repeat - 1);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
}
