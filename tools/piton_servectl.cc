/**
 * @file
 * piton-servectl: command-line client for piton-served.
 *
 *   piton-servectl [--port N] ping
 *   piton-servectl [--port N] stats
 *   piton-servectl [--port N] run <preset> [--samples N]
 *                  [--deadline-ms N] [--repeat N] [--expect-identical]
 *   piton-servectl [--port N] shutdown
 *
 * `run` executes one of the paper presets (fig9, fig10, fig11, fig13,
 * fig14, fig16, fig17, table5, table7) and prints the decoded result.
 * --repeat N issues the same request N times on one connection;
 * --expect-identical additionally asserts every response body is
 * byte-identical to the first (the cache-correctness check the CI
 * smoke job runs) and that the repeats were served from the cache.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "service/client.hh"

namespace
{

using namespace piton;

/** The usage text: every command plus the preset list. */
std::string
usageText()
{
    std::string text = "[--port N] <command>\n"
                       "commands:\n"
                       "  ping\n"
                       "  stats\n"
                       "  run <preset> [--samples N] [--deadline-ms N]"
                       " [--repeat N] [--expect-identical]\n"
                       "  shutdown\n"
                       "presets:";
    for (const std::string &name : service::presetNames())
        text += " " + name;
    return text;
}

void
printRail(const char *name, const service::RailStatsWire &s)
{
    std::printf("  %-8s mean %8.4f W  stddev %7.4f W  [%8.4f, %8.4f]"
                "  n=%" PRIu64 "\n",
                name, s.meanW, s.stddevW, s.minW, s.maxW, s.count);
}

void
printResult(const service::ClientResult &r)
{
    std::printf("status: %s%s\n", service::statusName(r.status),
                r.servedFromCache ? " (cached)" : "");
    if (r.status != service::Status::Ok) {
        if (!r.response.error.empty())
            std::printf("error: %s\n", r.response.error.c_str());
        return;
    }
    switch (r.response.kind) {
    case service::Kind::MeasurePower:
    case service::Kind::MeasureStatic:
        printRail("vdd", r.response.measure.vdd);
        printRail("vcs", r.response.measure.vcs);
        printRail("vio", r.response.measure.vio);
        printRail("on-chip", r.response.measure.onChip);
        std::printf("  die %.2f C\n", r.response.measure.dieTempC);
        break;
    case service::Kind::EnergyRun:
    case service::Kind::PlacedRun:
        std::printf("  completed=%u cycles=%" PRIu64 " insts=%" PRIu64
                    " time=%.6f s\n",
                    r.response.energy.completed, r.response.energy.cycles,
                    r.response.energy.insts, r.response.energy.seconds);
        std::printf("  energy on-chip %.6f J (active %.6f J, idle %.6f"
                    " J)\n",
                    r.response.energy.onChipEnergyJ,
                    r.response.energy.activeEnergyJ,
                    r.response.energy.idleEnergyJ);
        if (r.response.energy.sampled)
            std::printf("  sampled: ±%.6f J (EPI CI ±%.3g), simulated"
                        " %.1f%%\n",
                        r.response.energy.energyCi95J,
                        r.response.energy.epiCi95,
                        100.0 * r.response.energy.simulatedFrac);
        break;
    case service::Kind::Sweep:
        for (const auto &p : r.response.points)
            std::printf("  fan %.3f: %.4f W (die %.2f C)\n",
                        p.fanEffectiveness, p.onChip.meanW, p.finalDieC);
        break;
    case service::Kind::VfCurve:
        for (const auto &p : r.response.vfPoints)
            std::printf("  %.2f V: fmax %.1f MHz%s\n", p.vddV, p.fmaxMhz,
                        p.thermallyLimited ? " (thermally limited)" : "");
        break;
    case service::Kind::KindCount:
        break;
    }
}

void
printStats(const service::SchedulerMetrics &m)
{
    std::printf("submitted %" PRIu64 "  completed %" PRIu64
                "  shed %" PRIu64 "  errors %" PRIu64 "\n",
                m.submitted, m.completed, m.shed, m.errors);
    std::printf("cancelled %" PRIu64 "  deadline-expired %" PRIu64
                "  queue-depth %zu\n",
                m.cancelled, m.deadlineExpired, m.queueDepth);
    std::printf("cache hits %" PRIu64 " (rate %.3f)  latency p50 %.2f ms"
                "  p99 %.2f ms\n",
                m.cacheHits, m.hitRate, m.latencyP50Ms, m.latencyP99Ms);
    std::printf("result cache: %zu entries, %zu bytes, %" PRIu64
                " evictions, %" PRIu64 " corrupt-rejected\n",
                m.resultCache.entries, m.resultCache.bytes,
                m.resultCache.evictions, m.resultCache.corruptRejected);
    std::printf("prefix cache: %zu entries, %zu bytes, %" PRIu64
                " coalesced\n",
                m.prefixCache.entries, m.prefixCache.bytes,
                m.prefixCache.coalesced);
}

} // namespace

int
main(int argc, char **argv)
{
    // Parse the whole command line before connecting: a typo must fail
    // with the usage message, not with a connection error or a run
    // that silently ignored it.
    const std::string usage = usageText();
    const cli::Args global =
        cli::parse(argc, argv, {{}, {"--port"}, 0, true}, usage);
    const auto port =
        static_cast<std::uint16_t>(global.number("--port", 7425, 0, 65535));
    if (global.positionals.empty())
        global.fail("missing", "<command>");
    const std::vector<std::string> commands = {"ping", "stats", "run",
                                               "shutdown"};
    const std::string command =
        commands[global.toChoice("command", global.positionals[0], commands)];
    const bool is_run = command == "run";
    const cli::Args args = cli::parse(
        argc, argv,
        is_run ? cli::Spec{{"--expect-identical"},
                           {"--samples", "--deadline-ms", "--repeat"},
                           1}
               : cli::Spec{},
        usage, global.next());

    service::ExperimentRequest req;
    if (is_run) {
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

    try {
        service::TcpClient client(port);

        if (command == "ping") {
            client.ping();
            std::printf("pong\n");
            return 0;
        }
        if (command == "stats") {
            printStats(client.stats());
            return 0;
        }
        if (command == "shutdown") {
            client.shutdownServer();
            std::printf("server shut down\n");
            return 0;
        }

        service::ClientResult first;
        for (long n = 0; n < repeat; ++n) {
            service::ClientResult r = client.run(req);
            if (n == 0) {
                first = std::move(r);
                printResult(first);
                continue;
            }
            if (!expect_identical)
                continue;
            if (r.body != first.body) {
                std::fprintf(stderr,
                             "FAIL: response %ld differs from first\n", n);
                return 1;
            }
            if (!r.servedFromCache) {
                std::fprintf(stderr,
                             "FAIL: repeat %ld missed the cache\n", n);
                return 1;
            }
        }
        if (repeat > 1 && expect_identical)
            std::printf("%ld repeats byte-identical, served from cache\n",
                        repeat - 1);
        if (first.status != service::Status::Ok)
            return 1;
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
}
