/**
 * @file
 * piton-served: the persistent characterization server.
 *
 * Binds 127.0.0.1:<port>, accepts length-prefixed binary frames from
 * piton-servectl (or any client linking src/service/client.hh), and
 * schedules experiments onto a bounded worker pool with a sharded
 * content-addressed result cache and checkpoint-backed warm-started
 * sweeps (DESIGN.md §11).
 *
 * Flags:
 *   --port N          listening port (default 7425; 0 = ephemeral,
 *                     printed on stdout for scripting)
 *   --threads N       worker threads (0 = all hardware threads)
 *   --max-pending N   admission bound before requests are shed
 *   --cache-dir DIR   spill cached results to DIR (survives restarts)
 *   --worker-id ID    identity in HelloAck/StatsReply (default
 *                     worker-<port>; fleet members should pass stable
 *                     names so routing stats stay attributable)
 *   --log-level L     silent | warn | info | debug
 *
 * SIGINT/SIGTERM trigger the same graceful shutdown as a client
 * Shutdown frame: stop accepting, drain in-flight work, flush, exit.
 */

#include <csignal>
#include <cstdio>

#include "common/cli.hh"
#include "common/logging.hh"
#include "service/server.hh"

namespace
{

piton::service::ExperimentServer *gServer = nullptr;

void
onSignal(int)
{
    if (gServer != nullptr)
        gServer->requestStop(); // atomic store + self-pipe write
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace piton;

    const cli::Args args = cli::parse(
        argc, argv,
        {{},
         {"--port", "--threads", "--max-pending", "--cache-dir",
          "--worker-id", "--log-level"}},
        "[--port N] [--threads N] [--max-pending N] [--cache-dir DIR]"
        " [--worker-id ID] [--log-level silent|warn|info|debug]");
    service::ServerConfig cfg;
    cfg.port =
        static_cast<std::uint16_t>(args.number("--port", 7425, 0, 65535));
    cfg.scheduler.threads = static_cast<unsigned>(
        args.number("--threads", cfg.scheduler.threads, 0, cli::kMaxCount));
    cfg.scheduler.maxPending = static_cast<std::size_t>(args.number(
        "--max-pending", cfg.scheduler.maxPending, 0, cli::kMaxCount));
    cfg.scheduler.resultCache.diskDir = args.optionValue("--cache-dir");
    cfg.workerId = args.optionValue("--worker-id");
    if (args.hasFlag("--log-level")) {
        LogLevel level;
        if (!parseLogLevel(args.optionValue("--log-level"), level))
            args.fail("unknown --log-level",
                      args.optionValue("--log-level"));
        setLogLevel(level);
    }

    service::ExperimentServer server(cfg);
    try {
        server.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }

    // Scripting handshake: the resolved port on stdout, then flush so
    // a wrapper reading a pipe unblocks immediately.
    std::printf("piton-served port %u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    gServer = &server;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    server.wait(); // returns after a signal or client Shutdown frame
    gServer = nullptr;
    return 0;
}
