/**
 * @file
 * piton-searchctl: optimization queries over the experiment service
 * (DESIGN.md §16).
 *
 *   piton-searchctl <goal> [options]
 *
 * Goals: minimize-epi | min-energy-capped | max-throughput.
 *
 * Backend selection (the evaluation oracle):
 *   (default)      in-process executor with a local result memo
 *   --port N       one piton-served worker (pipelined TCP)
 *   --workers P1,P2[,...]  a sharded worker fleet
 *
 * Search options:
 *   --engine sa|ga|random   metaheuristic (default sa)
 *   --seed N                search RNG seed (default 1)
 *   --budget N              explore-evaluation budget (default 64)
 *   --batch N               evaluations per oracle batch (default 8)
 *   --cores N               worker threads to place (default 4)
 *   --chip N                chip id (default 2)
 *   --bench NAME            microbenchmark (default phased)
 *   --iterations N          full-fidelity workload iterations
 *   --explore-iterations N  reduced explore fidelity (0 = full)
 *   --explore-slices N      explore through sampled runs (0 = exact)
 *   --power-cap W           constraint for min-energy-capped
 *   --deadline-s S          constraint for max-throughput
 *   --threads N             in-process/fleet oracle threads (default 1)
 *   --out FILE              write the best-so-far trajectory as CSV
 *
 * Exit status 0 when the search found a feasible candidate and the
 * full-fidelity re-evaluation confirmed it (finalScore feasible).
 */

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "fleet/coordinator.hh"
#include "search/searcher.hh"
#include "service/client.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;

/** Lower-case microbenchmark names, indexed by Microbench value. */
std::vector<std::string>
benchNames()
{
    using workloads::Microbench;
    std::vector<std::string> names;
    for (std::uint16_t b = 0;
         b <= static_cast<std::uint16_t>(Microbench::Phased); ++b) {
        std::string n =
            workloads::microbenchName(static_cast<Microbench>(b));
        for (char &ch : n)
            ch = static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
        names.push_back(std::move(n));
    }
    return names;
}

void
printCandidate(const search::SearchSpace &space, const search::Candidate &c)
{
    const search::VfRung &rung = space.rungs[c.rung];
    std::printf("  operating point: %.2f V, %.2f MHz (rung %u)\n",
                rung.vddV, rung.freqMhz, static_cast<unsigned>(c.rung));
    std::printf("  placement:");
    for (const std::uint8_t t : c.placement)
        std::printf(" %u", static_cast<unsigned>(t));
    std::printf("\n  freq steps:");
    for (std::size_t i = 0; i < c.freqStep.size(); ++i)
        std::printf(" %u/%u", static_cast<unsigned>(c.freqStep[i]),
                    rung.dutySteps);
    std::printf("\n");
}

void
printEvaluation(const char *label, const search::Evaluation &ev,
                double score)
{
    std::printf("%s: %s, %" PRIu64 " insts, %.6f s, %.6f J"
                " (%.3f W avg, EPI %.3e J/inst), score %.6e\n",
                label, ev.completed ? "completed" : "incomplete",
                ev.insts, ev.seconds, ev.energyJ, ev.avgPowerW, ev.epi,
                score);
}

} // namespace

int
main(int argc, char **argv)
{
    // Parse the whole command line before connecting to a backend.
    const cli::Args args = cli::parse(
        argc, argv,
        {{},
         {"--engine", "--seed", "--budget", "--batch", "--cores", "--chip",
          "--bench", "--iterations", "--explore-iterations",
          "--explore-slices", "--power-cap", "--deadline-s", "--threads",
          "--port", "--workers", "--out"},
         1},
        "<goal> [options]\n"
        "goals: minimize-epi | min-energy-capped | max-throughput\n"
        "backend: (in-process) | --port N | --workers P1,P2[,...]\n"
        "options: --engine sa|ga|random --seed N --budget N --batch N\n"
        "         --cores N --chip N --bench NAME --iterations N\n"
        "         --explore-iterations N --explore-slices N\n"
        "         --power-cap W --deadline-s S --threads N --out FILE");
    if (args.positionals.empty())
        args.fail("missing", "<goal>");
    std::string goal_arg = args.positionals[0];
    if (goal_arg == "minimize-epi") // CLI alias for the §16 example
        goal_arg = "min-epi";
    args.toChoice("goal", goal_arg,
                  {"min-epi", "min-energy-capped", "max-throughput"});

    const std::vector<std::string> engines = search::searcherNames();
    const std::string engine =
        engines[args.choice("--engine", engines, "sa")];
    const std::string out_path = args.optionValue("--out");
    const auto port =
        static_cast<std::uint16_t>(args.number("--port", 0, 0, 65535));
    const std::vector<std::uint16_t> worker_ports = args.ports("--workers");
    const auto threads =
        static_cast<unsigned>(args.number("--threads", 1, 0, cli::kMaxCount));
    search::SearcherOptions opts;
    opts.seed = args.number("--seed", opts.seed, 0, UINT64_MAX);
    opts.budget = static_cast<std::uint32_t>(
        args.number("--budget", opts.budget, 1, cli::kMaxCount));
    opts.batch = static_cast<std::uint32_t>(
        args.number("--batch", opts.batch, 0, cli::kMaxCount));
    search::SearchTask task;
    task.objective.goal = search::goalFromName(goal_arg);
    task.objective.powerCapW = args.real("--power-cap", 0.0);
    task.objective.deadlineS = args.real("--deadline-s", 0.0);
    const auto cores = static_cast<std::uint32_t>(
        args.number("--cores", 4, 0, cli::kMaxCount));
    const auto chip_id = static_cast<int>(args.number("--chip", 2, 1, 4));
    task.base.workload.bench = static_cast<std::uint16_t>(
        args.choice("--bench", benchNames(), "phased"));
    task.base.workload.iterations =
        args.number("--iterations", 2, 0, cli::kMaxCount);
    task.base.workload.threadsPerCore = 2;
    task.base.maxCycles = 50'000'000;
    task.exploreIterations = args.number(
        "--explore-iterations", task.exploreIterations, 0, cli::kMaxCount);
    task.exploreSampledSlices = static_cast<std::uint32_t>(args.number(
        "--explore-slices", task.exploreSampledSlices, 0, cli::kMaxCount));

    try {
        task.base.chipId = chip_id;
        task.space = search::defaultSpace(cores, chip_id);

        std::unique_ptr<service::TcpClient> tcp;
        std::unique_ptr<fleet::FleetCoordinator> fleet_coord;
        std::unique_ptr<search::Oracle> oracle;
        if (!worker_ports.empty()) {
            fleet::FleetConfig fcfg;
            fcfg.workerPorts = worker_ports;
            fcfg.clientName = "piton-searchctl";
            fleet_coord =
                std::make_unique<fleet::FleetCoordinator>(fcfg);
            oracle = std::make_unique<search::FleetOracle>(*fleet_coord,
                                                           threads);
        } else if (port != 0) {
            tcp = std::make_unique<service::TcpClient>(port);
            oracle = std::make_unique<search::ClientOracle>(*tcp);
        } else {
            oracle = std::make_unique<search::InProcessOracle>(threads);
        }

        const std::unique_ptr<search::Searcher> searcher =
            search::makeSearcher(engine);
        const search::SearchResult r =
            searcher->search(task, *oracle, opts);

        std::printf("engine %s, goal %s, %" PRIu64 " oracle calls"
                    " (%" PRIu64 " cache hits, ratio %.3f)\n",
                    r.engine.c_str(),
                    search::goalName(task.objective.goal), r.oracleCalls,
                    r.cacheHits, r.cacheHitRatio);
        if (r.bestScore >= search::kInvalidScore) {
            std::fprintf(stderr, "no feasible candidate found\n");
            return 1;
        }
        printCandidate(task.space, r.best);
        printEvaluation("explore best", r.bestEval, r.bestScore);
        printEvaluation("final (full fidelity)", r.finalEval,
                        r.finalScore);

        if (!out_path.empty()) {
            std::FILE *f = std::fopen(out_path.c_str(), "w");
            if (f == nullptr) {
                std::fprintf(stderr, "cannot write %s\n",
                             out_path.c_str());
                return 1;
            }
            const std::string csv = search::trajectoryCsv(r);
            std::fwrite(csv.data(), 1, csv.size(), f);
            std::fclose(f);
            std::printf("trajectory: %s (%zu points)\n", out_path.c_str(),
                        r.trajectory.size());
        }
        return r.finalScore < search::kInfeasibleBase ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
}
