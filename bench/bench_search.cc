/**
 * @file
 * Placement/DVFS search bench (DESIGN.md §16): random sampling vs
 * simulated annealing vs the genetic algorithm at an equal explore
 * budget on the phased workload, with the determinism gauntlet behind
 * --verify.
 *
 * Phases:
 *
 *  1. comparison — each engine (random, sa, ga) searches the same
 *     task at the same budget through one shared in-process oracle;
 *     the report shows best EPI, oracle traffic, and cache-hit ratio
 *     (cross-engine revisits make the shared memo pay off);
 *  2. --verify   — hard gates (exit 1 on any failure):
 *       - replay: every engine rerun at the same seed produces a
 *         bit-identical best candidate and trajectory,
 *       - backend: SA through a LocalClient service scheduler equals
 *         SA through the in-process executor, point for point,
 *       - thread-invariance: an oracle at --threads N equals the
 *         single-threaded oracle,
 *       - cache: revisited candidates hit a cache (ratio > 0 across
 *         the comparison phase),
 *       - coverage: total oracle calls stay far below the exhaustive
 *         space,
 *       - quality: sa and ga end at an objective no worse than random
 *         at the equal budget.
 *
 * Flags (bench_util.hh):
 *   --budget N     explore evaluations per engine (default 24)
 *   --cores N      worker threads to place (default 3)
 *   --seed N       search seed (default 1)
 *   --threads N    oracle batch threads (results thread-invariant)
 *   --sampled      explore through sampled runs (slices join the
 *                  cache identity; the final re-eval stays exact)
 *   --verify       run the determinism gauntlet
 *   --out DIR      export search.* telemetry of the SA run to
 *                  DIR/search.{csv,jsonl}
 */

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "search/searcher.hh"
#include "service/client.hh"
#include "service/scheduler.hh"
#include "telemetry/export.hh"
#include "telemetry/recorder.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;

search::SearchTask
makeTask(std::uint32_t cores, bool sampled)
{
    search::SearchTask task;
    task.space = search::defaultSpace(cores, /*chip_id=*/2);
    task.objective.goal = search::Goal::MinEpi;
    task.base.chipId = 2;
    task.base.workload.bench =
        static_cast<std::uint16_t>(workloads::Microbench::Phased);
    task.base.workload.iterations = 2;
    task.base.workload.threadsPerCore = 2;
    task.base.maxCycles = 50'000'000;
    task.exploreIterations = 1;
    if (sampled)
        task.exploreSampledSlices = 8;
    return task;
}

bool
sameTrajectory(const search::SearchResult &a, const search::SearchResult &b)
{
    if (a.trajectory.size() != b.trajectory.size())
        return false;
    for (std::size_t i = 0; i < a.trajectory.size(); ++i)
        if (a.trajectory[i].oracleCalls != b.trajectory[i].oracleCalls
            || a.trajectory[i].bestScore != b.trajectory[i].bestScore)
            return false;
    return true;
}

bool
checkIdentical(const char *what, const search::SearchResult &a,
               const search::SearchResult &b, int &failures)
{
    const bool same = search::candidateBytes(a.best)
                          == search::candidateBytes(b.best)
                      && a.bestScore == b.bestScore
                      && sameTrajectory(a, b);
    if (same) {
        std::printf("verify: %-34s OK\n", what);
    } else {
        std::fprintf(stderr, "verify: %-34s FAILED\n", what);
        ++failures;
    }
    return same;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, /*def_samples=*/16, /*def_threads=*/1,
        {"--verify", "--sampled"}, 0, {"--budget", "--cores", "--seed"});
    const bool verify = args.hasFlag("--verify");
    const bool sampled = args.hasFlag("--sampled");
    const auto budget = static_cast<std::uint32_t>(
        args.number("--budget", 24, 1, cli::kMaxCount));
    const auto cores = static_cast<std::uint32_t>(
        args.number("--cores", 3, 0, cli::kMaxCount));
    const std::uint64_t seed = args.number("--seed", 1, 0, UINT64_MAX);

    bench::banner("SEARCH", "placement/DVFS search vs random baseline");

    const search::SearchTask task = makeTask(cores, sampled);
    search::SearcherOptions opts;
    opts.seed = seed;
    opts.budget = budget;
    opts.batch = 6;
    opts.population = 6;

    telemetry::TelemetryRecorder recorder;

    // Phase 1: all engines share one oracle, so any candidate an
    // earlier engine explored is a memo hit for a later one.
    std::printf("task: %u cores over %zu rungs, %s explore fidelity,"
                " budget %u/engine (exhaustive space %.3g)\n\n",
                cores, task.space.rungs.size(),
                sampled ? "sampled" : "exact", budget,
                search::exhaustiveSize(task.space));
    search::InProcessOracle shared(args.threads);
    std::vector<search::SearchResult> results;
    for (const std::string &engine : search::searcherNames()) {
        search::SearcherOptions engine_opts = opts;
        if (engine == "sa" && !args.outDir.empty())
            engine_opts.recorder = &recorder;
        results.push_back(search::makeSearcher(engine)->search(
            task, shared, engine_opts));
        const search::SearchResult &r = results.back();
        std::printf("%-7s best EPI %.6e J/inst (final %.6e), %" PRIu64
                    " calls, hit ratio %.3f\n",
                    r.engine.c_str(), r.bestScore, r.finalScore,
                    r.oracleCalls, r.cacheHitRatio);
    }
    const search::SearchResult &random_r = results[0];
    const search::SearchResult &sa_r = results[1];
    const search::SearchResult &ga_r = results[2];

    if (!args.outDir.empty()) {
        telemetry::exportTelemetry(args.outDir, "search", recorder);
        std::printf("\ntelemetry: %s/search.{csv,jsonl}\n",
                    args.outDir.c_str());
    }

    if (!verify)
        return 0;

    std::printf("\n");
    int failures = 0;

    // Replay: same seed, fresh oracle → bit-identical search.
    for (const std::string &engine : search::searcherNames()) {
        search::InProcessOracle a(args.threads), b(args.threads);
        const search::SearchResult ra =
            search::makeSearcher(engine)->search(task, a, opts);
        const search::SearchResult rb =
            search::makeSearcher(engine)->search(task, b, opts);
        checkIdentical(("replay " + engine).c_str(), ra, rb, failures);
    }

    // Backend identity: the service scheduler path (canonicalize →
    // cache → executor → encoded body) must drive the search to the
    // same candidates as the executor-direct path.
    {
        search::InProcessOracle direct(args.threads);
        const search::SearchResult rd =
            search::makeSearcher("sa")->search(task, direct, opts);
        service::SchedulerConfig cfg;
        cfg.threads = 1;
        service::ExperimentScheduler sched(cfg);
        service::LocalClient local(sched);
        search::ClientOracle service_oracle(local);
        const search::SearchResult rs =
            search::makeSearcher("sa")->search(task, service_oracle, opts);
        checkIdentical("backend in-process vs service", rd, rs, failures);
    }

    // Thread-invariance: the oracle's batch parallelism must not leak
    // into results (DESIGN.md §7 extended to the search layer).
    {
        search::InProcessOracle one(1), many(4);
        const search::SearchResult r1 =
            search::makeSearcher("ga")->search(task, one, opts);
        const search::SearchResult r4 =
            search::makeSearcher("ga")->search(task, many, opts);
        checkIdentical("oracle threads 1 vs 4", r1, r4, failures);
    }

    // Cache effectiveness: the comparison phase revisited candidates.
    const double shared_ratio =
        shared.stats().calls > 0
            ? static_cast<double>(shared.stats().cacheHits)
                  / static_cast<double>(shared.stats().calls)
            : 0.0;
    if (shared_ratio > 0.0) {
        std::printf("verify: %-34s OK (ratio %.3f)\n",
                    "cache hits on revisits", shared_ratio);
    } else {
        std::fprintf(stderr, "verify: %-34s FAILED\n",
                     "cache hits on revisits");
        ++failures;
    }

    // Coverage: the search sampled a vanishing fraction of the space.
    const double space_size = search::exhaustiveSize(task.space);
    const auto total_calls =
        static_cast<double>(shared.stats().calls);
    if (total_calls < space_size) {
        std::printf("verify: %-34s OK (%.0f of %.3g)\n",
                    "oracle calls < exhaustive space", total_calls,
                    space_size);
    } else {
        std::fprintf(stderr, "verify: %-34s FAILED\n",
                     "oracle calls < exhaustive space");
        ++failures;
    }

    // Quality: the metaheuristics must not lose to random sampling at
    // the same explore budget.
    for (const search::SearchResult *r : {&sa_r, &ga_r}) {
        if (r->bestScore <= random_r.bestScore) {
            std::printf("verify: %-34s OK (%.6e <= %.6e)\n",
                        (r->engine + " >= random").c_str(), r->bestScore,
                        random_r.bestScore);
        } else {
            std::fprintf(stderr, "verify: %-34s FAILED (%.6e > %.6e)\n",
                         (r->engine + " >= random").c_str(), r->bestScore,
                         random_r.bestScore);
            ++failures;
        }
    }

    if (failures == 0) {
        std::printf("\nverify: all gates passed\n");
        return 0;
    }
    std::fprintf(stderr, "\nverify: %d gate(s) FAILED\n", failures);
    return 1;
}
