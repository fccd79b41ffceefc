/**
 * @file
 * Ablation: sampled simulation (DESIGN.md §14).
 *
 * A phased workload (integer / memory / idle phases, repeated) runs on
 * all 25 tiles three ways:
 *
 *   full:       plain runToCompletion — the exact reference energy,
 *               execution time, and EPI;
 *   profile:    the same run under the interval profiler (BBV
 *               histograms + per-interval checkpoint images);
 *   --sampled:  cluster the profile's intervals into phases, re-simulate
 *               only one representative slice per cluster (forked from
 *               its interval-start image), and stitch a whole-run
 *               estimate with a 95% confidence interval.
 *
 * The default mode runs all three and reports the stitched estimate
 * against the exact reference: relative error, CI coverage, the
 * fraction of instructions actually re-simulated, and the wall-clock
 * ratio of the full run to the slice replays (the speedup every
 * *additional* estimate from the same profile enjoys).
 *
 * Flags (beyond bench_util.hh's common set):
 *   --sampled            skip the plain full run; profile + stitch only
 *   --interval-insns N   profiling interval size in instructions
 *   --max-slices N       clusters / representative slices
 *   --verify             exit non-zero unless the stitched EPI is
 *                        within kEpiTolerance of the exact value, the
 *                        CI covers it, and the simulated fraction is
 *                        at most kMaxSimulatedFrac
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "isa/program.hh"
#include "sampling/cluster.hh"
#include "sampling/profiler.hh"
#include "sampling/sampled_run.hh"
#include "sim/system.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;
using Clock = std::chrono::steady_clock;

/** Committed accuracy/coverage tolerances (the CI job's contract). */
constexpr double kEpiTolerance = 0.02;     ///< |EPI error| / EPI
constexpr double kMaxSimulatedFrac = 0.10; ///< re-simulated insns share

constexpr std::uint32_t kTiles = 25;
constexpr std::uint32_t kThreadsPerCore = 2;
constexpr Cycle kMaxCycles = 4'000'000'000ULL;

void
loadKernel(sim::System &sys, const isa::Program &kernel)
{
    for (TileId tile = 0; tile < kTiles; ++tile)
        for (ThreadId tid = 0; tid < kThreadsPerCore; ++tid) {
            const RegVal hwid = tile * kThreadsPerCore + tid;
            sys.loadProgram(tile, tid, &kernel,
                            {{1, workloads::kMixedDataBase + hwid * 4096}});
        }
}

double
wallS(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Ablation", "Sampled simulation (phase clustering)");
    // --samples here is the phased kernel's outer repetition count: 96
    // reps give ~325 intervals, enough for the 8 slices to amortize to
    // a >10x wall-clock win (CI runs a smaller 24-rep smoke).
    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, /*def_samples=*/96, /*def_threads=*/0,
        {"--sampled", "--verify"}, 0, {"--interval-insns", "--max-slices"});
    const std::uint64_t reps = args.samples; // outer phase repetitions
    const bool sampled_only = args.hasFlag("--sampled");
    const bool verify = args.hasFlag("--verify");
    const std::uint64_t interval_insns =
        args.number("--interval-insns", 100000, 1, UINT64_MAX);
    const auto max_slices = static_cast<std::uint32_t>(
        args.number("--max-slices", 8, 0, cli::kMaxCount));

    sim::SystemOptions opts;
    opts.bbvBuckets = 128;
    const isa::Program kernel = workloads::makePhasedEnergyProgram(reps);

    // Exact reference.  The profiling run reproduces it bit-for-bit
    // (BBV counters never feed back into timing or energy), so under
    // --sampled the profile's own totals serve as the reference and
    // only the full-run wall clock is skipped.
    double full_s = 0.0;
    double exact_j = 0.0, exact_epi = 0.0;
    std::uint64_t exact_insns = 0;
    if (!sampled_only) {
        sim::System sys(opts);
        loadKernel(sys, kernel);
        const auto t0 = Clock::now();
        const sim::CompletionResult res = sys.runToCompletion(kMaxCycles);
        full_s = wallS(t0);
        if (!res.completed) {
            std::fprintf(stderr, "full run did not complete\n");
            return 1;
        }
        exact_j = res.onChipEnergyJ;
        exact_insns = res.insts;
        std::printf("full run:   %llu insns, %.6f mJ, %.3f s wall\n",
                    static_cast<unsigned long long>(res.insts),
                    res.onChipEnergyJ * 1e3, full_s);
    }

    // Profile the same run.
    sampling::ProfilerOptions popts;
    popts.intervalInsns = interval_insns;
    sim::System psys(opts);
    loadKernel(psys, kernel);
    sampling::IntervalProfiler prof(psys, popts);
    const auto tp = Clock::now();
    const sim::CompletionResult pres = prof.run(kMaxCycles);
    const double prof_s = wallS(tp);
    if (!pres.completed) {
        std::fprintf(stderr, "profiling run did not complete\n");
        return 1;
    }
    if (sampled_only) {
        exact_j = prof.totalEnergyJ();
        exact_insns = prof.totalInsns();
    }
    exact_epi = exact_insns != 0
                    ? exact_j / static_cast<double>(exact_insns)
                    : 0.0;
    std::printf("profile:    %zu intervals of ~%llu insns, %.3f s wall\n",
                prof.intervals().size(),
                static_cast<unsigned long long>(interval_insns), prof_s);

    // Cluster + replay + stitch.
    sampling::SampledOptions sopts;
    sopts.maxSlices = max_slices;
    sopts.threads = args.threads;
    const auto ts = Clock::now();
    const sampling::SampledEstimate est =
        sampling::runSampled(prof.intervals(), opts, sopts);
    const double stitch_s = wallS(ts);

    std::printf("sampled:    %zu slices over %u clustered intervals, "
                "%.3f s wall\n\n",
                est.slices.size(), est.clusteredIntervals, stitch_s);

    TextTable t({"Quantity", "Exact", "Sampled", "CI95", "Rel err"});
    const double e_err =
        exact_j > 0.0 ? (est.energyJ - exact_j) / exact_j : 0.0;
    t.addRow({"On-chip energy (mJ)", fmtF(exact_j * 1e3, 6),
              fmtF(est.energyJ * 1e3, 6), fmtF(est.energyCi95J * 1e3, 6),
              fmtF(e_err * 1e2, 3) + "%"});
    t.addRow({"EPI (nJ/insn)", fmtF(exact_epi * 1e9, 6),
              fmtF(est.epi * 1e9, 6), fmtF(est.epiCi95 * 1e9, 6),
              fmtF(e_err * 1e2, 3) + "%"});
    t.print(std::cout);

    const double speedup = full_s > 0.0 && stitch_s > 0.0
                               ? full_s / stitch_s
                               : 0.0;
    std::printf("\nsimulated fraction: %.4f (%llu of %llu insns)\n",
                est.simulatedFrac,
                static_cast<unsigned long long>(est.simulatedInsns),
                static_cast<unsigned long long>(est.totalInsns));
    if (speedup > 0.0)
        std::printf("wall-clock speedup vs full run: %.1fx "
                    "(cluster+replay+stitch)\n",
                    speedup);
    const bool covered = std::abs(est.energyJ - exact_j)
                         <= est.energyCi95J + 1e-15;
    std::printf("CI covers exact value: %s\n", covered ? "yes" : "NO");

    if (verify) {
        bool ok = true;
        if (std::abs(e_err) > kEpiTolerance) {
            std::fprintf(stderr,
                         "FAIL: |EPI error| %.4f > tolerance %.4f\n",
                         std::abs(e_err), kEpiTolerance);
            ok = false;
        }
        if (est.simulatedFrac > kMaxSimulatedFrac) {
            std::fprintf(stderr,
                         "FAIL: simulated fraction %.4f > %.4f\n",
                         est.simulatedFrac, kMaxSimulatedFrac);
            ok = false;
        }
        if (!covered) {
            std::fprintf(stderr,
                         "FAIL: CI does not cover the exact energy\n");
            ok = false;
        }
        // The replayed slices must reproduce their profiled intervals
        // bit-for-bit — that is the determinism contract the estimator
        // stands on.
        for (const auto &s : est.slices) {
            const sampling::IntervalRecord &rec =
                prof.intervals()[s.interval];
            if (s.insns != rec.insns || s.cycles != rec.cycles) {
                std::fprintf(stderr,
                             "FAIL: slice %u replay diverged from its "
                             "profiled interval\n",
                             s.interval);
                ok = false;
            }
        }
        std::printf("verify: %s\n", ok ? "PASS" : "FAIL");
        return ok ? 0 : 1;
    }
    return 0;
}
