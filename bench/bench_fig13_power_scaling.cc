/**
 * @file
 * Fig. 13: full-chip power scaling with core count for the Int, HP,
 * and Hist microbenchmarks, in 1 T/C and 2 T/C configurations
 * (Chip #3), with least-squares mW/core trendlines.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/scaling_experiments.hh"

int
main(int argc, char **argv)
{
    using namespace piton;
    bench::banner("Fig. 13", "Power scaling with core count");
    const bench::BenchArgs args =
        bench::parseBenchArgs(argc, argv, 48, 0);
    const std::uint32_t samples = args.samples;

    sim::SystemOptions opts;
    opts.sweepThreads = args.threads;
    const core::PowerScalingExperiment exp(opts, samples);
    const std::vector<std::uint32_t> grid = {1,  3,  5,  7,  9,  11, 13,
                                             15, 17, 19, 21, 23, 25};
    const auto points = exp.runAll(grid);

    TextTable t({"Cores", "Int 1T/C (W)", "Int 2T/C (W)", "HP 1T/C (W)",
                 "HP 2T/C (W)", "Hist 1T/C (W)", "Hist 2T/C (W)"});
    for (const std::uint32_t c : grid) {
        std::array<std::string, 6> cells;
        for (const auto &p : points) {
            if (p.cores != c)
                continue;
            const std::size_t col =
                static_cast<std::size_t>(p.bench) * 2
                + (p.threadsPerCore - 1);
            cells[col] = fmtF(p.fullChipPowerW, 3);
        }
        t.addRow({std::to_string(c), cells[0], cells[1], cells[2],
                  cells[3], cells[4], cells[5]});
    }
    t.print(std::cout);

    std::cout << "\nTrendlines:\n";
    TextTable tr({"Benchmark", "T/C", "mW/core", "Paper (mW/core)", "r^2"});
    auto paper_slope = [](workloads::Microbench b, std::uint32_t tpc) {
        switch (b) {
          case workloads::Microbench::Int: return tpc == 1 ? 22.8 : 37.4;
          case workloads::Microbench::HP: return tpc == 1 ? 35.6 : 57.8;
          default: return tpc == 1 ? 14.5 : 14.4;
        }
    };
    for (const auto &trend : core::PowerScalingExperiment::trends(points)) {
        tr.addRow({workloads::microbenchName(trend.bench),
                   std::to_string(trend.threadsPerCore),
                   fmtF(trend.mwPerCore, 1),
                   fmtF(paper_slope(trend.bench, trend.threadsPerCore), 1),
                   fmtF(trend.r2, 3)});
    }
    tr.print(std::cout);

    std::cout << "\nShape checks: linear scaling for Int/HP; HP highest,"
                 " Hist lowest; 2 T/C\nscales faster for Int/HP; Hist"
                 " 2 T/C rises then drops beyond ~17 cores\n(lock"
                 " contention + shrinking per-thread work).\n";
    return 0;
}
