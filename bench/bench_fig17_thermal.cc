/**
 * @file
 * Fig. 17: chip power as a function of package temperature for
 * different numbers of active threads (HP workload), sweeping
 * temperature by tilting the fan — heat sink removed, 100.01 MHz,
 * VDD 0.9 V / VCS 0.95 V, on the thermal-study chip.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/thermal_experiments.hh"
#include "telemetry/export.hh"

int
main(int argc, char **argv)
{
    using namespace piton;
    bench::banner("Fig. 17", "Power vs package temperature (fan sweep)");
    const bench::BenchArgs args =
        bench::parseBenchArgs(argc, argv, 24, 0);

    sim::SystemOptions opts = core::thermalStudyOptions();
    opts.sweepThreads = args.threads;
    const core::ThermalSweepExperiment exp(opts, args.samples);
    // The sweep runs through the telemetry path: one recorder per
    // family task, merged in task order (bit-identical at any
    // --threads value).
    telemetry::TelemetryRecorder telem;
    TextTable t({"Threads", "Fan eff.", "Package T (C)", "Power (mW)"});
    for (const auto &p : exp.runAll(&telem)) {
        t.addRow({std::to_string(p.activeThreads),
                  fmtF(p.fanEffectiveness, 2),
                  fmtF(p.packageTempC, 1),
                  fmtF(wToMw(p.powerW), 0)});
    }
    t.print(std::cout);
    if (!args.outDir.empty()) {
        telemetry::exportTelemetry(args.outDir, "fig17_thermal", telem);
        std::cout << "\ntelemetry: " << args.outDir
                  << "/fig17_thermal.{csv,jsonl} (" << telem.seriesCount()
                  << " series)\n";
    }

    std::cout << "\nShape checks (paper): more active threads shift the"
                 " curve up; at fixed\nthread count, power grows"
                 " (exponential leakage) as the fan tilt raises the\n"
                 "package temperature; paper range ~36-56 C / 500-900"
                 " mW.\n";
    return 0;
}
