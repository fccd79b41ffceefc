/**
 * @file
 * DVFS operating-point explorer: for a chosen chip and VDD, report the
 * maximum boot frequency (device- and thermally-limited), idle power,
 * and the power of a full-chip integer workload — the Fig. 9 / Fig. 10
 * methodology as a user-facing tool.
 *
 * Usage:
 *   dvfs_explorer [--chip N] [--vdd VOLTS]
 */

#include <cstdio>

#include "chip/fmax_solver.hh"
#include "common/cli.hh"
#include "sim/system.hh"
#include "workloads/microbenchmarks.hh"

int
main(int argc, char **argv)
{
    using namespace piton;

    const cli::Args args = cli::parse(argc, argv, {{}, {"--chip", "--vdd"}},
                                      "[--chip 1..4] [--vdd VOLTS]");
    const auto chip_id = static_cast<int>(args.number("--chip", 2, 1, 4));
    const double vdd =
        args.real("--vdd", 1.00, power::VfParams{}.minVddV, 2.0);
    const double vcs = vdd + 0.05;

    const chip::FmaxSolver solver(power::VfModel{}, power::EnergyModel{},
                                  thermal::ThermalParams{});
    const chip::ChipInstance inst = chip::makeChip(chip_id);
    const chip::FmaxResult fmax = solver.solve(inst, vdd, vcs);

    std::printf("%s at VDD=%.2f V, VCS=%.2f V:\n", inst.name.c_str(), vdd,
                vcs);
    std::printf("  device-limited fmax : %.2f MHz\n", fmax.rawMhz);
    std::printf("  reported fmax       : %.2f MHz%s\n", fmax.fmaxMhz,
                fmax.thermallyLimited ? "  (thermally limited!)" : "");
    std::printf("  die temperature     : %.1f C at %.2f W boot power\n\n",
                fmax.dieTempC, fmax.powerW);

    // Measure idle and full-chip Int power at the selected point.
    sim::SystemOptions opts;
    opts.chipId = chip_id;
    opts.vddV = vdd;
    opts.vcsV = vcs;
    opts.coreClockMhz = fmax.fmaxMhz;
    sim::System sys(opts);
    std::printf("  idle power          : %.1f mW\n",
                wToMw(sys.idlePowerW()));
    const auto programs = workloads::loadMicrobench(
        sys, workloads::Microbench::Int, 25, 2, /*iterations=*/0);
    const auto m = sys.measure(48);
    std::printf("  Int on 50 threads   : %.1f ± %.1f mW\n",
                wToMw(m.onChipMeanW()), wToMw(m.onChipStddevW()));
    return 0;
}
