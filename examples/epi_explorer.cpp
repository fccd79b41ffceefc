/**
 * @file
 * EPI explorer: measure the energy per instruction of any supported
 * instruction variant at any operand pattern — the paper's open-data
 * use case of building power models from the characterization.
 *
 * Usage:
 *   epi_explorer [variant] [min|random|max] [--samples N]
 *   epi_explorer --list
 *
 * Example:
 *   ./build/examples/epi_explorer sdivx max
 */

#include <cstdio>
#include <string>

#include "common/cli.hh"
#include "core/epi_experiment.hh"

int
main(int argc, char **argv)
{
    using namespace piton;

    const cli::Args args =
        cli::parse(argc, argv, {{"--list"}, {"--samples"}, 2},
                   "[variant] [min|random|max] [--samples N] | --list");
    if (args.hasFlag("--list")) {
        std::printf("supported variants:\n");
        for (const auto &v : workloads::epiVariants())
            std::printf("  %-10s latency %2u cycles%s\n", v.label.c_str(),
                        v.latency,
                        v.hasOperands ? "" : " (no operand patterns)");
        return 0;
    }
    const auto samples = static_cast<std::uint32_t>(
        args.number("--samples", 64, 0, cli::kMaxCount));
    // Each positional is an operand pattern or a variant label.
    std::vector<std::string> variants;
    for (const auto &v : workloads::epiVariants())
        variants.push_back(v.label);
    std::string variant = "add";
    workloads::OperandPattern pattern = workloads::OperandPattern::Random;
    for (const std::string &arg : args.positionals) {
        if (arg == "min")
            pattern = workloads::OperandPattern::Minimum;
        else if (arg == "random")
            pattern = workloads::OperandPattern::Random;
        else if (arg == "max")
            pattern = workloads::OperandPattern::Maximum;
        else
            variant = variants[args.toChoice("variant", arg, variants)];
    }

    const workloads::EpiVariant &v = workloads::epiVariant(variant);
    core::EpiExperiment exp(sim::SystemOptions{}, samples);

    std::printf("measuring EPI of '%s' with %s operands "
                "(latency %u cycles, %u samples)...\n",
                v.label.c_str(), workloads::operandPatternName(pattern),
                v.latency, samples);
    const core::EpiRow row = exp.measure(v, pattern);
    std::printf("EPI = %.1f ± %.1f pJ\n", row.epiPj, row.errPj);

    // Context: the recompute-vs-load tradeoff from the paper.
    const core::EpiRow add =
        exp.measure(workloads::epiVariant("add"),
                    workloads::OperandPattern::Random);
    std::printf("for reference, add(random) = %.1f pJ -> '%s' costs "
                "%.1f adds\n",
                add.epiPj, v.label.c_str(), row.epiPj / add.epiPj);
    return 0;
}
