/**
 * @file
 * Shared helpers for the reproduction benches: banner printing and the
 * common bench flag set.  Every bench that takes arguments goes through
 * parseBenchArgs, a thin layer over the strict parser in
 * src/common/cli, so the flag set, defaults, and the hard-error
 * behaviour on unknown flags are identical across binaries.
 */

#ifndef PITON_BENCH_BENCH_UTIL_HH
#define PITON_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>

#include "common/cli.hh"

namespace piton::bench
{

inline void
banner(const char *id, const char *title)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id, title);
    std::printf("Reproduction of: McKeown et al., \"Power and Energy\n"
                "Characterization of an Open Source 25-core Manycore\n"
                "Processor\", HPCA 2018.\n");
    std::printf("==============================================================\n\n");
}

/** Parsed common bench arguments (see parseBenchArgs).  The caller's
 *  extra flags and options are read through the cli::Args accessors
 *  (hasFlag, number, real, ...). */
struct BenchArgs : cli::Args
{
    explicit BenchArgs(cli::Args parsed) : cli::Args(std::move(parsed)) {}

    /** Monitor samples per measurement (the paper records 128). */
    std::uint32_t samples = 128;
    /** Sweep-level worker threads (0 = all hardware threads).
     *  Results are bit-identical at any value (common/parallel.hh). */
    unsigned threads = 1;
    /** Telemetry output directory (--out); empty = no export. */
    std::string outDir;
    /** Periodic checkpoint cadence in sample windows
     *  (--checkpoint-every; 0 = disabled). */
    std::uint32_t checkpointEvery = 0;
    /** Checkpoint file to write (--checkpoint-out; empty = none). */
    std::string checkpointOut;
    /** Checkpoint file to resume from (--resume-from; empty = cold
     *  start). */
    std::string resumeFrom;
    /** DVFS governor policy (--governor; empty = bench default, which
     *  is the static-table "none" policy). */
    std::string governor;
    /** Scenario kv-file (--scenario; empty = the bench's built-in
     *  scenario).  See src/governor/scenario.hh for the schema. */
    std::string scenario;
};

/**
 * Parse the common bench flags:
 *   --samples N         monitor samples per measurement
 *   --threads N         sweep worker threads (0 = all hardware threads)
 *   --out DIR           telemetry export directory (benches that record
 *                       telemetry write <dir>/<bench>.{csv,jsonl})
 *   --checkpoint-every N, --checkpoint-out FILE, --resume-from FILE,
 *   --governor POLICY, --scenario FILE
 * plus any caller-allowed boolean `extra_flags` (e.g. "--full"),
 * caller-allowed valued `extra_opts` (e.g. "--port", consuming the
 * next argument), and up to `max_positionals` positional arguments,
 * with the strict cli::parse contract: anything else exits 2 with
 * usage.  Mutually exclusive or dependent flag combinations are hard
 * errors here too, so every binary rejects them identically.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv, std::uint32_t def_samples = 128,
               unsigned def_threads = 1,
               std::initializer_list<const char *> extra_flags = {},
               std::size_t max_positionals = 0,
               std::initializer_list<const char *> extra_opts = {})
{
    cli::Spec spec{{extra_flags.begin(), extra_flags.end()},
                   {"--samples", "--threads", "--out", "--checkpoint-every",
                    "--checkpoint-out", "--resume-from", "--governor",
                    "--scenario"},
                   max_positionals};
    std::string usage =
        "[--samples N] [--threads N] [--out DIR] [--checkpoint-every N]"
        " [--checkpoint-out FILE] [--resume-from FILE] [--governor POLICY]"
        " [--scenario FILE]";
    for (const char *f : extra_flags)
        usage += std::string(" [") + f + "]";
    for (const char *o : extra_opts) {
        spec.options.emplace_back(o);
        usage += std::string(" [") + o + " V]";
    }
    if (max_positionals > 0)
        usage += " [ARG...]";

    BenchArgs args(cli::parse(argc, argv, spec, std::move(usage)));
    args.samples = static_cast<std::uint32_t>(
        args.number("--samples", def_samples, 0, cli::kMaxCount));
    args.threads = static_cast<unsigned>(
        args.number("--threads", def_threads, 0, cli::kMaxCount));
    args.outDir = args.optionValue("--out");
    args.checkpointEvery = static_cast<std::uint32_t>(
        args.number("--checkpoint-every", 0, 0, cli::kMaxCount));
    args.checkpointOut = args.optionValue("--checkpoint-out");
    args.resumeFrom = args.optionValue("--resume-from");
    args.governor = args.optionValue("--governor");
    args.scenario = args.optionValue("--scenario");

    if (args.checkpointEvery > 0 && args.checkpointOut.empty())
        args.fail("--checkpoint-every requires", "--checkpoint-out");
    if (args.hasFlag("--sampled")) {
        // A sampled run re-simulates slices forked from its own
        // profile; layering it over an unrelated resume image or a
        // periodic checkpoint stream is undefined.
        if (!args.resumeFrom.empty())
            args.fail("--sampled is incompatible with", "--resume-from");
        if (args.checkpointEvery > 0 || !args.checkpointOut.empty())
            args.fail("--sampled is incompatible with",
                      "--checkpoint-every/--checkpoint-out");
    }
    return args;
}

} // namespace piton::bench

#endif // PITON_BENCH_BENCH_UTIL_HH
