/**
 * @file
 * Command-line contract (src/common/cli and the bench layer over it):
 * a parser accepts exactly its declared flags, options and positionals
 * and hard-errors — usage to stderr, exit 2 — on anything else,
 * including a malformed or out-of-range value.  Silent acceptance of a
 * misspelled flag would silently run the wrong experiment.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../bench/bench_util.hh"
#include "common/cli.hh"

namespace
{

using piton::bench::BenchArgs;
using piton::bench::parseBenchArgs;
namespace cli = piton::cli;

/** argv builder (the parsers want mutable char**). */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : strings_(std::move(args))
    {
        for (auto &s : strings_)
            ptrs_.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> strings_;
    std::vector<char *> ptrs_;
};

TEST(BenchUtil, ParsesTheCommonFlagSet)
{
    Argv a({"bench", "--samples", "32", "--threads", "4", "--out", "/tmp/x",
            "--checkpoint-every", "10", "--checkpoint-out", "ck.bin",
            "--resume-from", "old.bin"});
    const BenchArgs args = parseBenchArgs(a.argc(), a.argv());
    EXPECT_EQ(args.samples, 32u);
    EXPECT_EQ(args.threads, 4u);
    EXPECT_EQ(args.outDir, "/tmp/x");
    EXPECT_EQ(args.checkpointEvery, 10u);
    EXPECT_EQ(args.checkpointOut, "ck.bin");
    EXPECT_EQ(args.resumeFrom, "old.bin");
}

TEST(BenchUtil, DefaultsApplyWithoutFlags)
{
    Argv a({"bench"});
    const BenchArgs args = parseBenchArgs(a.argc(), a.argv(), 64, 2);
    EXPECT_EQ(args.samples, 64u);
    EXPECT_EQ(args.threads, 2u);
    EXPECT_TRUE(args.outDir.empty());
}

TEST(BenchUtil, UnknownFlagIsAHardError)
{
    Argv a({"bench", "--sampels", "32"}); // typo'd flag
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "unknown flag");
}

TEST(BenchUtil, MissingValueIsAHardError)
{
    Argv a({"bench", "--samples"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "missing value");
}

TEST(BenchUtil, NonNumericValueIsAHardError)
{
    Argv a({"bench", "--threads", "many"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "bad numeric value");
}

TEST(BenchUtil, NegativeValueIsAHardError)
{
    Argv a({"bench", "--samples", "-3"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "");
}

TEST(BenchUtil, ExcessPositionalIsAHardError)
{
    Argv a({"bench", "chip2"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "unexpected argument");
}

TEST(BenchUtil, AllowListedExtrasParse)
{
    Argv a({"bench", "--full", "--port", "1234", "chip2"});
    const BenchArgs args = parseBenchArgs(a.argc(), a.argv(), 128, 1,
                                          {"--full"}, 1, {"--port"});
    EXPECT_TRUE(args.hasFlag("--full"));
    EXPECT_FALSE(args.hasFlag("--fast"));
    EXPECT_EQ(args.optionValue("--port"), "1234");
    EXPECT_EQ(args.optionValue("--host", "localhost"), "localhost");
    ASSERT_EQ(args.positionals.size(), 1u);
    EXPECT_EQ(args.positionals[0], "chip2");
}

TEST(BenchUtil, DuplicateExtraOptionIsAHardError)
{
    // Regression: this used to silently resolve last-one-wins, which
    // let a stale flag in a wrapper script shadow the intended value.
    Argv a({"bench", "--port", "1", "--port", "2"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv(), 128, 1, {}, 0,
                               {"--port"}),
                testing::ExitedWithCode(2), "duplicate flag");
}

TEST(BenchUtil, DuplicateCommonFlagIsAHardError)
{
    Argv a({"bench", "--samples", "8", "--samples", "16"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "duplicate flag");
}

TEST(BenchUtil, DuplicateBooleanExtraIsAHardError)
{
    Argv a({"bench", "--full", "--full"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv(), 128, 1, {"--full"}),
                testing::ExitedWithCode(2), "duplicate flag");
}

TEST(BenchUtil, RepeatedPositionalsStillParse)
{
    // Only dash-flags dedup; positional values may legitimately repeat.
    Argv a({"bench", "x", "x"});
    const BenchArgs args = parseBenchArgs(a.argc(), a.argv(), 128, 1, {}, 2);
    ASSERT_EQ(args.positionals.size(), 2u);
}

TEST(BenchUtil, ExtraOptionMissingValueIsAHardError)
{
    Argv a({"bench", "--port"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv(), 128, 1, {}, 0,
                               {"--port"}),
                testing::ExitedWithCode(2), "missing value");
}

TEST(BenchUtil, CheckpointEveryWithoutOutIsAHardError)
{
    Argv a({"bench", "--checkpoint-every", "10"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv()),
                testing::ExitedWithCode(2),
                "--checkpoint-every requires");
}

TEST(BenchUtil, SampledWithResumeFromIsAHardError)
{
    Argv a({"bench", "--sampled", "--resume-from", "old.bin"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv(), 128, 1, {"--sampled"}),
                testing::ExitedWithCode(2),
                "--sampled is incompatible with");
}

TEST(BenchUtil, SampledWithCheckpointOutIsAHardError)
{
    Argv a({"bench", "--sampled", "--checkpoint-out", "ck.bin"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv(), 128, 1, {"--sampled"}),
                testing::ExitedWithCode(2),
                "--sampled is incompatible with");
}

TEST(BenchUtil, SampledAloneParses)
{
    Argv a({"bench", "--sampled"});
    const BenchArgs args =
        parseBenchArgs(a.argc(), a.argv(), 128, 1, {"--sampled"});
    EXPECT_TRUE(args.hasFlag("--sampled"));
}

TEST(BenchUtil, NonAllowListedExtraIsStillUnknown)
{
    Argv a({"bench", "--port", "1234"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv(), 128, 1, {"--full"}, 0),
                testing::ExitedWithCode(2), "unknown flag");
}

/** One valued option "--v" parsed from `value`. */
cli::Args
parseValue(Argv &a)
{
    return cli::parse(a.argc(), a.argv(), {{}, {"--v"}}, "[--v X]");
}

TEST(Cli, IntegerRangeBoundsAreInclusive)
{
    Argv lo({"tool", "--v", "1"});
    EXPECT_EQ(parseValue(lo).number("--v", 0, 1, 4), 1u);
    Argv hi({"tool", "--v", "4"});
    EXPECT_EQ(parseValue(hi).number("--v", 0, 1, 4), 4u);
    Argv hex({"tool", "--v", "0x10"});
    EXPECT_EQ(parseValue(hex).number("--v", 0, 0, 16), 16u);
    Argv absent({"tool"});
    EXPECT_EQ(parseValue(absent).number("--v", 3, 1, 4), 3u);

    Argv below({"tool", "--v", "0"});
    EXPECT_EXIT(parseValue(below).number("--v", 2, 1, 4),
                testing::ExitedWithCode(2), "--v out of range \\[1, 4\\]");
    Argv above({"tool", "--v", "5"});
    EXPECT_EXIT(parseValue(above).number("--v", 2, 1, 4),
                testing::ExitedWithCode(2), "out of range");
    Argv overflow({"tool", "--v", "18446744073709551616"});
    EXPECT_EXIT(parseValue(overflow).number("--v", 0, 0, UINT64_MAX),
                testing::ExitedWithCode(2), "bad numeric value");
    Argv signed_value({"tool", "--v", "+3"});
    EXPECT_EXIT(parseValue(signed_value).number("--v", 0, 0, 9),
                testing::ExitedWithCode(2), "bad numeric value");
    Argv octal_looking({"tool", "--v", "010"});
    EXPECT_EXIT(parseValue(octal_looking).number("--v", 0, 0, 99),
                testing::ExitedWithCode(2), "bad numeric value");
}

TEST(Cli, PortBoundsAreOneTo65535InAListAndZeroAlone)
{
    // A lone --port may be 0 (ephemeral / in-process); a worker list
    // names ports to connect to, where 0 means nothing.
    Argv zero({"tool", "--v", "0"});
    EXPECT_EQ(parseValue(zero).number("--v", 7, 0, 65535), 0u);
    Argv too_big({"tool", "--v", "65536"});
    EXPECT_EXIT(parseValue(too_big).number("--v", 7, 0, 65535),
                testing::ExitedWithCode(2), "out of range");

    Argv list({"tool", "--v", "1,65535"});
    EXPECT_EQ(parseValue(list).ports("--v"),
              (std::vector<std::uint16_t>{1, 65535}));
    Argv absent({"tool"});
    EXPECT_TRUE(parseValue(absent).ports("--v").empty());
    Argv list_zero({"tool", "--v", "0"});
    EXPECT_EXIT(parseValue(list_zero).ports("--v"),
                testing::ExitedWithCode(2), "bad port list");
    Argv list_big({"tool", "--v", "7427,65536"});
    EXPECT_EXIT(parseValue(list_big).ports("--v"),
                testing::ExitedWithCode(2), "bad port list");
}

TEST(Cli, PortListWithAnEmptyTokenIsAHardError)
{
    for (const char *bad : {"1,,2", "1,2,", ",1", ""}) {
        Argv a({"tool", "--v", bad});
        EXPECT_EXIT(parseValue(a).ports("--v"), testing::ExitedWithCode(2),
                    "bad port list")
            << bad;
    }
}

TEST(Cli, NonFiniteDoubleIsAHardError)
{
    Argv ok({"tool", "--v", "1.5"});
    EXPECT_DOUBLE_EQ(parseValue(ok).real("--v", 0.0), 1.5);
    for (const char *bad : {"nan", "inf", "-inf", "1e999", "1.5W", " 1"}) {
        Argv a({"tool", "--v", bad});
        EXPECT_EXIT(parseValue(a).real("--v", 0.0),
                    testing::ExitedWithCode(2), "bad numeric value")
            << bad;
    }
    Argv above({"tool", "--v", "2.5"});
    EXPECT_EXIT(parseValue(above).real("--v", 1.0, 0.5, 2.0),
                testing::ExitedWithCode(2), "out of range");
}

TEST(Cli, ChoiceOutsideItsListIsAHardError)
{
    const std::vector<std::string> engines = {"random", "sa", "ga"};
    Argv ga({"tool", "--v", "ga"});
    EXPECT_EQ(parseValue(ga).choice("--v", engines, "sa"), 2u);
    Argv absent({"tool"});
    EXPECT_EQ(parseValue(absent).choice("--v", engines, "sa"), 1u);
    Argv bad({"tool", "--v", "SA"});
    EXPECT_EXIT(parseValue(bad).choice("--v", engines, "sa"),
                testing::ExitedWithCode(2), "unknown --v \\(random\\|sa\\|ga\\)");
}

TEST(Cli, FlagOfAnotherCommandIsUnknown)
{
    // The two-stage tool parse: global options up to the command, then
    // the command's own spec.  --points belongs to sweep, not ping.
    const cli::Spec global{{}, {"--port"}, 0, true};
    const cli::Spec sweep{{"--verify"}, {"--points"}};

    Argv ok({"tool", "--port", "1", "sweep", "--points", "3"});
    const cli::Args g = cli::parse(ok.argc(), ok.argv(), global, "u");
    ASSERT_EQ(g.positionals, std::vector<std::string>{"sweep"});
    EXPECT_EQ(g.next(), 4);
    const cli::Args s = cli::parse(ok.argc(), ok.argv(), sweep, "u", g.next());
    EXPECT_EQ(s.number("--points", 16, 0, 100), 3u);
    EXPECT_FALSE(s.hasFlag("--verify"));

    Argv wrong({"tool", "--port", "1", "ping", "--points", "3"});
    const cli::Args w = cli::parse(wrong.argc(), wrong.argv(), global, "u");
    EXPECT_EXIT(cli::parse(wrong.argc(), wrong.argv(), cli::Spec{}, "u",
                           w.next()),
                testing::ExitedWithCode(2), "unknown flag: --points");
    // A global option after the command is the command's to accept.
    Argv late({"tool", "ping", "--port", "1"});
    const cli::Args l = cli::parse(late.argc(), late.argv(), global, "u");
    EXPECT_EXIT(cli::parse(late.argc(), late.argv(), cli::Spec{}, "u",
                           l.next()),
                testing::ExitedWithCode(2), "unknown flag: --port");
}

TEST(Cli, UsageErrorNamesTheProgramAndPrintsTheUsage)
{
    Argv a({"piton-tool", "--bogus"});
    EXPECT_EXIT(cli::parse(a.argc(), a.argv(), {}, "[--real-flag]"),
                testing::ExitedWithCode(2),
                "piton-tool: unknown flag: --bogus\nusage: piton-tool "
                "\\[--real-flag\\]");
}

} // namespace
