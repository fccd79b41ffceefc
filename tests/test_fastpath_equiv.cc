/**
 * @file
 * Reference-path equivalence suite for the fast path (DESIGN.md §9).
 *
 * The event-driven chip scheduler (run-ahead rounds + the core-local
 * run-ahead loop) promises results *bit-identical* to the legacy
 * per-cycle stepping: same cycle counts, same per-class retirement
 * counts, and — because floating-point addition is not associative —
 * the exact same ledger sums, down to the last mantissa bit.  These
 * tests run every microbenchmark (and targeted stress programs) under
 * both SystemOptions::fastPath settings and compare everything
 * observable, including a byte-for-byte telemetry CSV diff.
 */

#include <array>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "governor/scenario.hh"
#include "isa/assembler.hh"
#include "power/energy_model.hh"
#include "sim/system.hh"
#include "telemetry/export.hh"
#include "telemetry/recorder.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;

std::uint64_t
bitsOf(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/** Everything observable about a finished run, FP values as raw bits
 *  so EXPECT_EQ is exact (no tolerance, by design). */
struct RunFingerprint
{
    Cycle cycles = 0;
    bool allHalted = false;
    Cycle now = 0;
    std::uint64_t totalInsts = 0;
    std::uint64_t draftedInsts = 0;
    std::array<std::uint64_t,
               static_cast<std::size_t>(isa::InstClass::NumClasses)>
        classCounts{};
    /** Per-category, per-rail ledger sums + grand total, as bits. */
    std::vector<std::uint64_t> ledgerBits;
    /** Per-tile core energies, as bits. */
    std::vector<std::uint64_t> tileBits;

    bool
    operator==(const RunFingerprint &o) const
    {
        return cycles == o.cycles && allHalted == o.allHalted
               && now == o.now && totalInsts == o.totalInsts
               && draftedInsts == o.draftedInsts
               && classCounts == o.classCounts
               && ledgerBits == o.ledgerBits && tileBits == o.tileBits;
    }
};

RunFingerprint
fingerprint(const arch::PitonChip &chip, const arch::PitonChip::RunResult &r)
{
    RunFingerprint f;
    f.cycles = r.cyclesElapsed;
    f.allHalted = r.allHalted;
    f.now = chip.now();
    f.totalInsts = chip.totalInsts();
    f.draftedInsts = chip.draftedInsts();
    f.classCounts = chip.classCounts();
    const auto &ledger = chip.ledger();
    for (std::size_t c = 0; c < power::kNumCategories; ++c)
        for (std::size_t rail = 0; rail < power::kNumRails; ++rail)
            f.ledgerBits.push_back(bitsOf(
                ledger.category(static_cast<power::Category>(c))
                    .get(static_cast<power::Rail>(rail))));
    for (std::size_t rail = 0; rail < power::kNumRails; ++rail)
        f.ledgerBits.push_back(
            bitsOf(ledger.total().get(static_cast<power::Rail>(rail))));
    for (const double e : chip.tileCoreEnergyJ())
        f.tileBits.push_back(bitsOf(e));
    return f;
}

void
expectEqualFingerprints(const RunFingerprint &fast,
                        const RunFingerprint &legacy)
{
    EXPECT_EQ(fast.cycles, legacy.cycles);
    EXPECT_EQ(fast.allHalted, legacy.allHalted);
    EXPECT_EQ(fast.now, legacy.now);
    EXPECT_EQ(fast.totalInsts, legacy.totalInsts);
    EXPECT_EQ(fast.draftedInsts, legacy.draftedInsts);
    EXPECT_EQ(fast.classCounts, legacy.classCounts);
    EXPECT_EQ(fast.ledgerBits, legacy.ledgerBits);
    EXPECT_EQ(fast.tileBits, legacy.tileBits);
    EXPECT_TRUE(fast == legacy);
}

/** Run one microbenchmark on `cores` tiles at `threads_per_core`. */
RunFingerprint
runMicrobench(workloads::Microbench m, bool fast_path, bool drafting,
              std::uint32_t cores, std::uint32_t threads_per_core,
              Cycle cycles)
{
    sim::SystemOptions opts;
    opts.fastPath = fast_path;
    sim::System sys(opts);
    if (drafting)
        sys.pitonChip().setExecDrafting(true);
    const auto programs = workloads::loadMicrobench(
        sys, m, cores, threads_per_core, 0);
    const auto r = sys.pitonChip().run(cycles);
    return fingerprint(sys.pitonChip(), r);
}

/** (microbench, drafting, cores, threads per core): every workload/
 *  drafting combination runs the fast path against the legacy
 *  baseline, bit for bit, on the full chip and on a partly loaded one
 *  (13 of 25 cores), with one and with two threads per core — one
 *  Ready thread leaves its sibling Idle, which the run-ahead loop must
 *  neither pick nor schedule. */
using EquivParam =
    std::tuple<workloads::Microbench, bool, std::uint32_t, std::uint32_t>;

class FastPathEquivalence : public ::testing::TestWithParam<EquivParam>
{
};

TEST_P(FastPathEquivalence, MicrobenchIsBitIdentical)
{
    const auto [bench, drafting, cores, tpc] = GetParam();
    const auto fast = runMicrobench(bench, true, drafting, cores, tpc, 30000);
    const auto legacy =
        runMicrobench(bench, false, drafting, cores, tpc, 30000);
    expectEqualFingerprints(fast, legacy);
}

/** Instance names end in "T1" (the engine runs on one thread); keep
 *  the suffix so the test ids stay stable.  The full chip at 2 T/C
 *  keeps its original name; other shapes add "_<cores>x<tpc>". */
std::string
equivParamName(const ::testing::TestParamInfo<EquivParam> &info)
{
    const auto [bench, drafting, cores, tpc] = info.param;
    std::string name = workloads::microbenchName(bench);
    if (drafting)
        name += "ExecD";
    if (cores != 25 || tpc != 2) {
        name += "_";
        name += std::to_string(cores);
        name += "x";
        name += std::to_string(tpc);
    }
    return name + "T1";
}

INSTANTIATE_TEST_SUITE_P(
    AllMicrobenches, FastPathEquivalence,
    ::testing::Combine(::testing::Values(workloads::Microbench::Int,
                                         workloads::Microbench::HP,
                                         workloads::Microbench::Hist),
                       ::testing::Bool(), ::testing::Values(25u, 13u),
                       ::testing::Values(2u, 1u)),
    equivParamName);

/** Store-buffer pressure: back-to-back stores overflow the 8-entry
 *  buffer, exercising rollbacks, replayed stores, and the drain
 *  interleaving with the second thread's loads. */
TEST(FastPathEquivalenceStress, StoreBufferPressureIsBitIdentical)
{
    const isa::Program pressure = isa::assemble(R"(
        set 0x20000, %r1
        set 0, %r3
    loop:
        stx %r2, [%r1 + 0]
        stx %r2, [%r1 + 8]
        stx %r2, [%r1 + 64]
        stx %r2, [%r1 + 72]
        add %r2, 1, %r2
        ldx [%r1 + 0], %r4
        add %r3, 1, %r3
        cmp %r3, 400
        bl loop
        halt
    )");
    const isa::Program spin = isa::assemble(R"(
        set 0, %r1
        set 0x30000, %r3
    loop:
        add %r1, 1, %r1
        add %r3, 8, %r3
        ldx [%r3 + 0], %r2
        cmp %r1, 2000
        bl loop
        halt
    )");

    auto run = [&](bool fast_path) {
        sim::SystemOptions opts;
        opts.fastPath = fast_path;
        sim::System sys(opts);
        for (TileId tile = 0; tile < 25; ++tile) {
            sys.loadProgram(tile, 0, &pressure);
            sys.loadProgram(tile, 1, tile % 2 ? &spin : &pressure);
        }
        const auto r = sys.pitonChip().run(200000);
        return fingerprint(sys.pitonChip(), r);
    };
    const auto legacy = run(false);
    const auto fast = run(true);
    EXPECT_TRUE(fast.allHalted);
    expectEqualFingerprints(fast, legacy);
}

/** The telemetry pipeline samples ledger deltas per window; feeding it
 *  from both paths must produce byte-identical CSV exports. */
TEST(FastPathEquivalenceStress, TelemetryCsvIsByteIdentical)
{
    auto csv = [](bool fast_path) {
        sim::SystemOptions opts;
        opts.fastPath = fast_path;
        sim::System sys(opts);
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        const auto programs = workloads::loadMicrobench(
            sys, workloads::Microbench::HP, 25, 2, 0);
        for (int window = 0; window < 16; ++window)
            sys.windowTruePowers(2000);
        std::ostringstream os;
        telemetry::writeCsv(os, rec);
        return os.str();
    };
    const std::string fast = csv(true);
    const std::string legacy = csv(false);
    ASSERT_FALSE(fast.empty());
    EXPECT_EQ(fast, legacy);
}

/**
 * Closed-loop governed runs (DESIGN.md §13) carry extra serial state —
 * epoch accumulators, duty-gate tables, controller internals — all of
 * which must stay bit-identical across the legacy and fast paths.
 * Each policy runs the same phased scenario (cap retune + workload swap
 * mid-run, so actuation and gating actually fire) and the whole
 * observable surface is compared: chip fingerprint, scenario aggregates
 * as raw bits, and a byte-for-byte telemetry CSV including the
 * governor.* epoch series.
 */
class GovernedEquivalence
    : public ::testing::TestWithParam<const char *>
{
  protected:
    struct GovernedRun
    {
        RunFingerprint fp;
        std::vector<std::uint64_t> resultBits;
        std::string csv;
    };

    GovernedRun
    run(bool fast_path) const
    {
        governor::Scenario sc = governor::Scenario::fromText(R"(
name             = equiv
workload         = hp
tiles            = 25
threads_per_core = 2
epoch_windows    = 2
cycles           = 30000
phases           = 2
phase1.cap_w     = 1.6
phase1.workload  = int
)");
        sc.gov.policy = GetParam();
        if (sc.gov.policy == "pidcap")
            sc.gov.capW = 2.2;

        sim::SystemOptions opts;
        opts.fastPath = fast_path;
        sim::System sys(opts);
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        const governor::ScenarioResult r = governor::runScenario(sys, sc);

        GovernedRun g;
        arch::PitonChip::RunResult rr;
        rr.cyclesElapsed = r.cycles;
        rr.allHalted = false;
        g.fp = fingerprint(sys.pitonChip(), rr);
        g.resultBits = {r.cycles,
                        r.insts,
                        bitsOf(r.seconds),
                        bitsOf(r.energyJ),
                        bitsOf(r.avgPowerW),
                        bitsOf(r.epi),
                        bitsOf(r.finalDieTempC)};
        for (const auto &ph : r.phases) {
            g.resultBits.push_back(bitsOf(ph.avgPowerW));
            g.resultBits.push_back(bitsOf(ph.epi));
            g.resultBits.push_back(bitsOf(ph.endTimeS));
            g.resultBits.push_back(ph.insts);
        }
        std::ostringstream os;
        telemetry::writeCsv(os, rec);
        g.csv = os.str();
        return g;
    }
};

TEST_P(GovernedEquivalence, BitIdenticalAcrossEnginesAndThreads)
{
    const GovernedRun legacy = run(false);
    ASSERT_FALSE(legacy.csv.empty());
    EXPECT_GT(legacy.fp.totalInsts, 0u);
    const GovernedRun fast = run(true);
    expectEqualFingerprints(fast.fp, legacy.fp);
    EXPECT_EQ(fast.resultBits, legacy.resultBits);
    EXPECT_EQ(fast.csv, legacy.csv);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, GovernedEquivalence,
                         ::testing::Values("none", "ondemand", "pidcap",
                                           "theas"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

/** The default engine must actually run rounds on the all-cores-active
 *  workload; otherwise the equivalence tests above would never
 *  exercise the run-ahead round's capture and replay. */
TEST(FastPathEquivalenceStress, RunAheadRoundsActuallyRun)
{
    sim::System sys{sim::SystemOptions{}};
    const auto programs = workloads::loadMicrobench(
        sys, workloads::Microbench::Int, 25, 2, 0);
    sys.pitonChip().run(30000);
    EXPECT_GT(sys.pitonChip().runAheadRounds(), 0u);
}

} // namespace
