/**
 * @file
 * Checkpoint/restore suite (DESIGN.md §10).
 *
 * The contract under test: a run checkpointed at cycle N and resumed
 * in a fresh process-equivalent System produces *bit-identical*
 * results to the uninterrupted run — ledger sums and per-tile energies
 * compared as raw IEEE-754 bit patterns, telemetry CSV exports
 * compared byte for byte — under either fastPath setting, and even
 * across engines (save fast, resume legacy).  Malformed images
 * (truncation, corruption, bad magic, version or config mismatch) must
 * fail with ckpt::CheckpointError, never undefined behaviour.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "arch/piton_chip.hh"
#include "checkpoint/archive.hh"
#include "governor/governor.hh"
#include "chip/chip_instance.hh"
#include "config/piton_params.hh"
#include "isa/assembler.hh"
#include "power/energy_model.hh"
#include "sim/system.hh"
#include "sim/warm_start.hh"
#include "telemetry/export.hh"
#include "telemetry/recorder.hh"
#include "telemetry/schema.hh"
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

/** Everything observable about a System run, FP values as raw bits so
 *  EXPECT_EQ is exact — the checkpoint promise is bit-identity, not
 *  tolerance. */
struct SystemFingerprint
{
    std::vector<std::uint64_t> windowBits; ///< per-window rail powers
    std::vector<std::uint64_t> ledgerBits;
    std::vector<std::uint64_t> tileBits;
    std::uint64_t sampleClockBits = 0;
    std::uint64_t insts = 0;
    Cycle now = 0;
    std::string csv; ///< full telemetry export

    bool
    operator==(const SystemFingerprint &o) const
    {
        return windowBits == o.windowBits && ledgerBits == o.ledgerBits
               && tileBits == o.tileBits
               && sampleClockBits == o.sampleClockBits && insts == o.insts
               && now == o.now && csv == o.csv;
    }
};

void
recordWindows(sim::System &sys, std::uint32_t windows,
              SystemFingerprint &fp)
{
    for (std::uint32_t w = 0; w < windows; ++w) {
        const auto p =
            sys.windowTruePowers(sys.options().cyclesPerSample);
        for (const double v : p)
            fp.windowBits.push_back(bitsOf(v));
    }
}

void
finishFingerprint(sim::System &sys, const telemetry::TelemetryRecorder &rec,
                  SystemFingerprint &fp)
{
    const auto &ledger = sys.pitonChip().ledger();
    for (std::size_t c = 0; c < power::kNumCategories; ++c)
        for (std::size_t rail = 0; rail < power::kNumRails; ++rail)
            fp.ledgerBits.push_back(
                bitsOf(ledger.category(static_cast<power::Category>(c))
                           .get(static_cast<power::Rail>(rail))));
    for (std::size_t rail = 0; rail < power::kNumRails; ++rail)
        fp.ledgerBits.push_back(
            bitsOf(ledger.total().get(static_cast<power::Rail>(rail))));
    for (const double e : sys.pitonChip().tileCoreEnergyJ())
        fp.tileBits.push_back(bitsOf(e));
    fp.sampleClockBits = bitsOf(sys.sampleClockS());
    fp.insts = sys.pitonChip().totalInsts();
    fp.now = sys.pitonChip().now();
    std::ostringstream os;
    telemetry::writeCsv(os, rec);
    fp.csv = os.str();
}

sim::SystemOptions
optsFor(bool fast_path)
{
    sim::SystemOptions opts;
    opts.fastPath = fast_path;
    return opts;
}

constexpr std::uint32_t kPrefixWindows = 5;
constexpr std::uint32_t kSuffixWindows = 5;

/** The uninterrupted reference: attach, run prefix + suffix windows. */
SystemFingerprint
runStraight(workloads::Microbench m, bool fast_path)
{
    sim::System sys(optsFor(fast_path));
    const auto programs = workloads::loadMicrobench(sys, m, 25, 2, 0);
    telemetry::TelemetryRecorder rec;
    sys.attachTelemetry(&rec);
    SystemFingerprint fp;
    recordWindows(sys, kPrefixWindows + kSuffixWindows, fp);
    finishFingerprint(sys, rec, fp);
    return fp;
}

/** Same run, interrupted: checkpoint after the prefix, restore into a
 *  fresh System (no loadMicrobench — program images travel in the
 *  checkpoint), finish the suffix there. */
SystemFingerprint
runInterrupted(workloads::Microbench m, bool save_fast, bool resume_fast)
{
    SystemFingerprint fp;
    std::vector<std::uint8_t> bytes;
    {
        sim::System sys(optsFor(save_fast));
        const auto programs =
            workloads::loadMicrobench(sys, m, 25, 2, 0);
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        recordWindows(sys, kPrefixWindows, fp);
        bytes = sys.saveBytes();
    }
    sim::System resumed(optsFor(resume_fast));
    telemetry::TelemetryRecorder rec;
    resumed.attachTelemetry(&rec); // attach first, then restore
    resumed.restoreBytes(bytes);
    recordWindows(resumed, kSuffixWindows, fp);
    finishFingerprint(resumed, rec, fp);
    return fp;
}

class CheckpointRoundTrip
    : public ::testing::TestWithParam<std::tuple<workloads::Microbench, bool>>
{
};

TEST_P(CheckpointRoundTrip, ResumeIsBitIdentical)
{
    const auto [bench, fast] = GetParam();
    const auto straight = runStraight(bench, fast);
    const auto resumed = runInterrupted(bench, fast, fast);
    EXPECT_EQ(resumed.windowBits, straight.windowBits);
    EXPECT_EQ(resumed.ledgerBits, straight.ledgerBits);
    EXPECT_EQ(resumed.tileBits, straight.tileBits);
    EXPECT_EQ(resumed.sampleClockBits, straight.sampleClockBits);
    EXPECT_EQ(resumed.insts, straight.insts);
    EXPECT_EQ(resumed.now, straight.now);
    EXPECT_EQ(resumed.csv, straight.csv);
    EXPECT_TRUE(resumed == straight);
}

std::string
roundTripName(
    const ::testing::TestParamInfo<std::tuple<workloads::Microbench, bool>>
        &info)
{
    return std::string(workloads::microbenchName(std::get<0>(info.param)))
           + (std::get<1>(info.param) ? "Fast" : "Legacy");
}

INSTANTIATE_TEST_SUITE_P(
    AllMicrobenches, CheckpointRoundTrip,
    ::testing::Combine(::testing::Values(workloads::Microbench::Int,
                                         workloads::Microbench::HP,
                                         workloads::Microbench::Hist),
                       ::testing::Bool()),
    roundTripName);

/** fastPath is deliberately not fingerprinted: a checkpoint saved
 *  under the fast engine resumes bit-identically on the legacy one
 *  (both engines are bit-equivalent, see test_fastpath_equiv). */
TEST(CheckpointCrossEngine, SaveFastResumeLegacy)
{
    const auto straight = runStraight(workloads::Microbench::HP, true);
    const auto crossed =
        runInterrupted(workloads::Microbench::HP, true, false);
    EXPECT_TRUE(crossed == straight);
}

TEST(CheckpointCrossEngine, SaveLegacyResumeFast)
{
    const auto straight = runStraight(workloads::Microbench::Int, false);
    const auto crossed =
        runInterrupted(workloads::Microbench::Int, false, true);
    EXPECT_TRUE(crossed == straight);
}

/** Checkpointing at several different points of the same run must each
 *  resume onto the same trajectory. */
TEST(CheckpointRoundTripCycles, MultipleCheckpointCycles)
{
    const auto straight = runStraight(workloads::Microbench::Int, true);
    for (const std::uint32_t at : {1u, 4u, 9u}) {
        SystemFingerprint fp;
        std::vector<std::uint8_t> bytes;
        {
            sim::System sys(optsFor(true));
            const auto programs = workloads::loadMicrobench(
                sys, workloads::Microbench::Int, 25, 2, 0);
            telemetry::TelemetryRecorder rec;
            sys.attachTelemetry(&rec);
            recordWindows(sys, at, fp);
            bytes = sys.saveBytes();
        }
        sim::System resumed(optsFor(true));
        telemetry::TelemetryRecorder rec;
        resumed.attachTelemetry(&rec);
        resumed.restoreBytes(bytes);
        recordWindows(resumed,
                      kPrefixWindows + kSuffixWindows - at, fp);
        finishFingerprint(resumed, rec, fp);
        EXPECT_TRUE(fp == straight) << "checkpoint at window " << at;
    }
}

// ---- PitonChip-level save/restore (file round trip) ------------------

struct ChipFingerprint
{
    Cycle now = 0;
    std::uint64_t insts = 0;
    std::vector<std::uint64_t> ledgerBits;
    std::vector<std::uint64_t> tileBits;

    bool
    operator==(const ChipFingerprint &o) const
    {
        return now == o.now && insts == o.insts
               && ledgerBits == o.ledgerBits && tileBits == o.tileBits;
    }
};

ChipFingerprint
chipFingerprint(const arch::PitonChip &chip)
{
    ChipFingerprint f;
    f.now = chip.now();
    f.insts = chip.totalInsts();
    const auto &ledger = chip.ledger();
    for (std::size_t c = 0; c < power::kNumCategories; ++c)
        for (std::size_t rail = 0; rail < power::kNumRails; ++rail)
            f.ledgerBits.push_back(
                bitsOf(ledger.category(static_cast<power::Category>(c))
                           .get(static_cast<power::Rail>(rail))));
    for (const double e : chip.tileCoreEnergyJ())
        f.tileBits.push_back(bitsOf(e));
    return f;
}

isa::Program
chipTestProgram()
{
    return isa::assemble(R"(
        set 0x20000, %r1
        set 0, %r3
    loop:
        stx %r3, [%r1 + 0]
        ldx [%r1 + 0], %r4
        add %r3, 1, %r3
        cmp %r3, 3000
        bl loop
        halt
    )");
}

TEST(CheckpointChipLevel, FileRoundTripResumesBitIdentical)
{
    const std::string path = ::testing::TempDir() + "piton_chip.ckpt";
    const isa::Program p = chipTestProgram();

    config::PitonParams params;
    power::EnergyModel energy;
    arch::PitonChip chip(params, chip::makeChip(2), energy, 17);
    for (TileId tile = 0; tile < 4; ++tile)
        chip.loadProgram(tile, 0, &p);
    chip.run(5000);
    chip.save(path);
    chip.run(1'000'000);
    const ChipFingerprint straight = chipFingerprint(chip);

    power::EnergyModel energy2;
    arch::PitonChip resumed(params, chip::makeChip(2), energy2, 17);
    resumed.restore(path); // no loadProgram: images travel along
    resumed.run(1'000'000);
    const ChipFingerprint after = chipFingerprint(resumed);
    EXPECT_TRUE(after == straight);
    std::remove(path.c_str());
}

TEST(CheckpointChipLevel, MissingFileThrows)
{
    config::PitonParams params;
    power::EnergyModel energy;
    arch::PitonChip chip(params, chip::makeChip(2), energy, 17);
    EXPECT_THROW(
        chip.restore(::testing::TempDir() + "no_such_checkpoint.ckpt"),
        ckpt::CheckpointError);
}

TEST(CheckpointChipLevel, UnwritablePathThrows)
{
    config::PitonParams params;
    power::EnergyModel energy;
    arch::PitonChip chip(params, chip::makeChip(2), energy, 17);
    EXPECT_THROW(chip.save("/nonexistent_dir_piton/x.ckpt"),
                 ckpt::CheckpointError);
}

// ---- malformed images fail loudly, never UB --------------------------

std::vector<std::uint8_t>
smallImage()
{
    sim::System sys(optsFor(true));
    const auto programs = workloads::loadMicrobench(
        sys, workloads::Microbench::Int, 2, 1, 0);
    sys.windowTruePowers(sys.options().cyclesPerSample);
    return sys.saveBytes();
}

TEST(CheckpointMalformed, TruncationThrows)
{
    const auto bytes = smallImage();
    // Every truncation point must produce a clean error.  Stepping a
    // prime keeps the test fast while hitting headers, names, and
    // payloads alike.
    for (std::size_t n = 0; n < bytes.size(); n += 409) {
        std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + n);
        sim::System sys(optsFor(true));
        EXPECT_THROW(sys.restoreBytes(cut), ckpt::CheckpointError)
            << "truncated to " << n << " bytes";
    }
}

TEST(CheckpointMalformed, BitFlipThrows)
{
    const auto bytes = smallImage();
    for (const std::size_t at :
         {std::size_t{20}, bytes.size() / 2, bytes.size() - 1}) {
        auto bad = bytes;
        bad[at] ^= 0x40;
        sim::System sys(optsFor(true));
        EXPECT_THROW(sys.restoreBytes(bad), ckpt::CheckpointError)
            << "bit flip at offset " << at;
    }
}

TEST(CheckpointMalformed, BadMagicThrows)
{
    auto bytes = smallImage();
    bytes[0] = 'X';
    sim::System sys(optsFor(true));
    try {
        sys.restoreBytes(bytes);
        FAIL() << "bad magic accepted";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
    }
}

TEST(CheckpointMalformed, VersionMismatchThrows)
{
    auto bytes = smallImage();
    bytes[8] ^= 0xFF; // format version u32 follows the 8-byte magic
    sim::System sys(optsFor(true));
    try {
        sys.restoreBytes(bytes);
        FAIL() << "version mismatch accepted";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST(CheckpointMalformed, TrailingGarbageThrows)
{
    auto bytes = smallImage();
    bytes.push_back(0xAB);
    sim::System sys(optsFor(true));
    EXPECT_THROW(sys.restoreBytes(bytes), ckpt::CheckpointError);
}

TEST(CheckpointMalformed, EmptyImageThrows)
{
    sim::System sys(optsFor(true));
    EXPECT_THROW(sys.restoreBytes({}), ckpt::CheckpointError);
}

TEST(CheckpointMalformed, ConfigMismatchThrows)
{
    const auto bytes = smallImage();
    sim::SystemOptions other = optsFor(true);
    other.vddV = 0.90; // fingerprinted operating point
    sim::System sys(other);
    EXPECT_THROW(sys.restoreBytes(bytes), ckpt::CheckpointError);
}

TEST(CheckpointMalformed, RecorderRicherThanImageThrows)
{
    std::vector<std::uint8_t> bytes;
    {
        sim::System sys(optsFor(true));
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        bytes = sys.saveBytes();
    }
    sim::System sys(optsFor(true));
    telemetry::TelemetryRecorder rec;
    sys.attachTelemetry(&rec);
    rec.defineSeries("custom.extra", telemetry::Unit::Count,
                     telemetry::Downsample::Sum);
    EXPECT_THROW(sys.restoreBytes(bytes), ckpt::CheckpointError);
}

// ---- run-ahead round state: restore, corruption, reset ---------------

/** A checkpoint must restore into a *used* chip whose round accounting
 *  (per-tile SoA ledgers, capture logs, round counter) is stale from a
 *  different workload, reset the round counter, and resume
 *  bit-identically to the uninterrupted run. */
TEST(CheckpointRunAhead, RestoreIntoUsedChipResetsRoundCounter)
{
    const auto straight = runStraight(workloads::Microbench::Int, true);
    SystemFingerprint fp;
    std::vector<std::uint8_t> bytes;
    {
        sim::System sys(optsFor(true));
        const auto programs = workloads::loadMicrobench(
            sys, workloads::Microbench::Int, 25, 2, 0);
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        recordWindows(sys, kPrefixWindows, fp);
        bytes = sys.saveBytes();
    }
    sim::System resumed(optsFor(true));
    const auto decoy = workloads::loadMicrobench(
        resumed, workloads::Microbench::Hist, 25, 2, 0);
    resumed.pitonChip().run(10000); // dirty the round state
    EXPECT_GT(resumed.pitonChip().runAheadRounds(), 0u);
    telemetry::TelemetryRecorder rec;
    resumed.attachTelemetry(&rec);
    resumed.restoreBytes(bytes);
    EXPECT_EQ(resumed.pitonChip().runAheadRounds(), 0u);
    recordWindows(resumed, kSuffixWindows, fp);
    finishFingerprint(resumed, rec, fp);
    EXPECT_TRUE(fp == straight);
}

/** The chip.tile_energy section (format v2) is CRC-protected like any
 *  other: a flipped bit inside it must throw, never silently skew the
 *  per-tile accumulators. */
TEST(CheckpointRunAhead, TileEnergySectionCorruptionThrows)
{
    auto bytes = smallImage();
    static const char kName[] = "chip.tile_energy";
    const auto it = std::search(bytes.begin(), bytes.end(), kName,
                                kName + sizeof(kName) - 1);
    ASSERT_NE(it, bytes.end()) << "chip.tile_energy section missing";
    const std::size_t at =
        static_cast<std::size_t>(it - bytes.begin()) + sizeof(kName) + 16;
    ASSERT_LT(at, bytes.size());
    bytes[at] ^= 0x01;
    sim::System sys(optsFor(true));
    EXPECT_THROW(sys.restoreBytes(bytes), ckpt::CheckpointError);
}

/** resetEnergy() must clear every piece of round accounting: the
 *  global ledger, the per-tile SoA ledger, and the round counter. */
TEST(CheckpointRunAhead, ResetEnergyClearsRoundState)
{
    const isa::Program p = chipTestProgram();
    config::PitonParams params;
    power::EnergyModel energy;
    arch::PitonChip chip(params, chip::makeChip(2), energy, 17);
    for (TileId tile = 0; tile < 4; ++tile)
        chip.loadProgram(tile, 0, &p);
    chip.run(20000);
    EXPECT_GT(chip.runAheadRounds(), 0u);
    double accrued = 0.0;
    for (const double e : chip.tileCoreEnergyJ())
        accrued += e;
    EXPECT_GT(accrued, 0.0);

    chip.resetEnergy();
    EXPECT_EQ(chip.runAheadRounds(), 0u);
    for (const double e : chip.tileCoreEnergyJ())
        EXPECT_EQ(bitsOf(e), bitsOf(0.0));
    const auto &ledger = chip.ledger();
    for (std::size_t rail = 0; rail < power::kNumRails; ++rail)
        EXPECT_EQ(
            ledger.total().get(static_cast<power::Rail>(rail)), 0.0);
}

// ---- governed checkpoints (format v3: sys.governor section) ----------

governor::GovernorParams
govParamsFor(const std::string &policy)
{
    governor::GovernorParams p;
    p.policy = policy;
    p.epochWindows = 2;
    if (policy == "pidcap")
        p.capW = 2.0;
    return p;
}

/** Governed reference run: governor attached for the whole span. */
SystemFingerprint
governedStraight(const std::string &policy, std::uint32_t windows)
{
    sim::System sys(optsFor(true));
    const auto gov = governor::makeGovernor(govParamsFor(policy));
    sys.attachGovernor(gov.get());
    const auto programs =
        workloads::loadMicrobench(sys, workloads::Microbench::HP, 25, 2, 0);
    telemetry::TelemetryRecorder rec;
    sys.attachTelemetry(&rec);
    SystemFingerprint fp;
    recordWindows(sys, windows, fp);
    finishFingerprint(sys, rec, fp);
    return fp;
}

std::vector<std::uint8_t>
governedImage(const std::string &policy, std::uint32_t save_at,
              SystemFingerprint &fp)
{
    sim::System sys(optsFor(true));
    const auto gov = governor::makeGovernor(govParamsFor(policy));
    sys.attachGovernor(gov.get());
    const auto programs =
        workloads::loadMicrobench(sys, workloads::Microbench::HP, 25, 2, 0);
    telemetry::TelemetryRecorder rec;
    sys.attachTelemetry(&rec);
    recordWindows(sys, save_at, fp);
    return sys.saveBytes();
}

/** A governed run checkpointed at a control-epoch boundary (and, with
 *  an odd save point, mid-epoch — the accumulators travel too) must
 *  resume bit-identically: same window powers, ledger sums, and
 *  byte-identical telemetry including the governor.* epoch series. */
TEST(CheckpointGoverned, GovernedResumeIsBitIdentical)
{
    for (const char *policy : {"ondemand", "pidcap", "theas"}) {
        const auto straight = governedStraight(
            policy, kPrefixWindows + kSuffixWindows);
        // epochWindows=2: saving after 4 windows is an epoch boundary,
        // after 5 is mid-epoch with live accumulators.
        for (const std::uint32_t at : {4u, 5u}) {
            SystemFingerprint fp;
            const auto bytes = governedImage(policy, at, fp);
            sim::System resumed(optsFor(true));
            const auto gov =
                governor::makeGovernor(govParamsFor(policy));
            resumed.attachGovernor(gov.get()); // before restore
            telemetry::TelemetryRecorder rec;
            resumed.attachTelemetry(&rec);
            resumed.restoreBytes(bytes);
            recordWindows(resumed,
                          kPrefixWindows + kSuffixWindows - at, fp);
            finishFingerprint(resumed, rec, fp);
            EXPECT_TRUE(fp == straight)
                << policy << " saved at window " << at;
        }
    }
}

/** The governor policy is fingerprinted inside sys.governor: resuming
 *  under a different policy must fail loudly, not misinterpret the
 *  controller state. */
TEST(CheckpointGoverned, PolicyMismatchThrows)
{
    SystemFingerprint fp;
    const auto bytes = governedImage("ondemand", kPrefixWindows, fp);
    sim::System resumed(optsFor(true));
    const auto gov = governor::makeGovernor(govParamsFor("theas"));
    resumed.attachGovernor(gov.get());
    try {
        resumed.restoreBytes(bytes);
        FAIL() << "policy mismatch accepted";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("governor"),
                  std::string::npos);
    }
}

/** sys.governor is CRC-protected like every section: a flipped bit in
 *  its payload must throw, never skew the duty tables or PID state. */
TEST(CheckpointGoverned, GovernorSectionCorruptionThrows)
{
    SystemFingerprint fp;
    auto bytes = governedImage("pidcap", kPrefixWindows, fp);
    static const char kName[] = "sys.governor";
    const auto it = std::search(bytes.begin(), bytes.end(), kName,
                                kName + sizeof(kName) - 1);
    ASSERT_NE(it, bytes.end()) << "sys.governor section missing";
    const std::size_t at =
        static_cast<std::size_t>(it - bytes.begin()) + sizeof(kName) + 16;
    ASSERT_LT(at, bytes.size());
    bytes[at] ^= 0x01;
    sim::System resumed(optsFor(true));
    const auto gov = governor::makeGovernor(govParamsFor("pidcap"));
    resumed.attachGovernor(gov.get());
    EXPECT_THROW(resumed.restoreBytes(bytes), ckpt::CheckpointError);
}

/** Sections are located by name, so a pre-governor (ungoverned) image
 *  restores into a governed System: the control loop simply starts
 *  fresh, re-baselined against the restored chip counters. */
TEST(CheckpointGoverned, UngovernedImageRestoresIntoGovernedSystem)
{
    const auto bytes = smallImage();
    sim::System sys(optsFor(true));
    const auto gov = governor::makeGovernor(govParamsFor("ondemand"));
    sys.attachGovernor(gov.get());
    EXPECT_NO_THROW(sys.restoreBytes(bytes));
    EXPECT_EQ(sys.gatedTileCount(), 0u);
    // The governed loop runs from the restored state without tripping
    // any baseline assertion.
    sys.windowTruePowers(sys.options().cyclesPerSample);
    sys.windowTruePowers(sys.options().cyclesPerSample);
}

/** The reverse direction also loads: an ungoverned System skips the
 *  optional sys.governor section (the control-loop state is dropped,
 *  the machine state is intact). */
TEST(CheckpointGoverned, GovernedImageRestoresUngoverned)
{
    SystemFingerprint fp;
    const auto bytes = governedImage("theas", kPrefixWindows, fp);
    sim::System sys(optsFor(true));
    telemetry::TelemetryRecorder rec;
    sys.attachTelemetry(&rec);
    EXPECT_NO_THROW(sys.restoreBytes(bytes));
    EXPECT_EQ(sys.dvfsGovernor(), nullptr);
    EXPECT_EQ(sys.gatedTileCount(), 0u);
}

// ---- restore marker and warm-start semantics -------------------------

TEST(CheckpointTelemetry, RestoreMarkerIsOptIn)
{
    const auto bytes = smallImage();

    sim::System plain(optsFor(true));
    telemetry::TelemetryRecorder plain_rec;
    plain.attachTelemetry(&plain_rec);
    plain.restoreBytes(bytes);
    EXPECT_EQ(plain_rec.find(telemetry::schema::kEventRestore), nullptr);

    sim::System marked(optsFor(true));
    telemetry::TelemetryRecorder marked_rec;
    marked.attachTelemetry(&marked_rec);
    marked.restoreBytes(bytes, /*mark_telemetry_event=*/true);
    ASSERT_NE(marked_rec.find(telemetry::schema::kEventRestore), nullptr);
    EXPECT_EQ(marked_rec.sum(telemetry::schema::kEventRestore), 1.0);
}

TEST(CheckpointWarmStart, ForksMatchEachOtherAndColdRun)
{
    const sim::SystemOptions opts = optsFor(true);
    constexpr std::uint32_t kWarm = 6, kMeasure = 4;

    sim::SweepWarmStart ws = [&] {
        sim::System donor(opts);
        const auto programs = workloads::loadMicrobench(
            donor, workloads::Microbench::HP, 4, 2, 0);
        for (std::uint32_t w = 0; w < kWarm; ++w)
            donor.windowTruePowers(donor.options().cyclesPerSample);
        return sim::SweepWarmStart::capture(donor);
    }();

    auto run_fork = [&] {
        telemetry::TelemetryRecorder rec;
        const auto sys = ws.fork(rec);
        SystemFingerprint fp;
        recordWindows(*sys, kMeasure, fp);
        finishFingerprint(*sys, rec, fp);
        return fp;
    };
    const SystemFingerprint fork1 = run_fork();
    const SystemFingerprint fork2 = run_fork();
    EXPECT_TRUE(fork1 == fork2);

    // Cold flow: re-simulate the prefix, attach after it — the
    // restore re-baselines the deltas to match this exactly.
    sim::System cold(opts);
    const auto programs = workloads::loadMicrobench(
        cold, workloads::Microbench::HP, 4, 2, 0);
    for (std::uint32_t w = 0; w < kWarm; ++w)
        cold.windowTruePowers(cold.options().cyclesPerSample);
    telemetry::TelemetryRecorder rec;
    cold.attachTelemetry(&rec);
    SystemFingerprint cold_fp;
    recordWindows(cold, kMeasure, cold_fp);
    finishFingerprint(cold, rec, cold_fp);
    EXPECT_TRUE(fork1 == cold_fp);
}

TEST(CheckpointWarmStart, FromImageRoundTrips)
{
    sim::System donor(optsFor(true));
    const auto programs = workloads::loadMicrobench(
        donor, workloads::Microbench::Int, 2, 1, 0);
    donor.windowTruePowers(donor.options().cyclesPerSample);
    const sim::SweepWarmStart ws = sim::SweepWarmStart::capture(donor);

    const sim::SweepWarmStart rebuilt =
        sim::SweepWarmStart::fromImage(ws.options(), ws.bytes());
    const auto a = ws.fork();
    const auto b = rebuilt.fork();
    const auto pa =
        a->windowTruePowers(a->options().cyclesPerSample);
    const auto pb =
        b->windowTruePowers(b->options().cyclesPerSample);
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(bitsOf(pa[i]), bitsOf(pb[i]));
}

} // namespace
