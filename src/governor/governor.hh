/**
 * @file
 * Closed-loop DVFS governors (DESIGN.md §13).
 *
 * A Governor is the policy half of the control loop: sim::System
 * samples telemetry per control epoch (a fixed number of sample
 * windows), hands the governor an EpochObs, and realizes the returned
 * Actuation before the next window — a chip-wide V-f operating point on
 * the PLL grid plus a per-tile frequency command that System implements
 * as deterministic window-granularity duty gating.  Policies therefore
 * never touch the simulator: they are pure functions of the observation
 * stream plus their own serialized controller state, which is what
 * keeps governed runs bit-identical under either engine and across
 * checkpoint/resume.
 *
 * Three policies ship behind the interface (plus "none"):
 *  - ondemand: per-tile utilization ladder — jump to fmax above the up
 *    threshold, step down the grid below the down threshold;
 *  - pidcap: PI(D) controller tracking a chip- or rail-level watt
 *    budget by moving the chip operating point along the V-f curve;
 *  - theas: cache-aware placement + DVFS in the spirit of THEAS —
 *    memory-bound tiles (high mem-stall fraction) are throttled,
 *    compute-bound tiles boosted, idle tiles hard-gated, and the
 *    thread-to-tile placement clusters work around the mesh center to
 *    shorten NoC routes to the L2 homes.
 */

#ifndef PITON_GOVERNOR_GOVERNOR_HH
#define PITON_GOVERNOR_GOVERNOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "config/piton_params.hh"
#include "power/rails.hh"
#include "power/vf_model.hh"

namespace piton::ckpt
{
class Archive;
}
namespace piton::config
{
class KvFile;
}

namespace piton::governor
{

/** Per-tile slice of one control epoch. */
struct TileObs
{
    /** Instructions retired by the tile this epoch. */
    std::uint64_t insts = 0;
    /** Memory-stall cycles accumulated by the tile's threads this
     *  epoch (the per-tile cache-pressure proxy; L2/NoC stats are
     *  chip-global). */
    std::uint64_t stallCycles = 0;
    /** Core-local VDD+VCS energy charged this epoch (J). */
    double energyJ = 0.0;
    /** Frequency commanded for this tile entering the epoch (MHz;
     *  0 = hard-gated). */
    double freqMhz = 0.0;
    /** Hard-gated for the whole epoch (no duty slots at all). */
    bool gated = false;
};

/** Everything a policy may observe at an epoch boundary. */
struct EpochObs
{
    /** Sample clock at the end of the epoch (s). */
    double timeS = 0.0;
    /** Simulated seconds covered by the epoch. */
    double epochS = 0.0;
    /** Chip cycles covered by the epoch. */
    std::uint64_t epochCycles = 0;
    /** Mean VDD+VCS power over the epoch (W), incl. clock + leakage. */
    double onChipPowerW = 0.0;
    /** Mean per-rail power over the epoch (W). */
    std::array<double, power::kNumRails> railPowerW{};
    double dieTempC = 0.0;
    double packageTempC = 0.0;
    /** Operating point the epoch ran at. */
    double vddV = 0.0;
    double freqMhz = 0.0;
    std::vector<TileObs> tiles;
};

/** What a policy decides at an epoch boundary. */
struct Actuation
{
    /** False = keep everything as is (the other fields are ignored). */
    bool changed = false;
    /** New chip supply (V) — must be able to sustain freqMhz. */
    double vddV = 0.0;
    /** New chip clock (MHz, on the PLL grid). */
    double freqMhz = 0.0;
    /** Per-tile frequency commands (MHz; 0 = hard gate; values are
     *  clamped to freqMhz).  Empty = every tile at freqMhz. */
    std::vector<double> tileFreqMhz;
};

/** Static facts about the platform the governor controls. */
struct Platform
{
    const config::PitonParams *piton = nullptr;
    power::VfParams vf{};
    /** Per-chip process-variation speed multiplier. */
    double speedFactor = 1.0;
    /** Operating point at attach time. */
    double nominalVddV = 1.0;
    double nominalFreqMhz = 500.05;
};

/** Policy selection + tuning knobs (kv-file schema in scenario.hh). */
struct GovernorParams
{
    /** "none" | "ondemand" | "pidcap" | "theas". */
    std::string policy = "none";
    /** Control epoch length in sample windows (>= 1). */
    std::uint32_t epochWindows = 4;

    // pidcap
    double capW = 0.0;
    /** "onchip" (VDD+VCS) or a rail name: "vdd" | "vcs" | "vio". */
    std::string capRail = "onchip";
    double kpMhzPerW = 40.0;
    double kiMhzPerW = 12.0;
    double kdMhzPerW = 0.0;

    // ondemand
    double upUtil = 0.70;
    double downUtil = 0.25;

    // theas
    double stallHi = 0.04;
    double stallLo = 0.01;

    // shared actuation bounds
    double minFreqMhz = 100.0;
    double maxVddV = 1.05;
};

class Governor
{
  public:
    virtual ~Governor() = default;

    virtual const char *name() const = 0;

    /** Bind the policy to a platform; resets controller state.  Must
     *  be called (System::attachGovernor does) before controlEpoch. */
    void init(const Platform &plat);

    /** One control decision; called by System at every epoch boundary. */
    virtual Actuation controlEpoch(const EpochObs &obs) = 0;

    /** Controller state for the checkpoint's sys.governor section
     *  (PID integrator etc.; platform/params are reconstructed by the
     *  caller, not stored).  Default: stateless. */
    virtual void serialize(ckpt::Archive &ar);

    /**
     * Thread-to-tile placement for `count` active tiles (the scenario
     * engine loads workloads onto the returned tiles, in order).
     * Default: linear 0..count-1.  THEAS clusters around the mesh
     * center to shorten NoC routes.  Requires init().
     */
    virtual std::vector<TileId> placeTiles(std::uint32_t count) const;

    std::uint32_t epochWindows() const { return params_.epochWindows; }
    /** Cap-schedule hook (scenario engine): retune the watt budget
     *  mid-run; policies read it fresh at every epoch. */
    void setCapW(double cap_w) { params_.capW = cap_w; }
    const GovernorParams &params() const { return params_; }
    const Platform &platform() const { return plat_; }
    const power::VfModel &vfModel() const { return vf_; }

    /** Smallest supply (within [model minimum, maxVddV]) whose device
     *  fmax sustains `f_mhz`; deterministic fixed-step bisection. */
    double vddForFreq(double f_mhz) const;

    /** Quantized fmax at `vdd_v` for this chip's speed factor. */
    double fmaxMhz(double vdd_v) const;

    /** Clamp a frequency request to [minFreqMhz, fmax(maxVddV)] and
     *  quantize it onto the PLL grid (never below one grid step). */
    double clampFreqMhz(double f_mhz) const;

  protected:
    explicit Governor(GovernorParams params) : params_(std::move(params)) {}

    /** Policy hook run at the end of init() (state reset). */
    virtual void onInit() {}

    GovernorParams params_;
    Platform plat_;
    power::VfModel vf_;
};

/** Instantiate a policy by GovernorParams::policy; throws
 *  std::runtime_error on an unknown name. */
std::unique_ptr<Governor> makeGovernor(const GovernorParams &params);

/** Valid policy names, for CLI help / validation. */
const char *governorPolicyNames();

/**
 * Read the governor.* keys of a scenario kv-file (see scenario.hh for
 * the schema) over the defaults in `base`; unknown-key detection stays
 * with the caller (KvFile::checkUnknownKeys after all consumers ran).
 */
GovernorParams governorParamsFromKv(const config::KvFile &kv,
                                    GovernorParams base = {});

} // namespace piton::governor

#endif // PITON_GOVERNOR_GOVERNOR_HH
