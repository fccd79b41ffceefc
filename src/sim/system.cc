#include "sim/system.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <string>

#include "checkpoint/archive.hh"
#include "common/logging.hh"
#include "telemetry/schema.hh"

namespace piton::sim
{

namespace
{

/** Two-digit tile series name, e.g. "tile07.core_j". */
std::string
tileSeriesName(std::size_t tile)
{
    namespace ts = telemetry::schema;
    std::string n = ts::kTilePrefix;
    n += static_cast<char>('0' + tile / 10);
    n += static_cast<char>('0' + tile % 10);
    n += ts::kTileCoreSuffix;
    return n;
}

/** "power.rail.vdd_w" etc. (railName() spells rails in caps). */
std::string
railSeriesName(power::Rail r, const char *suffix)
{
    std::string n = telemetry::schema::kPowerRailPrefix;
    for (const char *p = power::railName(r); *p != '\0'; ++p)
        n += static_cast<char>(
            std::tolower(static_cast<unsigned char>(*p)));
    n += suffix;
    return n;
}

} // namespace

System::System(SystemOptions opts)
    : opts_(opts), instance_(chip::makeChip(opts.chipId, opts.seed)),
      energy_(opts.energyParams), board_(opts.seed ^ 0xB0A2D),
      thermal_(opts.thermalParams)
{
    effVddV_ = opts_.vddV;
    effClockMhz_ = opts_.coreClockMhz;
    energy_.setOperatingPoint(opts_.vddV, opts_.vcsV);
    chip_ = std::make_unique<arch::PitonChip>(opts_.cfg.piton, instance_,
                                              energy_, opts_.seed);
    chip_->setFastPath(opts_.fastPath);
    if (opts_.bbvBuckets != 0)
        chip_->enableBbv(opts_.bbvBuckets);
    board_.setSupply(power::Rail::Vdd, opts_.vddV);
    board_.setSupply(power::Rail::Vcs, opts_.vcsV);
    board_.setSupply(power::Rail::Vio, opts_.vioV);
    thermal_.reset();
    if (!opts_.tileFreqMhz.empty())
        initStaticDuty();
}

void
System::initStaticDuty()
{
    const std::uint32_t n = opts_.cfg.piton.tileCount;
    piton_assert(opts_.tileFreqMhz.size() == n,
                 "tileFreqMhz must cover every tile");
    // Same realization as applyActuation: a tile commanded f_t of the
    // chip clock f runs round(f_t/step) of every round(f/step) windows.
    const double step = power::VfParams{}.freqStepMhz;
    dutyDen_ = static_cast<std::uint32_t>(
        std::max<long long>(1, std::llround(opts_.coreClockMhz / step)));
    dutyNum_.assign(n, dutyDen_);
    dutyAcc_.assign(n, 0);
    tileFreqCmd_.assign(n, opts_.coreClockMhz);
    for (std::uint32_t t = 0; t < n; ++t) {
        const double f = opts_.tileFreqMhz[t];
        if (f <= 0.0) {
            tileFreqCmd_[t] = 0.0;
            dutyNum_[t] = 0;
            continue;
        }
        tileFreqCmd_[t] = std::min(f, opts_.coreClockMhz);
        const long long num = std::llround(tileFreqCmd_[t] / step);
        dutyNum_[t] = static_cast<std::uint32_t>(std::min<long long>(
            std::max<long long>(num, 1), dutyDen_));
    }
    staticDuty_ = true;
}

void
System::loadProgram(TileId tile, ThreadId tid, const isa::Program *p,
                    const std::vector<std::pair<int, RegVal>> &init)
{
    chip_->loadProgram(tile, tid, p, init);
}

power::RailEnergy
System::clockTreePowerW() const
{
    // Hard-gated tiles have their local clock grid stopped, so they
    // draw no clock-tree power (duty-gated tiles still do on their
    // ungated windows; the factor tracks the current window's gates).
    const power::RailEnergy per_cycle = energy_.idleCycleEnergy();
    return per_cycle.scaled(
        static_cast<double>(opts_.cfg.piton.tileCount - gatedTiles_)
        * coreClockHz() * instance_.dynFactor);
}

double
System::idlePowerW() const
{
    // Fixed point between idle power and die temperature.
    const double clock_w = clockTreePowerW().onChipCoreAndSram();
    double temp = thermal_.params().ambientC;
    double total = clock_w;
    for (int i = 0; i < 100; ++i) {
        const double leak =
            energy_.leakagePowerW(temp, instance_.leakFactor)
                .onChipCoreAndSram();
        total = clock_w + leak;
        const double new_temp = thermal_.steadyState(total).dieC;
        if (std::abs(new_temp - temp) < 1e-5)
            break;
        temp = 0.5 * (temp + new_temp);
    }
    return total;
}

std::array<double, 3>
System::windowTruePowers(Cycle window_cycles)
{
    piton_assert(window_cycles > 0, "empty sample window");
    if (dutyActive())
        applyGovernorGates();
    chip_->run(window_cycles);
    const power::RailEnergy now_total = chip_->ledger().total();
    const power::RailEnergy delta = now_total - prevLedger_;
    prevLedger_ = now_total;

    const double window_s =
        static_cast<double>(window_cycles) / coreClockHz();
    const power::RailEnergy clock_w = clockTreePowerW();
    const power::RailEnergy leak_w =
        energy_.leakagePowerW(thermal_.dieTempC(), instance_.leakFactor);

    std::array<double, 3> p{};
    for (std::size_t r = 0; r < power::kNumRails; ++r) {
        const auto rail = static_cast<power::Rail>(r);
        p[r] = delta.get(rail) / window_s + clock_w.get(rail)
               + leak_w.get(rail);
    }

    // Advance the thermal network: on-chip power heats the die.
    thermal_.step(p[0] + p[1], window_s);
    if (telem_)
        recordWindowTelemetry(window_s, p, delta, clock_w, leak_w);
    if (gov_ != nullptr)
        governorEpochWindow(window_cycles, window_s, delta, clock_w,
                            leak_w);
    sampleClockS_ += window_s;
    return p;
}

void
System::attachTelemetry(telemetry::TelemetryRecorder *rec)
{
    telem_ = rec;
    if (!rec)
        return;
    namespace ts = telemetry::schema;
    using telemetry::Downsample;
    using telemetry::Unit;
    rec->setCyclesPerSample(opts_.cyclesPerSample);

    tids_.vddW =
        rec->defineSeries(ts::kPowerVddW, Unit::Watts, Downsample::Mean);
    tids_.vcsW =
        rec->defineSeries(ts::kPowerVcsW, Unit::Watts, Downsample::Mean);
    tids_.vioW =
        rec->defineSeries(ts::kPowerVioW, Unit::Watts, Downsample::Mean);
    tids_.onChipW =
        rec->defineSeries(ts::kPowerOnChipW, Unit::Watts, Downsample::Mean);
    tids_.dynamicW =
        rec->defineSeries(ts::kPowerDynamicW, Unit::Watts, Downsample::Mean);
    tids_.clockW =
        rec->defineSeries(ts::kPowerClockW, Unit::Watts, Downsample::Mean);
    tids_.leakW =
        rec->defineSeries(ts::kPowerLeakW, Unit::Watts, Downsample::Mean);
    tids_.activeJ =
        rec->defineSeries(ts::kEnergyActiveJ, Unit::Joules, Downsample::Sum);
    for (std::size_t i = 0; i < power::kNumCategories; ++i) {
        const auto c = static_cast<power::Category>(i);
        tids_.catJ[i] = rec->defineSeries(
            std::string(ts::kEnergyCategoryPrefix) + power::categoryName(c)
                + "_j",
            Unit::Joules, Downsample::Sum);
        prevCatJ_[i] = chip_->ledger().category(c);
    }
    tids_.nocFlits =
        rec->defineSeries(ts::kNocFlits, Unit::Count, Downsample::Sum);
    tids_.nocFlitHops =
        rec->defineSeries(ts::kNocFlitHops, Unit::Count, Downsample::Sum);
    tids_.nocToggledBits =
        rec->defineSeries(ts::kNocToggledBits, Unit::Count, Downsample::Sum);
    tids_.nocFlitsPerS =
        rec->defineSeries(ts::kNocFlitsPerS, Unit::Hertz, Downsample::Mean);
    tids_.dieC =
        rec->defineSeries(ts::kThermalDieC, Unit::Celsius, Downsample::Mean);
    tids_.packageC = rec->defineSeries(ts::kThermalPackageC, Unit::Celsius,
                                       Downsample::Mean);
    tids_.insts = rec->defineSeries(ts::kChipInsts, Unit::Count,
                                    Downsample::Sum);
    tids_.activeThreads = rec->defineSeries(ts::kChipActiveThreads,
                                            Unit::Count, Downsample::Mean);
    for (std::size_t r = 0; r < power::kNumRails; ++r) {
        const auto rail = static_cast<power::Rail>(r);
        tids_.railW[r] = rec->defineSeries(railSeriesName(rail, "_w"),
                                           Unit::Watts, Downsample::Mean);
        tids_.railV[r] = rec->defineSeries(railSeriesName(rail, "_v"),
                                           Unit::Volts, Downsample::Mean);
        tids_.railA[r] = rec->defineSeries(railSeriesName(rail, "_a"),
                                           Unit::Amps, Downsample::Mean);
    }
    tids_.tileJ.clear();
    prevTileJ_.clear();
    if (rec->config().perTile) {
        prevTileJ_ = chip_->tileCoreEnergyJ();
        for (std::size_t t = 0; t < prevTileJ_.size(); ++t)
            tids_.tileJ.push_back(rec->defineSeries(
                tileSeriesName(t), Unit::Joules, Downsample::Sum));
    }
    prevNoc_ = chip_->memSystem().noc().stats();
    prevInsts_ = chip_->totalInsts();
}

void
System::snapshotTelemetryBaselines()
{
    for (std::size_t i = 0; i < power::kNumCategories; ++i)
        prevCatJ_[i] =
            chip_->ledger().category(static_cast<power::Category>(i));
    prevTileJ_.clear();
    if (telem_ != nullptr && telem_->config().perTile)
        prevTileJ_ = chip_->tileCoreEnergyJ();
    prevNoc_ = chip_->memSystem().noc().stats();
    prevInsts_ = chip_->totalInsts();
}

void
System::recordWindowTelemetry(double window_s,
                              const std::array<double, 3> &true_p,
                              const power::RailEnergy &delta,
                              const power::RailEnergy &clock_w,
                              const power::RailEnergy &leak_w)
{
    const double t = sampleClockS_;
    const auto rec = [&](std::size_t id, double v) {
        telem_->record(id, t, window_s, v);
    };
    rec(tids_.vddW, true_p[0]);
    rec(tids_.vcsW, true_p[1]);
    rec(tids_.vioW, true_p[2]);
    rec(tids_.onChipW, true_p[0] + true_p[1]);
    rec(tids_.dynamicW, delta.onChipCoreAndSram() / window_s);
    rec(tids_.clockW, clock_w.onChipCoreAndSram());
    rec(tids_.leakW, leak_w.onChipCoreAndSram());
    rec(tids_.activeJ, delta.onChipCoreAndSram());
    for (std::size_t i = 0; i < power::kNumCategories; ++i) {
        const power::RailEnergy cur =
            chip_->ledger().category(static_cast<power::Category>(i));
        rec(tids_.catJ[i], (cur - prevCatJ_[i]).onChipCoreAndSram());
        prevCatJ_[i] = cur;
    }
    const arch::NocStats noc_now = chip_->memSystem().noc().stats();
    const arch::NocStats d = noc_now.delta(prevNoc_);
    prevNoc_ = noc_now;
    rec(tids_.nocFlits, static_cast<double>(d.flits));
    rec(tids_.nocFlitHops, static_cast<double>(d.flitHops));
    rec(tids_.nocToggledBits, static_cast<double>(d.toggledBits));
    rec(tids_.nocFlitsPerS, static_cast<double>(d.flits) / window_s);
    rec(tids_.dieC, thermal_.dieTempC());
    rec(tids_.packageC, thermal_.packageTempC());
    const std::uint64_t insts_now = chip_->totalInsts();
    rec(tids_.insts, static_cast<double>(insts_now - prevInsts_));
    prevInsts_ = insts_now;
    rec(tids_.activeThreads,
        static_cast<double>(chip_->activeThreads()));
    const std::array<double, 3> rail_v{effVddV_, opts_.vcsV, opts_.vioV};
    for (std::size_t r = 0; r < power::kNumRails; ++r) {
        rec(tids_.railW[r], true_p[r]);
        rec(tids_.railV[r], rail_v[r]);
        rec(tids_.railA[r], true_p[r] / rail_v[r]);
    }
    if (!tids_.tileJ.empty()) {
        const std::vector<double> tile_now = chip_->tileCoreEnergyJ();
        for (std::size_t i = 0; i < tids_.tileJ.size(); ++i) {
            rec(tids_.tileJ[i], tile_now[i] - prevTileJ_[i]);
            prevTileJ_[i] = tile_now[i];
        }
    }
}

void
System::attachGovernor(governor::Governor *gov)
{
    piton_assert(gov == nullptr || !staticDuty_,
                 "governor and SystemOptions::tileFreqMhz are mutually "
                 "exclusive — the governor owns the duty tables");
    gov_ = gov;
    if (gov_ == nullptr) {
        // Detach: drop every gate so ungoverned stepping resumes.
        for (TileId t = 0; t < opts_.cfg.piton.tileCount; ++t)
            chip_->setTileGated(t, false);
        gatedTiles_ = 0;
        return;
    }
    governor::Platform plat;
    plat.piton = &opts_.cfg.piton;
    plat.vf = power::VfParams{};
    plat.speedFactor = instance_.speedFactor;
    plat.nominalVddV = effVddV_;
    plat.nominalFreqMhz = effClockMhz_;
    gov_->init(plat);
    snapshotGovernorBaselines();
}

void
System::snapshotGovernorBaselines()
{
    piton_assert(gov_ != nullptr, "governor baselines without governor");
    const std::uint32_t n = opts_.cfg.piton.tileCount;
    const double step = gov_->vfModel().params().freqStepMhz;
    dutyDen_ = static_cast<std::uint32_t>(
        std::max<long long>(1, std::llround(effClockMhz_ / step)));
    dutyNum_.assign(n, dutyDen_);
    dutyAcc_.assign(n, 0);
    tileFreqCmd_.assign(n, effClockMhz_);
    gatedTiles_ = 0;
    for (TileId t = 0; t < n; ++t)
        chip_->setTileGated(t, false);
    epochWindow_ = 0;
    epochCycles_ = 0;
    epochTimeS_ = 0.0;
    epochRailJ_ = {};
    govPrevInsts_ = chip_->tileInsts();
    govPrevStall_ = chip_->tileMemStallCycles();
    govPrevTileJ_ = chip_->tileCoreEnergyJ();
}

void
System::applyGovernorGates()
{
    const std::size_t n = dutyNum_.size();
    gatedTiles_ = 0;
    bool progress = false;
    for (std::size_t t = 0; t < n; ++t) {
        // Bresenham: a tile with num/den duty runs exactly num of every
        // den windows, evenly interleaved, whatever the epoch phase.
        dutyAcc_[t] += dutyNum_[t];
        const bool open = dutyAcc_[t] >= dutyDen_;
        if (open)
            dutyAcc_[t] -= dutyDen_;
        chip_->setTileGated(static_cast<TileId>(t), !open);
        if (!open)
            ++gatedTiles_;
        else if (!chip_->core(static_cast<TileId>(t)).allThreadsDone())
            progress = true;
    }
    if (progress || gatedTiles_ == 0)
        return;
    // Progress guard: some unfinished core must run every window, or
    // run() would report allHalted (and the stall detector would trip)
    // while gated work still exists.  Pick the unfinished tile whose
    // duty debt is largest (ties to the lowest id — deterministic).
    std::size_t pick = n;
    std::uint32_t best = 0;
    for (std::size_t t = 0; t < n; ++t) {
        if (chip_->core(static_cast<TileId>(t)).allThreadsDone())
            continue;
        if (pick == n || dutyAcc_[t] > best) {
            pick = t;
            best = dutyAcc_[t];
        }
    }
    if (pick != n) {
        chip_->setTileGated(static_cast<TileId>(pick), false);
        --gatedTiles_;
    }
}

void
System::governorEpochWindow(Cycle cycles, double window_s,
                            const power::RailEnergy &delta,
                            const power::RailEnergy &clock_w,
                            const power::RailEnergy &leak_w)
{
    epochCycles_ += cycles;
    epochTimeS_ += window_s;
    for (std::size_t r = 0; r < power::kNumRails; ++r) {
        const auto rail = static_cast<power::Rail>(r);
        epochRailJ_[r] += delta.get(rail)
                          + (clock_w.get(rail) + leak_w.get(rail))
                                * window_s;
    }
    if (++epochWindow_ < gov_->epochWindows())
        return;

    governor::EpochObs obs;
    obs.timeS = sampleClockS_;
    obs.epochS = epochTimeS_;
    obs.epochCycles = epochCycles_;
    obs.onChipPowerW = (epochRailJ_[0] + epochRailJ_[1]) / epochTimeS_;
    for (std::size_t r = 0; r < power::kNumRails; ++r)
        obs.railPowerW[r] = epochRailJ_[r] / epochTimeS_;
    obs.dieTempC = thermal_.dieTempC();
    obs.packageTempC = thermal_.packageTempC();
    obs.vddV = effVddV_;
    obs.freqMhz = effClockMhz_;
    const std::vector<std::uint64_t> insts = chip_->tileInsts();
    const std::vector<std::uint64_t> stall = chip_->tileMemStallCycles();
    const std::vector<double> tile_j = chip_->tileCoreEnergyJ();
    obs.tiles.resize(insts.size());
    for (std::size_t t = 0; t < insts.size(); ++t) {
        obs.tiles[t].insts = insts[t] - govPrevInsts_[t];
        obs.tiles[t].stallCycles = stall[t] - govPrevStall_[t];
        obs.tiles[t].energyJ = tile_j[t] - govPrevTileJ_[t];
        obs.tiles[t].freqMhz = tileFreqCmd_[t];
        obs.tiles[t].gated = dutyNum_[t] == 0;
    }

    const governor::Actuation act = gov_->controlEpoch(obs);
    if (act.changed)
        applyActuation(act);
    if (telem_ != nullptr)
        recordGovernorEpoch(obs);

    epochWindow_ = 0;
    epochCycles_ = 0;
    epochTimeS_ = 0.0;
    epochRailJ_ = {};
    govPrevInsts_ = insts;
    govPrevStall_ = stall;
    govPrevTileJ_ = tile_j;
}

void
System::applyActuation(const governor::Actuation &act)
{
    piton_assert(act.freqMhz > 0.0 && act.vddV > 0.0,
                 "actuation must carry a live operating point");
    effClockMhz_ = act.freqMhz;
    effVddV_ = act.vddV;
    // The chip-wide point feeds the energy model (CV^2 scaling) and the
    // board's VDD supply; VCS/VIO stay at their configured setpoints.
    energy_.setOperatingPoint(effVddV_, opts_.vcsV);
    board_.setSupply(power::Rail::Vdd, effVddV_);

    const double step = gov_->vfModel().params().freqStepMhz;
    dutyDen_ = static_cast<std::uint32_t>(
        std::max<long long>(1, std::llround(effClockMhz_ / step)));
    const std::size_t n = dutyNum_.size();
    for (std::size_t t = 0; t < n; ++t) {
        const double f =
            act.tileFreqMhz.empty() ? effClockMhz_ : act.tileFreqMhz[t];
        if (f <= 0.0) {
            tileFreqCmd_[t] = 0.0;
            dutyNum_[t] = 0;
        } else {
            tileFreqCmd_[t] = std::min(f, effClockMhz_);
            const long long num = std::llround(tileFreqCmd_[t] / step);
            dutyNum_[t] = static_cast<std::uint32_t>(std::min<long long>(
                std::max<long long>(num, 1), dutyDen_));
        }
        // Keep accumulators in range under a shrinking denominator.
        if (dutyAcc_[t] >= dutyDen_)
            dutyAcc_[t] = dutyDen_ - 1;
    }
}

void
System::recordGovernorEpoch(const governor::EpochObs &obs)
{
    namespace ts = telemetry::schema;
    using telemetry::Downsample;
    using telemetry::Unit;
    if (!govTids_.ready) {
        // Lazy and idempotent (defineSeries dedups by name), so a
        // resumed recorder rebinds to the restored schema ids.
        govTids_.freqMhz = telem_->defineSeries(
            ts::kGovernorFreqMhz, Unit::Hertz, Downsample::Mean);
        govTids_.vddV = telem_->defineSeries(ts::kGovernorVddV, Unit::Volts,
                                             Downsample::Mean);
        govTids_.powerW = telem_->defineSeries(
            ts::kGovernorPowerW, Unit::Watts, Downsample::Mean);
        govTids_.capW = telem_->defineSeries(ts::kGovernorCapW, Unit::Watts,
                                             Downsample::Mean);
        govTids_.gatedTiles = telem_->defineSeries(
            ts::kGovernorGatedTiles, Unit::Count, Downsample::Mean);
        govTids_.epochs = telem_->defineSeries(
            ts::kGovernorEpochs, Unit::Count, Downsample::Sum);
        govTids_.ready = true;
    }
    const double t = sampleClockS_;
    const double dt = obs.epochS;
    telem_->record(govTids_.freqMhz, t, dt, effClockMhz_);
    telem_->record(govTids_.vddV, t, dt, effVddV_);
    telem_->record(govTids_.powerW, t, dt, obs.onChipPowerW);
    telem_->record(govTids_.capW, t, dt, gov_->params().capW);
    std::uint32_t hard_gated = 0;
    for (const std::uint32_t num : dutyNum_)
        hard_gated += num == 0 ? 1 : 0;
    telem_->record(govTids_.gatedTiles, t, dt,
                   static_cast<double>(hard_gated));
    telem_->record(govTids_.epochs, t, dt, 1.0);
}

board::PowerMeasurement
System::measure(std::uint32_t samples)
{
    // Warm up caches and power, then pin the thermal network at the
    // equilibrium for the observed steady-state power ("after the
    // system reaches a steady state", Section III-A).
    double warm_power = 0.0;
    const Cycle chunk = opts_.cyclesPerSample;
    const std::uint32_t warm_windows = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(opts_.warmupCycles / chunk));
    for (std::uint32_t i = 0; i < warm_windows; ++i) {
        const auto p = windowTruePowers(chunk);
        warm_power = p[0] + p[1];
    }
    // Pin the thermal state at equilibrium, then re-settle: leakage
    // depends on temperature, so the power/temperature pair converges
    // over a few pin iterations.
    for (int pin = 0; pin < 4; ++pin) {
        thermal_.setState(thermal_.steadyState(warm_power));
        const auto p = windowTruePowers(chunk);
        warm_power = p[0] + p[1];
    }
    thermal_.setState(thermal_.steadyState(warm_power));

    return board::collectMeasurement(
        board_, samples,
        [this, chunk] { return windowTruePowers(chunk); }, telem_,
        sampleClockS_, static_cast<double>(chunk) / coreClockHz());
}

board::PowerMeasurement
System::measureStatic(std::uint32_t samples)
{
    // Clocks grounded: only leakage flows; the die sits barely above
    // ambient.
    double temp = thermal_.params().ambientC;
    double leak = 0.0;
    for (int i = 0; i < 100; ++i) {
        const power::RailEnergy l =
            energy_.leakagePowerW(temp, instance_.leakFactor);
        leak = l.onChipCoreAndSram();
        const double new_temp = thermal_.steadyState(leak).dieC;
        if (std::abs(new_temp - temp) < 1e-6)
            break;
        temp = 0.5 * (temp + new_temp);
    }
    const power::RailEnergy l =
        energy_.leakagePowerW(temp, instance_.leakFactor);
    // The chip is not advancing, but the monitors still tick at the
    // sample cadence: space the measured samples on the sample clock
    // and advance it past the collection interval.
    const double dt_s =
        static_cast<double>(opts_.cyclesPerSample) / coreClockHz();
    const board::PowerMeasurement m = board::collectMeasurement(
        board_, samples,
        [&l] {
            return std::array<double, 3>{l.get(power::Rail::Vdd),
                                         l.get(power::Rail::Vcs),
                                         l.get(power::Rail::Vio)};
        },
        telem_, sampleClockS_, dt_s);
    if (telem_)
        sampleClockS_ += static_cast<double>(samples) * dt_s;
    return m;
}

CompletionResult
System::runToCompletion(Cycle max_cycles)
{
    CompletionResult res;
    const power::RailEnergy start_ledger = chip_->ledger().total();
    const Cycle start_cycle = chip_->now();
    const Cycle chunk = opts_.cyclesPerSample;

    // Consecutive run windows in which the chip advanced zero cycles
    // without halting.  Such windows represent no simulated time, so
    // they must not be charged clock-tree/leakage energy; and since a
    // chip that makes no progress will never make progress on its own,
    // a short streak is enough to declare the run stalled.
    constexpr int kMaxNoProgressWindows = 3;
    int no_progress = 0;

    // Under a governor the clock can change between windows, so wall
    // time is the sum of per-window durations, not cycles / one clock.
    double run_s = 0.0;
    double idle_energy_j = 0.0;
    power::RailEnergy prev_chunk = start_ledger;
    while (chip_->now() - start_cycle < max_cycles) {
        const Cycle remaining = max_cycles - (chip_->now() - start_cycle);
        const Cycle before = chip_->now();
        if (dutyActive())
            applyGovernorGates();
        const auto r = chip_->run(std::min(chunk, remaining));
        const Cycle elapsed = chip_->now() - before;
        // allHalted ignores duty-gated cores; the ground truth for "the
        // workload finished" under live duty gates is allThreadsDone().
        const bool done =
            r.allHalted && (!dutyActive() || chip_->allThreadsDone());
        if (elapsed == 0) {
            if (done) {
                res.completed = true;
                break;
            }
            if (++no_progress >= kMaxNoProgressWindows) {
                res.stalled = true;
                break;
            }
            continue;
        }
        no_progress = 0;
        const double dt = static_cast<double>(elapsed) / coreClockHz();
        const power::RailEnergy clock_re = clockTreePowerW();
        const power::RailEnergy leak_re =
            energy_.leakagePowerW(thermal_.dieTempC(), instance_.leakFactor);
        const double clock_w = clock_re.onChipCoreAndSram();
        const double leak_w = leak_re.onChipCoreAndSram();
        idle_energy_j += (clock_w + leak_w) * dt;
        const power::RailEnergy chunk_delta =
            chip_->ledger().total() - prev_chunk;
        prev_chunk = chip_->ledger().total();
        thermal_.step(clock_w + leak_w
                          + chunk_delta.onChipCoreAndSram() / dt,
                      dt);
        if (telem_) {
            std::array<double, 3> p{};
            for (std::size_t r = 0; r < power::kNumRails; ++r) {
                const auto rail = static_cast<power::Rail>(r);
                p[r] = chunk_delta.get(rail) / dt + clock_re.get(rail)
                       + leak_re.get(rail);
            }
            recordWindowTelemetry(dt, p, chunk_delta, clock_re, leak_re);
        }
        if (gov_ != nullptr)
            governorEpochWindow(elapsed, dt, chunk_delta, clock_re,
                                leak_re);
        sampleClockS_ += dt;
        run_s += dt;
        // The hook observes the fully-accounted window; a completed run
        // still reports completed even if the hook also asked to stop.
        bool hook_stop = false;
        if (windowHook_)
            hook_stop = !windowHook_(
                WindowObs{elapsed, dt, (clock_w + leak_w) * dt, done});
        if (done) {
            res.completed = true;
            break;
        }
        if (hook_stop)
            break;
    }

    res.cycles = chip_->now() - start_cycle;
    res.seconds = gov_ != nullptr
                      ? run_s
                      : static_cast<double>(res.cycles) / coreClockHz();
    res.insts = chip_->totalInsts();
    const power::RailEnergy delta = chip_->ledger().total() - start_ledger;
    prevLedger_ = chip_->ledger().total();
    res.activeEnergyJ = delta.onChipCoreAndSram();
    res.idleEnergyJ = idle_energy_j;
    res.onChipEnergyJ = res.activeEnergyJ + res.idleEnergyJ;
    return res;
}

void
System::serializeSystem(ckpt::Archive &ar)
{
    // Identity fingerprint: a checkpoint only restores into a System
    // built with the same operating point and sampling cadence (the
    // chip adds its own structural fingerprint).  fastPath is
    // deliberately absent — both engines are bit-identical, so a
    // checkpoint taken under one may resume under the other.
    ar.beginSection("sys.meta");
    ar.ioExpect(static_cast<std::int64_t>(opts_.chipId), "chip id");
    ar.ioExpect(opts_.seed, "seed");
    ar.ioExpect(opts_.vddV, "vdd setpoint");
    ar.ioExpect(opts_.vcsV, "vcs setpoint");
    ar.ioExpect(opts_.vioV, "vio setpoint");
    ar.ioExpect(opts_.coreClockMhz, "core clock");
    ar.ioExpect(opts_.cyclesPerSample, "cycles per sample");
    ar.ioExpect(static_cast<std::uint64_t>(opts_.tileFreqMhz.size()),
                "static tile-frequency count");
    for (const double f : opts_.tileFreqMhz)
        ar.ioExpect(f, "static tile frequency");
    ar.endSection();

    chip_->serialize(ar);

    ar.beginSection("sys.board");
    board_.serialize(ar);
    ar.endSection();

    ar.beginSection("sys.thermal");
    thermal_.serialize(ar);
    ar.endSection();

    // Per-window baselines: restoring them re-aims the next window's
    // deltas at the saved ledger/counter values, which is what makes a
    // resumed run's telemetry continue seamlessly (and what makes the
    // attach-then-restore warm-start pattern equal to attaching after
    // an in-place warmup).
    ar.beginSection("sys.sim");
    prevLedger_.serialize(ar);
    ar.io(sampleClockS_);
    for (auto &c : prevCatJ_)
        c.serialize(ar);
    ar.io(prevNoc_.packets);
    ar.io(prevNoc_.flits);
    ar.io(prevNoc_.flitHops);
    ar.io(prevNoc_.toggledBits);
    ar.io(prevInsts_);
    std::uint64_t nt = ar.ioSize(prevTileJ_.size(), 8);
    if (ar.loading())
        prevTileJ_.resize(static_cast<std::size_t>(nt));
    for (auto &v : prevTileJ_)
        ar.io(v);
    ar.endSection();

    // Ungoverned static duty gating: the tables themselves derive from
    // SystemOptions (fingerprinted above), but the Bresenham
    // accumulator phase is run state and must ride along for a resumed
    // placed run to gate the same windows an uninterrupted one would.
    // Unconditional when active: the fingerprint guarantees a static-
    // duty image only restores into a static-duty system.
    if (staticDuty_) {
        ar.beginSection("sys.duty");
        ar.ioExpect(dutyDen_, "duty denominator");
        std::uint64_t nd = ar.ioSize(dutyAcc_.size(), 4);
        piton_assert(static_cast<std::size_t>(nd) == dutyAcc_.size(),
                     "sys.duty accumulator count");
        for (auto &v : dutyAcc_)
            ar.io(v);
        ar.endSection();
        if (ar.loading()) {
            gatedTiles_ = 0;
            for (TileId t = 0; t < opts_.cfg.piton.tileCount; ++t)
                chip_->setTileGated(t, false);
        }
    }

    // Governor control-loop state rides along only when a governor is
    // attached at save time; restoring it requires attaching a governor
    // of the same policy first (the name is fingerprinted).  Like the
    // telemetry section below, a governed System restoring an
    // ungoverned checkpoint just re-baselines (restoreBytes).
    const bool do_governor =
        gov_ != nullptr && (ar.saving() || ar.hasSection("sys.governor"));
    if (do_governor) {
        ar.beginSection("sys.governor");
        ar.ioExpect(std::string(gov_->name()), "governor policy");
        ar.io(effVddV_);
        ar.io(effClockMhz_);
        ar.io(dutyDen_);
        std::uint64_t ng = ar.ioSize(dutyNum_.size(), 4);
        if (ar.loading()) {
            const auto sz = static_cast<std::size_t>(ng);
            dutyNum_.resize(sz);
            dutyAcc_.resize(sz);
            tileFreqCmd_.resize(sz);
            govPrevInsts_.resize(sz);
            govPrevStall_.resize(sz);
            govPrevTileJ_.resize(sz);
        }
        for (auto &v : dutyNum_)
            ar.io(v);
        for (auto &v : dutyAcc_)
            ar.io(v);
        for (auto &v : tileFreqCmd_)
            ar.io(v);
        for (auto &v : govPrevInsts_)
            ar.io(v);
        for (auto &v : govPrevStall_)
            ar.io(v);
        for (auto &v : govPrevTileJ_)
            ar.io(v);
        ar.io(epochWindow_);
        ar.io(epochCycles_);
        ar.io(epochTimeS_);
        for (auto &j : epochRailJ_)
            ar.io(j);
        gov_->serialize(ar);
        ar.endSection();
        if (ar.loading()) {
            // Re-realize the restored operating point: the energy
            // model's V-scaling and the board's VDD setpoint are not
            // part of any section's payload.  Core gate flags are
            // derived per window, never stored.
            energy_.setOperatingPoint(effVddV_, opts_.vcsV);
            board_.setSupply(power::Rail::Vdd, effVddV_);
            gatedTiles_ = 0;
            for (TileId t = 0; t < opts_.cfg.piton.tileCount; ++t)
                chip_->setTileGated(t, false);
        }
    }

    // Extension-client state (the sampling interval profiler today,
    // DESIGN.md §14) rides along only while a client is attached; same
    // attach-before-restore contract as the recorder below.
    const bool do_client =
        client_ != nullptr
        && (ar.saving() || ar.hasSection(client_->checkpointSection()));
    if (do_client) {
        ar.beginSection(client_->checkpointSection());
        client_->serializeClient(ar);
        ar.endSection();
    }

    // Recorder contents ride along only when one is attached at save
    // time; on restore the section is applied only if a recorder is
    // attached to receive it (attach first, then restore).
    const bool do_telemetry =
        telem_ != nullptr
        && (ar.saving() || ar.hasSection("sys.telemetry"));
    if (do_telemetry) {
        ar.beginSection("sys.telemetry");
        telem_->serialize(ar);
        ar.endSection();
    }
}

std::vector<std::uint8_t>
System::saveBytes()
{
    ckpt::Archive ar = ckpt::Archive::forSave();
    serializeSystem(ar);
    return ar.finish();
}

void
System::save(const std::string &path)
{
    ckpt::writeFile(path, saveBytes());
}

void
System::restoreBytes(const std::vector<std::uint8_t> &bytes,
                     bool mark_telemetry_event)
{
    ckpt::Archive ar = ckpt::Archive::forLoad(bytes);
    serializeSystem(ar);
    // A checkpoint saved without a recorder never maintained the
    // per-window delta baselines; if this system has one attached, the
    // deltas must start from the restored counters — exactly what a
    // cold run gets by attaching after its warmup (warm_start.hh relies
    // on this for bit-identical fan-out).
    if (telem_ != nullptr && !ar.hasSection("sys.telemetry"))
        snapshotTelemetryBaselines();
    // Same for the governor: a checkpoint saved ungoverned restores
    // into a governed System by starting a fresh control epoch at the
    // restored counters (the nominal operating point still applies).
    if (gov_ != nullptr && !ar.hasSection("sys.governor"))
        snapshotGovernorBaselines();
    // And the extension client: an image without its section restarts
    // the client on the restored counters.
    if (client_ != nullptr
        && !ar.hasSection(client_->checkpointSection()))
        client_->rebaseline(*this);
    if (mark_telemetry_event && telem_) {
        const std::size_t id =
            telem_->defineSeries(telemetry::schema::kEventRestore,
                                 telemetry::Unit::Count,
                                 telemetry::Downsample::Sum);
        telem_->record(id, sampleClockS_,
                       static_cast<double>(opts_.cyclesPerSample)
                           / coreClockHz(),
                       1.0);
    }
}

void
System::restore(const std::string &path, bool mark_telemetry_event)
{
    restoreBytes(ckpt::readFile(path), mark_telemetry_event);
}

} // namespace piton::sim
