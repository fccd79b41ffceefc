#include "search/space.hh"

#include <algorithm>
#include <cmath>

#include "chip/chip_instance.hh"
#include "common/logging.hh"
#include "power/vf_model.hh"
#include "service/wire.hh"

namespace piton::search
{

namespace
{

/** Duty denominator of a chip clock — must agree with the service's
 *  canonicalization (request.cc) and sim::System::initStaticDuty, so
 *  a candidate's freqStep lands on exactly the duty numerator the
 *  simulation runs. */
std::uint32_t
dutySteps(double clock_mhz)
{
    const double step = power::VfParams{}.freqStepMhz;
    return static_cast<std::uint32_t>(
        std::max<long long>(1, std::llround(clock_mhz / step)));
}

/** Lowest-numbered tiles not in `used`, appended until `c.placement`
 *  has `cores` entries (the deterministic repair shared by
 *  canonicalize and crossover offspring). */
void
fillPlacement(Candidate &c, std::uint32_t cores, std::uint32_t tile_count)
{
    std::uint32_t used = 0;
    for (const std::uint8_t t : c.placement)
        used |= 1u << t;
    for (std::uint32_t t = 0; t < tile_count && c.placement.size() < cores;
         ++t) {
        if ((used >> t) & 1u)
            continue;
        c.placement.push_back(static_cast<std::uint8_t>(t));
        used |= 1u << t;
    }
}

} // namespace

SearchSpace
defaultSpace(std::uint32_t cores, int chip_id)
{
    SearchSpace space;
    space.tileCount = 25;
    piton_assert(cores >= 1 && cores <= space.tileCount,
                 "search space wants 1..%u cores, got %u", space.tileCount,
                 cores);
    space.cores = cores;
    const chip::ChipInstance inst = chip::makeChip(chip_id);
    const power::VfModel vf;
    // 50 mV rungs over the paper's stable operating band (Fig. 9).
    for (int mv = 750; mv <= 1050; mv += 50) {
        VfRung rung;
        rung.vddV = mv / 1000.0;
        rung.freqMhz =
            vf.quantizeMhz(vf.rawFmaxMhz(rung.vddV, inst.speedFactor));
        rung.dutySteps = dutySteps(rung.freqMhz);
        space.rungs.push_back(rung);
    }
    return space;
}

void
canonicalizeCandidate(const SearchSpace &space, Candidate &c)
{
    piton_assert(!space.rungs.empty(), "search space has no V-f rungs");
    piton_assert(space.cores >= 1 && space.cores <= space.tileCount,
                 "search space cores out of range");
    if (c.rung >= space.rungs.size())
        c.rung = static_cast<std::uint8_t>(space.rungs.size() - 1);

    // Keep the first occurrence of each in-range tile, drop the rest,
    // then fill up to `cores` with the lowest unused tiles.
    std::uint32_t used = 0;
    std::vector<std::uint8_t> kept;
    for (const std::uint8_t t : c.placement) {
        if (t >= space.tileCount || ((used >> t) & 1u))
            continue;
        if (kept.size() == space.cores)
            break;
        kept.push_back(t);
        used |= 1u << t;
    }
    c.placement = std::move(kept);
    fillPlacement(c, space.cores, space.tileCount);

    const std::uint32_t den = space.rungs[c.rung].dutySteps;
    const auto full =
        static_cast<std::uint16_t>(std::min<std::uint32_t>(den, 0xFFFF));
    c.freqStep.resize(space.cores, full);
    for (std::uint16_t &s : c.freqStep)
        s = std::min(std::max<std::uint16_t>(s, 1), full);
}

std::vector<std::uint8_t>
candidateBytes(const Candidate &c)
{
    service::WireWriter w;
    w.u8(c.rung);
    w.u16(static_cast<std::uint16_t>(c.placement.size()));
    for (const std::uint8_t t : c.placement)
        w.u8(t);
    w.u16(static_cast<std::uint16_t>(c.freqStep.size()));
    for (const std::uint16_t s : c.freqStep)
        w.u16(s);
    return w.take();
}

Hash128
candidateKey(const Candidate &c)
{
    Hasher h;
    h.update("piton-search-candidate");
    h.update(candidateBytes(c));
    return h.digest();
}

bool
operator==(const Candidate &a, const Candidate &b)
{
    return a.rung == b.rung && a.placement == b.placement
           && a.freqStep == b.freqStep;
}

double
exhaustiveSize(const SearchSpace &space)
{
    // Placements are ordered (position = core role): P(tileCount, cores).
    double placements = 1.0;
    for (std::uint32_t i = 0; i < space.cores; ++i)
        placements *= static_cast<double>(space.tileCount - i);
    double total = 0.0;
    for (const VfRung &r : space.rungs)
        total += placements
                 * std::pow(static_cast<double>(r.dutySteps),
                            static_cast<double>(space.cores));
    return total;
}

Candidate
randomCandidate(const SearchSpace &space, Rng &rng)
{
    Candidate c;
    c.rung = static_cast<std::uint8_t>(rng.below(space.rungs.size()));
    // Fisher-Yates prefix: a uniform ordered placement of `cores`
    // distinct tiles.
    std::vector<std::uint8_t> tiles(space.tileCount);
    for (std::uint32_t t = 0; t < space.tileCount; ++t)
        tiles[t] = static_cast<std::uint8_t>(t);
    for (std::uint32_t i = 0; i < space.cores; ++i)
        std::swap(tiles[i], tiles[i + rng.below(space.tileCount - i)]);
    c.placement.assign(tiles.begin(), tiles.begin() + space.cores);
    const std::uint32_t den = space.rungs[c.rung].dutySteps;
    c.freqStep.resize(space.cores);
    for (std::uint16_t &s : c.freqStep)
        s = static_cast<std::uint16_t>(1 + rng.below(den));
    canonicalizeCandidate(space, c);
    return c;
}

Candidate
defaultCandidate(const SearchSpace &space, std::uint8_t rung)
{
    Candidate c;
    c.rung = rung;
    for (std::uint32_t i = 0; i < space.cores; ++i)
        c.placement.push_back(static_cast<std::uint8_t>(i));
    // canonicalize fills freqStep with the rung's full-duty value.
    canonicalizeCandidate(space, c);
    return c;
}

std::vector<Candidate>
seedCandidates(const SearchSpace &space, std::uint32_t n)
{
    const auto rung_count =
        static_cast<std::uint32_t>(space.rungs.size());
    const std::uint32_t k = std::min(n, rung_count);
    std::vector<Candidate> out;
    out.reserve(k);
    for (std::uint32_t i = 0; i < k; ++i) {
        const std::uint32_t r =
            k <= 1 ? (rung_count - 1) / 2
                   : static_cast<std::uint32_t>(
                         static_cast<std::uint64_t>(i) * (rung_count - 1)
                         / (k - 1));
        out.push_back(defaultCandidate(space, static_cast<std::uint8_t>(r)));
    }
    return out;
}

void
mutateCandidate(const SearchSpace &space, Candidate &c, Rng &rng)
{
    canonicalizeCandidate(space, c);
    const bool can_swap = space.cores >= 2;
    const bool can_migrate = space.cores < space.tileCount;
    for (;;) {
        switch (rng.below(4)) {
        case 0: { // swap
            if (!can_swap)
                continue;
            const std::uint64_t i = rng.below(space.cores);
            std::uint64_t j = rng.below(space.cores - 1);
            if (j >= i)
                ++j;
            std::swap(c.placement[i], c.placement[j]);
            break;
        }
        case 1: { // migrate
            if (!can_migrate)
                continue;
            std::uint32_t used = 0;
            for (const std::uint8_t t : c.placement)
                used |= 1u << t;
            std::vector<std::uint8_t> free;
            for (std::uint32_t t = 0; t < space.tileCount; ++t)
                if (!((used >> t) & 1u))
                    free.push_back(static_cast<std::uint8_t>(t));
            const std::uint64_t i = rng.below(space.cores);
            c.placement[i] = free[rng.below(free.size())];
            break;
        }
        case 2: { // freq-nudge
            const std::uint32_t den = space.rungs[c.rung].dutySteps;
            const std::uint64_t i = rng.below(space.cores);
            const auto delta = static_cast<std::uint32_t>(
                1 + rng.below(std::max<std::uint32_t>(1, den / 8)));
            std::int64_t s = c.freqStep[i];
            s += rng.chance(0.5) ? static_cast<std::int64_t>(delta)
                                 : -static_cast<std::int64_t>(delta);
            c.freqStep[i] = static_cast<std::uint16_t>(std::min<std::int64_t>(
                std::max<std::int64_t>(s, 1), den));
            break;
        }
        default: { // rung-nudge
            if (space.rungs.size() < 2)
                continue;
            const bool up = rng.chance(0.5);
            if (up && c.rung + 1u < space.rungs.size())
                ++c.rung;
            else if (!up && c.rung > 0)
                --c.rung;
            else
                continue;
            break;
        }
        }
        break;
    }
    canonicalizeCandidate(space, c);
}

service::ExperimentRequest
toRequest(const SearchSpace &space, const Candidate &c,
          const service::ExperimentRequest &base)
{
    Candidate canon = c;
    canonicalizeCandidate(space, canon);
    const VfRung &rung = space.rungs[canon.rung];
    service::ExperimentRequest req = base;
    req.kind = service::Kind::PlacedRun;
    req.vddV = rung.vddV;
    req.coreClockMhz = rung.freqMhz;
    req.placement.assign(canon.placement.begin(), canon.placement.end());
    req.tileFreqSteps = canon.freqStep;
    req.workload.cores = space.cores;
    req.canonicalize();
    return req;
}

} // namespace piton::search
