/**
 * @file
 * The placement/DVFS search space (DESIGN.md §16).
 *
 * A Candidate is one configuration the searcher can ask the experiment
 * service to evaluate: a chip operating point (one rung of the V-f
 * ladder), a thread→tile placement, and a per-placed-tile PLL step.
 * The encoding deliberately mirrors Kind::PlacedRun — toRequest() is a
 * field-for-field mapping onto a canonicalized service request, so two
 * candidates that canonicalize identically share one cache key and a
 * revisit is served from the result cache instead of re-simulated.
 *
 * Everything here is deterministic: candidates serialize to canonical
 * little-endian bytes (candidateBytes), hash stably (candidateKey),
 * and all random constructions/moves draw from an explicit Rng, so a
 * search at a fixed seed replays bit-identically.
 */

#ifndef PITON_SEARCH_SPACE_HH
#define PITON_SEARCH_SPACE_HH

#include <cstdint>
#include <vector>

#include "common/hash.hh"
#include "common/rng.hh"
#include "service/request.hh"

namespace piton::search
{

/** One chip operating point: a VDD rung and the largest PLL-grid
 *  frequency the chip sustains there (VfModel, quantized).  dutySteps
 *  is the Bresenham duty denominator at that clock — the number of
 *  per-tile frequency settings available below full speed. */
struct VfRung
{
    double vddV = 1.0;
    double freqMhz = 500.05;
    std::uint32_t dutySteps = 280;
};

/** The space a search runs over: how many worker threads to place,
 *  onto how many tiles, across which chip operating points. */
struct SearchSpace
{
    std::uint32_t cores = 4;     ///< placement length (workload cores)
    std::uint32_t tileCount = 25;
    std::vector<VfRung> rungs;   ///< ascending VDD; never empty
};

/** One point of the space.  `placement[i]` is the tile core i of the
 *  workload mapping runs on (distinct, < tileCount); `freqStep[i]` is
 *  that position's duty numerator in [1, rung.dutySteps]. */
struct Candidate
{
    std::uint8_t rung = 0;
    std::vector<std::uint8_t> placement;
    std::vector<std::uint16_t> freqStep;
};

/** Build the default space for `cores` worker threads (1..25, one per
 *  tile; anything else is a caller bug) on `chip_id`: one rung per
 *  50 mV from 0.75 V to 1.05 V, frequency from the chip's calibrated
 *  V-f curve (process-variation speed factor included). */
SearchSpace defaultSpace(std::uint32_t cores, int chip_id);

/** Clamp `c` into `space` in place: rung into range, placement/freqStep
 *  resized to `cores` (missing placement slots filled with the lowest
 *  unused tiles), steps clamped to the rung's duty denominator.  The
 *  result is the canonical representative of `c`'s equivalence class —
 *  toRequest() of equal canonical candidates yields equal cache keys. */
void canonicalizeCandidate(const SearchSpace &space, Candidate &c);

/** Canonical little-endian encoding (self-delimiting; the equality
 *  and hashing unit).  Requires a canonicalized candidate. */
std::vector<std::uint8_t> candidateBytes(const Candidate &c);

/** Stable 128-bit digest of candidateBytes (memo/dedup key). */
Hash128 candidateKey(const Candidate &c);

bool operator==(const Candidate &a, const Candidate &b);

/** Number of distinct canonical candidates, as a double (the spaces
 *  are far beyond 2^64: 25P4 placements alone is ~3e5, times per-rung
 *  duty settings^cores). */
double exhaustiveSize(const SearchSpace &space);

/** Uniform random canonical candidate. */
Candidate randomCandidate(const SearchSpace &space, Rng &rng);

/** The chip's default configuration at one rung: identity placement
 *  (tiles 0..cores-1) at full duty — the operating points the paper
 *  characterizes directly, and where a practitioner starts a search. */
Candidate defaultCandidate(const SearchSpace &space, std::uint8_t rung);

/** Up to `n` informed starting points: default candidates at rungs
 *  spread evenly across the ladder (all rungs when n allows; fewer
 *  requested → evenly spaced, always including both ends).  Returns
 *  min(n, rungs) candidates — callers pad with randomCandidate. */
std::vector<Candidate> seedCandidates(const SearchSpace &space,
                                      std::uint32_t n);

/** One local move, chosen uniformly among:
 *   - swap:       exchange the tiles of two placement positions,
 *   - migrate:    move one position to an unused tile,
 *   - freq-nudge: step one position's duty numerator up or down,
 *   - rung-nudge: step the chip operating point one rung up or down.
 *  The result is canonical.  Single-core spaces never pick swap; a
 *  full placement (cores == tileCount) never picks migrate. */
void mutateCandidate(const SearchSpace &space, Candidate &c, Rng &rng);

/** Map a candidate onto a canonicalized PlacedRun request.  `base`
 *  supplies everything the candidate does not encode (workload, seed,
 *  chip, cycle budget, sampling opt-in); kind, operating point,
 *  placement and tileFreqSteps are overwritten from the candidate. */
service::ExperimentRequest toRequest(const SearchSpace &space,
                                     const Candidate &c,
                                     const service::ExperimentRequest &base);

} // namespace piton::search

#endif // PITON_SEARCH_SPACE_HH
