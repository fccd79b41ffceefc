/**
 * @file
 * Sampled-run mode: stitch a whole-run energy/power/EPI estimate from
 * re-simulated representative slices (DESIGN.md §14).
 *
 * Pipeline: profile a workload once (IntervalProfiler), cluster the
 * interval BBVs (kmeansCluster), then fork the system state at each
 * representative interval's start from its checkpoint image
 * (SweepWarmStart), simulate only that slice, and combine the slice
 * measurements into whole-run estimates with confidence intervals
 * derived from the intra-cluster spread.
 *
 * Estimator: per cluster c with instruction mass W_c and representative
 * energy-per-instruction ratio r_c = E_rep / I_rep, the stitched energy
 * is  E ~ sum_c W_c * r_c  (+ the exact energy of intervals excluded
 * from clustering: the partial tail and zero-instruction intervals).
 * The error bar treats the representative as a draw from its cluster:
 * Var(E) = sum_c W_c^2 * Var_c(r), with Var_c the instruction-weighted
 * within-cluster variance of the per-interval ratios from the profile;
 * the reported CI is 1.96 * sqrt(Var(E)).  Time stitches identically
 * over seconds-per-instruction, and EPI = E / totalInsns with
 * totalInsns exact from the profile.
 *
 * Determinism: slice replays restore full system state and re-run the
 * exact window sequence the profile saw, so each slice's energy is
 * bit-identical to the profiled interval under either engine;
 * clustering and stitching are serial fixed-order arithmetic.  Slice
 * forks may run on worker threads (results land in per-slice slots;
 * the stitch order is fixed), so `threads` is a pure speed knob.
 */

#ifndef PITON_SAMPLING_SAMPLED_RUN_HH
#define PITON_SAMPLING_SAMPLED_RUN_HH

#include <cstdint>
#include <vector>

#include "sampling/cluster.hh"
#include "sampling/profiler.hh"
#include "sim/system.hh"

namespace piton::sampling
{

struct SampledOptions
{
    /** Representative slices to simulate (k for the clusterer). */
    std::uint32_t maxSlices = 8;
    std::uint32_t maxIters = 64;
    std::uint64_t seed = 0x51CE;
    /** Worker threads for the slice replays (0 = all hardware
     *  threads); bit-identical at any value. */
    unsigned threads = 1;
};

/** One re-simulated representative slice. */
struct SliceResult
{
    std::uint32_t interval = 0;  ///< profile interval index
    std::uint32_t cluster = 0;
    std::uint64_t insns = 0;     ///< retired in the replayed slice
    Cycle cycles = 0;
    double seconds = 0.0;
    double energyJ = 0.0;        ///< on-chip active + idle J (replayed)
    double clusterInsns = 0.0;   ///< instruction mass it stands for
};

/** Whole-run estimate stitched from the slices. */
struct SampledEstimate
{
    double energyJ = 0.0;   ///< stitched on-chip energy
    double energyCi95J = 0.0;
    double seconds = 0.0;   ///< stitched execution time
    double powerW = 0.0;    ///< energyJ / seconds
    double epi = 0.0;       ///< energyJ / totalInsns
    double epiCi95 = 0.0;
    std::uint64_t totalInsns = 0;     ///< exact, from the profile
    std::uint64_t simulatedInsns = 0; ///< re-simulated in slices
    Cycle simulatedCycles = 0;
    double simulatedFrac = 0.0; ///< simulatedInsns / totalInsns
    /** Exact energy of intervals excluded from clustering (partial
     *  tail + zero-instruction intervals), taken from the profile. */
    double exactJ = 0.0;
    std::uint32_t clusteredIntervals = 0;
    std::vector<SliceResult> slices;
    ClusterResult clustering;
};

/**
 * Indices of the intervals eligible for clustering: full (non-tail)
 * intervals that retired at least one instruction.  The excluded
 * intervals enter the estimate as exact profile-energy terms instead
 * of being replayed.  Clustering results index into this list.
 */
std::vector<std::size_t>
clusterableIntervals(const std::vector<IntervalRecord> &intervals);

/**
 * Cluster the profile and pick the representative slices without
 * simulating anything (the deterministic "slice selection" half;
 * equivalence tests compare this across engines).  Indices in the
 * result refer to clusterableIntervals() positions.
 */
ClusterResult selectSlices(const std::vector<IntervalRecord> &intervals,
                           const SampledOptions &opts);

/**
 * Full sampled run: select slices, fork each representative from its
 * interval-start image (`opts` must match the options the profile ran
 * under — the restore fingerprints enforce it), simulate the slices,
 * and stitch the estimate.  The profile must have been captured with
 * ProfilerOptions::captureImages.
 */
SampledEstimate runSampled(const std::vector<IntervalRecord> &intervals,
                           const sim::SystemOptions &opts,
                           const SampledOptions &sopts);

} // namespace piton::sampling

#endif // PITON_SAMPLING_SAMPLED_RUN_HH
