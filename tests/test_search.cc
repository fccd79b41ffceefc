/**
 * @file
 * Search-space unit suite (src/search/): candidate canonicalization
 * and its equivalence classes, stable keys, move/constructor
 * invariants, the candidate→service-request mapping (equal canonical
 * candidates must share a result-cache key — that identity is what
 * makes search revisits cache hits), objective score banding, the
 * engine factory, and the zero-budget edge of every engine.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "search/objective.hh"
#include "search/oracle.hh"
#include "search/searcher.hh"
#include "search/space.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;
using namespace piton::search;

SearchSpace
space4()
{
    return defaultSpace(/*cores=*/4, /*chip_id=*/2);
}

/** The invariants every canonical candidate satisfies. */
void
expectCanonical(const SearchSpace &space, const Candidate &c)
{
    ASSERT_LT(c.rung, space.rungs.size());
    ASSERT_EQ(c.placement.size(), space.cores);
    ASSERT_EQ(c.freqStep.size(), space.cores);
    std::set<std::uint8_t> tiles(c.placement.begin(), c.placement.end());
    EXPECT_EQ(tiles.size(), space.cores) << "duplicate placement tile";
    for (const std::uint8_t t : c.placement)
        EXPECT_LT(t, space.tileCount);
    const std::uint32_t den = space.rungs[c.rung].dutySteps;
    for (const std::uint16_t s : c.freqStep) {
        EXPECT_GE(s, 1u);
        EXPECT_LE(s, den);
    }
    Candidate again = c;
    canonicalizeCandidate(space, again);
    EXPECT_TRUE(again == c) << "canonicalize must be idempotent";
}

TEST(SearchSpace, DefaultSpaceIsAWellFormedLadder)
{
    const SearchSpace space = space4();
    ASSERT_EQ(space.cores, 4u);
    ASSERT_EQ(space.tileCount, 25u);
    ASSERT_EQ(space.rungs.size(), 7u); // 0.75 V .. 1.05 V in 50 mV
    for (std::size_t i = 0; i < space.rungs.size(); ++i) {
        EXPECT_GT(space.rungs[i].freqMhz, 0.0);
        EXPECT_GE(space.rungs[i].dutySteps, 1u);
        if (i > 0) {
            EXPECT_GT(space.rungs[i].vddV, space.rungs[i - 1].vddV);
            EXPECT_GE(space.rungs[i].freqMhz, space.rungs[i - 1].freqMhz);
        }
    }
    EXPECT_GT(exhaustiveSize(space), 1e9);
}

TEST(SearchSpace, CanonicalizeClampsRepairsAndIsIdempotent)
{
    const SearchSpace space = space4();
    Candidate c;
    c.rung = 200;                      // out of range → last rung
    c.placement = {7, 7, 99, 3};       // dup + out-of-range tiles
    c.freqStep = {0, 60000, 5};        // under/over range, short
    canonicalizeCandidate(space, c);
    expectCanonical(space, c);
    EXPECT_EQ(c.rung, space.rungs.size() - 1);
    // First occurrences survive; the rest repair to lowest-unused.
    EXPECT_EQ(c.placement[0], 7);
    EXPECT_EQ(c.placement[1], 3);
    EXPECT_EQ(c.placement[2], 0);
    EXPECT_EQ(c.placement[3], 1);
}

TEST(SearchSpace, CandidateKeysAreStableAndSeparating)
{
    const SearchSpace space = space4();
    Rng rng(42);
    const Candidate a = randomCandidate(space, rng);
    Candidate b = a;
    EXPECT_EQ(candidateKey(a), candidateKey(b));
    EXPECT_EQ(candidateBytes(a), candidateBytes(b));

    b.freqStep[0] = b.freqStep[0] == 1 ? 2 : 1;
    EXPECT_NE(candidateKey(a), candidateKey(b));

    Candidate c = a;
    std::swap(c.placement[0], c.placement[1]);
    EXPECT_NE(candidateKey(a), candidateKey(c))
        << "placement order is part of the identity (position = core)";
}

TEST(SearchSpace, RandomCandidatesAreCanonicalAndSeedDeterministic)
{
    const SearchSpace space = space4();
    Rng a(7), b(7), other(8);
    bool diverged = false;
    for (int i = 0; i < 64; ++i) {
        const Candidate ca = randomCandidate(space, a);
        expectCanonical(space, ca);
        EXPECT_TRUE(ca == randomCandidate(space, b));
        diverged = diverged || !(ca == randomCandidate(space, other));
    }
    EXPECT_TRUE(diverged) << "different seeds should differ somewhere";
}

TEST(SearchSpace, MutationsPreserveCanonicalInvariants)
{
    const SearchSpace space = space4();
    Rng rng(3);
    Candidate c = randomCandidate(space, rng);
    bool changed = false;
    for (int i = 0; i < 256; ++i) {
        const Candidate before = c;
        mutateCandidate(space, c, rng);
        expectCanonical(space, c);
        // A boundary freq-nudge may clamp back in place; across many
        // moves the candidate must still actually move.
        changed = changed || !(c == before);
    }
    EXPECT_TRUE(changed);
}

TEST(SearchSpace, DefaultCandidateIsFullDutyIdentityPlacement)
{
    const SearchSpace space = space4();
    for (std::uint8_t r = 0; r < space.rungs.size(); ++r) {
        const Candidate c = defaultCandidate(space, r);
        expectCanonical(space, c);
        EXPECT_EQ(c.rung, r);
        for (std::uint32_t i = 0; i < space.cores; ++i) {
            EXPECT_EQ(c.placement[i], i);
            EXPECT_EQ(c.freqStep[i], space.rungs[r].dutySteps);
        }
    }
}

TEST(SearchSpace, SeedCandidatesSpreadAcrossTheRungLadder)
{
    const SearchSpace space = space4();
    const auto rung_count =
        static_cast<std::uint32_t>(space.rungs.size());

    // Asking for at least one per rung yields the whole ladder.
    const std::vector<Candidate> all = seedCandidates(space, 32);
    ASSERT_EQ(all.size(), rung_count);
    for (std::uint32_t i = 0; i < rung_count; ++i)
        EXPECT_EQ(all[i].rung, i);

    // Two seeds hit both ends; one lands mid-ladder.
    const std::vector<Candidate> two = seedCandidates(space, 2);
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0].rung, 0u);
    EXPECT_EQ(two[1].rung, rung_count - 1);
    const std::vector<Candidate> one = seedCandidates(space, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].rung, (rung_count - 1) / 2);

    EXPECT_TRUE(seedCandidates(space, 0).empty());
}

TEST(SearchSpace, EquivalentCandidatesShareOneServiceCacheKey)
{
    const SearchSpace space = space4();
    service::ExperimentRequest base;
    base.chipId = 2;
    base.workload.bench =
        static_cast<std::uint16_t>(workloads::Microbench::Phased);
    base.workload.iterations = 1;

    Rng rng(11);
    const Candidate canon = randomCandidate(space, rng);
    Candidate messy = canon;
    messy.placement.push_back(canon.placement[0]); // dup → dropped
    messy.freqStep.push_back(9);                   // excess → dropped

    const service::ExperimentRequest ra = toRequest(space, canon, base);
    const service::ExperimentRequest rb = toRequest(space, messy, base);
    EXPECT_EQ(ra.cacheKey(), rb.cacheKey())
        << "equal canonical candidates must be one cache entry";

    Candidate other = canon;
    mutateCandidate(space, other, rng);
    EXPECT_NE(toRequest(space, other, base).cacheKey(), ra.cacheKey());
}

TEST(SearchObjective, ScoresBandFeasibility)
{
    Evaluation ok;
    ok.valid = true;
    ok.completed = true;
    ok.insts = 1000;
    ok.seconds = 2.0;
    ok.energyJ = 4.0;
    ok.epi = ok.energyJ / static_cast<double>(ok.insts);
    ok.avgPowerW = ok.energyJ / ok.seconds;

    Objective epi;
    epi.goal = Goal::MinEpi;
    EXPECT_DOUBLE_EQ(scoreEvaluation(epi, ok), ok.epi);

    Evaluation bad = ok;
    bad.valid = false;
    EXPECT_EQ(scoreEvaluation(epi, bad), kInvalidScore);
    bad = ok;
    bad.completed = false;
    EXPECT_EQ(scoreEvaluation(epi, bad), kInvalidScore);

    Objective capped;
    capped.goal = Goal::MinEnergyCapped;
    capped.powerCapW = 3.0; // avgPower 2.0 → feasible
    EXPECT_DOUBLE_EQ(scoreEvaluation(capped, ok), ok.energyJ);
    capped.powerCapW = 1.0; // violated by 1.0 → infeasible band
    EXPECT_GE(scoreEvaluation(capped, ok), kInfeasibleBase);
    EXPECT_LT(scoreEvaluation(capped, ok), kInvalidScore);

    Objective tput;
    tput.goal = Goal::MaxThroughputDeadline;
    tput.deadlineS = 3.0; // met → negative throughput (lower = faster)
    EXPECT_DOUBLE_EQ(scoreEvaluation(tput, ok), -500.0);
    tput.deadlineS = 1.0; // missed → infeasible band
    EXPECT_GE(scoreEvaluation(tput, ok), kInfeasibleBase);

    // Band ordering: feasible < infeasible < invalid, always.
    EXPECT_LT(scoreEvaluation(epi, ok), kInfeasibleBase);
}

TEST(SearchObjective, GoalNamesRoundTrip)
{
    for (const Goal g : {Goal::MinEpi, Goal::MinEnergyCapped,
                         Goal::MaxThroughputDeadline}) {
        EXPECT_EQ(goalFromName(goalName(g)), g);
    }
    EXPECT_THROW(goalFromName("maximize-vibes"), std::invalid_argument);
}

TEST(Searcher, FactoryKnowsExactlyTheAdvertisedEngines)
{
    for (const std::string &name : searcherNames()) {
        EXPECT_EQ(makeSearcher(name)->name(), name);
    }
    EXPECT_THROW(makeSearcher("gradient-descent"), std::invalid_argument);
    EXPECT_THROW(makeSearcher(""), std::invalid_argument);
}

TEST(Searcher, ZeroBudgetSpendsNothingOnEveryEngine)
{
    // Regression: SA used to index the first of zero warm-start
    // candidates.  With no budget every engine must return at once,
    // without an oracle call, and report nothing found.
    SearchTask task;
    task.space = space4();
    task.base.workload.bench =
        static_cast<std::uint16_t>(workloads::Microbench::Phased);
    task.base.workload.iterations = 2;
    SearcherOptions opts;
    opts.budget = 0;
    for (const std::string &name : searcherNames()) {
        InProcessOracle oracle;
        const SearchResult r = makeSearcher(name)->search(task, oracle, opts);
        EXPECT_EQ(r.oracleCalls, 0u) << name;
        EXPECT_EQ(oracle.stats().calls, 0u) << name;
        EXPECT_GE(r.bestScore, kInvalidScore) << name;
        EXPECT_TRUE(r.trajectory.empty()) << name;
    }
}

TEST(Searcher, TrajectoryCsvIsHeaderPlusOneLinePerPoint)
{
    SearchResult r;
    r.trajectory = {{6, 0.5}, {12, 0.25}};
    const std::string csv = trajectoryCsv(r);
    EXPECT_EQ(csv.substr(0, 24), "oracle_calls,best_score\n");
    EXPECT_NE(csv.find("\n6,"), std::string::npos);
    EXPECT_NE(csv.find("\n12,"), std::string::npos);
}

} // namespace
