#include "search/searcher.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/logging.hh"
#include "telemetry/recorder.hh"

namespace piton::search
{

namespace
{

/** Shared per-search machinery: explore-request construction, batch
 *  evaluation with best-so-far/trajectory/telemetry bookkeeping, and
 *  the full-fidelity finish. */
class SearchRun
{
  public:
    SearchRun(const SearchTask &task, Oracle &oracle,
              const SearcherOptions &opts, const char *engine)
        : task_(task), oracle_(oracle), opts_(opts),
          startStats_(oracle.stats())
    {
        result_.engine = engine;
        if (opts_.recorder != nullptr) {
            seriesBest_ = opts_.recorder->defineSeries(
                "search.best_score", telemetry::Unit::Count,
                telemetry::Downsample::Mean);
            seriesCalls_ = opts_.recorder->defineSeries(
                "search.oracle_calls", telemetry::Unit::Count,
                telemetry::Downsample::Mean);
            seriesHitRatio_ = opts_.recorder->defineSeries(
                "search.cache_hit_ratio", telemetry::Unit::Count,
                telemetry::Downsample::Mean);
        }
    }

    std::uint32_t
    remaining() const
    {
        return used_ >= opts_.budget ? 0 : opts_.budget - used_;
    }

    /** Evaluate a batch at explore fidelity; returns the scores
     *  (index-aligned with `batch`) and updates best/trajectory. */
    std::vector<double>
    evaluateBatch(const std::vector<Candidate> &batch)
    {
        std::vector<service::ExperimentRequest> reqs;
        reqs.reserve(batch.size());
        for (const Candidate &c : batch)
            reqs.push_back(exploreRequest(c));
        const std::vector<Evaluation> evals = oracle_.evaluate(reqs);
        used_ += static_cast<std::uint32_t>(batch.size());
        std::vector<double> scores(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            scores[i] = scoreEvaluation(task_.objective, evals[i]);
            if (scores[i] < result_.bestScore) {
                result_.bestScore = scores[i];
                result_.best = batch[i];
                result_.bestEval = evals[i];
            }
        }
        result_.trajectory.push_back({used_, result_.bestScore});
        recordTelemetry();
        return scores;
    }

    /** Close out: oracle deltas, then one full-fidelity re-eval of the
     *  best candidate (through the same oracle, after the deltas, so
     *  the trajectory stays an explore-budget trace). */
    SearchResult
    finish()
    {
        const OracleStats &s = oracle_.stats();
        result_.oracleCalls = s.calls - startStats_.calls;
        result_.cacheHits = s.cacheHits - startStats_.cacheHits;
        result_.cacheHitRatio =
            result_.oracleCalls > 0
                ? static_cast<double>(result_.cacheHits)
                      / static_cast<double>(result_.oracleCalls)
                : 0.0;
        if (result_.bestScore < kInvalidScore) {
            const service::ExperimentRequest full =
                toRequest(task_.space, result_.best, task_.base);
            result_.finalEval = oracle_.evaluate({full})[0];
            result_.finalScore =
                scoreEvaluation(task_.objective, result_.finalEval);
        }
        return std::move(result_);
    }

    const SearchResult &result() const { return result_; }

  private:
    service::ExperimentRequest
    exploreRequest(const Candidate &c) const
    {
        service::ExperimentRequest req =
            toRequest(task_.space, c, task_.base);
        if (task_.exploreIterations > 0)
            req.workload.iterations = task_.exploreIterations;
        if (task_.exploreSampledSlices > 0)
            req.sampledSlices = task_.exploreSampledSlices;
        return req;
    }

    void
    recordTelemetry()
    {
        if (opts_.recorder == nullptr)
            return;
        const OracleStats &s = oracle_.stats();
        const auto calls =
            static_cast<double>(s.calls - startStats_.calls);
        const auto hits =
            static_cast<double>(s.cacheHits - startStats_.cacheHits);
        const double t = calls;
        opts_.recorder->record(seriesBest_, t, 1.0, result_.bestScore);
        opts_.recorder->record(seriesCalls_, t, 1.0, calls);
        opts_.recorder->record(seriesHitRatio_, t, 1.0,
                               calls > 0.0 ? hits / calls : 0.0);
    }

    const SearchTask &task_;
    Oracle &oracle_;
    const SearcherOptions &opts_;
    OracleStats startStats_;
    SearchResult result_;
    std::uint32_t used_ = 0;
    std::size_t seriesBest_ = 0;
    std::size_t seriesCalls_ = 0;
    std::size_t seriesHitRatio_ = 0;
};

/** Candidates already spent oracle budget this search; propose-until-
 *  unseen keeps the explore budget buying fresh points instead of
 *  cache replays (cross-engine revisits on a shared oracle still hit
 *  the cache — this only dedups within one search). */
class SeenSet
{
  public:
    /** Returns true the first time a candidate is added. */
    bool
    add(const Candidate &c)
    {
        return seen_.insert(candidateKey(c)).second;
    }

    /** Mutate `c` until it leaves the seen set (bounded attempts; the
     *  last attempt is kept even if seen, so progress never stalls). */
    void
    mutateUnseen(const SearchSpace &space, Candidate &c, Rng &rng)
    {
        for (int attempt = 0; attempt < 8; ++attempt) {
            mutateCandidate(space, c, rng);
            if (seen_.count(candidateKey(c)) == 0)
                return;
        }
    }

  private:
    std::unordered_set<Hash128, Hash128Hasher> seen_;
};

class RandomSearcher : public Searcher
{
  public:
    const char *name() const override { return "random"; }

    SearchResult
    search(const SearchTask &task, Oracle &oracle,
           const SearcherOptions &opts) override
    {
        SearchRun run(task, oracle, opts, name());
        Rng rng(opts.seed);
        while (run.remaining() > 0) {
            const std::uint32_t n =
                std::min(std::max(opts.batch, 1u), run.remaining());
            std::vector<Candidate> batch;
            batch.reserve(n);
            for (std::uint32_t i = 0; i < n; ++i)
                batch.push_back(randomCandidate(task.space, rng));
            run.evaluateBatch(batch);
        }
        return run.finish();
    }
};

class SaSearcher : public Searcher
{
  public:
    const char *name() const override { return "sa"; }

    SearchResult
    search(const SearchTask &task, Oracle &oracle,
           const SearcherOptions &opts) override
    {
        SearchRun run(task, oracle, opts, name());
        Rng rng(opts.seed);
        // Warm-start from the chip's default operating points (one per
        // rung, spread across the ladder), padded with uniform draws:
        // the chain anneals from the best informed start instead of
        // re-deriving full-duty identity placement move by move.
        SeenSet seen;
        const std::uint32_t warm =
            std::min(std::max(opts.batch, 1u), run.remaining());
        if (warm == 0)
            return run.finish();
        std::vector<Candidate> init = seedCandidates(task.space, warm);
        while (init.size() < warm)
            init.push_back(randomCandidate(task.space, rng));
        for (const Candidate &c : init)
            seen.add(c);
        const std::vector<double> init_scores = run.evaluateBatch(init);
        std::size_t start = 0;
        for (std::size_t i = 1; i < init.size(); ++i)
            if (init_scores[i] < init_scores[start])
                start = i;
        Candidate current = init[start];
        double current_score = init_scores[start];
        double temp = std::max(opts.saT0, 1e-9);
        const double alpha =
            std::min(std::max(opts.saAlpha, 0.01), 0.9999);
        while (run.remaining() > 0) {
            const std::uint32_t n =
                std::min(std::max(opts.batch, 1u), run.remaining());
            std::vector<Candidate> proposals;
            proposals.reserve(n);
            for (std::uint32_t i = 0; i < n; ++i) {
                Candidate c = current;
                seen.mutateUnseen(task.space, c, rng);
                seen.add(c);
                proposals.push_back(std::move(c));
            }
            const std::vector<double> scores =
                run.evaluateBatch(proposals);
            // Steepest-of-batch step: Metropolis-test only the batch
            // minimum (relative delta, so acceptance is unitless
            // across objectives whose scales differ by decades).  A
            // rejected step leaves the chain in place for the next,
            // cooler batch.
            std::size_t bi = 0;
            for (std::size_t i = 1; i < scores.size(); ++i)
                if (scores[i] < scores[bi])
                    bi = i;
            const double delta =
                (scores[bi] - current_score)
                / std::max(std::abs(current_score), 1e-30);
            if (delta <= 0.0 || rng.chance(std::exp(-delta / temp))) {
                current = proposals[bi];
                current_score = scores[bi];
            }
            temp *= alpha;
        }
        return run.finish();
    }
};

class GaSearcher : public Searcher
{
  public:
    const char *name() const override { return "ga"; }

    SearchResult
    search(const SearchTask &task, Oracle &oracle,
           const SearcherOptions &opts) override
    {
        SearchRun run(task, oracle, opts, name());
        Rng rng(opts.seed);
        const std::uint32_t pop_size = std::max(opts.population, 2u);
        const std::uint32_t tour =
            std::min(std::max(opts.tournament, 1u), pop_size);

        SeenSet seen;
        const std::uint32_t init = std::min(pop_size, run.remaining());
        if (init == 0)
            return run.finish();
        // Half the founding population is informed (default operating
        // points across the rung ladder), half uniform — crossover can
        // then combine a good operating point with a good placement.
        std::vector<Candidate> pop =
            seedCandidates(task.space, (init + 1) / 2);
        pop.reserve(init);
        while (pop.size() < init)
            pop.push_back(randomCandidate(task.space, rng));
        for (const Candidate &c : pop)
            seen.add(c);
        std::vector<double> scores = run.evaluateBatch(pop);

        while (run.remaining() > 0) {
            // Single elite: the population's current best survives
            // unchanged (ties break to the lowest index).
            const std::size_t elite =
                std::min_element(scores.begin(), scores.end())
                - scores.begin();
            const std::uint32_t children = std::min<std::uint32_t>(
                pop_size - 1, run.remaining());
            std::vector<Candidate> offspring;
            offspring.reserve(children);
            for (std::uint32_t k = 0; k < children; ++k) {
                const Candidate &a = pop[tournamentPick(scores, tour, rng)];
                const Candidate &b = pop[tournamentPick(scores, tour, rng)];
                Candidate child = crossover(task.space, a, b, rng);
                if (!seen.add(child))
                    seen.mutateUnseen(task.space, child, rng);
                seen.add(child);
                offspring.push_back(std::move(child));
            }
            const std::vector<double> child_scores =
                run.evaluateBatch(offspring);
            std::vector<Candidate> next;
            std::vector<double> next_scores;
            next.reserve(offspring.size() + 1);
            next.push_back(pop[elite]);
            next_scores.push_back(scores[elite]);
            for (std::size_t i = 0; i < offspring.size(); ++i) {
                next.push_back(std::move(offspring[i]));
                next_scores.push_back(child_scores[i]);
            }
            pop = std::move(next);
            scores = std::move(next_scores);
        }
        return run.finish();
    }

  private:
    static std::size_t
    tournamentPick(const std::vector<double> &scores, std::uint32_t tour,
                   Rng &rng)
    {
        std::size_t best = rng.below(scores.size());
        for (std::uint32_t i = 1; i < tour; ++i) {
            const std::size_t c = rng.below(scores.size());
            if (scores[c] < scores[best])
                best = c;
        }
        return best;
    }

    /** Uniform crossover.  The placement inherits per position from a
     *  random parent when that parent's tile is still unused (falling
     *  back to the other parent, then to the deterministic lowest-
     *  unused-tile repair in canonicalizeCandidate); rung and freqStep
     *  inherit positionwise. */
    static Candidate
    crossover(const SearchSpace &space, const Candidate &a,
              const Candidate &b, Rng &rng)
    {
        Candidate child;
        child.rung = rng.chance(0.5) ? a.rung : b.rung;
        std::uint32_t used = 0;
        for (std::uint32_t i = 0; i < space.cores; ++i) {
            const Candidate &first = rng.chance(0.5) ? a : b;
            const Candidate &second = &first == &a ? b : a;
            const std::uint8_t t1 = first.placement[i];
            const std::uint8_t t2 = second.placement[i];
            if (!((used >> t1) & 1u)) {
                child.placement.push_back(t1);
                used |= 1u << t1;
            } else if (!((used >> t2) & 1u)) {
                child.placement.push_back(t2);
                used |= 1u << t2;
            }
            // else: hole; canonicalize fills lowest-unused.
            child.freqStep.push_back(rng.chance(0.5) ? a.freqStep[i]
                                                     : b.freqStep[i]);
        }
        canonicalizeCandidate(space, child);
        return child;
    }
};

} // namespace

std::unique_ptr<Searcher>
makeSearcher(const std::string &engine)
{
    if (engine == "random")
        return std::make_unique<RandomSearcher>();
    if (engine == "sa")
        return std::make_unique<SaSearcher>();
    if (engine == "ga")
        return std::make_unique<GaSearcher>();
    throw std::invalid_argument("unknown search engine '" + engine
                                + "' (random|sa|ga)");
}

std::vector<std::string>
searcherNames()
{
    return {"random", "sa", "ga"};
}

std::string
trajectoryCsv(const SearchResult &r)
{
    std::string out = "oracle_calls,best_score\n";
    char line[64];
    for (const TrajectoryPoint &p : r.trajectory) {
        std::snprintf(line, sizeof line, "%llu,%.17g\n",
                      static_cast<unsigned long long>(p.oracleCalls),
                      p.bestScore);
        out += line;
    }
    return out;
}

} // namespace piton::search
