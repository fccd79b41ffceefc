/**
 * @file
 * Benchmark program.  One process runs one workload for a fixed time and
 * prints, as its last stdout line, one JSON object:
 *
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 * with the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1).  A provenance line precedes it.
 *
 * Passes: pass 0 runs the default seed and its digest must equal the
 * recorded one (--expected); every later pass runs --seed and must
 * reproduce the first such pass's digest.  With --trace 1 the later
 * passes alternate untraced and traced, so the traced digest is checked
 * against the untraced one and the difference of their wall times is
 * the tracing overhead.  Exit status: 0 when every check passed, 1 when
 * any failed (the JSON line is still printed), 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "common/logging.hh"

namespace
{

using namespace perfbench;

/** The seed the recorded digests were taken with. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Taken during static initialisation, before main(). */
const Clock::time_point kProcessStart = Clock::now();

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Full;
    std::string expected;
    std::string traceOut;
    bool injectFaults = false;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload steady_sweep|memory_stall|"
                 "service_mix [--seed N] [--seconds S] [--trace 0|1]\n"
                 "                 [--size full|tiny] [--expected FILE]"
                 " [--trace-out FILE] [--inject-faults]\n",
                 msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--inject-faults") {
            a.injectFaults = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                usage("bad --seed " + v);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(a.seconds > 0.0) || a.seconds > 120.0)
                usage("bad --seconds " + v);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("bad --trace " + v);
            a.trace = v == "1";
        } else if (flag == "--size") {
            if (v != "full" && v != "tiny")
                usage("bad --size " + v);
            a.size = v == "tiny" ? Size::Tiny : Size::Full;
        } else if (flag == "--expected") {
            a.expected = v;
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** The recorded digest for `key` in a flat {"key": "hex", ...} JSON
 *  file; empty when the file or the key is missing. */
std::string
recordedDigest(const std::string &path, const std::string &key)
{
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();
    const std::string needle = "\"" + key + "\"";
    std::size_t at = text.find(needle);
    if (at == std::string::npos)
        return "";
    at = text.find('"', text.find(':', at + needle.size()));
    const std::size_t end = text.find('"', at + 1);
    if (at == std::string::npos || end == std::string::npos)
        return "";
    return text.substr(at + 1, end - at - 1);
}

/** Builds the metrics object: "name": {"value": v, "unit": u}. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \""
                 + unit + "\"}";
    }
    std::string json() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    // Keep stdout for the result: the server's start-up notice is info.
    piton::setLogLevel(piton::LogLevel::Warn);
    std::unique_ptr<Workload> wl;
    if (args.workload == "steady_sweep")
        wl = makeSteadySweep(args.size);
    else if (args.workload == "memory_stall")
        wl = makeMemoryStall(args.size);
    else if (args.workload == "service_mix")
        wl = makeServiceMix(args.size, args.injectFaults);
    else
        usage("unknown workload " + args.workload);
    if (!kNdebug)
        std::fprintf(stderr, "perfbench: WARNING: simulator built without "
                             "NDEBUG; host times are not comparable\n");

    const std::string key =
        args.workload + (args.size == Size::Tiny ? "@tiny" : "");
    const std::string expected =
        args.expected.empty() ? "" : recordedDigest(args.expected, key);

    Tracer tracer;
    // Pass 0 is the default-seed reference.  With --trace 1 the later
    // passes alternate untraced and traced, so a trace run needs at
    // least one of each after it.
    const std::size_t min_passes =
        args.size == Size::Tiny ? (args.trace ? 3 : 2) : (args.trace ? 5 : 4);
    std::vector<double> setupS, wallS, tracedWallS, missMs, hitUs;
    std::vector<PassResult> traced;
    std::uint64_t attempted = 0, failed = 0;
    std::string refDigest, seedDigest;
    double paperErrPct = 0.0;
    // Process start to the first timed phase: static initialisation,
    // argument parsing, workload construction and pass 0's set-up.
    double processSetupS = 0.0;
    const Clock::time_point run0 = Clock::now();

    for (std::size_t p = 0;
         p < min_passes || secondsSince(run0) < args.seconds; ++p) {
        const std::uint64_t seed = p == 0 ? kDefaultSeed : args.seed;
        const bool trace_pass = args.trace && p > 0 && p % 2 == 0;
        tracer.setEnabled(trace_pass);

        const Clock::time_point s0 = Clock::now();
        wl->setup(seed);
        setupS.push_back(secondsSince(s0));
        if (p == 0)
            processSetupS = secondsSince(kProcessStart);
        PassResult r = wl->run(seed, tracer);
        wl->teardown();
        tracer.setEnabled(false);

        std::fprintf(stderr,
                     "perfbench: pass %zu seed %llu%s: setup %.4f s, "
                     "wall %.4f s\n",
                     p, static_cast<unsigned long long>(seed),
                     trace_pass ? " traced" : "", setupS.back(), r.wallS);
        attempted += r.attempted + 1; // the digest check counts as one
        failed += r.failed;
        const std::string digest = r.digest.hex();
        if (p == 0) {
            refDigest = digest;
            if (digest != expected) {
                ++failed;
                std::fprintf(stderr,
                             "perfbench: %s digest %s != recorded %s\n",
                             key.c_str(), digest.c_str(),
                             expected.empty() ? "(none)" : expected.c_str());
            }
        } else if (seedDigest.empty()) {
            seedDigest = digest;
            paperErrPct = r.paperErrPct;
        } else if (digest != seedDigest) {
            ++failed;
            std::fprintf(stderr,
                         "perfbench: pass %zu%s digest %s != first %s\n", p,
                         trace_pass ? " (traced)" : "", digest.c_str(),
                         seedDigest.c_str());
        }

        if (trace_pass) {
            tracedWallS.push_back(r.wallS);
            traced.push_back(std::move(r));
        } else {
            wallS.push_back(r.wallS);
            missMs.insert(missMs.end(), r.missMs.begin(), r.missMs.end());
            hitUs.insert(hitUs.end(), r.hitUs.begin(), r.hitUs.end());
        }
    }

    const bool correct = failed == 0;
    const double failed_frac =
        static_cast<double>(failed) / static_cast<double>(attempted);

    std::string threads;
    for (const auto &[name, n] : wl->threads())
        threads += (threads.empty() ? "\"" : ", \"") + name
                   + "\": " + std::to_string(n);
    std::printf("{\"provenance\": {\"workload\": \"%s\", \"size\": \"%s\", "
                "\"seed\": %llu, \"default_seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"passes\": %zu, \"process_setup_s\": %.6f, "
                "\"nproc\": %u, "
                "\"ndebug\": %s, \"sim_build_type\": \"%s\", "
                "\"threads\": {%s}, \"reference_digest\": \"%s\", "
                "\"seed_digest\": \"%s\"}}\n",
                args.workload.c_str(),
                args.size == Size::Tiny ? "tiny" : "full",
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(kDefaultSeed), args.seconds,
                args.trace ? 1 : 0, setupS.size(), processSetupS,
                std::thread::hardware_concurrency(),
                kNdebug ? "true" : "false",
                kNdebug ? "release" : "debug (timings not comparable)",
                threads.c_str(), refDigest.c_str(), seedDigest.c_str());

    Metrics m;
    if (!args.trace) {
        m.add("setup_s", median(setupS), "s");
        m.add("wall_s", median(wallS), "s");
        m.add("peak_rss_mb", peakRssMb(), "MB");
        m.add("ok_frac", 1.0 - failed_frac, "ratio");
        m.add("paper_err_pct", paperErrPct, "%");
        m.add("miss_p50_ms", percentile(missMs, 0.50), "ms");
        m.add("miss_p90_ms", percentile(missMs, 0.90), "ms");
        m.add("hit_p50_us", percentile(hitUs, 0.50), "us");
    } else {
        // Per-layer values: mean over the traced passes of each pass's
        // totals.  Simulated counters are identical on every pass.
        const double n = static_cast<double>(traced.size());
        std::map<std::string, double> layer;
        double accounted = 0.0, unaccounted_ms = 0.0;
        for (const PassResult &r : traced) {
            const auto lt = tracer.layerTimes(r.rootSpan);
            for (const char *name : {"sim.construct", "sim.measure",
                                     "sim.run", "workloads.load"}) {
                const auto it = lt.find(name);
                if (it != lt.end())
                    layer[std::string(name) + "_ms"] += it->second.busyMs / n;
            }
            const auto root = lt.find("pass");
            if (root != lt.end() && root->second.busyMs > 0.0) {
                accounted += (1.0 - root->second.selfMs / root->second.busyMs)
                             / n;
                unaccounted_ms += root->second.selfMs / n;
            }
            for (const auto &[name, v] : r.layer)
                layer[name] += v / n;
        }
        const SimCounters &c = traced.back().sim;
        const double sim_ms = layer["sim.measure_ms"] + layer["sim.run_ms"];
        const double insts = static_cast<double>(c.insts);
        for (const char *name :
             {"sim.construct_ms", "sim.measure_ms", "sim.run_ms",
              "workloads.load_ms"})
            m.add(name, layer[name], "ms");
        m.add("sim.systems", static_cast<double>(c.systems), "count");
        m.add("arch.insts", insts, "count");
        m.add("arch.cycles", static_cast<double>(c.cycles), "count");
        m.add("arch.rounds", static_cast<double>(c.rounds), "count");
        m.add("arch.insts_per_round",
              c.rounds ? insts / static_cast<double>(c.rounds) : 0.0,
              "count");
        m.add("arch.ns_per_insn", insts > 0 ? sim_ms * 1e6 / insts : 0.0,
              "ns");
        m.add("arch.mips", sim_ms > 0 ? insts / (sim_ms * 1e3) : 0.0,
              "MIPS");
        m.add("arch.mem.loads", static_cast<double>(c.loads), "count");
        m.add("arch.mem.stores", static_cast<double>(c.stores), "count");
        m.add("arch.mem.atomics", static_cast<double>(c.atomics), "count");
        m.add("arch.mem.l1_hits", static_cast<double>(c.l1Hits), "count");
        m.add("arch.mem.l2_local_hits", static_cast<double>(c.l2LocalHits),
              "count");
        m.add("arch.mem.l2_remote_hits",
              static_cast<double>(c.l2RemoteHits), "count");
        m.add("arch.mem.offchip_misses",
              static_cast<double>(c.offchipMisses), "count");
        m.add("arch.mem.invalidations",
              static_cast<double>(c.invalidations), "count");
        m.add("arch.noc.packets", static_cast<double>(c.nocPackets),
              "count");
        m.add("arch.noc.flit_hops", static_cast<double>(c.flitHops),
              "count");
        m.add("power.onchip_j", c.onchipJ, "J");
        for (const char *name :
             {"service.hit_us", "service.hit_local_us", "service.wire_us",
              "service.canonicalize_us", "service.cache_key_us",
              "service.decode_us"})
            m.add(name, layer[name], "us");
        // The hit tail of the untraced passes.  It follows the host's
        // vCPU wake-up latency too closely to carry a bound.
        m.add("service.hit_p90_us", percentile(hitUs, 0.90), "us");
        m.add("service.hit_p99_us", percentile(hitUs, 0.99), "us");
        for (const char *name :
             {"service.sched_p50_ms", "service.sched_p99_ms",
              "service.miss_ms.power", "service.miss_ms.energy",
              "service.miss_ms.placed", "service.miss_ms.sampled",
              "service.miss_ms.sweep"})
            m.add(name, layer[name], "ms");
        for (const char *name :
             {"service.result_hit_ratio", "service.prefix_hit_ratio"})
            m.add(name, layer[name], "ratio");
        for (const char *name :
             {"service.coalesced", "service.evictions", "service.shed",
              "service.errors", "service.deadline_expired",
              "service.queue_depth_max"})
            m.add(name, layer[name], "count");
        m.add("failed_frac", failed_frac, "ratio");
        m.add("trace.wall_s", median(tracedWallS), "s");
        m.add("trace.overhead_s", median(tracedWallS) - median(wallS), "s");
        m.add("trace.accounted_pct", 100.0 * accounted, "%");
        m.add("trace.unaccounted_ms", unaccounted_ms, "ms");
        m.add("trace.spans", static_cast<double>(tracer.spans().size()),
              "count");
        std::fprintf(stderr, "perfbench: layer times of the last traced pass "
                             "(ms):\n");
        for (const auto &[name, t] : tracer.layerTimes(traced.back().rootSpan))
            std::fprintf(stderr, "  %-24s busy %10.3f  self %10.3f  calls %llu\n",
                         name.c_str(), t.busyMs, t.selfMs,
                         static_cast<unsigned long long>(t.calls));
        if (!args.traceOut.empty()
            && !tracer.writeJsonl(args.traceOut, args.workload))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.traceOut.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), m.json().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
