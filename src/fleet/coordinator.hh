/**
 * @file
 * Fleet coordinator: shards experiment requests across N piton-served
 * workers (DESIGN.md §15).
 *
 * Routing is cache-aware: the routing key is the request's
 * prefixKey() for sweeps (so every sweep point sharing a warm-start
 * prefix image lands on the worker that owns — and has simulated —
 * that prefix) and cacheKey() otherwise (exact-hit affinity).  The
 * key is hashed onto a consistent-hash ring (ring.hh), and the ring's
 * replica sequence doubles as the failover order: when the owner
 * fails mid-request, the coordinator retries the *same* request on
 * the next replica.
 *
 * The determinism contract inherited from the service layer is what
 * makes failover safe: any worker computes byte-identical response
 * bodies for a canonical request, so re-routing — under any failure
 * schedule, at any worker count — cannot change a single response
 * byte relative to a single-node run.  tests/test_fleet.cc and the
 * smoke_fleet_daemon / smoke_fleet_throughput ctests gate exactly that.
 *
 * A version mismatch (VersionMismatchError) is deliberately NOT
 * failed over: it means a mis-deployed binary, not a transient fault,
 * and retrying elsewhere would mask the operational error.
 *
 * Connections are pooled per worker (net::ConnectionPool): a socket
 * that finishes an exchange cleanly goes back for reuse; any error
 * invalidates the worker's whole idle set, since its siblings share
 * the likely-dead peer.
 */

#ifndef PITON_FLEET_COORDINATOR_HH
#define PITON_FLEET_COORDINATOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/net.hh"
#include "fleet/ring.hh"
#include "service/client.hh"

namespace piton::telemetry
{
class TelemetryRecorder;
}

namespace piton::fleet
{

struct FleetConfig
{
    /** Loopback ports of the worker daemons. */
    std::vector<std::uint16_t> workerPorts;
    /** Virtual nodes per worker on the ring. */
    unsigned vnodes = 64;
    /** Dial timeout for new worker connections. */
    int connectTimeoutMs = 2000;
    /** Reply deadline for health-check pings. */
    int healthTimeoutMs = 1000;
    /** Background health-check period; 0 = no background thread
     *  (tests drive checkHealthOnce() explicitly instead). */
    int healthIntervalMs = 0;
    /** Idle connections retained per worker. */
    std::size_t maxIdlePerWorker = 4;
    /** Name announced in the Hello handshake. */
    std::string clientName = "piton-fleet";
};

/** Coordinator-level counters (fleet.* telemetry). */
struct FleetMetrics
{
    std::uint64_t requests = 0;  ///< run() calls completed
    std::uint64_t retries = 0;   ///< failed worker attempts
    std::uint64_t failovers = 0; ///< requests served by a non-owner
    std::uint64_t cacheHits = 0; ///< responses served from worker caches
    std::size_t workersUp = 0;
    std::size_t workersTotal = 0;
    double hitRate = 0.0; ///< cacheHits / requests (0 when idle)
};

/** Point-in-time view of one fleet member. */
struct WorkerSnapshot
{
    std::string id;
    std::uint16_t port = 0;
    bool up = false;
    std::uint64_t requests = 0; ///< served by this worker
    std::uint64_t failures = 0; ///< attempts that errored here
};

/** WorkerSnapshot plus the worker's own live StatsReply (scheduler
 *  metrics including result-cache hit/miss counters).  statsOk is
 *  false — and stats default-constructed — when the worker could not
 *  answer the stats exchange. */
struct WorkerDetail
{
    WorkerSnapshot snapshot;
    bool statsOk = false;
    service::WorkerStats stats;
};

/**
 * Client-compatible front end over the worker fleet: run() routes,
 * retries, and fails over; stats() aggregates worker metrics.
 * Thread-safe — benches drive it from many threads concurrently.
 */
class FleetCoordinator : public service::Client
{
  public:
    explicit FleetCoordinator(FleetConfig cfg);
    ~FleetCoordinator() override;

    FleetCoordinator(const FleetCoordinator &) = delete;
    FleetCoordinator &operator=(const FleetCoordinator &) = delete;

    /** Route + execute with failover.  Throws ServiceError when every
     *  ring replica has failed, VersionMismatchError on version skew
     *  (never failed over). */
    service::ClientResult run(const service::ExperimentRequest &req)
        override;

    /** Summed scheduler metrics across reachable workers. */
    service::SchedulerMetrics stats() override;

    /** One synchronous health sweep (ping with deadline per worker);
     *  returns the number of workers up.  The background thread —
     *  when healthIntervalMs > 0 — calls exactly this. */
    std::size_t checkHealthOnce();

    /** Remove a worker from the ring (e.g. decommissioned). */
    void detachWorker(std::uint16_t port);

    FleetMetrics metrics() const;
    std::vector<WorkerSnapshot> workerSnapshots() const;

    /** workerSnapshots() enriched with each live worker's StatsReply
     *  (one exchange per up worker; down workers report statsOk
     *  false).  The fleetctl `stats` command renders the per-worker
     *  result-cache hit/miss counters from this. */
    std::vector<WorkerDetail> workerDetails();

    /** The worker id that owns `req`'s routing key right now. */
    std::string ownerOf(const service::ExperimentRequest &req) const;

    /** Append fleet.* gauges (and per-worker queue depth / hit rate
     *  fetched from live workers) to `rec`. */
    void exportTelemetry(telemetry::TelemetryRecorder &rec);

  private:
    struct Worker
    {
        std::string id;
        std::uint16_t port = 0;
        bool up = false;
        std::uint64_t requests = 0;
        std::uint64_t failures = 0;
    };

    /** Routing key: prefixKey for sweeps, cacheKey otherwise. */
    static Hash128 routingKey(const service::ExperimentRequest &req);
    /** Failover order: healthy candidates in ring order, then the
     *  unhealthy ones (last-resort — health info may be stale). */
    std::vector<std::size_t> candidateOrder(const Hash128 &key) const;
    service::ClientResult runOnWorker(std::size_t widx,
                                      const service::ExperimentRequest &req);
    void markUp(std::size_t widx);
    void markDown(std::size_t widx);
    void healthLoop();

    FleetConfig cfg_;
    net::ConnectionPool pool_;

    mutable std::mutex mu_;
    HashRing ring_;
    std::vector<Worker> workers_;
    FleetMetrics counters_;
    std::uint64_t exportSeq_ = 0;

    std::thread healthThread_;
    std::mutex healthMu_;
    std::condition_variable healthCv_;
    bool stopping_ = false;
};

} // namespace piton::fleet

#endif // PITON_FLEET_COORDINATOR_HH
