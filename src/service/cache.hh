/**
 * @file
 * Sharded, content-addressed result cache (DESIGN.md §11).
 *
 * Keys are Hash128 digests of canonical request bytes (request.hh);
 * values are immutable byte payloads (encoded response bodies, or
 * checkpoint prefix images for the warm-start cache).  Three
 * guarantees:
 *
 *  - Integrity: every payload is stored with its CRC32 and re-verified
 *    on each hit.  A corrupted entry is evicted and reported as a
 *    miss, so the caller recomputes instead of serving garbage.
 *
 *  - Single-flight: concurrent requests for the same missing key
 *    coalesce — the first caller becomes the *leader* and computes,
 *    the rest block on the leader's future and share its payload.  A
 *    leader that fails abandons the flight; waiters then recompute
 *    individually (the error is not cached).
 *
 *  - Bounded memory: per-shard LRU lists, evicting from the
 *    least-recently-used end whenever the configured byte or entry
 *    budget is exceeded.
 *
 * Optional disk spill (`diskDir`): published entries are also written
 * to `<dir>/<keyhex>.res` — a content-addressed store that survives
 * restarts.  Misses fall back to disk; a corrupted or truncated file
 * is deleted and treated as a miss.  Disk entries record the same
 * version salt the in-memory key was derived with, so version bumps
 * invalidate them identically.
 */

#ifndef PITON_SERVICE_CACHE_HH
#define PITON_SERVICE_CACHE_HH

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.hh"

namespace piton::service
{

/** Immutable shared payload bytes. */
using CachePayload = std::shared_ptr<const std::vector<std::uint8_t>>;

struct CacheConfig
{
    std::size_t shards = 8;
    /** Total payload-byte budget across shards (0 = unbounded). */
    std::size_t maxBytes = 256u * 1024 * 1024;
    /** Total entry budget across shards (0 = unbounded). */
    std::size_t maxEntries = 4096;
    /** Content-addressed spill directory ("" = memory only). */
    std::string diskDir;
};

struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Requests that joined another request's in-flight computation. */
    std::uint64_t coalesced = 0;
    std::uint64_t evictions = 0;
    std::uint64_t corruptRejected = 0;
    std::uint64_t diskHits = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
};

/** Internal lock-free hit/miss counters (cache.cc). */
struct CacheCounters;

class ResultCache
{
  public:
    explicit ResultCache(CacheConfig cfg = {});
    ~ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** Outcome of acquire(): exactly one of the three cases. */
    struct Acquired
    {
        /** Set on a hit (memory or disk). */
        CachePayload payload;
        /** Set when another thread is computing this key; wait on it.
         *  A null payload from the future means the leader failed —
         *  recompute yourself. */
        std::shared_future<CachePayload> pending;
        /** True when this caller is the leader and must publish() or
         *  abandon() the key. */
        bool leader = false;

        bool hit() const { return payload != nullptr; }
    };

    /**
     * Look up `key`; on a miss, either join the in-flight computation
     * or become its leader.  A leader MUST eventually call publish()
     * or abandon() for the key (ServeGuard in scheduler.cc wraps
     * this).
     */
    Acquired acquire(const Hash128 &key);

    /** Plain lookup: no single-flight registration. */
    CachePayload lookup(const Hash128 &key);

    /**
     * Memory-only hit check (the scheduler's inline path).  A hit is
     * counted and refreshed exactly as acquire() does; an absent key
     * counts nothing and never reads disk, and a corrupt entry reads as
     * absent and is left for acquire() to evict and count.
     */
    CachePayload probe(const Hash128 &key);

    /** Store the leader's payload and wake all waiters. */
    void publish(const Hash128 &key, CachePayload payload);

    /** Leader failed: wake waiters with a null payload, cache nothing. */
    void abandon(const Hash128 &key);

    /** Insert without single-flight (warm-fill, tests). */
    void insert(const Hash128 &key, CachePayload payload);

    /** Drop every entry (memory only; disk files stay). */
    void clear();

    CacheStats stats() const;

    /** Test hook: flip one payload byte in place, as bit rot would.
     *  Returns false when the key is absent. */
    bool corruptEntryForTest(const Hash128 &key);

    /** Disk path an entry of `key` would spill to ("" if no diskDir). */
    std::string diskPathFor(const Hash128 &key) const;

  private:
    struct Entry
    {
        CachePayload payload;
        std::uint32_t crc = 0;
        /** Position in the shard's LRU list (front = most recent). */
        std::list<Hash128>::iterator lruPos;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<Hash128, Entry, Hash128Hasher> entries;
        std::list<Hash128> lru; ///< front = most recently used
        std::size_t bytes = 0;  ///< sum of cached payload sizes
        std::unordered_map<Hash128, std::shared_ptr<std::promise<CachePayload>>,
                           Hash128Hasher>
            inflight;
    };

    Shard &shardFor(const Hash128 &key);
    /** Insert under the shard lock; returns bytes freed by eviction. */
    void insertLocked(Shard &shard, const Hash128 &key,
                      CachePayload payload);
    void evictIfNeededLocked(Shard &shard);
    CachePayload tryDiskLoad(const Hash128 &key);
    void diskStore(const Hash128 &key, const CachePayload &payload);

    CacheConfig cfg_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::unique_ptr<CacheCounters> counters_;
};

} // namespace piton::service

#endif // PITON_SERVICE_CACHE_HH
