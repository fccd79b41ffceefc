#include "service/cache.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "checkpoint/archive.hh"
#include "common/logging.hh"
#include "service/wire.hh"

namespace piton::service
{

namespace
{

/** Disk-entry header magic ("PCRE": Piton Cached REsult). */
constexpr std::uint32_t kDiskMagic = 0x45524350u;

std::uint32_t
payloadCrc(const std::vector<std::uint8_t> &bytes)
{
    return ckpt::crc32(bytes.data(), bytes.size());
}

} // namespace

// Counters are plain atomics so hits never serialize on a global lock.
struct CacheCounters
{
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> coalesced{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> corruptRejected{0};
    std::atomic<std::uint64_t> diskHits{0};
};

ResultCache::ResultCache(CacheConfig cfg)
    : cfg_(std::move(cfg)), counters_(std::make_unique<CacheCounters>())
{
    if (cfg_.shards == 0)
        cfg_.shards = 1;
    shards_.reserve(cfg_.shards);
    for (std::size_t i = 0; i < cfg_.shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

ResultCache::~ResultCache() = default;

ResultCache::Shard &
ResultCache::shardFor(const Hash128 &key)
{
    return *shards_[static_cast<std::size_t>(key.lo) % shards_.size()];
}

ResultCache::Acquired
ResultCache::acquire(const Hash128 &key)
{
    CacheCounters &ctr = *counters_;
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);

    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
        if (payloadCrc(*it->second.payload) == it->second.crc) {
            shard.lru.splice(shard.lru.begin(), shard.lru,
                             it->second.lruPos);
            ctr.hits.fetch_add(1, std::memory_order_relaxed);
            return Acquired{it->second.payload, {}, false};
        }
        // Bit rot: reject and recompute rather than serve garbage.
        ctr.corruptRejected.fetch_add(1, std::memory_order_relaxed);
        shard.lru.erase(it->second.lruPos);
        shard.entries.erase(it);
    }

    if (CachePayload disk = tryDiskLoad(key)) {
        insertLocked(shard, key, disk);
        ctr.hits.fetch_add(1, std::memory_order_relaxed);
        ctr.diskHits.fetch_add(1, std::memory_order_relaxed);
        return Acquired{std::move(disk), {}, false};
    }

    auto flight = shard.inflight.find(key);
    if (flight != shard.inflight.end()) {
        ctr.coalesced.fetch_add(1, std::memory_order_relaxed);
        return Acquired{nullptr, flight->second->get_future().share(),
                        false};
    }

    shard.inflight.emplace(key,
                           std::make_shared<std::promise<CachePayload>>());
    ctr.misses.fetch_add(1, std::memory_order_relaxed);
    Acquired a;
    a.leader = true;
    return a;
}

CachePayload
ResultCache::lookup(const Hash128 &key)
{
    CacheCounters &ctr = *counters_;
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
        ctr.misses.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    if (payloadCrc(*it->second.payload) != it->second.crc) {
        ctr.corruptRejected.fetch_add(1, std::memory_order_relaxed);
        shard.lru.erase(it->second.lruPos);
        shard.entries.erase(it);
        ctr.misses.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lruPos);
    ctr.hits.fetch_add(1, std::memory_order_relaxed);
    return it->second.payload;
}

CachePayload
ResultCache::probe(const Hash128 &key)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()
        || payloadCrc(*it->second.payload) != it->second.crc)
        return nullptr;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lruPos);
    counters_->hits.fetch_add(1, std::memory_order_relaxed);
    return it->second.payload;
}

void
ResultCache::publish(const Hash128 &key, CachePayload payload)
{
    piton_assert(payload != nullptr, "publish of null payload");
    std::shared_ptr<std::promise<CachePayload>> promise;
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        insertLocked(shard, key, payload);
        auto flight = shard.inflight.find(key);
        if (flight != shard.inflight.end()) {
            promise = flight->second;
            shard.inflight.erase(flight);
        }
    }
    if (promise)
        promise->set_value(payload);
    diskStore(key, payload);
}

void
ResultCache::abandon(const Hash128 &key)
{
    std::shared_ptr<std::promise<CachePayload>> promise;
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto flight = shard.inflight.find(key);
        if (flight != shard.inflight.end()) {
            promise = flight->second;
            shard.inflight.erase(flight);
        }
    }
    if (promise)
        promise->set_value(nullptr); // waiters recompute themselves
}

void
ResultCache::insert(const Hash128 &key, CachePayload payload)
{
    piton_assert(payload != nullptr, "insert of null payload");
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        insertLocked(shard, key, payload);
    }
    diskStore(key, payload);
}

void
ResultCache::insertLocked(Shard &shard, const Hash128 &key,
                          CachePayload payload)
{
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
        shard.bytes -= it->second.payload->size();
        it->second.payload = std::move(payload);
        it->second.crc = payloadCrc(*it->second.payload);
        shard.bytes += it->second.payload->size();
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lruPos);
        return;
    }
    shard.lru.push_front(key);
    Entry entry;
    entry.payload = std::move(payload);
    entry.crc = payloadCrc(*entry.payload);
    entry.lruPos = shard.lru.begin();
    shard.bytes += entry.payload->size();
    shard.entries.emplace(key, std::move(entry));
    evictIfNeededLocked(shard);
}

void
ResultCache::evictIfNeededLocked(Shard &shard)
{
    // Budgets are per shard: cross-shard coordination would put every
    // insert behind one lock for no practical gain at these sizes.
    const std::size_t byte_budget =
        cfg_.maxBytes == 0 ? 0
                           : std::max<std::size_t>(1, cfg_.maxBytes
                                                          / shards_.size());
    const std::size_t entry_budget =
        cfg_.maxEntries == 0
            ? 0
            : std::max<std::size_t>(1, cfg_.maxEntries / shards_.size());
    CacheCounters &ctr = *counters_;
    while (!shard.lru.empty()
           && ((byte_budget != 0 && shard.bytes > byte_budget)
               || (entry_budget != 0
                   && shard.entries.size() > entry_budget))) {
        const Hash128 victim = shard.lru.back();
        auto it = shard.entries.find(victim);
        piton_assert(it != shard.entries.end(), "LRU/entry map skew");
        shard.bytes -= it->second.payload->size();
        shard.lru.pop_back();
        shard.entries.erase(it);
        ctr.evictions.fetch_add(1, std::memory_order_relaxed);
    }
}

void
ResultCache::clear()
{
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->entries.clear();
        shard->lru.clear();
        shard->bytes = 0;
    }
}

CacheStats
ResultCache::stats() const
{
    CacheCounters &ctr = *counters_;
    CacheStats s;
    s.hits = ctr.hits.load(std::memory_order_relaxed);
    s.misses = ctr.misses.load(std::memory_order_relaxed);
    s.coalesced = ctr.coalesced.load(std::memory_order_relaxed);
    s.evictions = ctr.evictions.load(std::memory_order_relaxed);
    s.corruptRejected = ctr.corruptRejected.load(std::memory_order_relaxed);
    s.diskHits = ctr.diskHits.load(std::memory_order_relaxed);
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        s.entries += shard->entries.size();
        s.bytes += shard->bytes;
    }
    return s;
}

bool
ResultCache::corruptEntryForTest(const Hash128 &key)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end() || it->second.payload->empty())
        return false;
    // The payload is shared immutable by contract; this test hook
    // simulates bit rot in place, exactly what the CRC exists to catch.
    auto &bytes = const_cast<std::vector<std::uint8_t> &>(
        *it->second.payload);
    bytes.back() ^= 0x01;
    return true;
}

std::string
ResultCache::diskPathFor(const Hash128 &key) const
{
    if (cfg_.diskDir.empty())
        return {};
    return cfg_.diskDir + "/" + key.hex() + ".res";
}

void
ResultCache::diskStore(const Hash128 &key, const CachePayload &payload)
{
    const std::string path = diskPathFor(key);
    if (path.empty())
        return;
    WireWriter w;
    w.u32(kDiskMagic);
    w.u32(payloadCrc(*payload));
    w.blob(*payload);
    try {
        ckpt::writeFile(path, w.bytes());
    } catch (const std::exception &e) {
        // Spill is best-effort; the in-memory entry stays valid.
        piton_warn("result-cache disk spill failed: %s", e.what());
    }
}

CachePayload
ResultCache::tryDiskLoad(const Hash128 &key)
{
    const std::string path = diskPathFor(key);
    if (path.empty())
        return nullptr;
    std::vector<std::uint8_t> file;
    try {
        file = ckpt::readFile(path);
    } catch (const std::exception &) {
        return nullptr; // absent (or unreadable): a plain miss
    }
    CacheCounters &ctr = *counters_;
    try {
        WireReader r(file);
        if (r.u32() != kDiskMagic)
            throw ServiceError("bad disk-entry magic");
        const std::uint32_t crc = r.u32();
        std::vector<std::uint8_t> payload = r.blob();
        r.expectEnd();
        if (payloadCrc(payload) != crc)
            throw ServiceError("disk-entry CRC mismatch");
        return std::make_shared<const std::vector<std::uint8_t>>(
            std::move(payload));
    } catch (const ServiceError &e) {
        ctr.corruptRejected.fetch_add(1, std::memory_order_relaxed);
        piton_warn("rejecting corrupted cache file %s: %s", path.c_str(),
                   e.what());
        std::remove(path.c_str());
        return nullptr;
    }
}

} // namespace piton::service
