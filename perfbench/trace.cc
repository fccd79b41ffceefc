#include "trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include <sys/resource.h>

namespace perfbench
{

namespace
{

thread_local std::uint64_t tlParent = 0;
thread_local std::uint64_t tlItem = 0;

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

Tracer::Scope::Scope(Tracer &t, const char *name, std::uint64_t item,
                     std::uint64_t parent)
    : tracer_(t.enabled() ? &t : nullptr)
{
    if (!tracer_)
        return;
    span_.name = name;
    span_.parent = parent ? parent : tlParent;
    span_.item = item ? item : tlItem;
    {
        std::lock_guard<std::mutex> lock(t.mutex_);
        span_.id = t.nextId_++;
    }
    savedParent_ = tlParent;
    savedItem_ = tlItem;
    tlParent = span_.id;
    tlItem = span_.item;
    span_.startNs = t.nowNs();
}

Tracer::Scope::~Scope()
{
    if (!tracer_)
        return;
    span_.endNs = tracer_->nowNs();
    tlParent = savedParent_;
    tlItem = savedItem_;
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    tracer_->spans_.push_back(span_);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, LayerTime>
Tracer::layerTimes(std::uint64_t root) const
{
    const std::vector<Span> all = spans();
    std::unordered_map<std::uint64_t, const Span *> byId;
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : all) {
        byId[s.id] = &s;
        children[s.parent].push_back(&s);
    }
    const auto rootOf = [&byId](const Span &s) {
        const Span *cur = &s;
        for (auto it = byId.find(cur->parent); it != byId.end();
             it = byId.find(cur->parent))
            cur = it->second;
        return cur->id;
    };

    std::map<std::string, LayerTime> out;
    for (const Span &s : all) {
        if (rootOf(s) != root)
            continue;
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (const Span *c : children[s.id])
            iv.emplace_back(std::max(c->startNs, s.startNs),
                            std::min(c->endNs, s.endNs));
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, reach = s.startNs;
        for (const auto &[a, b] : iv) {
            const std::int64_t from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        LayerTime &lt = out[s.name];
        const std::int64_t dur = s.endNs - s.startNs;
        lt.busyMs += static_cast<double>(dur) * 1e-6;
        lt.selfMs += static_cast<double>(dur - covered) * 1e-6;
        ++lt.calls;
    }
    return out;
}

bool
Tracer::writeJsonl(const std::string &path, const std::string &tag) const
{
    std::ofstream os(path, std::ios::app);
    if (!os)
        return false;
    for (const Span &s : spans()) {
        os << "{\"run\":\"" << tag << "\",\"name\":\"" << s.name
           << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"item\":" << s.item << ",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << "}\n";
    }
    return static_cast<bool>(os);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

Digest &
Digest::bytes(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ULL;
    }
    return *this;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

} // namespace perfbench
