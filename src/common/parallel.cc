#include "common/parallel.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace piton
{

std::uint64_t
deriveTaskSeed(std::uint64_t base, std::uint64_t index)
{
    // splitmix64 finalizer over the combined pair; the odd multiplier
    // on `index` separates (base, index) from (base + 1, index - k)
    // collisions for neighbouring sweeps.
    std::uint64_t z = base + (index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

unsigned
resolveThreadCount(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

BoundedTaskQueue::BoundedTaskQueue(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1))
{
}

bool
BoundedTaskQueue::push(std::function<void()> task)
{
    std::unique_lock<std::mutex> lock(mutex_);
    notFull_.wait(lock,
                  [this] { return closed_ || tasks_.size() < capacity_; });
    if (closed_)
        return false;
    tasks_.push_back(std::move(task));
    lock.unlock();
    notEmpty_.notify_one();
    return true;
}

bool
BoundedTaskQueue::pop(std::function<void()> &task)
{
    std::unique_lock<std::mutex> lock(mutex_);
    notEmpty_.wait(lock, [this] { return closed_ || !tasks_.empty(); });
    if (tasks_.empty())
        return false; // closed and drained
    task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    notFull_.notify_one();
    return true;
}

void
BoundedTaskQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    notFull_.notify_all();
    notEmpty_.notify_all();
}

std::size_t
BoundedTaskQueue::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tasks_.size();
}

ThreadPool::ThreadPool(unsigned threads, std::size_t queue_capacity)
    : queue_(queue_capacity)
{
    const unsigned n = resolveThreadCount(threads);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    queue_.close();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    std::function<void()> task;
    while (queue_.pop(task)) {
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> lock(doneMutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(doneMutex_);
            --pending_;
        }
        doneCv_.notify_all();
        task = nullptr; // release captures before blocking in pop()
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(doneMutex_);
        ++pending_;
    }
    if (!queue_.push(std::move(task))) {
        std::lock_guard<std::mutex> lock(doneMutex_);
        --pending_;
        piton_panic("submit() on a closed ThreadPool");
    }
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(doneMutex_);
    doneCv_.wait(lock, [this] { return pending_ == 0; });
    if (firstError_) {
        std::exception_ptr e = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(e);
    }
}

void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(
            resolveThreadCount(threads), n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool pool(workers, /*queue_capacity=*/workers * 2);
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(i); });
    pool.wait();
}

} // namespace piton
