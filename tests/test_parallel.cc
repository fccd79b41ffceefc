/**
 * @file
 * Tests for the sweep-parallelism substrate (common/parallel.hh) and
 * the determinism contract of the parallel experiment drivers: a sweep
 * fanned out over N workers must produce bit-identical results to the
 * same sweep run serially.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/parallel.hh"
#include "core/epi_experiment.hh"
#include "core/vf_experiments.hh"

namespace piton
{
namespace
{

TEST(DeriveTaskSeed, DeterministicAndDecorrelated)
{
    const std::uint64_t base = 0x517;
    EXPECT_EQ(deriveTaskSeed(base, 0), deriveTaskSeed(base, 0));
    EXPECT_EQ(deriveTaskSeed(base, 7), deriveTaskSeed(base, 7));

    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seeds.insert(deriveTaskSeed(base, i));
    EXPECT_EQ(seeds.size(), 1000u); // no collisions across a sweep
    EXPECT_NE(deriveTaskSeed(base, 0), deriveTaskSeed(base + 1, 0));
}

TEST(ResolveThreadCount, ZeroMeansHardwareAndNeverBelowOne)
{
    EXPECT_GE(resolveThreadCount(0), 1u);
    EXPECT_EQ(resolveThreadCount(1), 1u);
    EXPECT_EQ(resolveThreadCount(6), 6u);
}

TEST(BoundedTaskQueue, FifoOrderAndCloseSemantics)
{
    BoundedTaskQueue q(8);
    EXPECT_EQ(q.capacity(), 8u);
    std::vector<int> order;
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(q.push([&order, i] { order.push_back(i); }));
    EXPECT_EQ(q.size(), 3u);

    q.close();
    EXPECT_FALSE(q.push([] {})); // closed: new work refused...

    std::function<void()> task;
    while (q.pop(task)) // ...but queued work still drains
        task();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_FALSE(q.pop(task)); // closed and empty
}

TEST(ThreadPool, RunsEverySubmittedTaskAndIsReusable)
{
    ThreadPool pool(4, 16);
    EXPECT_EQ(pool.threadCount(), 4u);

    std::atomic<int> count{0};
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 100; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 100);
    }
}

TEST(ThreadPool, WaitRethrowsTaskException)
{
    ThreadPool pool(2, 8);
    for (int i = 0; i < 8; ++i)
        pool.submit([i] {
            if (i == 3)
                throw std::runtime_error("task failed");
        });
    EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ParallelFor, CoversEachIndexExactlyOnceAtAnyThreadCount)
{
    for (const unsigned threads : {1u, 4u, 0u}) {
        constexpr std::size_t n = 257; // not a multiple of the workers
        std::vector<int> hits(n, 0);
        parallelFor(n, threads,
                    [&hits](std::size_t i) { hits[i] += 1; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i], 1) << "index " << i;
    }
}

TEST(ParallelFor, HandlesEmptyAndSmallerThanPoolRanges)
{
    parallelFor(0, 4, [](std::size_t) { FAIL() << "n = 0 ran a task"; });

    std::vector<int> hits(2, 0);
    parallelFor(2, 8, [&hits](std::size_t i) { hits[i] += 1; });
    EXPECT_EQ(hits[0], 1);
    EXPECT_EQ(hits[1], 1);
}

TEST(ParallelFor, PropagatesFirstException)
{
    EXPECT_THROW(parallelFor(16, 4,
                             [](std::size_t i) {
                                 if (i == 5)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

// --- serial vs parallel sweep determinism ---------------------------

TEST(SweepDeterminism, VfScalingIdenticalAtOneAndFourThreads)
{
    const core::VfScalingExperiment exp;
    const auto serial = exp.runAll({1, 2, 3}, 1);
    const auto parallel = exp.runAll({1, 2, 3}, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].chipId, parallel[i].chipId);
        EXPECT_EQ(serial[i].vddV, parallel[i].vddV);
        EXPECT_EQ(serial[i].fmaxMhz, parallel[i].fmaxMhz);
        EXPECT_EQ(serial[i].nextStepMhz, parallel[i].nextStepMhz);
        EXPECT_EQ(serial[i].thermallyLimited,
                  parallel[i].thermallyLimited);
        EXPECT_EQ(serial[i].dieTempC, parallel[i].dieTempC);
    }
}

TEST(SweepDeterminism, MemoryEnergyIdenticalAtOneAndFourThreads)
{
    sim::SystemOptions serial_opts;
    serial_opts.sweepThreads = 1;
    sim::SystemOptions parallel_opts;
    parallel_opts.sweepThreads = 4;

    const core::MemoryEnergyExperiment serial_exp(serial_opts, 8);
    const core::MemoryEnergyExperiment parallel_exp(parallel_opts, 8);
    const auto serial = serial_exp.runAll();
    const auto parallel = parallel_exp.runAll();
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].scenario, parallel[i].scenario);
        EXPECT_EQ(serial[i].latency, parallel[i].latency);
        // Bit-identical, not merely close: each task derives its seed
        // from the task index, never from scheduling order.
        EXPECT_EQ(serial[i].energyNj, parallel[i].energyNj);
        EXPECT_EQ(serial[i].errNj, parallel[i].errNj);
    }
}

} // namespace
} // namespace piton
