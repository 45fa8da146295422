/**
 * @file
 * Tests for the measurement facilities: the cedarhpm trace and the
 * statfx concurrency monitor.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/study.hh"
#include "hpm/statfx.hh"
#include "hpm/trace.hh"
#include "sim/error.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace cedar;
using hpm::EventId;

/** A fake machine for statfx to poll: settable per-cluster active
 *  counts, plus a log of which clusters were asked. */
struct FakeClusters
{
    std::vector<unsigned> active;
    std::vector<sim::ClusterId> polled;

    explicit FakeClusters(std::size_t n) : active(n, 0) {}

    hpm::Statfx::ActiveFn
    poll()
    {
        return [this](sim::ClusterId c) {
            polled.push_back(c);
            return active.at(static_cast<std::size_t>(c));
        };
    }
};

TEST(Trace, RecordsEventIdTimestampAndProcessor)
{
    hpm::Trace t;
    t.post(1234, 7, EventId::iter_start, 42);
    ASSERT_EQ(t.records().size(), 1u);
    const auto &r = t.records()[0];
    EXPECT_EQ(r.when, 1234u);
    EXPECT_EQ(r.ce, 7);
    EXPECT_EQ(r.id(), EventId::iter_start);
    EXPECT_EQ(r.arg, 42u);
}

TEST(Trace, DisabledTraceRecordsNothing)
{
    hpm::Trace t;
    t.setEnabled(false);
    t.post(1, 0, EventId::iter_start);
    EXPECT_TRUE(t.records().empty());
}

TEST(Trace, FullBufferDropsAndCounts)
{
    hpm::Trace t(4);
    for (int i = 0; i < 10; ++i)
        t.post(i, 0, EventId::iter_start);
    EXPECT_EQ(t.records().size(), 4u);
    EXPECT_EQ(t.dropped(), 6u);
}

TEST(Trace, TakeRecordsHandsOverInOrderAndKeepsDrops)
{
    hpm::Trace t(3);
    for (int i = 0; i < 5; ++i)
        t.post(i * 10, i, EventId::iter_start, i);
    const auto taken = t.takeRecords();
    ASSERT_EQ(taken.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(taken[i].when, static_cast<sim::Tick>(i * 10));
        EXPECT_EQ(taken[i].arg, static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(t.dropped(), 2u);
    EXPECT_TRUE(t.records().empty());
}

TEST(Trace, FileRoundTrip)
{
    hpm::Trace t;
    for (int i = 0; i < 100; ++i)
        t.post(i * 10, i % 32, EventId::pickup_enter, i);
    const std::string path = "/tmp/cedar_trace_test.bin";
    core::atomicWriteFile(path, [&](std::ostream &os) {
        hpm::Trace::write(os, t.records());
    });
    const auto back = hpm::Trace::readFile(path);
    ASSERT_EQ(back.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(back[i].when, static_cast<sim::Tick>(i * 10));
        EXPECT_EQ(back[i].arg, static_cast<std::uint32_t>(i));
    }
    std::remove(path.c_str());
}

TEST(Trace, WriteReportsAFailedStream)
{
    hpm::Trace t;
    t.post(100, 0, EventId::serial_enter, 1);
    std::ostringstream os;
    os.setstate(std::ios::badbit);
    EXPECT_THROW(hpm::Trace::write(os, t.records()), sim::SimError);
}

TEST(Trace, ReadMissingFileThrows)
{
    EXPECT_THROW(hpm::Trace::readFile("/tmp/definitely_not_there.bin"),
                 std::runtime_error);
}

TEST(Trace, ReadRejectsBadMagic)
{
    const std::string path = "/tmp/cedar_test_badmagic.chpm";
    {
        std::ofstream f(path, std::ios::binary);
        f << "notchpm!restoffile";
    }
    EXPECT_THROW(hpm::Trace::readFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Trace, ReadRejectsTruncatedHeader)
{
    const std::string path = "/tmp/cedar_test_shortmagic.chpm";
    {
        std::ofstream f(path, std::ios::binary);
        f << "chp"; // shorter than the magic itself
    }
    EXPECT_THROW(hpm::Trace::readFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Trace, ReadRejectsCorruptRecordCount)
{
    const std::string path = "/tmp/cedar_test_badcount.chpm";
    {
        // Valid magic, then a record count far larger than the
        // payload: must throw, not attempt a huge allocation.
        std::ofstream f(path, std::ios::binary);
        f << "chpm0001";
        const std::uint64_t n = ~std::uint64_t(0) / 2;
        f.write(reinterpret_cast<const char *>(&n), sizeof(n));
        f << "tiny";
    }
    EXPECT_THROW(hpm::Trace::readFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Trace, ReadRejectsTruncatedPayload)
{
    const std::string path = "/tmp/cedar_test_truncated.chpm";
    {
        hpm::Trace t;
        for (int i = 0; i < 8; ++i)
            t.post(i, 0, EventId::iter_start,
                   static_cast<std::uint32_t>(i));
        core::atomicWriteFile(path, [&](std::ostream &os) {
            hpm::Trace::write(os, t.records());
        });
    }
    // Chop the last few bytes off a valid file.
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    in.close();
    std::string bytes = buf.str();
    bytes.resize(bytes.size() - 5);
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(hpm::Trace::readFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Trace, DumpIsHumanReadable)
{
    hpm::Trace t;
    t.post(5, 1, EventId::barrier_enter, 9);
    std::ostringstream os;
    t.dump(os, 10);
    EXPECT_NE(os.str().find("barrier_enter"), std::string::npos);
}

TEST(Trace, EveryEventHasAName)
{
    for (int i = 0; i < static_cast<int>(EventId::NUM); ++i)
        EXPECT_STRNE(toString(static_cast<EventId>(i)), "?");
}

TEST(Statfx, AveragesActiveCounts)
{
    sim::EventQueue eq;
    // Cluster 0 has 3 active CEs until t=10000 and 1 after; cluster 1
    // stays idle throughout.
    FakeClusters cl(2);
    hpm::Statfx fx(eq, 2, 1000, cl.poll());
    cl.active[0] = 3;
    eq.schedule(10001, [&cl] { cl.active[0] = 1; });
    fx.start();
    eq.runUntil(20000);
    fx.stop();
    EXPECT_GT(fx.samples(), 15u);
    EXPECT_NEAR(fx.clusterConcurrency(0), 2.0, 0.25);
    EXPECT_DOUBLE_EQ(fx.clusterConcurrency(1), 0.0);
    EXPECT_NEAR(fx.machineConcurrency(), fx.clusterConcurrency(0), 1e-9);
}

TEST(Statfx, PollsEveryClusterOncePerSample)
{
    sim::EventQueue eq;
    FakeClusters cl(3);
    hpm::Statfx fx(eq, 3, 100, cl.poll());
    cl.active = {2, 0, 1};
    // Nothing is read between samples.
    eq.schedule(50, [&cl] { EXPECT_TRUE(cl.polled.empty()); });
    fx.start();
    eq.runUntil(350);
    fx.stop();
    eq.run();
    ASSERT_EQ(fx.samples(), 3u);
    const std::vector<sim::ClusterId> order = {0, 1, 2, 0, 1, 2, 0, 1, 2};
    EXPECT_EQ(cl.polled, order);
    EXPECT_DOUBLE_EQ(fx.clusterConcurrency(0), 2.0);
    EXPECT_DOUBLE_EQ(fx.clusterConcurrency(2), 1.0);
    EXPECT_DOUBLE_EQ(fx.machineConcurrency(), 3.0);
}

TEST(Statfx, ZeroPeriodThrows)
{
    // A zero period would reschedule sample() at the current tick
    // forever — a livelock the watchdog would abort the run for.
    sim::EventQueue eq;
    FakeClusters cl(1);
    EXPECT_THROW(hpm::Statfx(eq, 1, 0, cl.poll()), sim::SimError);
}

TEST(Statfx, StartIsIdempotent)
{
    sim::EventQueue eq;
    FakeClusters cl(1);
    hpm::Statfx fx(eq, 1, 100, cl.poll());
    cl.active[0] = 1;
    fx.start();
    fx.start(); // must not chain a second sampling loop
    eq.scheduleIn(500, [&fx] { fx.start(); });
    eq.runUntil(1000);
    fx.stop();
    eq.run();
    // One sample every 100 ticks over 1000 ticks, not two or three
    // interleaved loops' worth.
    EXPECT_LE(fx.samples(), 11u);
    EXPECT_GE(fx.samples(), 9u);
}

TEST(Statfx, RestartAfterStopResumesWithoutDuplicates)
{
    sim::EventQueue eq;
    FakeClusters cl(1);
    hpm::Statfx fx(eq, 1, 100, cl.poll());
    cl.active[0] = 1;
    fx.start();
    eq.runUntil(500);
    fx.stop();
    // The stop takes effect at the next sample point; restarting
    // while that callback is still queued must not add another.
    fx.start();
    eq.runUntil(1000);
    fx.stop();
    eq.run();
    EXPECT_LE(fx.samples(), 11u);
}

TEST(Statfx, StopsCleanly)
{
    sim::EventQueue eq;
    FakeClusters cl(1);
    hpm::Statfx fx(eq, 1, 100, cl.poll());
    cl.active[0] = 1;
    fx.start();
    eq.runUntil(1000);
    fx.stop();
    eq.run();
    const auto n = fx.samples();
    EXPECT_GT(n, 0u);
    EXPECT_TRUE(eq.empty());
}

} // namespace
