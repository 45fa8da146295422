/**
 * @file
 * Resource classification for the observability layer.
 *
 * Every FIFO server in the machine belongs to exactly one resource
 * class: a memory module, a stage-1 crossbar output port, a stage-2
 * switch input port, or one of the two return-path port banks. The
 * class is the unit at which wait-latency distributions are
 * aggregated (a per-port histogram would be mostly empty buckets);
 * per-*resource* counters stay exact in ServerStats.
 *
 * This header sits below mem/net/hw so the machine substrate can tag
 * its servers without depending on the collection layer
 * (obs/metrics.hh).
 */

#ifndef CEDAR_OBS_RESOURCE_HH
#define CEDAR_OBS_RESOURCE_HH

#include <array>
#include <cstddef>

#include "sim/stats.hh"

namespace cedar::obs
{

/** The kinds of contended FIFO-server resources in the machine. */
enum class ResourceClass : unsigned
{
    memory_module, //!< interleaved global-memory module
    stage1_port,   //!< per-cluster stage-1 crossbar output port
    stage2_port,   //!< stage-2 switch input port (fronts a group)
    return_a_port, //!< return path, per-group output port
    return_b_port,   //!< return path, per-cluster output port to CEs
    concurrency_bus, //!< per-cluster concurrency-control (sync) bus
    kernel_lock,     //!< Xylem kernel lock (global or per-cluster)
    NUM
};

inline constexpr std::size_t num_resource_classes =
    static_cast<std::size_t>(ResourceClass::NUM);

/**
 * True for classes whose wait ticks measure queueing for a serially
 * reusable resource. The concurrency bus is the exception: its
 * "wait" is barrier skew (waiters wait for their *peers*, not for
 * the bus), so hot-spot attribution skips it — a skewed barrier is a
 * load-imbalance signal, not a contended resource.
 */
constexpr bool
isQueueingClass(ResourceClass cls)
{
    return cls != ResourceClass::concurrency_bus;
}

const char *toString(ResourceClass cls);

/**
 * One wait-latency histogram per resource class, fed with every
 * queueing wait by obs::Tracer::resourceWait. The tracer is owned by
 * hw::Machine, so the samples accumulate over exactly one run; the
 * per-class totals stay in the servers' own ServerStats.
 *
 * Bucket width 8 ticks resolves waits around the module service
 * times (4/8 cycles); hot-spot pile-ups land in the overflow bucket
 * and are reported through maxSample()/percentile().
 */
struct WaitHistograms
{
    WaitHistograms()
    {
        for (auto &h : perClass)
            h = sim::Histogram(8, 64);
    }

    sim::Histogram &
    of(ResourceClass cls)
    {
        return perClass[static_cast<std::size_t>(cls)];
    }

    const sim::Histogram &
    of(ResourceClass cls) const
    {
        return perClass[static_cast<std::size_t>(cls)];
    }

    std::array<sim::Histogram, num_resource_classes> perClass;
};

} // namespace cedar::obs

#endif // CEDAR_OBS_RESOURCE_HH
