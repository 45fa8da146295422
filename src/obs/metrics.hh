/**
 * @file
 * Per-resource contention metrics.
 *
 * The paper's contribution is *measurement*: attributing completion
 * time to network queueing, memory-module hot spots and OS/RTL
 * overheads. The simulator's ground truth for the first two lives in
 * the ServerStats of every FIFO server — the memory modules (32 on
 * the measured Cedar; any configured count here), the stage-1/stage-2
 * crossbar ports and both return-path banks. This
 * layer snapshots all of them into a structured MetricsReport:
 *
 *  - per-resource counters (requests, wait/busy ticks, utilisation,
 *    mean wait),
 *  - per-class aggregates with a wait-latency Histogram,
 *  - hot-spot attribution: top-K resources by wait share plus a Gini
 *    imbalance coefficient across the memory modules (the paper's
 *    lock-word hot spot lights up one module under ADM/XDOALL),
 *  - machine-readable JSON export.
 *
 * A report is collected once at the end of every experiment run and
 * carried in core::RunResult, so analyses and benches can validate
 * the paper's indirect contention estimate against per-resource
 * ground truth.
 */

#ifndef CEDAR_OBS_METRICS_HH
#define CEDAR_OBS_METRICS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/resource.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cedar::hw
{
class Machine;
}

namespace cedar::obs
{

struct TimeSeries;

/** Snapshot of one FIFO-server resource. */
struct ResourceMetrics
{
    std::string name;  //!< e.g. "module.7", "stage1.cluster0.port3"
    ResourceClass cls = ResourceClass::NUM;
    std::uint64_t requests = 0;
    sim::Tick waitTicks = 0;
    sim::Tick busyTicks = 0;
    double utilization = 0; //!< busy / elapsed
    double meanWait = 0;    //!< waitTicks / requests

    /** Share of the machine's total queueing wait. */
    double waitShare = 0;
};

/** Aggregate over every resource of one class. */
struct ClassMetrics
{
    ResourceClass cls = ResourceClass::NUM;
    unsigned resources = 0;
    std::uint64_t requests = 0;
    sim::Tick waitTicks = 0;
    sim::Tick busyTicks = 0;
    double utilization = 0; //!< busy / (elapsed * resources)
    double waitShare = 0;   //!< of the machine total
    /** Per-request wait-latency distribution (from WaitHistograms). */
    sim::Histogram waitHist;
};

/** The structured metrics document for one run. */
struct MetricsReport
{
    sim::Tick elapsed = 0;        //!< observation window (= CT)
    sim::Tick totalWaitTicks = 0; //!< queueing wait, all resources
    std::uint64_t totalRequests = 0;

    /** Every server in the machine, modules first. */
    std::vector<ResourceMetrics> resources;
    /** One entry per ResourceClass, in enum order. */
    std::vector<ClassMetrics> classes;

    /**
     * Gini coefficient of queueing wait across the memory modules:
     * 0 = perfectly balanced, ->1 = all wait on one module. The
     * paper's lock-word hot spot shows up as a high value.
     */
    double moduleGini = 0;

    /** Top @p k resources by wait share, descending (ties by name). */
    std::vector<ResourceMetrics> topByWait(std::size_t k) const;

    /** Aggregate of one class (classes[] indexed by enum order). */
    const ClassMetrics &perClass(ResourceClass cls) const;

    /**
     * Machine-readable export (schema "cedar-metrics-v1"). When
     * @p ts is non-null and non-empty the document carries a
     * "timeseries" section (schema "cedar-timeseries-v2", see
     * obs/timeseries.hh); a null/empty series leaves the output
     * byte-identical to the historical format.
     */
    void writeJson(std::ostream &os, const TimeSeries *ts = nullptr) const;

    /** Human-readable hot-spot report (cedar_cli metrics). */
    void print(std::ostream &os, std::size_t top_k = 10) const;
};

/**
 * Snapshot every FIFO server of @p m into a MetricsReport.
 *
 * @param elapsed observation window for utilisation; 0 means "now".
 */
MetricsReport collectMetrics(const hw::Machine &m, sim::Tick elapsed = 0);

} // namespace cedar::obs

#endif // CEDAR_OBS_METRICS_HH
