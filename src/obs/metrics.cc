#include "obs/metrics.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "bench_json.hh"
#include "hw/machine.hh"
#include "obs/timeseries.hh"
#include "os/xylem.hh"
#include "sim/error.hh"

namespace cedar::obs
{

namespace
{

ResourceMetrics
snapshotStats(std::string name, ResourceClass cls,
              const sim::ServerStats &st, sim::Tick elapsed)
{
    ResourceMetrics r;
    r.name = std::move(name);
    r.cls = cls;
    r.requests = st.requests();
    r.waitTicks = st.waitTicks();
    r.busyTicks = st.busyTicks();
    r.utilization = st.utilization(elapsed);
    r.meanWait = st.meanWait();
    return r;
}

/**
 * Gini coefficient of @p xs via the sorted-rank formula:
 * G = (2 * sum_i i*x_(i) / (n * sum x)) - (n + 1) / n, with x_(i)
 * ascending and i starting at 1. 0 for a balanced load, -> 1 when
 * one resource absorbs everything.
 */
double
gini(std::vector<double> xs)
{
    if (xs.size() < 2)
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double total = 0, weighted = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        total += xs[i];
        weighted += static_cast<double>(i + 1) * xs[i];
    }
    if (total <= 0.0)
        return 0.0;
    const double n = static_cast<double>(xs.size());
    return 2.0 * weighted / (n * total) - (n + 1.0) / n;
}

void
writeHistJson(tools::JsonWriter &j, const sim::Histogram &h)
{
    j.beginObject();
    j.field("bucket_width", static_cast<std::uint64_t>(h.bucketWidth()));
    j.field("count", h.count());
    j.field("max", static_cast<std::uint64_t>(h.maxSample()));
    j.field("p50", static_cast<std::uint64_t>(h.percentile(0.5)));
    j.field("p95", static_cast<std::uint64_t>(h.percentile(0.95)));
    j.field("p99", static_cast<std::uint64_t>(h.percentile(0.99)));
    j.key("buckets").beginArray();
    for (const auto b : h.buckets())
        j.value(b);
    j.endArray();
    j.endObject();
}

/**
 * The one walk over every FIFO server of @p m, in report order:
 * memory modules, network ports, concurrency buses, kernel locks.
 * Calls f(cls, stats, name), where name() builds the resource's
 * report name on demand — only collectMetrics asks for it, so the
 * time-series boundary poll builds no strings.
 */
template <typename Fn>
void
visitServers(const hw::Machine &m, Fn &&f)
{
    const auto &gmem = m.gmem();
    for (unsigned i = 0; i < gmem.map().numModules(); ++i)
        f(ResourceClass::memory_module, gmem.moduleServer(i).stats(),
          [i] { return "module." + std::to_string(i); });
    m.net().visitPorts(
        [&f](const net::PortSite &s, const sim::FifoServer &srv) {
            f(s.cls, srv.stats(), [&s] { return s.name(); });
        });
    for (unsigned c = 0; c < m.numClusters(); ++c)
        f(ResourceClass::concurrency_bus,
          m.cluster(static_cast<sim::ClusterId>(c)).bus().stats(),
          [c] { return "cbus.cluster" + std::to_string(c); });
    f(ResourceClass::kernel_lock, m.xylem().globalLock().stats(),
      [] { return std::string("klock.global"); });
    for (unsigned c = 0; c < m.numClusters(); ++c)
        f(ResourceClass::kernel_lock,
          m.xylem().clusterLock(static_cast<sim::ClusterId>(c)).stats(),
          [c] { return "klock.cluster" + std::to_string(c); });
}

} // namespace

MetricsReport
collectMetrics(const hw::Machine &m, sim::Tick elapsed)
{
    MetricsReport rep;
    rep.elapsed = elapsed ? elapsed : m.now();

    rep.classes.resize(num_resource_classes);
    for (std::size_t c = 0; c < num_resource_classes; ++c) {
        rep.classes[c].cls = static_cast<ResourceClass>(c);
        rep.classes[c].waitHist =
            m.waitHists().perClass[c]; // per-request samples
    }

    visitServers(m, [&rep](ResourceClass cls, const sim::ServerStats &st,
                           const auto &name) {
        rep.resources.push_back(snapshotStats(name(), cls, st, rep.elapsed));
    });

    for (const auto &r : rep.resources) {
        auto &c = rep.classes[static_cast<std::size_t>(r.cls)];
        ++c.resources;
        c.requests += r.requests;
        c.waitTicks += r.waitTicks;
        c.busyTicks += r.busyTicks;
        rep.totalWaitTicks += r.waitTicks;
        rep.totalRequests += r.requests;
    }
    for (auto &c : rep.classes) {
        c.utilization =
            rep.elapsed && c.resources
                ? static_cast<double>(c.busyTicks) /
                      (static_cast<double>(rep.elapsed) * c.resources)
                : 0.0;
        c.waitShare = rep.totalWaitTicks
                          ? static_cast<double>(c.waitTicks) /
                                static_cast<double>(rep.totalWaitTicks)
                          : 0.0;
    }
    for (auto &r : rep.resources) {
        r.waitShare = rep.totalWaitTicks
                          ? static_cast<double>(r.waitTicks) /
                                static_cast<double>(rep.totalWaitTicks)
                          : 0.0;
    }

    const auto &gmem = m.gmem();
    std::vector<double> moduleWaits;
    for (unsigned i = 0; i < gmem.map().numModules(); ++i)
        moduleWaits.push_back(static_cast<double>(
            gmem.moduleServer(i).stats().waitTicks()));
    rep.moduleGini = gini(std::move(moduleWaits));
    return rep;
}

ClassTotals
sampleClassTotals(const hw::Machine &m)
{
    ClassTotals t;
    visitServers(m, [&t](ResourceClass cls, const sim::ServerStats &st,
                         const auto &) {
        const auto c = static_cast<std::size_t>(cls);
        ++t.resources[c];
        t.requests[c] += st.requests();
        t.waitTicks[c] += st.waitTicks();
        t.busyTicks[c] += st.busyTicks();
    });
    return t;
}

std::vector<ResourceMetrics>
MetricsReport::topByWait(std::size_t k) const
{
    std::vector<ResourceMetrics> sorted;
    for (const auto &r : resources)
        if (isQueueingClass(r.cls))
            sorted.push_back(r);
    std::sort(sorted.begin(), sorted.end(),
              [](const ResourceMetrics &a, const ResourceMetrics &b) {
                  if (a.waitTicks != b.waitTicks)
                      return a.waitTicks > b.waitTicks;
                  return a.name < b.name; // deterministic ties
              });
    if (sorted.size() > k)
        sorted.resize(k);
    return sorted;
}

const ClassMetrics &
MetricsReport::perClass(ResourceClass cls) const
{
    const auto idx = static_cast<std::size_t>(cls);
    if (idx >= classes.size())
        throw sim::SimError("metrics: no such resource class");
    return classes[idx];
}

void
MetricsReport::writeJson(std::ostream &os, const TimeSeries *ts) const
{
    tools::JsonWriter j(os);
    j.beginObject();
    j.field("schema", "cedar-metrics-v1");
    j.field("elapsed_ticks", static_cast<std::uint64_t>(elapsed));
    j.field("total_wait_ticks", static_cast<std::uint64_t>(totalWaitTicks));
    j.field("total_requests", totalRequests);
    j.field("module_gini", moduleGini);

    j.key("classes").beginArray();
    for (const auto &c : classes) {
        j.beginObject();
        j.field("class", toString(c.cls));
        j.field("resources", c.resources);
        j.field("requests", c.requests);
        j.field("wait_ticks", static_cast<std::uint64_t>(c.waitTicks));
        j.field("busy_ticks", static_cast<std::uint64_t>(c.busyTicks));
        j.field("utilization", c.utilization);
        j.field("wait_share", c.waitShare);
        j.key("wait_hist");
        writeHistJson(j, c.waitHist);
        j.endObject();
    }
    j.endArray();

    j.key("hot_spots").beginArray();
    for (const auto &r : topByWait(10)) {
        j.beginObject();
        j.field("name", r.name);
        j.field("class", toString(r.cls));
        j.field("wait_ticks", static_cast<std::uint64_t>(r.waitTicks));
        j.field("wait_share", r.waitShare);
        j.field("mean_wait", r.meanWait);
        j.field("utilization", r.utilization);
        j.endObject();
    }
    j.endArray();

    j.key("resources").beginArray();
    for (const auto &r : resources) {
        j.beginObject();
        j.field("name", r.name);
        j.field("class", toString(r.cls));
        j.field("requests", r.requests);
        j.field("wait_ticks", static_cast<std::uint64_t>(r.waitTicks));
        j.field("busy_ticks", static_cast<std::uint64_t>(r.busyTicks));
        j.field("utilization", r.utilization);
        j.field("mean_wait", r.meanWait);
        j.endObject();
    }
    j.endArray();

    if (ts != nullptr && !ts->empty()) {
        j.key("timeseries");
        writeTimeSeriesJson(j, *ts);
    }
    j.endObject();
}

void
MetricsReport::print(std::ostream &os, std::size_t top_k) const
{
    os << "per-resource contention over " << elapsed << " cycles ("
       << totalRequests << " requests, " << totalWaitTicks
       << " wait ticks)\n\n";

    os << "resource classes:\n";
    for (const auto &c : classes) {
        os << "  " << std::left << std::setw(14) << toString(c.cls)
           << std::right << std::setw(4) << c.resources << " x "
           << std::setw(10) << c.requests << " req  " << std::fixed
           << std::setprecision(1) << std::setw(5)
           << 100.0 * c.utilization << "% busy  " << std::setw(5)
           << 100.0 * c.waitShare << "% of wait  wait "
           << c.waitHist.toString() << "\n";
    }

    // The paper's lock-word hot spot: one module's wait share far
    // above the module mean marks the XDOALL pick-up word.
    const auto &mem = perClass(ResourceClass::memory_module);
    const double mean_module_share =
        mem.resources ? mem.waitShare / mem.resources : 0.0;
    os << "\nmodule wait imbalance (Gini): " << std::setprecision(3)
       << moduleGini << "  (mean module wait share "
       << std::setprecision(2) << 100.0 * mean_module_share << "%)\n";

    os << "\ntop " << top_k << " hot spots by wait share:\n";
    for (const auto &r : topByWait(top_k)) {
        os << "  " << std::left << std::setw(24) << r.name << std::right
           << std::fixed << std::setprecision(1) << std::setw(5)
           << 100.0 * r.waitShare << "% of wait  " << std::setw(10)
           << r.requests << " req  mean wait " << std::setw(7)
           << r.meanWait << "  " << std::setprecision(1) << std::setw(5)
           << 100.0 * r.utilization << "% busy\n";
    }
}

} // namespace cedar::obs
