#include "obs/chrome_trace.hh"

#include <array>
#include <ostream>
#include <string_view>

#include "bench_json.hh"
#include "obs/timeseries.hh"
#include "sim/error.hh"

namespace cedar::obs
{

namespace
{

/** How one hpm event renders in the trace_event format. */
struct EventShape
{
    char ph;          //!< 'B' begin, 'E' end, 'i' instant
    const char *name; //!< slice/instant name
    const char *cat;  //!< category ("rtl" or "os")
};

/** Shape for @p id; ph == 0 means the event is not exported. */
EventShape
shapeOf(hpm::EventId id)
{
    using E = hpm::EventId;
    switch (id) {
      case E::serial_enter: return {'B', "serial", "rtl"};
      case E::serial_exit: return {'E', "serial", "rtl"};
      case E::mcloop_enter: return {'B', "mc_loop", "rtl"};
      case E::mcloop_exit: return {'E', "mc_loop", "rtl"};
      case E::loop_setup_enter: return {'B', "loop_setup", "rtl"};
      case E::loop_setup_exit: return {'E', "loop_setup", "rtl"};
      case E::pickup_enter: return {'B', "pickup", "rtl"};
      case E::pickup_exit: return {'E', "pickup", "rtl"};
      case E::iter_start: return {'B', "iteration", "rtl"};
      case E::iter_end: return {'E', "iteration", "rtl"};
      case E::barrier_enter: return {'B', "barrier", "rtl"};
      case E::barrier_exit: return {'E', "barrier", "rtl"};
      case E::wait_enter: return {'B', "helper_wait", "rtl"};
      case E::wait_exit: return {'E', "helper_wait", "rtl"};
      case E::cls_sync_enter: return {'B', "cluster_sync", "rtl"};
      case E::cls_sync_exit: return {'E', "cluster_sync", "rtl"};
      case E::os_enter: return {'B', "os", "os"};
      case E::os_exit: return {'E', "os", "os"};
      case E::task_switch_out: return {'B', "switched_out", "os"};
      case E::task_switch_in: return {'E', "switched_out", "os"};
      case E::sdoall_post: return {'i', "sdoall_post", "rtl"};
      case E::xdoall_post: return {'i', "xdoall_post", "rtl"};
      case E::helper_join: return {'i', "helper_join", "rtl"};
      case E::loop_done: return {'i', "loop_done", "rtl"};
      case E::os_overlay: return {'i', "os_overlay", "os"};
      default: return {0, "", ""};
    }
}

/** The track ids one layer needs, as a seen flag per id: discovery
 *  is one flag store per event, and forEach() visits ascending. */
class TrackSet
{
  public:
    void
    insert(std::int32_t id)
    {
        if (id < 0)
            throw sim::SimError("trace: negative track id " +
                                std::to_string(id));
        const auto i = static_cast<std::size_t>(id);
        if (i >= seen_.size())
            seen_.resize(i + 1, false);
        seen_[i] = true;
    }

    bool empty() const { return seen_.empty(); }

    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < seen_.size(); ++i)
            if (seen_[i])
                f(static_cast<unsigned>(i));
    }

  private:
    std::vector<bool> seen_;
};

/** Track label for @p ce: topology-aware when the cluster geometry
 *  is known, the historical flat label otherwise. */
std::string
ceLabel(unsigned ce, unsigned ces_per_cluster)
{
    if (ces_per_cluster == 0)
        return "CE " + std::to_string(ce);
    return "cluster " + std::to_string(ce / ces_per_cluster) + " / CE " +
           std::to_string(ce % ces_per_cluster);
}

void
processMeta(tools::JsonWriter &j, unsigned pid, std::string_view name)
{
    j.beginObject();
    j.field("name", "process_name");
    j.field("ph", "M");
    j.field("pid", pid);
    j.key("args").beginObject().field("name", name).endObject();
    j.endObject();
}

void
threadMeta(tools::JsonWriter &j, unsigned pid, unsigned tid,
           std::string_view name)
{
    j.beginObject();
    j.field("name", "thread_name");
    j.field("ph", "M");
    j.field("pid", pid);
    j.field("tid", tid);
    j.key("args").beginObject().field("name", name).endObject();
    j.endObject();
}

} // namespace

void
writeChromeTrace(std::ostream &os, const std::vector<hpm::Record> &recs,
                 double clock_hz, unsigned ces_per_cluster)
{
    if (clock_hz <= 0)
        throw sim::SimError("chrome trace: clock must be positive");
    const double us_per_tick = 1e6 / clock_hz;

    tools::JsonWriter j(os);
    j.beginObject();
    j.key("traceEvents").beginArray();

    // Metadata: name the process and one thread (track) per CE.
    TrackSet ces;
    for (const auto &r : recs)
        ces.insert(r.ce);
    processMeta(j, 0, "cedar");
    ces.forEach([&](unsigned ce) {
        threadMeta(j, 0, ce, ceLabel(ce, ces_per_cluster));
    });

    for (const auto &r : recs) {
        const auto shape = shapeOf(r.id());
        if (shape.ph == 0)
            continue;
        j.beginObject();
        j.field("name", shape.name);
        j.field("cat", shape.cat);
        j.field("ph", std::string_view(&shape.ph, 1));
        j.field("ts", static_cast<double>(r.when) * us_per_tick);
        j.field("pid", 0);
        j.field("tid", static_cast<unsigned>(r.ce));
        if (shape.ph == 'i')
            j.field("s", "t"); // thread-scoped instant
        j.key("args")
            .beginObject()
            .field("arg", r.arg)
            .endObject();
        j.endObject();
    }

    j.endArray();
    j.field("displayTimeUnit", "ms");
    j.endObject();
}

namespace
{

/** Slice name for one span event: the charged activity. */
const char *
spanName(const TelemetryEvent &e)
{
    switch (e.cat) {
      case os::TimeCat::user: return os::toString(e.userAct());
      case os::TimeCat::system:
      case os::TimeCat::interrupt: return os::toString(e.osAct());
      case os::TimeCat::kspin: return "kernel_spin";
      default: return "idle";
    }
}

/** One 'X' complete slice. */
void
slice(tools::JsonWriter &j, const char *name, const char *cat,
      double ts, double dur, unsigned pid, unsigned tid)
{
    j.beginObject();
    j.field("name", name);
    j.field("cat", cat);
    j.field("ph", "X");
    j.field("ts", ts);
    j.field("dur", dur);
    j.field("pid", pid);
    j.field("tid", tid);
    j.endObject();
}

/** One flow arrow endpoint ('s' start, 't' step, 'f' finish). */
void
flowPoint(tools::JsonWriter &j, char ph, std::uint32_t id, double ts,
          unsigned pid, unsigned tid)
{
    j.beginObject();
    j.field("name", "gm_request");
    j.field("cat", "gm");
    j.field("ph", std::string_view(&ph, 1));
    j.field("id", id);
    j.field("ts", ts);
    j.field("pid", pid);
    j.field("tid", tid);
    if (ph == 'f')
        j.field("bp", "e"); // bind to the enclosing slice
    j.endObject();
}

// Span-trace process (track-group) ids, one per hardware layer.
constexpr unsigned pid_ces = 0;
constexpr unsigned pid_gm = 1;
constexpr unsigned pid_stage1 = 2;
constexpr unsigned pid_stage2 = 3;
constexpr unsigned pid_return = 4;
constexpr unsigned pid_telemetry = 5; //!< windowed counter tracks

/** One 'C' counter sample (each name is its own counter track). */
void
counter(tools::JsonWriter &j, std::string_view name, double ts,
        double value)
{
    j.beginObject();
    j.field("name", name);
    j.field("cat", "timeseries");
    j.field("ph", "C");
    j.field("ts", ts);
    j.field("pid", pid_telemetry);
    j.key("args").beginObject().field("value", value).endObject();
    j.endObject();
}

/** All counter tracks for one time series: one sample per window,
 *  placed at the window's opening edge (Perfetto holds a counter's
 *  value until its next sample). */
void
counterTracks(tools::JsonWriter &j, const TimeSeries &ts, double us)
{
    std::array<std::string, num_resource_classes> queueName, utilName;
    for (std::size_t c = 0; c < num_resource_classes; ++c) {
        const char *cls = toString(static_cast<ResourceClass>(c));
        queueName[c] = std::string("queue_depth.") + cls;
        utilName[c] = std::string("utilization.") + cls;
    }
    std::array<std::string, num_time_cats> catName;
    for (std::size_t c = 0; c < num_time_cats; ++c)
        catName[c] = std::string("ces_in.") +
                     os::toString(static_cast<os::TimeCat>(c));

    for (const auto &w : ts.windows) {
        const double t = static_cast<double>(w.start) * us;
        const double width = static_cast<double>(w.width());
        if (width <= 0)
            continue;
        for (std::size_t c = 0; c < num_resource_classes; ++c) {
            const auto cls = static_cast<ResourceClass>(c);
            if (isQueueingClass(cls))
                counter(j, queueName[c], t,
                        static_cast<double>(w.classes.waitTicks[c]) /
                            width);
            if (w.classes.resources[c] > 0)
                counter(j, utilName[c], t,
                        static_cast<double>(w.classes.busyTicks[c]) /
                            (width * w.classes.resources[c]));
        }
        for (std::size_t c = 0; c < num_time_cats; ++c)
            counter(j, catName[c], t,
                    static_cast<double>(w.catTicks[c]) / width);
        const double bursts =
            static_cast<double>(w.fastHits + w.fastMisses);
        counter(j, "fastpath_hit_rate", t,
                bursts > 0 ? static_cast<double>(w.fastHits) / bursts
                           : 0.0);
        counter(j, "events_per_ktick", t,
                1000.0 * static_cast<double>(w.events) / width);
    }
}

} // namespace

void
writeSpanTrace(std::ostream &os,
               const std::vector<TelemetryEvent> &events,
               const SpanTraceMeta &meta)
{
    if (meta.clock_hz <= 0)
        throw sim::SimError("span trace: clock must be positive");
    const double us = 1e6 / meta.clock_hz;

    // Discover the tracks each layer needs.
    TrackSet ces, modules, s1Ports, s2Ports, retPorts;
    for (const auto &e : events) {
        if (e.kind == EventKind::span) {
            ces.insert(e.ce);
        } else {
            switch (e.stage()) {
              case FlowStage::issue:
              case FlowStage::complete: ces.insert(e.ce); break;
              case FlowStage::stage1: s1Ports.insert(e.res); break;
              case FlowStage::stage2: s2Ports.insert(e.res); break;
              case FlowStage::module: modules.insert(e.res); break;
              case FlowStage::ret: retPorts.insert(e.res); break;
            }
        }
    }

    tools::JsonWriter j(os);
    j.beginObject();
    j.key("traceEvents").beginArray();

    processMeta(j, pid_ces, "CEs");
    ces.forEach([&](unsigned ce) {
        threadMeta(j, pid_ces, ce, ceLabel(ce, meta.ces_per_cluster));
    });
    auto layer = [&](const TrackSet &tracks, unsigned pid,
                     const char *process, const char *track) {
        if (tracks.empty())
            return;
        processMeta(j, pid, process);
        tracks.forEach([&](unsigned id) {
            threadMeta(j, pid, id, track + std::to_string(id));
        });
    };
    layer(modules, pid_gm, "global memory", "GM module ");
    layer(s1Ports, pid_stage1, "network stage 1", "stage1 port ");
    layer(s2Ports, pid_stage2, "network stage 2", "stage2 port ");
    layer(retPorts, pid_return, "network return", "return port ");
    const bool haveSeries =
        meta.timeseries != nullptr && !meta.timeseries->empty();
    if (haveSeries)
        processMeta(j, pid_telemetry, "telemetry");

    for (const auto &e : events) {
        if (e.kind == EventKind::span) {
            j.beginObject();
            j.field("name", spanName(e));
            j.field("cat", os::toString(e.cat));
            j.field("ph", "X");
            j.field("ts", static_cast<double>(e.when) * us);
            j.field("dur", static_cast<double>(e.dur) * us);
            j.field("pid", pid_ces);
            j.field("tid", static_cast<unsigned>(e.ce));
            if (e.overlay())
                j.key("args")
                    .beginObject()
                    .field("overlay", 1)
                    .endObject();
            j.endObject();
            continue;
        }
        const auto tick_us = static_cast<double>(e.when) * us;
        const auto dur_us = static_cast<double>(e.dur) * us;
        switch (e.stage()) {
          case FlowStage::issue:
            flowPoint(j, 's', e.id, tick_us, pid_ces,
                      static_cast<unsigned>(e.ce));
            break;
          case FlowStage::stage1:
            slice(j, "xfer", "net", tick_us - dur_us, dur_us,
                  pid_stage1, static_cast<unsigned>(e.res));
            flowPoint(j, 't', e.id, tick_us - dur_us, pid_stage1,
                      static_cast<unsigned>(e.res));
            break;
          case FlowStage::stage2:
            slice(j, "xfer", "net", tick_us - dur_us, dur_us,
                  pid_stage2, static_cast<unsigned>(e.res));
            flowPoint(j, 't', e.id, tick_us - dur_us, pid_stage2,
                      static_cast<unsigned>(e.res));
            break;
          case FlowStage::module:
            slice(j, "serve", "gm", tick_us - dur_us, dur_us, pid_gm,
                  static_cast<unsigned>(e.res));
            flowPoint(j, 't', e.id, tick_us - dur_us, pid_gm,
                      static_cast<unsigned>(e.res));
            break;
          case FlowStage::ret:
            slice(j, "xfer", "net", tick_us - dur_us, dur_us,
                  pid_return, static_cast<unsigned>(e.res));
            flowPoint(j, 't', e.id, tick_us - dur_us, pid_return,
                      static_cast<unsigned>(e.res));
            break;
          case FlowStage::complete:
            flowPoint(j, 'f', e.id, tick_us, pid_ces,
                      static_cast<unsigned>(e.ce));
            break;
        }
    }

    if (haveSeries)
        counterTracks(j, *meta.timeseries, us);

    j.endArray();
    j.field("displayTimeUnit", "ms");
    j.endObject();
}

} // namespace cedar::obs
