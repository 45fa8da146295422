#include "obs/chrome_trace.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
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

/** Opens the document down to the traceEvents array, where every
 *  record sits. */
void
openTraceEvents(tools::JsonWriter &j)
{
    j.beginObject();
    j.key("traceEvents").beginArray();
}

/** Stands in for a varying value while a Shape renders: the writer
 *  escapes control characters inside strings, so this byte appears
 *  in a rendering only where a hole was put. */
constexpr std::string_view hole = "\x01";

/**
 * One kind of span-trace record, rendered once per export and cut at
 * the three values that vary from record to record. A scratch
 * JsonWriter renders the record at the traceEvents depth with a hole
 * for each value, so its quoting, indentation and commas are the
 * writer's own; write() then copies the text around the values.
 */
class Shape
{
  public:
    /** @p record writes one object through the JsonWriter it is
     *  given, with rendered({hole}) for each of three values. */
    template <typename Record>
    explicit Shape(Record &&record)
    {
        std::ostringstream ss;
        {
            tools::JsonWriter j(ss);
            openTraceEvents(j);
            record(j);
            j.endArray();
            j.endObject();
        }
        // The record is the array's only element.
        const std::string doc = ss.str();
        std::size_t at = doc.find('{', doc.find('['));
        const std::size_t end = doc.rfind('}', doc.rfind(']')) + 1;
        for (std::size_t i = 0; i < text_.size(); ++i) {
            const std::size_t h = std::min(doc.find(hole, at), end);
            if ((h == end) != (i + 1 == text_.size()))
                throw std::logic_error("span trace: a record shape "
                                       "needs exactly three holes");
            text_[i] = doc.substr(at, h - at);
            at = h + hole.size();
        }
    }

    /** Append one record with @p a, @p b and @p c in its holes. */
    void
    write(tools::JsonWriter &j, std::string_view a, std::string_view b,
          std::string_view c) const
    {
        j.rendered({text_[0], a, text_[1], b, text_[2], c, text_[3]});
    }

  private:
    std::array<std::string, 4> text_;
};

/** A value's JSON text, as JsonWriter prints it, in a stack buffer. */
class Num
{
  public:
    explicit Num(double v) : len_(tools::JsonWriter::number(v, buf_)) {}
    explicit Num(unsigned v)
        : len_(static_cast<std::size_t>(
              std::to_chars(buf_, buf_ + sizeof(buf_), v).ptr - buf_))
    {
    }

    operator std::string_view() const { return {buf_, len_}; }

  private:
    char buf_[tools::JsonWriter::number_chars];
    std::size_t len_;
};

/** An 'X' complete slice: holes ts, dur, tid. */
Shape
sliceShape(const char *name, const char *cat, unsigned pid,
           bool overlay = false)
{
    return Shape([&](tools::JsonWriter &j) {
        j.beginObject();
        j.field("name", name);
        j.field("cat", cat);
        j.field("ph", "X");
        j.key("ts").rendered({hole});
        j.key("dur").rendered({hole});
        j.field("pid", pid);
        j.key("tid").rendered({hole});
        if (overlay)
            j.key("args").beginObject().field("overlay", 1).endObject();
        j.endObject();
    });
}

/** One flow arrow endpoint ('s' start, 't' step, 'f' finish):
 *  holes id, ts, tid. */
Shape
flowPointShape(char ph, unsigned pid)
{
    return Shape([&](tools::JsonWriter &j) {
        j.beginObject();
        j.field("name", "gm_request");
        j.field("cat", "gm");
        j.field("ph", std::string_view(&ph, 1));
        j.key("id").rendered({hole});
        j.key("ts").rendered({hole});
        j.field("pid", pid);
        j.key("tid").rendered({hole});
        if (ph == 'f')
            j.field("bp", "e"); // bind to the enclosing slice
        j.endObject();
    });
}

/** The CE span slices one export meets, each shape built on first
 *  use: one per (category, activity, overlay), since the pair names
 *  the slice. */
class SpanShapes
{
  public:
    void
    write(tools::JsonWriter &j, const TelemetryEvent &e, double us)
    {
        // Past-the-end categories all render as "?" / "idle".
        const std::size_t cat =
            std::min(static_cast<std::size_t>(e.cat), num_time_cats);
        auto &s = shapes_[(cat * 256 + e.act) * 2 + e.overlay()];
        if (!s)
            s = std::make_unique<Shape>(sliceShape(
                spanName(e), os::toString(e.cat), pid_ces, e.overlay()));
        s->write(j, Num(static_cast<double>(e.when) * us),
                 Num(static_cast<double>(e.dur) * us),
                 Num(static_cast<unsigned>(e.ce)));
    }

  private:
    std::vector<std::unique_ptr<Shape>> shapes_ =
        std::vector<std::unique_ptr<Shape>>((num_time_cats + 1) * 256 * 2);
};

/**
 * The milestones of one network or memory stage: each renders its
 * slice on the layer's track and a flow point, which share ts (the
 * slice's start, tick - dur). A stage's durations repeat, so the last
 * one's text is kept.
 */
class StageShapes
{
  public:
    StageShapes(const char *name, const char *cat, unsigned pid)
        : slice_(sliceShape(name, cat, pid)),
          point_(flowPointShape('t', pid))
    {
    }

    void
    write(tools::JsonWriter &j, const TelemetryEvent &e, double us)
    {
        const auto dur_us = static_cast<double>(e.dur) * us;
        if (e.dur != dur_) {
            dur_ = e.dur;
            durText_ = Num(dur_us);
        }
        const Num ts(static_cast<double>(e.when) * us - dur_us);
        const Num tid(static_cast<unsigned>(e.res));
        slice_.write(j, ts, durText_, tid);
        point_.write(j, Num(e.id), ts, tid);
    }

  private:
    Shape slice_, point_;
    sim::Tick dur_ = 0;
    Num durText_{0.0};
};

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
    openTraceEvents(j);

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

    // Records: each copies its shape's text around its values.
    SpanShapes spans;
    const Shape issue = flowPointShape('s', pid_ces);
    const Shape complete = flowPointShape('f', pid_ces);
    StageShapes stage1("xfer", "net", pid_stage1);
    StageShapes stage2("xfer", "net", pid_stage2);
    StageShapes module("serve", "gm", pid_gm);
    StageShapes ret("xfer", "net", pid_return);
    for (const auto &e : events) {
        if (e.kind == EventKind::span) {
            spans.write(j, e, us);
            continue;
        }
        // One StageShapes::write call site: inlined once per stage,
        // the loop ran about 1.5x slower.
        StageShapes *st = nullptr;
        switch (e.stage()) {
          case FlowStage::issue:
          case FlowStage::complete:
            (e.stage() == FlowStage::issue ? issue : complete)
                .write(j, Num(e.id), Num(static_cast<double>(e.when) * us),
                       Num(static_cast<unsigned>(e.ce)));
            continue;
          case FlowStage::stage1: st = &stage1; break;
          case FlowStage::stage2: st = &stage2; break;
          case FlowStage::module: st = &module; break;
          case FlowStage::ret: st = &ret; break;
        }
        if (st != nullptr)
            st->write(j, e, us);
    }

    if (haveSeries)
        counterTracks(j, *meta.timeseries, us);

    j.endArray();
    j.field("displayTimeUnit", "ms");
    j.endObject();
}

} // namespace cedar::obs
