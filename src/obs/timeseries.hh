/**
 * @file
 * Windowed time-series telemetry (schema "cedar-timeseries-v2").
 *
 * End-of-run aggregates hide the *phases* of a run: burst backlog
 * drains, convoy formation at one memory module, fast-path warm-up.
 * This layer slices simulated time into
 * fixed-width windows (RunOptions::tsWindow / `--ts-window`) and
 * records, per window:
 *
 *  - per-resource-class request/wait/busy deltas (and the derived
 *    utilization and mean queue depth), sampled by polling the
 *    machine's ServerStats at exact window boundaries;
 *  - per-TimeCat occupancy and per-CE busy ticks, accumulated from
 *    the telemetry bus's span stream (overlap-split across windows);
 *  - analytic fast-path hits/misses and executed events, as
 *    boundary-to-boundary deltas.
 *
 * The split matters: the recorder subscribes to *spans only*. A
 * resource_wait or flow subscription would disengage the analytic
 * fast path (the sole-subscriber gate, obs::Tracer::waitsBatchable), so
 * the per-class series comes from the boundary poll instead — the
 * event queue's sampling hook (sim/event_queue.hh) fires a read-only
 * callback each time simulated time crosses a k*window tick, and
 * core::runExperiment wires it to snapshotCounters(). With the
 * recorder off nothing subscribes and the hook stays disarmed, so
 * disabled runs remain bit-identical to pre-recorder builds.
 *
 * Window semantics: window i covers [i*W, (i+1)*W) in simulated
 * ticks, except the last window which closes at the completion time
 * (inclusive, so events at exactly CT are counted). Wait/busy deltas
 * attribute to the window in which the server *recorded* them;
 * spans are split exactly across every window they overlap.
 *
 * A run may span at most max_ts_windows windows: one snapshot and one
 * window are allocated per boundary, so a window far narrower than
 * the run (a 1-tick window on a 1e8-tick run) would otherwise grow
 * without bound. Past the cap the recorder throws sim::ConfigError.
 */

#ifndef CEDAR_OBS_TIMESERIES_HH
#define CEDAR_OBS_TIMESERIES_HH

#include <array>
#include <cstdint>
#include <vector>

#include "obs/resource.hh"
#include "obs/telemetry.hh"
#include "os/accounting.hh"
#include "sim/types.hh"

namespace cedar::hw
{
class Machine;
}

namespace cedar::tools
{
class JsonWriter;
}

namespace cedar::obs
{

inline constexpr std::size_t num_time_cats =
    static_cast<std::size_t>(os::TimeCat::NUM);

/** Most windows one run may record (see the file comment). */
inline constexpr std::size_t max_ts_windows = 65536;

/** Per-resource-class totals (cumulative or per-window deltas). */
struct ClassTotals
{
    std::array<std::uint32_t, num_resource_classes> resources{};
    std::array<std::uint64_t, num_resource_classes> requests{};
    std::array<sim::Tick, num_resource_classes> waitTicks{};
    std::array<sim::Tick, num_resource_classes> busyTicks{};
};

/** Walk every FIFO server of @p m (the collectMetrics walk, minus
 *  per-resource detail) into cumulative per-class totals. */
ClassTotals sampleClassTotals(const hw::Machine &m);

/** Cumulative machine counters at one window boundary. */
struct TimeSeriesSnapshot
{
    sim::Tick boundary = 0; //!< the boundary tick this describes
    ClassTotals classes;
    std::uint64_t fastHits = 0;
    std::uint64_t fastMisses = 0;
    std::uint64_t events = 0; //!< DES events executed
};

/** One closed window: deltas plus span-derived occupancy. */
struct TimeSeriesWindow
{
    sim::Tick start = 0;
    sim::Tick end = 0; //!< start + W, or CT for the last window

    ClassTotals classes; //!< per-class deltas within the window

    /** Machine-wide ticks charged per TimeCat (spans overlapping
     *  the window, overlay charges included — ledger-consistent). */
    std::array<sim::Tick, num_time_cats> catTicks{};
    /** Per-CE non-idle, non-overlay span ticks (<= window width). */
    std::vector<sim::Tick> ceBusy;

    std::uint64_t fastHits = 0;
    std::uint64_t fastMisses = 0;
    std::uint64_t events = 0;

    sim::Tick width() const { return end - start; }
};

/** The full per-run time series carried in core::RunResult. */
struct TimeSeries
{
    sim::Tick window = 0; //!< configured window width in ticks
    unsigned numCes = 0;
    std::vector<TimeSeriesWindow> windows;

    bool empty() const { return windows.empty(); }
};

/**
 * Emit @p ts as one "cedar-timeseries-v2" JSON object (the value
 * only — the caller supplies the surrounding key, e.g. the
 * "timeseries" section of a cedar-metrics-v1 document).
 */
void writeTimeSeriesJson(tools::JsonWriter &j, const TimeSeries &ts);

/**
 * The recording sink. Subscribes to span events for the scope of a
 * run (TimelineRecorder-style RAII) and absorbs boundary snapshots
 * from the event queue's sampling hook; finalize() folds both into
 * the per-window delta series.
 */
class TimeSeriesRecorder : public TelemetrySink
{
  public:
    /** @throws sim::ConfigError when @p window is zero. */
    TimeSeriesRecorder(TelemetryBus &bus, sim::Tick window);
    ~TimeSeriesRecorder() override;

    TimeSeriesRecorder(const TimeSeriesRecorder &) = delete;
    TimeSeriesRecorder &operator=(const TimeSeriesRecorder &) = delete;

    void onTelemetry(const TelemetryEvent &e) override;

    /** Record the cumulative counters at boundary @p s.boundary
     *  (boundaries arrive in ascending k*window order).
     *  @throws sim::ConfigError past max_ts_windows windows. */
    void onBoundary(const TimeSeriesSnapshot &s);

    /**
     * Close the series at completion time @p ct using @p final_snap
     * (cumulative counters after the run) for the last partial
     * window and any trailing boundary the event stream never
     * reached. @p num_ces sizes every window's ceBusy vector.
     *
     * @throws sim::ConfigError when @p ct spans more than
     *         max_ts_windows windows.
     */
    TimeSeries finalize(sim::Tick ct, const TimeSeriesSnapshot &final_snap,
                        unsigned num_ces);

  private:
    /** Span-derived accumulation for one window index. */
    struct SpanAccum
    {
        std::array<sim::Tick, num_time_cats> cat{};
        std::vector<sim::Tick> ceBusy;
    };

    SpanAccum &accumAt(std::size_t idx);
    void addSpan(const TelemetryEvent &e);

    /** Throw when a run needs @p windows windows, past the cap. */
    void checkWindowCount(std::uint64_t windows) const;

    TelemetryBus &bus_;
    sim::Tick window_;
    std::vector<TimeSeriesSnapshot> snaps_;
    std::vector<SpanAccum> accum_;
};

} // namespace cedar::obs

#endif // CEDAR_OBS_TIMESERIES_HH
