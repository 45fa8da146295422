/**
 * @file
 * Chrome trace_event export of cedarhpm traces.
 *
 * Converts the monitor's (event id, timestamp, CE) records into the
 * Chrome/Perfetto trace_event JSON format so a run opens directly in
 * chrome://tracing or ui.perfetto.dev: one track (tid) per CE,
 * paired instrumentation points (iter_start/iter_end,
 * barrier_enter/exit, os_enter/os_exit, ...) become duration slices,
 * unpaired ones (loop posts, helper joins, OS overlays) become
 * instant events. Timestamps are microseconds of simulated time
 * (1 tick = 50 ns at the default clock).
 */

#ifndef CEDAR_OBS_CHROME_TRACE_HH
#define CEDAR_OBS_CHROME_TRACE_HH

#include <iosfwd>
#include <vector>

#include "hpm/trace.hh"
#include "obs/telemetry.hh"
#include "sim/types.hh"

namespace cedar::obs
{

/**
 * Write @p recs as a Chrome trace_event JSON document.
 *
 * When @p ces_per_cluster is non-zero the per-CE track names carry
 * the machine topology ("cluster 2 / CE 5"); zero keeps the flat
 * "CE n" labels.
 *
 * @throws sim::SimError when @p clock_hz is not positive.
 */
void writeChromeTrace(std::ostream &os,
                      const std::vector<hpm::Record> &recs,
                      double clock_hz = sim::default_clock_hz,
                      unsigned ces_per_cluster = 0);

struct TimeSeries;

/** Rendering options for the span-level (telemetry) trace. */
struct SpanTraceMeta
{
    double clock_hz = sim::default_clock_hz;
    unsigned ces_per_cluster = 0; //!< 0 = flat "CE n" track names

    /** Optional windowed time series (obs/timeseries.hh): non-null
     *  and non-empty adds Perfetto counter tracks (ph 'C') under a
     *  dedicated "telemetry" process alongside the span tracks. */
    const TimeSeries *timeseries = nullptr;
};

/**
 * Write a telemetry timeline (span + flow records, as obs::Tracer
 * records them) as a Chrome/Perfetto trace_event document.
 *
 * Layout: one process per hardware layer — pid 0 holds a track per
 * CE with category-coloured 'X' slices (slice name = the charged
 * User/Os activity, cat = the TimeCat), pid 1 a track per global
 * memory module, pids 2/3/4 a track per network stage-1 / stage-2 /
 * return-path port. GM-request flows render as arrows ('s'/'t'/'f'
 * events sharing the flow id) from the issuing CE through the first
 * and last slice of each stage back to the CE. With meta.timeseries
 * set, pid 5 carries one counter track per windowed series —
 * per-class queue depth and utilization, per-TimeCat CE occupancy,
 * the fast-path hit rate and the event rate — sampled once per
 * window at its opening edge.
 *
 * @throws sim::SimError when meta.clock_hz is not positive.
 */
void writeSpanTrace(std::ostream &os,
                    const std::vector<TelemetryEvent> &events,
                    const SpanTraceMeta &meta = {});

} // namespace cedar::obs

#endif // CEDAR_OBS_CHROME_TRACE_HH
