/**
 * @file
 * cedarhpm: the (simulated) non-intrusive hardware performance
 * monitor.
 *
 * The real cedarhpm watches hardware trigger points; instrumented
 * code posts an event with a single move instruction and the monitor
 * records (event id, timestamp, processor id) into trace buffers,
 * off-loaded after the run. We reproduce the record format and the
 * analysis path; posting costs zero simulated time, matching the
 * paper's "negligible overhead" claim.
 */

#ifndef CEDAR_HPM_TRACE_HH
#define CEDAR_HPM_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace cedar::hpm
{

/** Instrumentation points, mirroring Section 4 of the paper. */
enum class EventId : std::uint16_t
{
    // Runtime library instrumentation.
    sdoall_post,      //!< main task encounters/posts an sdoall loop
    xdoall_post,      //!< main task encounters an xdoall loop
    loop_setup_enter, //!< start of loop-parameter set-up
    loop_setup_exit,
    helper_join,      //!< helper task joins a posted loop
    pickup_enter,     //!< entry to pick-next-iteration
    pickup_exit,
    iter_start,       //!< start of one s(x)doall iteration
    iter_end,
    barrier_enter,    //!< main task enters s(x)doall finish barrier
    barrier_exit,
    wait_enter,       //!< helper task starts busy-waiting for work
    wait_exit,
    serial_enter,     //!< main task serial-section markers
    serial_exit,
    mcloop_enter,     //!< main-cluster-only loop markers
    mcloop_exit,
    loop_done,        //!< a parallel loop fully finished
    cls_sync_enter,   //!< CE arrives at the concurrency-bus barrier
    cls_sync_exit,    //!< CE resumes after the bus sync (arg=UserAct)

    // Operating system instrumentation.
    os_enter,         //!< enter an OS activity (arg = OsAct)
    os_exit,          //!< leave an OS activity (arg = OsAct)
    os_overlay,       //!< asynchronous OS charge (arg = duration)
    task_switch_out,  //!< application task switched out
    task_switch_in,   //!< application task switched back in

    NUM
};

const char *toString(EventId id);

/**
 * Loop posting events carry both the loop's dynamic sequence number
 * and the static phase index it came from, packed into the 32-bit
 * record argument (phase in the top byte). All other loop events
 * carry the bare sequence number.
 */
inline std::uint32_t
packLoopRef(unsigned phase_idx, std::uint32_t seq)
{
    return (static_cast<std::uint32_t>(phase_idx & 0xff) << 24) |
           (seq & 0xffffff);
}

inline std::uint32_t
loopSeq(std::uint32_t arg)
{
    return arg & 0xffffff;
}

inline unsigned
loopPhase(std::uint32_t arg)
{
    return arg >> 24;
}

/** One trace record, as cedarhpm stores it. */
struct Record
{
    sim::Tick when;     //!< timestamp (1 tick = 50 ns resolution)
    std::uint32_t arg;  //!< event argument (loop id, OS activity, ...)
    std::uint16_t event;
    std::uint16_t ce;   //!< processor on which the event occurred

    EventId id() const { return static_cast<EventId>(event); }
};

/**
 * The monitor: a bounded trace buffer plus drop accounting. When
 * the buffer fills, further records are counted but discarded, as
 * a real trace buffer would overflow.
 */
class Trace
{
  public:
    explicit Trace(std::size_t capacity = 1 << 22) : capacity_(capacity) {}

    void
    post(sim::Tick when, sim::CeId ce, EventId id, std::uint32_t arg = 0)
    {
        if (!enabled_)
            return;
        if (buf_.size() >= capacity_) {
            ++dropped_;
            return;
        }
        buf_.push_back(Record{when, arg, static_cast<std::uint16_t>(id),
                              static_cast<std::uint16_t>(ce)});
    }

    void setEnabled(bool on) { enabled_ = on; }

    const std::vector<Record> &records() const { return buf_; }
    std::uint64_t dropped() const { return dropped_; }

    /** Hand the records over without copying them, leaving the
     *  buffer empty; dropped() keeps its count. */
    std::vector<Record> takeRecords() { return std::exchange(buf_, {}); }

    /** Off-load @p records (binary, versioned header) to a binary
     *  stream, such as core::atomicWriteFile's; throws
     *  sim::SimError when the stream fails. */
    static void write(std::ostream &os, const std::vector<Record> &records);

    /** Read a previously off-loaded trace; throws sim::SimError when
     *  the file cannot be opened or is not a whole trace. */
    static std::vector<Record> readFile(const std::string &path);

    /** Human-readable dump of the first @p n records. */
    void dump(std::ostream &os, std::size_t n) const;

  private:
    std::size_t capacity_;
    bool enabled_ = true;
    std::vector<Record> buf_;
    std::uint64_t dropped_ = 0;
};

} // namespace cedar::hpm

#endif // CEDAR_HPM_TRACE_HH
