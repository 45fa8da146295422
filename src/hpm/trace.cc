#include "hpm/trace.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <ostream>

#include "sim/error.hh"

namespace cedar::hpm
{

const char *
toString(EventId id)
{
    switch (id) {
      case EventId::sdoall_post: return "sdoall_post";
      case EventId::xdoall_post: return "xdoall_post";
      case EventId::loop_setup_enter: return "loop_setup_enter";
      case EventId::loop_setup_exit: return "loop_setup_exit";
      case EventId::helper_join: return "helper_join";
      case EventId::pickup_enter: return "pickup_enter";
      case EventId::pickup_exit: return "pickup_exit";
      case EventId::iter_start: return "iter_start";
      case EventId::iter_end: return "iter_end";
      case EventId::barrier_enter: return "barrier_enter";
      case EventId::barrier_exit: return "barrier_exit";
      case EventId::wait_enter: return "wait_enter";
      case EventId::wait_exit: return "wait_exit";
      case EventId::serial_enter: return "serial_enter";
      case EventId::serial_exit: return "serial_exit";
      case EventId::mcloop_enter: return "mcloop_enter";
      case EventId::mcloop_exit: return "mcloop_exit";
      case EventId::loop_done: return "loop_done";
      case EventId::cls_sync_enter: return "cls_sync_enter";
      case EventId::cls_sync_exit: return "cls_sync_exit";
      case EventId::os_enter: return "os_enter";
      case EventId::os_exit: return "os_exit";
      case EventId::os_overlay: return "os_overlay";
      case EventId::task_switch_out: return "task_switch_out";
      case EventId::task_switch_in: return "task_switch_in";
      default: return "?";
    }
}

namespace
{
constexpr char file_magic[8] = {'c', 'h', 'p', 'm', '0', '0', '0', '1'};
} // namespace

void
Trace::write(std::ostream &os, const std::vector<Record> &records)
{
    os.write(file_magic, sizeof(file_magic));
    const std::uint64_t n = records.size();
    os.write(reinterpret_cast<const char *>(&n), sizeof(n));
    os.write(reinterpret_cast<const char *>(records.data()),
             static_cast<std::streamsize>(n * sizeof(Record)));
    if (!os)
        throw sim::SimError("Trace::write: write failed");
}

std::vector<Record>
Trace::readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw sim::SimError("Trace::readFile: cannot open " + path);
    char magic[sizeof(file_magic)];
    f.read(magic, sizeof(magic));
    if (!f || std::memcmp(magic, file_magic, sizeof(magic)) != 0)
        throw sim::SimError("Trace::readFile: bad magic in " + path);
    std::uint64_t n = 0;
    f.read(reinterpret_cast<char *>(&n), sizeof(n));
    if (!f)
        throw sim::SimError("Trace::readFile: truncated " + path);

    // Validate the record count against the actual payload size
    // before allocating anything: a corrupt header must not turn
    // into a multi-gigabyte allocation.
    const std::streamoff payload_start = f.tellg();
    f.seekg(0, std::ios::end);
    const std::streamoff payload_bytes = f.tellg() - payload_start;
    f.seekg(payload_start);
    const auto avail = static_cast<std::uint64_t>(
        payload_bytes < 0 ? 0 : payload_bytes);
    if (avail % sizeof(Record) != 0 || n != avail / sizeof(Record))
        throw sim::SimError(
            "Trace::readFile: corrupt record count in " + path);

    std::vector<Record> out(n);
    f.read(reinterpret_cast<char *>(out.data()),
           static_cast<std::streamsize>(n * sizeof(Record)));
    if (!f)
        throw sim::SimError("Trace::readFile: truncated " + path);
    return out;
}

void
Trace::dump(std::ostream &os, std::size_t n) const
{
    const std::size_t lim = std::min(n, buf_.size());
    for (std::size_t i = 0; i < lim; ++i) {
        const auto &r = buf_[i];
        os << r.when << " ce" << r.ce << " " << toString(r.id()) << " arg="
           << r.arg << "\n";
    }
}

} // namespace cedar::hpm
