/**
 * @file
 * Typed simulation errors and run-termination status.
 *
 * The simulator distinguishes *programming* errors (kept as asserts)
 * from *untrusted-input* errors: malformed configurations, workload
 * files, fault-injection specs and CLI arguments. The latter throw
 * SimError subclasses so release (NDEBUG) builds reject bad input
 * with a message instead of invoking undefined behaviour.
 *
 * RunStatus is the structured outcome of a simulation run: instead
 * of hanging on a deadlock or silently truncating at the event
 * limit, the runtime reports how the run actually ended.
 */

#ifndef CEDAR_SIM_ERROR_HH
#define CEDAR_SIM_ERROR_HH

#include <stdexcept>
#include <string>

namespace cedar::sim
{

/** Root of the simulator's typed error hierarchy. */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string &what) : std::runtime_error(what)
    {
    }
};

/** Malformed machine configuration or memory geometry. */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(const std::string &what)
        : SimError("config: " + what)
    {
    }
};

/** An event scheduled into the simulated past. */
class ScheduleError : public SimError
{
  public:
    explicit ScheduleError(const std::string &what)
        : SimError("event queue: " + what)
    {
    }
};

/** Malformed fault-injection specification. */
class FaultSpecError : public SimError
{
  public:
    explicit FaultSpecError(const std::string &what)
        : SimError("fault spec: " + what)
    {
    }
};

/** How a simulation run terminated. */
enum class RunStatus
{
    Completed,  //!< application ran to completion, undisturbed
    Faulted,    //!< completed, but in degraded mode (aborted accesses)
    EventLimit, //!< event budget exhausted before completion
    Deadlock,   //!< no forward progress possible (or livelock)
};

inline const char *
toString(RunStatus s)
{
    switch (s) {
      case RunStatus::Completed: return "completed";
      case RunStatus::Faulted: return "faulted (degraded)";
      case RunStatus::EventLimit: return "event-limit";
      case RunStatus::Deadlock: return "deadlock";
    }
    return "?";
}

} // namespace cedar::sim

#endif // CEDAR_SIM_ERROR_HH
