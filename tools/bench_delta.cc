/**
 * @file
 * Delta reporter over two BENCH_sweep.json trajectories.
 *
 * CI regenerates the benchmark artifact on every run and wants to
 * know how it moved against the committed baseline without a python
 * dependency in the loop:
 *
 *   bench_delta OLD.json NEW.json
 *
 * prints, per app/procs configuration, the events/sec ratio of NEW
 * over OLD, for every fast-path leg in NEW the fast/slow wall split
 * plus the ratio against OLD's committed sweep throughput of the
 * same configuration, the tracing leg's span-trace export time
 * against OLD's, and the armed time-series recorder's overhead
 * against OLD's. It reads schemas v6 and v7 (v7 dropped the
 * tracing and time-series legs' comparisons against the sweep's own
 * run) and older documents that lack whole sections.
 *
 * The report is informational (exit 0 even when slower — the
 * committed file is typically measured at a different scale on a
 * different host class), but it *warns* loudly when the comparison
 * is statistically untrustworthy: a baseline recorded with fewer
 * than three repeats has no median worth the name, and comparing
 * runs with different repeat counts mixes estimators. Exit 2 on
 * usage errors, 1 on unreadable or malformed input.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_json.hh"

namespace
{

using cedar::tools::JsonValue;

/** Repeats below this make a median guard meaningless; keep in sync
 *  with guard_min_samples in bench/sweep_perf.cc. */
constexpr double min_trusted_repeat = 3;

JsonValue
load(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return JsonValue::parse(ss.str());
}

/** events_per_sec of @p app at @p procs in a sweep document, or -1
 *  when that configuration was not measured. Tolerates documents
 *  with the section missing entirely (foreign or truncated files). */
double
sweepEvs(const JsonValue &doc, const std::string &app, double procs)
{
    if (!doc.has("apps"))
        return -1;
    for (const auto &a : doc.at("apps").asArray()) {
        if (a.at("app").asString() != app)
            continue;
        for (const auto &c : a.at("configs").asArray())
            if (c.at("procs").asNumber() == procs)
                return c.at("events_per_sec").asNumber();
    }
    return -1;
}

/** A document section as an array, or empty when absent — older
 *  baselines simply lack the sections newer schemas added. */
const std::vector<JsonValue> &
section(const JsonValue &doc, const std::string &key)
{
    static const std::vector<JsonValue> empty;
    return doc.has(key) ? doc.at(key).asArray() : empty;
}

std::string
evs(double v)
{
    std::ostringstream ss;
    ss.setf(std::ios::fixed);
    ss.precision(0);
    ss << v;
    return ss.str();
}

std::string
ratio(double v)
{
    std::ostringstream ss;
    ss.setf(std::ios::fixed);
    ss.precision(2);
    ss << v << "x";
    return ss.str();
}

/**
 * Provenance checks tolerate missing fields: deltas are routinely
 * taken against a committed baseline written by an older schema
 * (e.g. one predating a new bench section), and a missing field is
 * a schema-vintage note, not an input error.
 */
void
warnOnProvenance(const JsonValue &oldDoc, const JsonValue &newDoc)
{
    if (!oldDoc.has("repeat") || !newDoc.has("repeat") ||
        !oldDoc.has("scale") || !newDoc.has("scale")) {
        std::cerr << "note: provenance fields missing in one input "
                     "(older schema); skipping repeat/scale checks\n";
        return;
    }
    const double oldRep = oldDoc.at("repeat").asNumber();
    const double newRep = newDoc.at("repeat").asNumber();
    if (oldRep < min_trusted_repeat)
        std::cerr << "warning: baseline was measured with --repeat "
                  << oldRep << " (< " << min_trusted_repeat
                  << "); its medians are not noise-robust and deltas "
                     "against it are unreliable\n";
    if (newRep < min_trusted_repeat)
        std::cerr << "warning: new run was measured with --repeat "
                  << newRep << " (< " << min_trusted_repeat
                  << "); regenerate with --repeat 3 or more before "
                     "trusting its medians\n";
    if (newRep != oldRep)
        std::cerr << "warning: repeat mismatch (baseline " << oldRep
                  << ", new " << newRep
                  << "); medians over different sample counts are "
                     "not directly comparable\n";
    const double oldScale = oldDoc.at("scale").asNumber();
    const double newScale = newDoc.at("scale").asNumber();
    if (oldScale != newScale)
        std::cerr << "note: scale differs (baseline " << oldScale
                  << ", new " << newScale
                  << "); events/sec ratios remain meaningful, wall "
                     "times do not\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::cerr << "usage: bench_delta OLD.json NEW.json\n";
        return 2;
    }
    try {
        const JsonValue oldDoc = load(argv[1]);
        const JsonValue newDoc = load(argv[2]);
        warnOnProvenance(oldDoc, newDoc);

        std::cout << "sweep trajectory (new vs baseline):\n";
        for (const auto &a : section(newDoc, "apps")) {
            const std::string app = a.at("app").asString();
            std::cout << "  " << app << ":";
            for (const auto &c : a.at("configs").asArray()) {
                const double procs = c.at("procs").asNumber();
                const double now = c.at("events_per_sec").asNumber();
                const double base = sweepEvs(oldDoc, app, procs);
                std::cout << "  [" << procs << "p " << evs(now)
                          << " ev/s";
                if (base > 0)
                    std::cout << " " << ratio(now / base);
                std::cout << "]";
            }
            std::cout << "\n";
        }

        std::cout << "fast-path legs:\n";
        for (const auto &leg : section(newDoc, "fast_path")) {
            const std::string app = leg.at("app").asString();
            const double procs = leg.at("procs").asNumber();
            const double fast =
                leg.at("fast_events_per_sec").asNumber();
            const double slow =
                leg.at("slow_events_per_sec").asNumber();
            const double base = sweepEvs(oldDoc, app, procs);
            std::cout << "  " << app << " " << procs << "p: fast "
                      << evs(fast) << " ev/s, slow " << evs(slow)
                      << " ev/s, speedup "
                      << ratio(leg.at("speedup").asNumber());
            if (base > 0)
                std::cout << ", committed baseline " << evs(base)
                          << " ev/s (" << ratio(fast / base)
                          << " of baseline)";
            std::cout << "\n";
        }

        // The tracing leg's export fields arrived with schema v6;
        // older documents carry the leg without them.
        if (newDoc.has("tracing")) {
            const JsonValue &leg = newDoc.at("tracing");
            std::cout << "tracing leg:\n  " << leg.at("app").asString()
                      << " " << leg.at("procs").asNumber()
                      << "p: timeline on +"
                      << leg.at("enabled_overhead_pct").asNumber() << "%";
            if (leg.has("export_s"))
                std::cout << ", span-trace export "
                          << leg.at("export_s").asNumber() << " s for "
                          << evs(leg.at("export_bytes").asNumber())
                          << " B";
            if (oldDoc.has("tracing") &&
                oldDoc.at("tracing").has("export_s"))
                std::cout << ", baseline export "
                          << oldDoc.at("tracing").at("export_s").asNumber()
                          << " s";
            std::cout << "\n";
        }

        // The ensemble section arrived with schema v5 (replacing
        // v3's "pdes" legs); either document may lack it.
        for (const auto &leg : section(newDoc, "ensemble")) {
            const std::string app = leg.at("app").asString();
            const double procs = leg.at("procs").asNumber();
            std::cout << "ensemble leg:\n  "
                      << leg.at("replicas").asNumber() << "x " << app
                      << " " << procs << "p: "
                      << evs(leg.at("events_per_sec_4worker").asNumber())
                      << " ev/s on 4 workers, scaling "
                      << ratio(leg.at("scaling").asNumber())
                      << (leg.at("guard_enforced").asBool()
                              ? " (guarded)"
                              : " (informational)");
            for (const auto &old : section(oldDoc, "ensemble"))
                if (old.at("app").asString() == app &&
                    old.at("procs").asNumber() == procs)
                    std::cout << ", baseline scaling "
                              << ratio(old.at("scaling").asNumber());
            std::cout << "\n";
        }

        // The timeseries section arrived with schema v4; a committed
        // pre-v4 baseline simply has no counterpart to compare, and
        // its absence in either document must not break the delta.
        if (newDoc.has("timeseries")) {
            std::cout << "timeseries legs (recorder armed vs off):\n";
            for (const auto &leg : section(newDoc, "timeseries")) {
                const std::string app = leg.at("app").asString();
                const double procs = leg.at("procs").asNumber();
                std::cout
                    << "  " << app << " " << procs << "p: recorder on "
                    << evs(leg.at("recorder_on_events_per_sec").asNumber())
                    << " ev/s, " << leg.at("on_overhead_pct").asNumber()
                    << "% over recorder off, "
                    << evs(leg.at("windows").asNumber()) << " windows";
                for (const auto &old : section(oldDoc, "timeseries"))
                    if (old.at("app").asString() == app &&
                        old.at("procs").asNumber() == procs)
                        std::cout << ", baseline "
                                  << old.at("on_overhead_pct").asNumber()
                                  << "%";
                std::cout << "\n";
            }
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
