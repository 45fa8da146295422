#include "core/scenario.hh"

#include <fstream>
#include <limits>
#include <sstream>

#include "apps/parser.hh"
#include "apps/perfect.hh"
#include "bench_json.hh"
#include "core/study.hh"
#include "fault/fault.hh"
#include "sim/error.hh"

namespace cedar::core
{

namespace
{

using sim::ConfigError;

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/**
 * Table of CostModel fields addressable from a [costs] section, by
 * their source name. One row per field keeps the scenario format
 * automatically in sync with the struct.
 */
struct CostField
{
    const char *name;
    enum Kind { tick, uns, real, flag } kind;
    sim::Tick hw::CostModel::*t = nullptr;
    unsigned hw::CostModel::*u = nullptr;
    double hw::CostModel::*d = nullptr;
    bool hw::CostModel::*b = nullptr;
};

constexpr CostField
tickField(const char *n, sim::Tick hw::CostModel::*m)
{
    CostField f{n, CostField::tick};
    f.t = m;
    return f;
}

constexpr CostField
unsField(const char *n, unsigned hw::CostModel::*m)
{
    CostField f{n, CostField::uns};
    f.u = m;
    return f;
}

constexpr CostField
realField(const char *n, double hw::CostModel::*m)
{
    CostField f{n, CostField::real};
    f.d = m;
    return f;
}

constexpr CostField
flagField(const char *n, bool hw::CostModel::*m)
{
    CostField f{n, CostField::flag};
    f.b = m;
    return f;
}

const CostField cost_fields[] = {
    tickField("loop_setup_local", &hw::CostModel::loop_setup_local),
    unsField("loop_post_words", &hw::CostModel::loop_post_words),
    tickField("cdoall_dispatch", &hw::CostModel::cdoall_dispatch),
    tickField("cdoall_sync", &hw::CostModel::cdoall_sync),
    tickField("pickup_local", &hw::CostModel::pickup_local),
    tickField("spin_wake_latency", &hw::CostModel::spin_wake_latency),
    tickField("cpi_save", &hw::CostModel::cpi_save),
    tickField("cpi_sync", &hw::CostModel::cpi_sync),
    tickField("ctx_cost", &hw::CostModel::ctx_cost),
    tickField("daemon_work", &hw::CostModel::daemon_work),
    realField("daemon_mean_interval", &hw::CostModel::daemon_mean_interval),
    tickField("pgflt_seq_cost", &hw::CostModel::pgflt_seq_cost),
    tickField("pgflt_conc_cost", &hw::CostModel::pgflt_conc_cost),
    tickField("crit_clus_cost", &hw::CostModel::crit_clus_cost),
    tickField("crit_glbl_cost", &hw::CostModel::crit_glbl_cost),
    tickField("syscall_clus_cost", &hw::CostModel::syscall_clus_cost),
    tickField("syscall_glbl_cost", &hw::CostModel::syscall_glbl_cost),
    tickField("ast_cost", &hw::CostModel::ast_cost),
    realField("ast_mean_interval", &hw::CostModel::ast_mean_interval),
    flagField("ctx_rtl_coop", &hw::CostModel::ctx_rtl_coop),
    tickField("gm_timeout", &hw::CostModel::gm_timeout),
    tickField("gm_retry_backoff", &hw::CostModel::gm_retry_backoff),
    unsField("gm_max_retries", &hw::CostModel::gm_max_retries),
    tickField("statfx_period", &hw::CostModel::statfx_period),
};

/** The spec's workload as its source describes it, knobs unapplied. */
apps::AppModel
loadWorkload(const ScenarioSpec &spec)
{
    if (spec.workload)
        return *spec.workload;
    if (!spec.workloadFile.empty())
        return apps::parseWorkloadFile(spec.workloadFile);
    if (spec.appName.empty())
        throw sim::ConfigError("scenario '" + spec.name +
                               "' has no workload");
    try {
        return apps::perfectAppByName(spec.appName);
    } catch (const std::exception &) {
        throw sim::ConfigError("scenario '" + spec.name +
                               "': unknown application '" + spec.appName +
                               "' (see cedar_cli apps)");
    }
}

/** Parse state shared by the per-line handlers. */
struct Parser
{
    ScenarioSpec spec;
    std::string origin; //!< file name (or "<string>") for messages
    std::string dir;    //!< directory for workload file references
    unsigned line = 0;

    std::string section;       //!< current [section]
    unsigned inlineStart = 0;  //!< first line of [workload.inline]
    std::string inlineText;    //!< raw inline workload text
    bool sawProcs = false;     //!< [machine] procs = shorthand used
    bool sawShape = false;     //!< explicit clusters/ces keys used

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw ConfigError("scenario " + origin + " line " +
                          std::to_string(line) + ": " + what);
    }

    double
    real(const std::string &key, const std::string &v) const
    {
        try {
            std::size_t pos = 0;
            const double x = std::stod(v, &pos);
            if (pos != v.size())
                throw std::invalid_argument(v);
            return x;
        } catch (const std::exception &) {
            fail("bad number for " + key + " = " + v);
        }
    }

    std::uint64_t
    count(const std::string &key, const std::string &v,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
        const
    {
        if (const auto n = tools::checkedCount(v, max))
            return *n;
        real(key, v); // no number at all: "bad number"
        fail(key + " = " + v + " is not a whole number in [0, " +
             std::to_string(max) + "]");
    }

    unsigned
    small(const std::string &key, const std::string &v) const
    {
        return static_cast<unsigned>(
            count(key, v, std::numeric_limits<unsigned>::max()));
    }

    bool
    flag(const std::string &key, const std::string &v) const
    {
        if (v == "true" || v == "1" || v == "yes")
            return true;
        if (v == "false" || v == "0" || v == "no")
            return false;
        fail(key + " = " + v + " is not a boolean (true/false)");
    }

    void machineKey(const std::string &k, const std::string &v);
    void costsKey(const std::string &k, const std::string &v);
    void runKey(const std::string &k, const std::string &v);
    void workloadKey(const std::string &k, const std::string &v);
    void faultsKey(const std::string &k, const std::string &v);
    void finishInlineWorkload();
};

void
Parser::machineKey(const std::string &k, const std::string &v)
{
    auto &cfg = spec.config;
    if (k == "procs") {
        if (sawShape)
            fail("procs = is a paper-point shorthand; do not combine "
                 "it with clusters/ces_per_cluster");
        try {
            const auto paper = hw::CedarConfig::withProcs(small(k, v));
            cfg.nClusters = paper.nClusters;
            cfg.cesPerCluster = paper.cesPerCluster;
        } catch (const std::invalid_argument &e) {
            fail(e.what());
        }
        sawProcs = true;
    } else if (k == "clusters" || k == "ces_per_cluster") {
        if (sawProcs)
            fail("clusters/ces_per_cluster cannot override procs =");
        (k == "clusters" ? cfg.nClusters : cfg.cesPerCluster) =
            small(k, v);
        sawShape = true;
    } else if (k == "modules") {
        cfg.nModules = small(k, v);
    } else if (k == "group_size") {
        cfg.groupSize = small(k, v);
    } else if (k == "clock_hz") {
        cfg.clockHz = real(k, v);
    } else if (k == "seed") {
        spec.options.seed = count(k, v);
    } else {
        fail("unknown key '" + k + "' in [machine]");
    }
}

void
Parser::costsKey(const std::string &k, const std::string &v)
{
    for (const auto &f : cost_fields) {
        if (k != f.name)
            continue;
        auto &costs = spec.config.costs;
        switch (f.kind) {
          case CostField::tick:
            costs.*(f.t) = static_cast<sim::Tick>(count(k, v));
            return;
          case CostField::uns:
            costs.*(f.u) = small(k, v);
            return;
          case CostField::real:
            costs.*(f.d) = real(k, v);
            return;
          case CostField::flag:
            costs.*(f.b) = flag(k, v);
            return;
        }
    }
    fail("unknown key '" + k + "' in [costs] (names follow "
         "hw::CostModel fields)");
}

void
Parser::runKey(const std::string &k, const std::string &v)
{
    auto &o = spec.options;
    if (k == "scale")
        o.scale = real(k, v);
    else if (k == "event_limit")
        o.eventLimit = count(k, v);
    else if (k == "watchdog_events")
        o.watchdogEvents = count(k, v);
    else
        fail("unknown key '" + k + "' in [run]");
}

void
Parser::workloadKey(const std::string &k, const std::string &v)
{
    if (k == "app") {
        spec.appName = v;
    } else if (k == "file") {
        spec.workloadFile =
            !dir.empty() && v.front() != '/' ? dir + "/" + v : v;
    } else if (k == "prefetch") {
        spec.prefetch = flag(k, v);
    } else if (k == "pickup_block") {
        spec.pickupBlock = small(k, v);
    } else if (k == "fuse") {
        spec.fuse = flag(k, v);
    } else {
        fail("unknown key '" + k + "' in [workload]");
    }
}

void
Parser::faultsKey(const std::string &k, const std::string &v)
{
    if (k != "inject")
        fail("unknown key '" + k + "' in [faults] (inject = <spec>)");
    try {
        spec.options.faults.push_back(fault::parseFaultSpec(v));
    } catch (const sim::SimError &e) {
        fail(e.what());
    }
}

void
Parser::finishInlineWorkload()
{
    if (section != "workload.inline")
        return;
    try {
        spec.workload = apps::parseWorkloadString(inlineText);
    } catch (const apps::ParseError &e) {
        throw ConfigError(
            "scenario " + origin + " [workload.inline] starting line " +
            std::to_string(inlineStart) + ": " + e.what());
    }
}

} // namespace

ScenarioSpec
parseScenario(std::istream &in, const std::string &origin,
              const std::string &dir)
{
    Parser p;
    p.origin = origin.empty() ? "<string>" : origin;
    p.dir = dir;

    std::string raw;
    while (std::getline(in, raw)) {
        ++p.line;

        std::string stripped = raw;
        const auto hash = stripped.find('#');
        if (hash != std::string::npos)
            stripped.resize(hash);
        const std::string text = trim(stripped);

        // [workload.inline] swallows lines verbatim (the workload
        // parser handles its own comments) until the next section.
        if (p.section == "workload.inline" &&
            (text.empty() || text.front() != '[')) {
            p.inlineText += raw;
            p.inlineText += '\n';
            continue;
        }
        if (text.empty())
            continue;

        if (text.front() == '[') {
            if (text.back() != ']')
                p.fail("unterminated section header " + text);
            p.finishInlineWorkload();
            const std::string sec = trim(text.substr(1, text.size() - 2));
            if (sec != "scenario" && sec != "machine" && sec != "costs" &&
                sec != "run" && sec != "workload" &&
                sec != "workload.inline" && sec != "faults")
                p.fail("unknown section [" + sec + "]");
            p.section = sec;
            if (sec == "workload.inline")
                p.inlineStart = p.line + 1;
            continue;
        }

        const auto eq = text.find('=');
        if (eq == std::string::npos)
            p.fail("expected key = value, got '" + text + "'");
        const std::string key = trim(text.substr(0, eq));
        const std::string value = trim(text.substr(eq + 1));
        if (key.empty() || value.empty())
            p.fail("expected key = value, got '" + text + "'");

        if (p.section.empty())
            p.fail("'" + key + " = ...' before any [section]");
        else if (p.section == "scenario") {
            if (key != "name")
                p.fail("unknown key '" + key + "' in [scenario]");
            p.spec.name = value;
        } else if (p.section == "machine")
            p.machineKey(key, value);
        else if (p.section == "costs")
            p.costsKey(key, value);
        else if (p.section == "run")
            p.runKey(key, value);
        else if (p.section == "workload")
            p.workloadKey(key, value);
        else if (p.section == "faults")
            p.faultsKey(key, value);
    }
    p.finishInlineWorkload();

    const int sources = (!p.spec.appName.empty() ? 1 : 0) +
                        (!p.spec.workloadFile.empty() ? 1 : 0) +
                        (p.spec.workload ? 1 : 0);
    if (sources == 0)
        throw ConfigError("scenario " + p.origin +
                          ": no workload ([workload] app =/file =, or a "
                          "[workload.inline] section)");
    if (sources > 1)
        throw ConfigError("scenario " + p.origin +
                          ": more than one workload source specified");
    return p.spec;
}

ScenarioSpec
parseScenarioString(const std::string &text)
{
    std::istringstream in(text);
    return parseScenario(in);
}

ScenarioSpec
parseScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw sim::ConfigError("cannot open scenario file: " + path);
    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "" : path.substr(0, slash);
    ScenarioSpec spec = parseScenario(in, path, dir);
    if (spec.name == "unnamed") {
        // Default the name to the file stem.
        std::string stem =
            slash == std::string::npos ? path : path.substr(slash + 1);
        const auto dot = stem.find_last_of('.');
        if (dot != std::string::npos && dot > 0)
            stem.resize(dot);
        spec.name = stem;
    }
    return spec;
}

apps::AppModel
ScenarioSpec::resolveApp() const
{
    apps::AppModel app = loadWorkload(*this);
    if (fuse)
        app = apps::withFusedLoops(app);
    for (auto &phase : app.phases) {
        if (auto *l = std::get_if<apps::LoopSpec>(&phase)) {
            if (prefetch)
                l->prefetch = *prefetch;
            if (pickupBlock)
                l->pickupBlock = *pickupBlock;
        }
    }
    return app;
}

void
ScenarioSpec::validate() const
{
    config.validate();
    validateRunOptions(options);
    if (appName.empty() && workloadFile.empty() && !workload)
        throw sim::ConfigError("scenario '" + name +
                               "' has no workload");
}

std::string
formatScenario(const ScenarioSpec &spec)
{
    std::ostringstream os;
    const hw::CedarConfig def;
    const hw::CostModel def_costs;
    const RunOptions def_opts;
    const auto &cfg = spec.config;
    const auto &o = spec.options;

    os << "[scenario]\nname = " << spec.name << "\n\n";

    os << "[machine]\n";
    os << "clusters = " << cfg.nClusters << "\n";
    os << "ces_per_cluster = " << cfg.cesPerCluster << "\n";
    os << "modules = " << cfg.nModules << "\n";
    os << "group_size = " << cfg.groupSize << "\n";
    if (cfg.clockHz != def.clockHz)
        os << "clock_hz = " << cfg.clockHz << "\n";
    os << "seed = " << o.seed << "\n";

    std::ostringstream costs;
    for (const auto &f : cost_fields) {
        const auto &c = cfg.costs;
        switch (f.kind) {
          case CostField::tick:
            if (c.*(f.t) != def_costs.*(f.t))
                costs << f.name << " = " << c.*(f.t) << "\n";
            break;
          case CostField::uns:
            if (c.*(f.u) != def_costs.*(f.u))
                costs << f.name << " = " << c.*(f.u) << "\n";
            break;
          case CostField::real:
            if (c.*(f.d) != def_costs.*(f.d))
                costs << f.name << " = " << c.*(f.d) << "\n";
            break;
          case CostField::flag:
            if (c.*(f.b) != def_costs.*(f.b))
                costs << f.name << " = "
                      << (c.*(f.b) ? "true" : "false") << "\n";
            break;
        }
    }
    if (!costs.str().empty())
        os << "\n[costs]\n" << costs.str();

    os << "\n[run]\n";
    if (o.scale != def_opts.scale)
        os << "scale = " << o.scale << "\n";
    if (o.eventLimit != def_opts.eventLimit)
        os << "event_limit = " << o.eventLimit << "\n";
    if (o.watchdogEvents != def_opts.watchdogEvents)
        os << "watchdog_events = " << o.watchdogEvents << "\n";

    if (!o.faults.empty()) {
        os << "\n[faults]\n";
        for (const auto &f : o.faults)
            os << "inject = " << f.text << "\n";
    }

    // The knobs are written only when set, so a spec without them
    // keeps its canonical hash.
    std::ostringstream knobs;
    if (spec.prefetch)
        knobs << "prefetch = " << (*spec.prefetch ? "true" : "false")
              << "\n";
    if (spec.pickupBlock)
        knobs << "pickup_block = " << *spec.pickupBlock << "\n";
    if (spec.fuse)
        knobs << "fuse = true\n";
    if (!spec.appName.empty()) {
        os << "\n[workload]\napp = " << spec.appName << "\n"
           << knobs.str();
    } else {
        // Inline or file-loaded: inline the workload so the
        // serialised scenario is self-contained.
        if (!knobs.str().empty())
            os << "\n[workload]\n" << knobs.str();
        os << "\n[workload.inline]\n"
           << apps::formatWorkload(loadWorkload(spec));
    }
    return os.str();
}

std::uint64_t
canonicalHashValue(const ScenarioSpec &spec)
{
    return fnv1a64(formatScenario(spec));
}

std::string
canonicalHash(const ScenarioSpec &spec)
{
    return hashHex(canonicalHashValue(spec));
}

RunResult
runScenario(const ScenarioSpec &spec)
{
    spec.validate();
    return runExperiment(spec.resolveApp(), spec.config, spec.options);
}

} // namespace cedar::core
