/**
 * @file
 * One run of one workload: load, warm-up, timed passes, checks, the
 * two standalone layer probes and the metrics they all produce.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "bench_json.hh"
#include "core/contention.hh"
#include "core/study.hh"
#include "harness.hh"
#include "mem/global_memory.hh"
#include "net/network.hh"
#include "obs/chrome_trace.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace cedarbench
{

using namespace cedar;
using Clock = std::chrono::steady_clock;

namespace
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** traced_export's time-series window, in ticks. */
constexpr sim::Tick ts_window = 10000;

/** Repetitions of the load step; core.load_s is their median. */
constexpr unsigned load_reps = 5;

/** Largest workload scale a warm-up run uses. */
constexpr double warmup_scale = 0.05;

/** Events the standalone dispatch probe executes. */
constexpr std::uint64_t dispatch_events = 2'000'000;

/** Bursts the standalone network probe issues per mode. */
constexpr std::uint64_t probe_bursts = 200'000;

// ----- layer spans --------------------------------------------------

/**
 * Spans the benchmark records around each call it makes into a layer:
 * name, start, end and parent, kept in memory and written as one
 * Chrome trace when the run ends. Disabled logs record nothing.
 */
class SpanLog
{
  public:
    SpanLog(bool on, Clock::time_point origin) : on_(on), origin_(origin)
    {
    }

    int
    begin(std::string name, int parent)
    {
        if (!on_)
            return -1;
        spans_.push_back({std::move(name), now(), 0, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    end(int id)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].end = now();
    }

    void
    writeChrome(std::ostream &os) const
    {
        tools::JsonWriter j(os);
        j.beginObject();
        j.field("displayTimeUnit", "ms");
        j.key("traceEvents").beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            j.beginObject();
            j.field("name", s.name);
            j.field("cat", "cedarbench");
            j.field("ph", "X");
            j.field("ts", s.start);
            j.field("dur", s.end - s.start);
            j.field("pid", 1);
            j.field("tid", 1);
            j.key("args").beginObject();
            j.field("id", static_cast<std::int64_t>(i));
            j.field("parent", static_cast<std::int64_t>(s.parent));
            j.endObject();
            j.endObject();
        }
        j.endArray();
        j.endObject();
        os << "\n";
    }

  private:
    struct Span
    {
        std::string name;
        double start; //!< microseconds since the run began
        double end;
        int parent;   //!< index of the enclosing span, -1 for none
    };

    double
    now() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** A span open for the lifetime of the scope. */
class Scope
{
  public:
    Scope(SpanLog &log, std::string name, int parent)
        : log_(log), id_(log.begin(std::move(name), parent))
    {
    }
    ~Scope() { log_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

// ----- export sink ---------------------------------------------------

/**
 * The span trace's destination: counts bytes and checks, without
 * keeping them, that the document is one well-bracketed JSON value
 * (brackets matched outside strings, nothing after the root). Disk
 * I/O would add noise to the export time, so nothing is written.
 */
class CheckingSink : public std::streambuf
{
  public:
    CheckingSink() { setp(buf_, buf_ + sizeof(buf_)); }

    std::uint64_t bytes() const { return bytes_; }

    /** Call after the stream is flushed. */
    bool
    wellBracketed() const
    {
        return !bad_ && !inString_ && open_.empty() && roots_ == 1;
    }

  protected:
    int_type
    overflow(int_type ch) override
    {
        drain();
        if (!traits_type::eq_int_type(ch, traits_type::eof())) {
            const char c = traits_type::to_char_type(ch);
            scan(&c, &c + 1);
        }
        return traits_type::not_eof(ch);
    }

    int
    sync() override
    {
        drain();
        return 0;
    }

  private:
    void
    drain()
    {
        scan(pbase(), pptr());
        setp(buf_, buf_ + sizeof(buf_));
    }

    void
    scan(const char *b, const char *e)
    {
        bytes_ += static_cast<std::uint64_t>(e - b);
        for (; b != e; ++b) {
            const char c = *b;
            if (inString_) {
                if (escape_)
                    escape_ = false;
                else if (c == '\\')
                    escape_ = true;
                else if (c == '"')
                    inString_ = false;
                continue;
            }
            switch (c) {
              case '"':
                inString_ = true;
                break;
              case '{':
              case '[':
                if (open_.empty())
                    ++roots_;
                open_.push_back(c == '{' ? '}' : ']');
                break;
              case '}':
              case ']':
                if (open_.empty() || open_.back() != c)
                    bad_ = true;
                else
                    open_.pop_back();
                break;
              case ' ':
              case '\n':
              case '\t':
              case '\r':
                break;
              default:
                if (open_.empty())
                    bad_ = true; // a scalar outside the root value
            }
        }
    }

    char buf_[1 << 16];
    std::uint64_t bytes_ = 0;
    std::vector<char> open_; //!< expected closers, innermost last
    unsigned roots_ = 0;
    bool inString_ = false;
    bool escape_ = false;
    bool bad_ = false;
};

// ----- checks --------------------------------------------------------

/** Golden digests by workload, seed and point (may be absent). */
class Golden
{
  public:
    explicit Golden(bool use)
    {
        const std::string path = bench_dir + "/golden.json";
        std::ifstream in(path);
        if (!use || !in)
            return;
        std::stringstream ss;
        ss << in.rdbuf();
        doc_ = tools::JsonValue::parse(ss.str());
        loaded_ = true;
    }

    /** The stored digest, or "" when none is stored. */
    std::string
    digest(const std::string &workload, std::uint64_t seed,
           const std::string &point) const
    {
        if (!loaded_ || !doc_.at("workloads").has(workload))
            return "";
        const auto &w = doc_.at("workloads").at(workload);
        const std::string key = std::to_string(seed);
        if (!w.has(key) || !w.at(key).has(point))
            return "";
        return w.at(key).at(point).asString();
    }

  private:
    tools::JsonValue doc_;
    bool loaded_ = false;
};

/** Why @p r is wrong, or "" when its checks pass. */
std::string
invariantFailure(const core::RunResult &r)
{
    if (r.status != sim::RunStatus::Completed)
        return std::string("run ended ") + sim::toString(r.status);
    if (r.ct == 0 || r.eventsExecuted == 0)
        return "empty run";
    // Every CE's ledger closes at the completion time, up to the
    // overshoot of an operation still in flight when the program ended
    // (accounted at issue; the runtime tests hold it to this bound).
    constexpr sim::Tick max_overshoot = 60000;
    for (std::size_t ce = 0; ce < r.ceAcct.size(); ++ce) {
        sim::Tick sum = 0;
        for (const sim::Tick t : r.ceAcct[ce].cat)
            sum += t;
        if (sum < r.ct || sum - r.ct > max_overshoot)
            return "ledger of CE " + std::to_string(ce) + " sums to " +
                   std::to_string(sum) + " ticks for a completion time of " +
                   std::to_string(r.ct);
    }
    return "";
}

/** Attempt/failure bookkeeping shared by every pass of a run. */
struct Checker
{
    /** Null for runs golden.json has no digests for (the warm-up). */
    const Golden *golden;
    const std::string &workload;
    RunRecord &rec;

    void
    fail(const std::string &point, std::uint64_t seed,
         const std::string &why)
    {
        ++rec.failed;
        rec.notes.push_back("FAILED " + point + " seed " +
                            std::to_string(seed) + ": " + why);
    }

    /** Check one run; true when it passed. */
    bool
    check(const std::string &point, std::uint64_t seed,
          const core::RunResult &r)
    {
        if (const auto why = invariantFailure(r); !why.empty()) {
            fail(point, seed, why);
            return false;
        }
        const std::string want =
            golden != nullptr ? golden->digest(workload, seed, point) : "";
        if (want.empty()) {
            rec.goldenUnchecked += golden != nullptr;
            return true;
        }
        ++rec.goldenChecked;
        const std::string got = runDigest(r);
        if (got != want) {
            fail(point, seed, "digest " + got + " != golden " + want);
            return false;
        }
        return true;
    }
};

// ----- passes --------------------------------------------------------

/** What one pass over every point measured. */
struct PassStats
{
    double wall = 0;    //!< the whole pass
    double runS = 0;    //!< summed runExperiment time
    double exportS = 0; //!< summed writeSpanTrace time
    std::uint64_t events = 0;
    std::uint64_t records = 0;
    std::uint64_t exportBytes = 0;
};

/**
 * Run every point of @p w once at @p seed, and on traced_export export
 * each timeline unless @p exportTrace is off. With @p keep set the
 * results (minus their timelines) are kept for the layer counts.
 */
PassStats
runPass(const Workload &w, std::uint64_t seed, const std::string &label,
        SpanLog &spans, Checker &chk, std::vector<core::RunResult> *keep,
        bool exportTrace = true)
{
    PassStats ps;
    const auto t0 = Clock::now();
    Scope pass(spans, label, -1);
    for (const Point &p : w.points) {
        ++chk.rec.attempted;
        try {
            core::RunResult r;
            {
                Scope s(spans, "runExperiment " + p.name, pass.id());
                const auto t = Clock::now();
                r = core::runExperiment(p.app, p.spec.config,
                                        pointOptions(w, p, seed));
                ps.runS += secondsSince(t);
            }
            ps.events += r.eventsExecuted;
            const bool ok = chk.check(p.name, seed, r);
            ps.records += r.timeline.size();
            if (w.traceExport && exportTrace) {
                Scope s(spans, "writeSpanTrace " + p.name, pass.id());
                obs::SpanTraceMeta meta;
                meta.clock_hz = r.clockHz;
                meta.ces_per_cluster = r.cesPerCluster;
                meta.timeseries = &r.timeseries;
                CheckingSink sink;
                std::ostream os(&sink);
                const auto t = Clock::now();
                obs::writeSpanTrace(os, r.timeline, meta);
                os.flush();
                ps.exportS += secondsSince(t);
                ps.exportBytes += sink.bytes();
                if (ok && (sink.bytes() == 0 || !sink.wellBracketed()))
                    chk.fail(p.name, seed, "malformed span trace export");
            }
            if (keep != nullptr) {
                r.timeline = {};
                keep->push_back(std::move(r));
            }
        } catch (const std::exception &e) {
            chk.fail(p.name, seed, e.what());
        }
    }
    ps.wall = secondsSince(t0);
    return ps;
}

// ----- standalone layer probes --------------------------------------

/** Functor the dispatch probe schedules: fits Cont's inline buffer. */
struct Churn
{
    struct State
    {
        sim::EventQueue eq;
        sim::RandomGen rng;
        std::uint64_t executed = 0;
        std::uint64_t limit = 0;
    };
    State *st;

    void
    operator()() const
    {
        if (++st->executed < st->limit)
            st->eq.scheduleIn(1 + st->rng.below(64), Churn{st});
    }
};

/**
 * sim: host ns per event of bare EventQueue schedule/scheduleIn/run
 * churn at @p population pending events.
 */
double
dispatchNsPerEvent(std::size_t population, std::uint64_t seed)
{
    Churn::State st{{}, sim::RandomGen(seed), 0, dispatch_events};
    st.eq.reserve(population);
    for (std::size_t i = 0; i < population; ++i)
        st.eq.schedule(st.rng.below(64), Churn{&st});
    const auto t0 = Clock::now();
    st.eq.run();
    return 1e9 * secondsSince(t0) /
           static_cast<double>(std::max<std::uint64_t>(st.executed, 1));
}

struct BurstDrive
{
    double nsPerBurst = 0;
    net::FastPathStats stats;
};

/**
 * net: host ns per Network::burst on geometry @p cfg. Every CE issues
 * bursts back to back, each one computePerIter after the previous
 * completed, cycling through @p loops' burst lengths.
 */
BurstDrive
driveBursts(const hw::CedarConfig &cfg,
            const std::vector<apps::LoopSpec> &loops, bool fast)
{
    mem::AddressMap map(cfg.nModules, cfg.groupSize);
    mem::GlobalMemory gmem(map);
    net::Network network(cfg.nClusters, cfg.cesPerCluster, gmem);
    network.setFastPath(fast);

    const unsigned ces = cfg.numCes();
    using Item = std::pair<sim::Tick, unsigned>; // (issue tick, CE)
    std::priority_queue<Item, std::vector<Item>, std::greater<>> ready;
    std::vector<std::uint64_t> issued(ces, 0);
    for (unsigned k = 0; k < ces; ++k)
        ready.push({k, k});

    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < probe_bursts; ++i) {
        const auto [when, k] = ready.top();
        ready.pop();
        const apps::LoopSpec &l = loops[(issued[k] + k) % loops.size()];
        const unsigned words = std::max(1u, std::min(l.burstLen, l.words));
        const std::uint64_t slot = issued[k]++ * ces + k;
        const sim::Addr addr = (slot * words) % std::max(l.regionWords, words);
        const auto r = network.burst(
            when, static_cast<sim::ClusterId>(k / cfg.cesPerCluster),
            static_cast<int>(k % cfg.cesPerCluster), addr, words);
        ready.push({r.complete + l.computePerIter, k});
    }
    BurstDrive d;
    d.nsPerBurst =
        1e9 * secondsSince(t0) / static_cast<double>(probe_bursts);
    d.stats = network.fastStats();
    return d;
}

// ----- metrics -------------------------------------------------------

class MetricSink
{
  public:
    explicit MetricSink(std::vector<Metric> &out) : out_(out) {}

    void
    e2e(const std::string &name, double v, const std::string &unit)
    {
        out_.push_back({name, v, unit, false, true});
    }
    void
    count(const std::string &name, double v, const std::string &unit)
    {
        out_.push_back({name, v, unit, true, false});
    }
    void
    host(const std::string &name, double v, const std::string &unit)
    {
        out_.push_back({name, v, unit, false, false});
    }

  private:
    std::vector<Metric> &out_;
};

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Paper Table 1/4 accuracy over the points that have a reference. */
struct Accuracy
{
    double speedupErrPct = 0;
    double contentionErrPct = 0;
    unsigned points = 0;
};

/**
 * Compare each healthy full-scale multiprocessor point with paper
 * Table 1 (speedup over the same-seed 1p point of its app) and Table 4
 * (core::estimateContention). Points without a 1p base, scaled or
 * faulted points, and non-paper geometries have no reference.
 */
Accuracy
paperAccuracy(const Workload &w, const std::vector<core::RunResult> &runs)
{
    const auto &procs = bench::configs;
    auto comparable = [&](std::size_t i) {
        const auto &spec = w.points[i].spec;
        return spec.options.faults.empty() && spec.options.scale == 1.0 &&
               spec.config.isPaperPoint() &&
               bench::paper_speedup.count(runs[i].app) != 0;
    };
    Accuracy a;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (!comparable(i) || runs[i].nprocs == 1)
            continue;
        const auto idx = static_cast<std::size_t>(
            std::find(procs.begin(), procs.end(), runs[i].nprocs) -
            procs.begin());
        const core::RunResult *uni = nullptr;
        for (std::size_t u = 0; u < runs.size(); ++u)
            if (comparable(u) && runs[u].nprocs == 1 &&
                runs[u].app == runs[i].app)
                uni = &runs[u];
        if (uni == nullptr || idx >= procs.size())
            continue;
        const double paperSp = bench::paper_speedup.at(runs[i].app)[idx];
        const double sp = uni->seconds() / runs[i].seconds();
        a.speedupErrPct += 100.0 * std::abs(sp - paperSp) / paperSp;
        a.contentionErrPct += std::abs(
            core::estimateContention(runs[i], *uni).ovContPct -
            bench::paper_contention.at(runs[i].app)[idx]);
        ++a.points;
    }
    if (a.points > 0) {
        a.speedupErrPct /= a.points;
        a.contentionErrPct /= a.points;
    }
    return a;
}

/** Per-layer counts of the first timed pass (exact for a given seed). */
void
layerCounts(MetricSink &m, const Workload &w,
            const std::vector<core::RunResult> &runs,
            const PassStats &first)
{
    using obs::ResourceClass;
    std::uint64_t events = 0, peak = 0, hits = 0, misses = 0, patterns = 0,
                  words = 0, cpis = 0, ctx = 0, syscalls = 0, faults = 0,
                  loops = 0, bodies = 0, injected = 0, degraded = 0,
                  windows = 0;
    double gini = 0, concurrency = 0, osTicks = 0, ceTicks = 0;
    sim::Tick stall = 0;
    std::array<double, obs::num_resource_classes> waits{};
    std::array<double, obs::num_resource_classes> requests{};
    for (const auto &r : runs) {
        events += r.eventsExecuted;
        peak = std::max(peak, r.peakPending);
        hits += r.fastPathHits;
        misses += r.fastPathMisses;
        patterns += r.fastPathPatterns;
        words += r.globalWords;
        cpis += r.osStats.cpis;
        ctx += r.osStats.ctxSwitches;
        syscalls += r.osStats.clusterSyscalls + r.osStats.globalSyscalls;
        faults += r.seqFaults + r.concFaults;
        loops += r.rtlStats.loopsPosted;
        bodies += r.rtlStats.bodiesExecuted;
        injected += r.faultsInjected;
        degraded += r.accessesDegraded;
        windows += r.timeseries.windows.size();
        gini += r.metrics.moduleGini;
        concurrency += r.machineConcurrency;
        stall += r.ceQueueStall;
        osTicks += static_cast<double>(
            r.totalAcct.inCat(os::TimeCat::system) +
            r.totalAcct.inCat(os::TimeCat::interrupt) +
            r.totalAcct.inCat(os::TimeCat::kspin));
        ceTicks += static_cast<double>(r.ct) * r.ceAcct.size();
        for (std::size_t c = 0; c < obs::num_resource_classes; ++c) {
            const auto &cm =
                r.metrics.perClass(static_cast<ResourceClass>(c));
            waits[c] += static_cast<double>(cm.waitTicks);
            requests[c] += static_cast<double>(cm.requests);
        }
    }
    const double n = std::max<double>(1.0, runs.size());
    auto wait = [&](ResourceClass c) {
        return waits[static_cast<std::size_t>(c)];
    };
    const auto ev = static_cast<double>(events);

    m.count("sim.events", ev, "count");
    m.count("sim.peak_pending", static_cast<double>(peak), "count");
    m.count("net.fastpath.hits", static_cast<double>(hits), "count");
    m.count("net.fastpath.misses", static_cast<double>(misses), "count");
    m.count("net.fastpath.hit_ratio",
            ratio(static_cast<double>(hits),
                  static_cast<double>(hits + misses)),
            "ratio");
    m.count("net.fastpath.patterns", static_cast<double>(patterns),
            "count");
    m.count("net.global_words", static_cast<double>(words), "count");
    m.count("net.wait_ticks.stage1_port",
            wait(ResourceClass::stage1_port), "ticks");
    m.count("net.wait_ticks.stage2_port",
            wait(ResourceClass::stage2_port), "ticks");
    m.count("net.wait_ticks.return_a_port",
            wait(ResourceClass::return_a_port), "ticks");
    m.count("net.wait_ticks.return_b_port",
            wait(ResourceClass::return_b_port), "ticks");
    m.count("mem.module.requests",
            requests[static_cast<std::size_t>(
                ResourceClass::memory_module)],
            "count");
    m.count("mem.module.wait_ticks", wait(ResourceClass::memory_module),
            "ticks");
    m.count("mem.module.gini", gini / n, "ratio");
    m.count("os.cpis", static_cast<double>(cpis), "count");
    m.count("os.ctx_switches", static_cast<double>(ctx), "count");
    m.count("os.syscalls", static_cast<double>(syscalls), "count");
    m.count("os.page_faults", static_cast<double>(faults), "count");
    m.count("os.kernel_lock.wait_ticks", wait(ResourceClass::kernel_lock),
            "ticks");
    m.count("os.system_share_pct", 100.0 * ratio(osTicks, ceTicks), "%");
    m.count("rtl.loops_posted", static_cast<double>(loops), "count");
    m.count("rtl.bodies_executed", static_cast<double>(bodies), "count");
    m.count("rtl.conc_bus.wait_ticks",
            wait(ResourceClass::concurrency_bus), "ticks");
    m.count("hw.ce_queue_stall_ticks", static_cast<double>(stall),
            "ticks");
    m.count("hw.machine_concurrency", concurrency / n, "CEs");
    m.count("fault.injected", static_cast<double>(injected), "count");
    m.count("fault.accesses_degraded", static_cast<double>(degraded),
            "count");
    m.count("obs.timeline_records", static_cast<double>(first.records),
            "count");
    m.count("obs.records_per_event",
            ratio(static_cast<double>(first.records), ev), "ratio");
    m.count("obs.ts_windows", static_cast<double>(windows), "count");
    m.count("obs.export_bytes", static_cast<double>(first.exportBytes),
            "B");

    const Accuracy acc = paperAccuracy(w, runs);
    m.count("core.speedup_err_pct", acc.speedupErrPct, "%");
    m.count("core.contention_err_pct", acc.contentionErrPct, "pct-pts");
}

std::string
fmt(double v)
{
    std::ostringstream os;
    os.precision(6);
    os << v;
    return os.str();
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "cliff_16_32p", "event_bound", "slow_path_faulted",
        "traced_export"};
    return names;
}

Workload
loadWorkload(const std::string &name, double scale)
{
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), name) == names.end())
        throw std::invalid_argument("unknown workload '" + name + "'");
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    for (const auto &e :
         fs::directory_iterator(bench_dir + "/workloads/" + name))
        if (e.path().extension() == ".scn")
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    if (files.empty())
        throw std::runtime_error("workload '" + name + "' has no points");

    Workload w;
    w.name = name;
    w.traceExport = name == "traced_export";
    for (const auto &f : files) {
        Point p;
        p.spec = core::parseScenarioFile(f.string());
        p.spec.options.scale *= scale;
        p.spec.validate();
        p.app = p.spec.resolveApp();
        p.name = p.spec.name;
        w.points.push_back(std::move(p));
    }
    return w;
}

core::RunOptions
pointOptions(const Workload &w, const Point &p, std::uint64_t seed)
{
    core::RunOptions o = p.spec.options;
    o.seed = seed;
    if (w.traceExport) {
        o.collectTimeline = true;
        o.tsWindow = ts_window;
    }
    return o;
}

std::string
runDigest(const core::RunResult &r)
{
    std::ostringstream os;
    os << r.ct << ' ' << sim::toString(r.status) << ' ' << r.eventsExecuted;
    for (const sim::Tick t : r.totalAcct.cat)
        os << ' ' << t;
    for (const sim::Tick t : r.totalAcct.osAct)
        os << ' ' << t;
    for (const sim::Tick t : r.totalAcct.userAct)
        os << ' ' << t;
    const auto &rs = r.rtlStats;
    os << '\n'
       << rs.loopsPosted << ' ' << rs.sdoallLoops << ' ' << rs.xdoallLoops
       << ' ' << rs.mcLoops << ' ' << rs.cdoacrossLoops << ' '
       << rs.outerIters << ' ' << rs.bodiesExecuted << ' '
       << rs.helperJoins << ' ' << rs.stepsRun;
    const auto &xs = r.osStats;
    os << '\n'
       << xs.cpis << ' ' << xs.ctxSwitches << ' ' << xs.clusterSyscalls
       << ' ' << xs.globalSyscalls << ' ' << xs.asts << ' ' << xs.ioBlocks
       << '\n';
    r.metrics.writeJson(os);
    return core::hashHex(core::fnv1a64(os.str()));
}

RunRecord
runWorkload(const std::string &name, const RunSettings &s)
{
    const auto t0 = Clock::now();
    RunRecord rec;
    rec.workload = name;
    rec.seed = s.seed;
    rec.traced = !s.traceDir.empty();
    SpanLog spans(rec.traced, t0);
    SpanLog untraced(false, t0);

    // Set-up: load the points, then warm caches and the continuation
    // pools with one run of every point at no more than warmup_scale.
    // The warm-up exports no timeline: on traced_export that would cost
    // as much as a pass.
    Workload w, warmW;
    std::vector<double> loads;
    {
        Scope load(spans, "load", -1);
        for (unsigned i = 0; i < load_reps; ++i) {
            Scope one(spans, "parseScenarioFile+validate+resolveApp",
                      load.id());
            const auto t = Clock::now();
            w = loadWorkload(name, s.scale);
            loads.push_back(secondsSince(t));
        }
        warmW = w;
        for (Point &p : warmW.points)
            p.spec.options.scale =
                std::min(p.spec.options.scale, warmup_scale);
    }
    Checker warmChk{nullptr, name, rec};
    runPass(warmW, s.seed, "warm-up", spans, warmChk, nullptr, false);
    const double setup = secondsSince(t0);
    MetricSink m(rec.metrics);
    m.e2e("setup_s", setup, "s");
    if (s.setupOnly) {
        rec.exitedOk = true;
        return rec;
    }

    // Timed passes. The first one's results give the layer counts. A
    // traced run alternates passes with and without span recording,
    // so trace_overhead_pct compares like with like.
    const Golden golden(s.golden);
    Checker chk{&golden, name, rec};
    std::vector<core::RunResult> base;
    PassStats first;
    std::vector<double> walls, tracedWalls, runS, exportS, nsPerEvent,
        eventsPerS;
    const auto timed0 = Clock::now();
    for (unsigned p = 1;; ++p) {
        const bool tracedPass = rec.traced && p % 2 == 1;
        const PassStats ps =
            runPass(w, s.seed + p, "pass " + std::to_string(p),
                    tracedPass ? spans : untraced, chk,
                    p == 1 ? &base : nullptr);
        if (p == 1)
            first = ps;
        (tracedPass ? tracedWalls : walls).push_back(ps.wall);
        runS.push_back(ps.runS);
        exportS.push_back(ps.exportS);
        nsPerEvent.push_back(1e9 * ratio(ps.runS, ps.events));
        eventsPerS.push_back(ratio(ps.events, ps.runS));
        const bool enough =
            p >= s.minPasses && secondsSince(timed0) >= s.seconds;
        if (p >= s.maxPasses || enough)
            break;
    }

    const double runWall = median(walls);
    m.e2e("run_wall_s", runWall, "s");
    const auto [q1, q3] = quartiles(walls);
    rec.notes.push_back("run_wall_s q1 " + fmt(q1) + " q3 " + fmt(q3) +
                        " n " + std::to_string(walls.size()));
    layerCounts(m, w, base, first);

    if (rec.traced) {
        std::size_t peak = 1;
        for (const auto &r : base)
            peak = std::max<std::size_t>(peak, r.peakPending);
        double dispatch = 0;
        {
            Scope d(spans, "probe sim::EventQueue churn", -1);
            dispatch = dispatchNsPerEvent(peak, s.seed);
        }

        const Point *widest = &w.points.front();
        std::vector<apps::LoopSpec> loops;
        for (const Point &p : w.points) {
            if (p.spec.config.numCes() > widest->spec.config.numCes())
                widest = &p;
            for (const auto &ph : p.app.phases)
                if (const auto *l = std::get_if<apps::LoopSpec>(&ph);
                    l != nullptr && l->words > 0)
                    loops.push_back(*l);
        }
        BurstDrive fast, slow;
        if (!loops.empty()) {
            {
                Scope d(spans, "probe net::Network::burst fast", -1);
                fast = driveBursts(widest->spec.config, loops, true);
            }
            Scope d(spans, "probe net::Network::burst slow", -1);
            slow = driveBursts(widest->spec.config, loops, false);
        }

        const double nsEvent = median(nsPerEvent);
        const double exportMed = median(exportS);
        m.host("sim.events_per_s", median(eventsPerS), "1/s");
        m.host("sim.dispatch_ns_per_event", dispatch, "ns");
        m.host("sim.model_ns_per_event", nsEvent - dispatch, "ns");
        m.host("net.burst_ns.fast", fast.nsPerBurst, "ns");
        m.host("net.burst_ns.slow", slow.nsPerBurst, "ns");
        m.count("net.probe.hit_ratio",
                ratio(static_cast<double>(fast.stats.hits()),
                      static_cast<double>(fast.stats.hits() +
                                          fast.stats.misses())),
                "ratio");
        m.host("obs.record_s", w.traceExport ? median(runS) : 0.0, "s");
        m.host("obs.export_s", exportMed, "s");
        m.host("obs.export_ns_per_record",
               1e9 * ratio(exportMed, static_cast<double>(first.records)),
               "ns");
        m.host("core.load_s", median(loads), "s");
        m.host("core.run_s", median(runS), "s");
        m.host("trace_overhead_pct",
               100.0 * (ratio(median(tracedWalls), runWall) - 1.0),
               "%");

        namespace fs = std::filesystem;
        fs::create_directories(s.traceDir);
        const std::string path =
            (fs::path(s.traceDir) / (name + ".trace.json")).string();
        std::ofstream out(path);
        spans.writeChrome(out);
        if (!out)
            throw std::runtime_error("cannot write " + path);
        rec.notes.push_back("trace: wrote " + path);
    }

    if (rec.goldenChecked == 0)
        rec.notes.push_back("golden: unchecked");
    else
        rec.notes.push_back(
            "golden: " + std::to_string(rec.goldenChecked) + " checked, " +
            std::to_string(rec.goldenUnchecked) + " unchecked");
    rec.exitedOk = true;
    return rec;
}

const Metric *
RunRecord::find(const std::string &name) const
{
    for (const auto &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 != 0 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::pair<double, double>
quartiles(std::vector<double> v)
{
    if (v.empty())
        return {0.0, 0.0};
    if (v.size() == 1)
        return {v[0], v[0]};
    std::sort(v.begin(), v.end());
    const long n = static_cast<long>(v.size());
    auto q = [&](long i) {
        long j = i * (n + 1) / 4;
        j = std::clamp(j, 1L, n - 1);
        const long delta = i * (n + 1) - j * 4;
        return (v[static_cast<std::size_t>(j - 1)] * (4 - delta) +
                v[static_cast<std::size_t>(j)] * delta) /
               4.0;
    };
    return {q(1), q(3)};
}

} // namespace cedarbench
