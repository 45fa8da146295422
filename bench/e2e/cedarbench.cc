/**
 * @file
 * cedarbench: run the benchmark, compare result sets, regenerate the
 * golden digests, or smoke-test the whole pipeline.
 *
 *   cedarbench run [--workload W[,W...]|all] [--seed S] [--seconds T]
 *                  [--trace DIR] [--repeat N] [--out FILE]
 *                  [--git-sha SHA]
 *   cedarbench compare --parent A.json... --change B.json...
 *   cedarbench golden
 *   cedarbench --smoke
 *
 * `run` is a closed loop with one caller: each workload runs in its
 * own single-threaded child process (so per-thread continuation pools
 * start empty and the parent can read the child's peak RSS), and the
 * runs go in series. It prints every metric as `workload metric value
 * unit`, and as its last line one JSON object with `correct`,
 * `attempted`, `failed` and `metrics` (the end-to-end metrics of an
 * untraced run, the per-layer metrics of a traced one). With --repeat
 * N it runs every workload N times at seeds S..S+N-1, interleaving the
 * workloads. It exits 1 when any output is wrong.
 */

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "bench_json.hh"
#include "core/study.hh"

using namespace cedarbench;
using cedar::tools::JsonValue;
using cedar::tools::JsonWriter;

namespace
{

// ----- child process --------------------------------------------------

/** The child's record as text lines on the pipe to the parent. */
std::string
serialize(const RunRecord &r)
{
    std::ostringstream os;
    os.precision(17);
    os << "run " << r.attempted << ' ' << r.failed << ' '
       << r.goldenChecked << ' ' << r.goldenUnchecked << '\n';
    for (const auto &m : r.metrics)
        os << "metric " << m.name << ' ' << m.value << ' ' << m.unit << ' '
           << m.exact << ' ' << m.endToEnd << '\n';
    for (const auto &n : r.notes)
        os << "note " << n << '\n';
    return os.str();
}

void
deserialize(const std::string &text, RunRecord &r)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "run") {
            ls >> r.attempted >> r.failed >> r.goldenChecked >>
                r.goldenUnchecked;
        } else if (tag == "metric") {
            Metric m;
            ls >> m.name >> m.value >> m.unit >> m.exact >> m.endToEnd;
            r.metrics.push_back(m);
        } else if (tag == "note") {
            r.notes.push_back(line.substr(5));
        }
    }
}

void
writeAll(int fd, const std::string &s)
{
    std::size_t off = 0;
    while (off < s.size()) {
        const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return;
        off += static_cast<std::size_t>(n);
    }
}

/**
 * Run one workload in a forked child and wait for it. The child's
 * ru_maxrss becomes peak_rss_mb. A child that throws or dies yields a
 * record with exitedOk false.
 */
RunRecord
runIsolated(const std::string &name, const RunSettings &s)
{
    RunRecord rec;
    rec.workload = name;
    rec.seed = s.seed;
    rec.traced = !s.traceDir.empty();

    std::cout.flush();
    std::cerr.flush();
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        // Die with the parent, so no run outlives an interrupted one.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() == 1)
            ::_exit(1);
        ::close(fds[0]);
        int code = 0;
        std::string payload;
        try {
            payload = serialize(runWorkload(name, s));
        } catch (const std::exception &e) {
            payload = std::string("note error: ") + e.what() + "\n";
            code = 1;
        }
        writeAll(fds[1], payload);
        ::close(fds[1]);
        ::_exit(code);
    }
    ::close(fds[1]);
    std::string payload;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        payload.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    struct rusage ru{};
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    deserialize(payload, rec);
    rec.exitedOk = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!rec.exitedOk) {
        rec.attempted = std::max<std::uint64_t>(rec.attempted, 1);
        rec.failed = rec.attempted;
        rec.notes.push_back("child process failed (status " +
                            std::to_string(status) + ")");
    }
    rec.metrics.push_back({"peak_rss_mb",
                           static_cast<double>(ru.ru_maxrss) / 1024.0,
                           "MB", false, true});
    return rec;
}

/** Set-ups per run; setup_s is their median. Each runs in a fresh
 *  process, so one-time work shows in every sample. */
constexpr unsigned setup_reps = 5;

/** One measured run: setup_reps - 1 set-up-only children, then the
 *  child that sets up once more and runs the timed passes. */
RunRecord
runMeasured(const std::string &name, const RunSettings &s)
{
    RunSettings only = s;
    only.setupOnly = true;
    only.traceDir.clear();
    std::vector<RunRecord> setups;
    for (unsigned i = 1; i < setup_reps; ++i)
        setups.push_back(runIsolated(name, only));
    RunRecord rec = runIsolated(name, s);

    std::vector<double> samples;
    for (const auto &r : setups) {
        rec.attempted += r.attempted;
        rec.failed += r.failed;
        rec.exitedOk = rec.exitedOk && r.exitedOk;
        for (const auto &n : r.notes)
            rec.notes.push_back("set-up: " + n);
        if (const Metric *m = r.find("setup_s"))
            samples.push_back(m->value);
    }
    for (auto &m : rec.metrics) {
        if (m.name != "setup_s")
            continue;
        samples.push_back(m.value);
        m.value = median(samples);
    }
    rec.notes.push_back("setup_s: median of " +
                        std::to_string(samples.size()) +
                        " set-ups in fresh processes");
    return rec;
}

// ----- output ---------------------------------------------------------

void
printRecord(std::ostream &os, const RunRecord &r)
{
    for (const auto &m : r.metrics)
        os << r.workload << ' ' << m.name << ' '
           << JsonWriter::number(m.value) << ' ' << m.unit << '\n';
    for (const auto &n : r.notes)
        os << "# " << r.workload << ": " << n << '\n';
}

/**
 * The one-line result: a single record's end-to-end metrics (untraced)
 * or per-layer metrics (traced); for several records, each metric's
 * median per workload, keyed `workload:metric`.
 */
std::string
resultLine(const std::vector<RunRecord> &recs)
{
    bool correct = !recs.empty();
    std::uint64_t attempted = 0, failed = 0;
    // key -> (values, unit), in first-seen order
    std::vector<std::string> order;
    std::map<std::string, std::pair<std::vector<double>, std::string>>
        vals;
    for (const auto &r : recs) {
        correct = correct && r.correct();
        attempted += r.attempted;
        failed += r.failed;
        for (const auto &m : r.metrics) {
            if (m.endToEnd == r.traced)
                continue;
            const std::string key =
                recs.size() == 1 ? m.name : r.workload + ":" + m.name;
            auto [it, fresh] = vals.try_emplace(key);
            if (fresh)
                order.push_back(key);
            it->second.first.push_back(m.value);
            it->second.second = m.unit;
        }
    }
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                     attempted, 1));
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < order.size(); ++i) {
        const auto &[v, unit] = vals.at(order[i]);
        out += (i ? ", " : "") + JsonWriter::quoted(order[i]) +
               ": {\"value\": " + JsonWriter::number(median(v)) +
               ", \"unit\": " + JsonWriter::quoted(unit) + "}";
    }
    out += "}}";
    return out;
}

void
writeResultFile(const std::string &path, const std::vector<RunRecord> &recs,
                const std::string &sha, double seconds)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject();
    j.field("schema", "cedarbench-result-v1");
    j.key("provenance").beginObject();
    j.field("git_sha", sha);
    j.field("host_threads", std::thread::hardware_concurrency());
    j.field("compiler", CEDARBENCH_COMPILER);
    j.field("build_type", CEDARBENCH_BUILD_TYPE);
    j.field("seconds", seconds);
    j.endObject();
    j.key("runs").beginArray();
    for (const auto &r : recs) {
        j.beginObject();
        j.field("workload", r.workload);
        j.field("seed", r.seed);
        j.field("traced", r.traced);
        j.field("correct", r.correct());
        j.field("attempted", r.attempted);
        j.field("failed", r.failed);
        j.field("golden_checked", r.goldenChecked);
        j.field("golden_unchecked", r.goldenUnchecked);
        j.key("metrics").beginObject();
        for (const auto &m : r.metrics) {
            j.key(m.name).beginObject();
            j.field("value", m.value);
            j.field("unit", m.unit);
            j.field("exact", m.exact);
            j.field("end_to_end", m.endToEnd);
            j.endObject();
        }
        j.endObject();
        j.endObject();
    }
    j.endArray();
    j.endObject();
    os << '\n';
    cedar::core::atomicWriteFile(path, os.str());
}

// ----- commands -------------------------------------------------------

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string tok;
    while (std::getline(ss, tok, ','))
        out.push_back(tok);
    return out;
}

/** Walks `--flag value` pairs; throws on a flag missing its value. */
struct ArgWalker
{
    const std::vector<std::string> &args;
    std::size_t i = 2;

    bool more() const { return i < args.size(); }
    const std::string &flag() const { return args[i]; }
    const std::string &
    value()
    {
        if (i + 1 >= args.size())
            throw std::invalid_argument(args[i] + " needs a value");
        return args[++i];
    }
};

int
usage()
{
    std::cerr
        << "usage: cedarbench run [--workload W[,W...]|all] [--seed S]\n"
           "                      [--seconds T] [--trace DIR] "
           "[--repeat N]\n"
           "                      [--out FILE] [--git-sha SHA]\n"
           "       cedarbench compare --parent A.json... --change "
           "B.json...\n"
           "       cedarbench golden\n"
           "       cedarbench --smoke\n";
    return 2;
}

int
runMain(const std::vector<std::string> &args)
{
    std::vector<std::string> names = workloadNames();
    RunSettings s;
    unsigned repeat = 1;
    std::string out, sha = "unknown";
    for (ArgWalker a{args}; a.more(); ++a.i) {
        if (a.flag() == "--workload" || a.flag() == "--workloads") {
            const std::string v = a.value();
            names = v == "all" ? workloadNames() : splitCsv(v);
        } else if (a.flag() == "--seed") {
            s.seed = std::stoull(a.value());
        } else if (a.flag() == "--seconds") {
            s.seconds = std::stod(a.value());
        } else if (a.flag() == "--trace") {
            s.traceDir = a.value();
        } else if (a.flag() == "--repeat") {
            repeat = static_cast<unsigned>(std::stoul(a.value()));
        } else if (a.flag() == "--out") {
            out = a.value();
        } else if (a.flag() == "--git-sha") {
            sha = a.value();
        } else {
            return usage();
        }
    }
    for (const auto &n : names)
        loadWorkload(n); // reject an unknown workload before running

    std::vector<RunRecord> recs;
    const std::uint64_t seed0 = s.seed;
    for (unsigned r = 0; r < std::max(repeat, 1u); ++r) {
        for (const auto &n : names) {
            RunSettings rs = s;
            rs.seed = seed0 + r;
            recs.push_back(runMeasured(n, rs));
            printRecord(std::cout, recs.back());
        }
    }
    if (!out.empty())
        writeResultFile(out, recs, sha, s.seconds);
    std::cout << resultLine(recs) << std::endl;
    for (const auto &r : recs)
        if (!r.correct())
            return 1;
    return 0;
}

/** Seeds golden.json stores digests for. */
constexpr std::uint64_t golden_seeds = 16;

/** Regenerate golden.json: every point's digest at seeds 1..16. */
int
goldenMain()
{
    const std::string out = bench_dir + "/golden.json";
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject();
    j.field("schema", "cedarbench-golden-v1");
    j.key("workloads").beginObject();
    for (const auto &name : workloadNames()) {
        const Workload w = loadWorkload(name);
        j.key(name).beginObject();
        for (std::uint64_t seed = 1; seed <= golden_seeds; ++seed) {
            std::cerr << "golden: " << name << " seed " << seed << "\n";
            j.key(std::to_string(seed)).beginObject();
            for (const Point &p : w.points) {
                const auto r = cedar::core::runExperiment(
                    p.app, p.spec.config, pointOptions(w, p, seed));
                if (r.status != cedar::sim::RunStatus::Completed)
                    throw std::runtime_error(name + "/" + p.name +
                                             " did not complete");
                j.field(p.name, runDigest(r));
            }
            j.endObject();
        }
        j.endObject();
    }
    j.endObject();
    j.endObject();
    os << '\n';
    cedar::core::atomicWriteFile(out, os.str());
    std::cout << "wrote " << out << "\n";
    return 0;
}

/**
 * Every workload at 2% scale for two passes, traced: every metric
 * BENCHMARK.json names must be produced with its unit, and both result
 * lines must parse.
 */
int
smokeMain()
{
    std::ifstream in(repo_root + "/BENCHMARK.json");
    std::stringstream ss;
    ss << in.rdbuf();
    const JsonValue bench = JsonValue::parse(ss.str());

    int bad = 0;
    auto fail = [&](const std::string &why) {
        std::cerr << "smoke: " << why << "\n";
        ++bad;
    };
    for (const auto &name : workloadNames()) {
        RunSettings s;
        s.seconds = 0;
        s.scale = 0.02;
        s.minPasses = s.maxPasses = 2;
        s.golden = false;
        s.traceDir = "smoke-traces";
        RunRecord r = runMeasured(name, s);
        printRecord(std::cout, r);
        if (!r.correct())
            fail(name + ": run failed");
        for (const char *kind : {"end_to_end", "per_layer"}) {
            for (const auto &want : bench.at(kind).asArray()) {
                const std::string &metric = want.at("name").asString();
                const Metric *got = r.find(metric);
                if (got == nullptr)
                    fail(name + ": " + metric + " not printed");
                else if (got->unit != want.at("unit").asString())
                    fail(name + ": " + metric + " has unit " + got->unit);
            }
        }
        for (const bool traced : {false, true}) {
            r.traced = traced;
            const JsonValue line = JsonValue::parse(resultLine({r}));
            if (!line.at("correct").asBool() ||
                line.at("metrics").kind() != JsonValue::Kind::object)
                fail(name + ": bad result line");
        }
    }
    std::cout << (bad == 0 ? "smoke: ok" : "smoke: FAILED") << "\n";
    return bad == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv, argv + argc);
    if (args.size() < 2)
        return usage();
    try {
        if (args[1] == "run")
            return runMain(args);
        if (args[1] == "compare")
            return compareMain(args);
        if (args[1] == "golden")
            return goldenMain();
        if (args[1] == "--smoke")
            return smokeMain();
    } catch (const std::exception &e) {
        std::cerr << "cedarbench: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
