#include "core/study.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>

#include "bench_json.hh"
#include "core/contention.hh"
#include "core/parallel.hh"
#include "sim/error.hh"

namespace cedar::core
{

namespace fs = std::filesystem;
using sim::ConfigError;
using sim::SimError;
using tools::JsonValue;
using tools::JsonWriter;

std::uint64_t
fnv1a64(std::string_view data)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hashHex(std::uint64_t h)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[h & 0xf];
        h >>= 4;
    }
    return out;
}

void
atomicWriteFile(const std::string &path,
                const std::function<void(std::ostream &)> &writer)
{
    // A symlink, device or FIFO is written through: a rename would
    // replace the link or the node itself, not what it names.
    std::error_code ec;
    const auto st = fs::symlink_status(path, ec);
    const bool through = fs::exists(st) && !fs::is_regular_file(st);
    const std::string tmp =
        through ? path : path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw SimError("atomic write: cannot open " + tmp);
        try {
            writer(os);
        } catch (...) {
            os.close();
            if (!through)
                fs::remove(tmp);
            throw;
        }
        os.flush();
        if (!os) {
            os.close();
            if (!through)
                fs::remove(tmp);
            throw SimError("atomic write: write failed: " + tmp);
        }
    }
    if (through)
        return;
    // The data must be durable before the rename publishes the name:
    // rename-then-crash must never expose an empty or partial file.
    const int fd = ::open(tmp.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp);
        throw SimError("atomic write: cannot replace " + path + ": " +
                       ec.message());
    }
}

void
atomicWriteFile(const std::string &path, const std::string &content)
{
    atomicWriteFile(path,
                    [&](std::ostream &os) { os.write(content.data(),
                                                     static_cast<std::streamsize>(
                                                         content.size())); });
}

void
writeScenarioSummary(std::ostream &os, const ScenarioSpec &spec,
                     const RunResult &r)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "cedar-scenario-v1");
    w.field("scenario", spec.name);
    w.field("app", r.app);
    w.key("machine").beginObject();
    w.field("label", spec.config.label());
    w.field("clusters", spec.config.nClusters);
    w.field("ces_per_cluster", spec.config.cesPerCluster);
    w.field("nprocs", spec.config.numCes());
    w.field("modules", spec.config.nModules);
    w.field("group_size", spec.config.groupSize);
    w.field("clock_hz", spec.config.clockHz);
    w.field("seed", spec.options.seed);
    w.endObject();
    w.key("run").beginObject();
    w.field("scale", spec.options.scale);
    w.field("status", sim::toString(r.status));
    w.field("ct_ticks", std::uint64_t(r.ct));
    w.field("seconds", r.seconds());
    w.field("concurrency", r.machineConcurrency);
    w.field("events_executed", std::uint64_t(r.eventsExecuted));
    w.field("peak_pending", std::uint64_t(r.peakPending));
    w.field("global_words", r.globalWords);
    w.field("faults_injected", r.faultsInjected);
    w.field("accesses_degraded", r.accessesDegraded);
    w.field("parked_ces", r.parkedCes);
    w.endObject();
    w.key("contention").beginObject();
    w.field("resource_wait_ticks", std::uint64_t(r.resourceWait));
    w.field("ce_queue_stall_ticks", std::uint64_t(r.ceQueueStall));
    w.field("ground_truth_pct", groundTruthContentionPct(r));
    w.field("module_gini", r.metrics.moduleGini);
    w.endObject();
    w.endObject();
    os << "\n";
}

namespace
{

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ---------------------------------------------------------------
// Manifest journal: append-only JSONL, one fsync per record, so
// the on-disk log is current up to the instant of a kill (modulo
// one possibly-torn final line, which readers tolerate).
// ---------------------------------------------------------------

class ManifestJournal
{
  public:
    ManifestJournal(const std::string &path, bool append)
    {
        const bool fresh = !append || !fs::exists(path);
        fd_ = ::open(path.c_str(),
                     O_WRONLY | O_CREAT | O_CLOEXEC |
                         (append ? O_APPEND : O_TRUNC),
                     0644);
        if (fd_ < 0)
            throw SimError("study: cannot open manifest journal " +
                           path);
        if (fresh)
            line("{\"schema\":\"cedar-manifest-v1\"}");
    }

    ~ManifestJournal()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    ManifestJournal(const ManifestJournal &) = delete;
    ManifestJournal &operator=(const ManifestJournal &) = delete;

    void
    line(const std::string &record)
    {
        std::lock_guard<std::mutex> lk(mx_);
        std::string buf = record;
        buf += '\n';
        std::size_t off = 0;
        while (off < buf.size()) {
            const ssize_t n =
                ::write(fd_, buf.data() + off, buf.size() - off);
            if (n < 0)
                throw SimError("study: manifest journal write failed");
            off += static_cast<std::size_t>(n);
        }
        ::fsync(fd_);
    }

    void
    start(const std::string &name, const std::string &hash,
          const std::string &source, unsigned attempt)
    {
        std::ostringstream os;
        os << "{\"rec\":\"start\",\"scenario\":"
           << JsonWriter::quoted(name) << ",\"hash\":"
           << JsonWriter::quoted(hash) << ",\"source\":"
           << JsonWriter::quoted(source) << ",\"attempt\":" << attempt
           << "}";
        line(os.str());
    }

    void
    done(const std::string &name, const std::string &hash,
         unsigned attempt, const std::string &status, double wallMs,
         const std::string &summaryHash, const std::string &metricsHash)
    {
        std::ostringstream os;
        os << "{\"rec\":\"done\",\"scenario\":"
           << JsonWriter::quoted(name) << ",\"hash\":"
           << JsonWriter::quoted(hash) << ",\"attempt\":" << attempt
           << ",\"status\":" << JsonWriter::quoted(status)
           << ",\"wall_ms\":" << JsonWriter::number(wallMs)
           << ",\"artifacts\":{\"summary\":"
           << JsonWriter::quoted(summaryHash) << ",\"metrics\":"
           << JsonWriter::quoted(metricsHash) << "}}";
        line(os.str());
    }

    void
    failed(const std::string &name, const std::string &hash,
           unsigned attempt, const std::string &status,
           const std::string &error, double wallMs)
    {
        std::ostringstream os;
        os << "{\"rec\":\"failed\",\"scenario\":"
           << JsonWriter::quoted(name) << ",\"hash\":"
           << JsonWriter::quoted(hash) << ",\"attempt\":" << attempt
           << ",\"status\":" << JsonWriter::quoted(status)
           << ",\"error\":" << JsonWriter::quoted(error)
           << ",\"wall_ms\":" << JsonWriter::number(wallMs) << "}";
        line(os.str());
    }

    void
    cached(const std::string &name, const std::string &hash,
           const std::string &status, const std::string &summaryHash,
           const std::string &metricsHash)
    {
        std::ostringstream os;
        os << "{\"rec\":\"cached\",\"scenario\":"
           << JsonWriter::quoted(name) << ",\"hash\":"
           << JsonWriter::quoted(hash) << ",\"status\":"
           << JsonWriter::quoted(status)
           << ",\"artifacts\":{\"summary\":"
           << JsonWriter::quoted(summaryHash) << ",\"metrics\":"
           << JsonWriter::quoted(metricsHash) << "}}";
        line(os.str());
    }

  private:
    int fd_ = -1;
    std::mutex mx_;
};

/** Per-scenario state folded out of a manifest journal. */
struct ManifestState
{
    enum class Last { none, started, failed, done };
    Last last = Last::none;
    std::string hash;
    std::string status;
    std::string error;
    std::string summaryHash;
    std::string metricsHash;
    unsigned attempts = 0; //!< highest attempt number journaled
};

/**
 * Fold a journal into per-scenario terminal state. A torn final
 * line (the process was killed mid-write, pre-fsync) ends the fold
 * gracefully: everything before it is intact by construction. A
 * record that parses but fails its field checks (a string where a
 * string belongs, an attempt count in range) is treated the same.
 */
std::map<std::string, ManifestState>
readManifest(const std::string &path)
{
    std::map<std::string, ManifestState> out;
    std::ifstream in(path);
    if (!in)
        return out;
    std::string lineText;
    while (std::getline(in, lineText)) {
        if (lineText.empty())
            continue;
        // Read the whole record before applying it: a torn record, or
        // one whose fields fail their checks, ends the fold untouched.
        std::string kind, name, hash, status, error, sumHash, metHash;
        unsigned attempt = 0;
        bool artifacts = false;
        try {
            const JsonValue rec = JsonValue::parse(lineText);
            if (rec.kind() != JsonValue::Kind::object || rec.has("schema"))
                continue;
            kind = rec.strOr("rec");
            name = rec.strOr("scenario");
            hash = rec.strOr("hash");
            status = rec.strOr("status");
            error = rec.strOr("error");
            attempt = static_cast<unsigned>(rec.countOr(
                "attempt", std::numeric_limits<unsigned>::max()));
            artifacts = rec.has("artifacts");
            if (artifacts) {
                sumHash = rec.at("artifacts").strOr("summary");
                metHash = rec.at("artifacts").strOr("metrics");
            }
        } catch (const tools::JsonParseError &) {
            break;
        }
        if (name.empty())
            continue;
        auto &st = out[name];
        st.attempts = std::max(st.attempts, attempt);
        if (kind == "start") {
            st.last = ManifestState::Last::started;
            st.hash = hash;
        } else if (kind == "failed") {
            st.last = ManifestState::Last::failed;
            st.hash = hash;
            st.status = status;
            st.error = error;
        } else if (kind == "done" || kind == "cached") {
            st.last = ManifestState::Last::done;
            st.hash = hash;
            st.status = status;
            st.error.clear();
            if (artifacts) {
                st.summaryHash = sumHash;
                st.metricsHash = metHash;
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------
// Content-addressed result cache: <cacheDir>/<hash>/{summary.json,
// metrics.json, entry.json}. entry.json is written last (and
// atomically), so its presence implies the artifacts exist; hits
// are still verified byte-for-byte against the stored hashes.
// ---------------------------------------------------------------

/** The entry schema. Bumped whenever the model changes a published
 *  number of an unchanged canonical hash, so older entries miss. */
constexpr const char *cache_schema = "cedar-cache-v2";

struct CacheEntry
{
    std::string summary;
    std::string metrics;
    std::string summaryHash;
    std::string metricsHash;
    std::string status;
    std::string machine;
    std::string app;
    double seconds = 0;
    double concurrency = 0;
};

std::optional<CacheEntry>
probeCache(const std::string &cacheDir, const std::string &hash)
{
    if (hash.empty())
        return std::nullopt;
    const std::string dir = cacheDir + "/" + hash;
    const auto meta = readFile(dir + "/entry.json");
    if (!meta)
        return std::nullopt;
    // An unreadable entry.json is a miss, never a study error.
    CacheEntry hit;
    try {
        const JsonValue e = JsonValue::parse(*meta);
        if (e.strOr("schema") != cache_schema || e.strOr("hash") != hash ||
            !e.has("artifacts"))
            return std::nullopt;
        hit.summaryHash = e.at("artifacts").strOr("summary");
        hit.metricsHash = e.at("artifacts").strOr("metrics");
        hit.status = e.strOr("status");
        hit.machine = e.strOr("machine");
        hit.app = e.strOr("app");
        hit.seconds = e.numOr("seconds");
        hit.concurrency = e.numOr("concurrency");
    } catch (const tools::JsonParseError &) {
        return std::nullopt;
    }
    const auto summary = readFile(dir + "/summary.json");
    const auto metrics = readFile(dir + "/metrics.json");
    // A hit must verify against the stored content hashes: a corrupt
    // or torn cache entry is a miss, never a served result.
    if (!summary || !metrics ||
        hashHex(fnv1a64(*summary)) != hit.summaryHash ||
        hashHex(fnv1a64(*metrics)) != hit.metricsHash)
        return std::nullopt;
    hit.summary = *summary;
    hit.metrics = *metrics;
    return hit;
}

void
storeCache(const std::string &cacheDir, const std::string &hash,
           const std::string &scenarioName, const CacheEntry &entry)
{
    const std::string dir = cacheDir + "/" + hash;
    fs::create_directories(dir);
    atomicWriteFile(dir + "/summary.json", entry.summary);
    atomicWriteFile(dir + "/metrics.json", entry.metrics);
    std::ostringstream meta;
    {
        JsonWriter w(meta);
        w.beginObject();
        w.field("schema", cache_schema);
        w.field("hash", hash);
        w.field("scenario", scenarioName);
        w.field("app", entry.app);
        w.field("machine", entry.machine);
        w.field("status", entry.status);
        w.field("seconds", entry.seconds);
        w.field("concurrency", entry.concurrency);
        w.key("artifacts").beginObject();
        w.field("summary", entry.summaryHash);
        w.field("metrics", entry.metricsHash);
        w.endObject();
        w.endObject();
    }
    atomicWriteFile(dir + "/entry.json", meta.str());
}

std::string
summaryPath(const std::string &outDir, const std::string &name)
{
    return outDir + "/" + name + ".json";
}

std::string
metricsPath(const std::string &outDir, const std::string &name)
{
    return outDir + "/" + name + ".metrics.json";
}

/** Publish the two per-scenario artifacts (atomic). */
void
publishArtifacts(const std::string &outDir, const std::string &name,
                 const std::string &summary, const std::string &metrics)
{
    atomicWriteFile(summaryPath(outDir, name), summary);
    atomicWriteFile(metricsPath(outDir, name), metrics);
}

/** Are the published artifacts intact per the journaled hashes? */
bool
publishedValid(const std::string &outDir, const std::string &name,
               const ManifestState &st)
{
    if (st.summaryHash.empty() || st.metricsHash.empty())
        return false;
    const auto summary = readFile(summaryPath(outDir, name));
    const auto metrics = readFile(metricsPath(outDir, name));
    return summary && metrics &&
           hashHex(fnv1a64(*summary)) == st.summaryHash &&
           hashHex(fnv1a64(*metrics)) == st.metricsHash;
}

/** Fill a row's table columns from a published summary document. */
void
rowMetaFromSummary(StudyRow &row, const std::string &summaryJson)
{
    try {
        const JsonValue doc = JsonValue::parse(summaryJson);
        row.app = doc.strOr("app");
        if (doc.has("machine"))
            row.machine = doc.at("machine").strOr("label");
        if (doc.has("run")) {
            row.seconds = doc.at("run").numOr("seconds");
            row.concurrency = doc.at("run").numOr("concurrency");
        }
    } catch (const tools::JsonParseError &) {
    }
}

void
checkDuplicateNames(const std::vector<StudyEntry> &entries)
{
    std::map<std::string, const StudyEntry *> byName;
    for (const auto &e : entries) {
        const auto [it, inserted] = byName.emplace(e.name, &e);
        if (!inserted)
            throw ConfigError(
                "duplicate scenario name '" + e.name + "': " +
                it->second->source + " and " + e.source +
                " would overwrite each other's '" + e.name +
                ".json' artifacts");
    }
}

std::string
sanitizeForName(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '.' || c == '_' || c == '-';
        out += ok ? c : '-';
    }
    return out;
}

} // namespace

const char *
toString(StudyState s)
{
    switch (s) {
      case StudyState::done: return "run";
      case StudyState::cached: return "cached";
      case StudyState::resumed: return "resumed";
      case StudyState::failed: return "failed";
      case StudyState::skipped: return "skipped";
    }
    return "?";
}

StudyEntry
loadScenarioEntry(const std::string &path)
{
    StudyEntry e;
    e.source = path;
    e.name = fs::path(path).stem().string();
    try {
        ScenarioSpec spec = parseScenarioFile(path);
        e.name = spec.name;
        e.hashValue = canonicalHashValue(spec);
        e.hash = hashHex(e.hashValue);
        e.spec = std::move(spec);
    } catch (const std::exception &ex) {
        e.parseError = ex.what();
        e.hashValue = fnv1a64(e.name);
    }
    return e;
}

std::vector<StudyEntry>
loadScenarioDir(const std::string &dir)
{
    if (!fs::is_directory(dir))
        throw ConfigError("study: not a directory: " + dir);
    std::vector<fs::path> files;
    for (const auto &de : fs::directory_iterator(dir))
        if (de.is_regular_file() && de.path().extension() == ".scn")
            files.push_back(de.path());
    std::sort(files.begin(), files.end());
    if (files.empty())
        throw ConfigError("study: no *.scn files in " + dir);
    std::vector<StudyEntry> entries;
    entries.reserve(files.size());
    for (const auto &p : files)
        entries.push_back(loadScenarioEntry(p.string()));
    checkDuplicateNames(entries);
    return entries;
}

GridAxis
parseGridAxis(const std::string &spec)
{
    const auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size())
        throw ConfigError("axis '" + spec +
                          "': expected section.key=v1,v2,...");
    const std::string lhs = spec.substr(0, eq);
    const auto dot = lhs.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 >= lhs.size())
        throw ConfigError("axis '" + spec +
                          "': key must be section.key (e.g. "
                          "machine.procs)");
    GridAxis axis;
    axis.section = lhs.substr(0, dot);
    axis.key = lhs.substr(dot + 1);
    if (axis.section != "machine" && axis.section != "costs" &&
        axis.section != "run" && axis.section != "workload" &&
        axis.section != "faults")
        throw ConfigError("axis '" + spec + "': section [" +
                          axis.section +
                          "] cannot be swept (machine, costs, run, "
                          "workload or faults)");
    std::string rest = spec.substr(eq + 1);
    std::size_t pos = 0;
    while (pos <= rest.size()) {
        const auto comma = rest.find(',', pos);
        const std::string v =
            rest.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        if (v.empty())
            throw ConfigError("axis '" + spec + "': empty value");
        axis.values.push_back(v);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return axis;
}

std::vector<StudyEntry>
expandScenarioGrid(const std::string &basePath,
                   const std::vector<GridAxis> &axes)
{
    // The base itself must parse — a broken base is a study-level
    // error, not a per-point one.
    const ScenarioSpec base = parseScenarioFile(basePath);
    const auto text = readFile(basePath);
    if (!text)
        throw ConfigError("cannot open scenario file: " + basePath);
    const auto slash = basePath.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "" : basePath.substr(0, slash);

    for (const auto &axis : axes)
        if (axis.values.empty())
            throw ConfigError("axis " + axis.section + "." + axis.key +
                              " has no values");
    if (axes.empty())
        return {loadScenarioEntry(basePath)};

    std::vector<StudyEntry> entries;
    std::vector<std::size_t> odo(axes.size(), 0);
    for (;;) {
        std::string name = base.name;
        std::string label;
        std::string overrides = "\n";
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const std::string &v = axes[a].values[odo[a]];
            name += "__" + axes[a].key + "-" + sanitizeForName(v);
            label += (label.empty() ? "" : ", ") + axes[a].section +
                     "." + axes[a].key + "=" + v;
            overrides += "[" + axes[a].section + "]\n" + axes[a].key +
                         " = " + v + "\n";
        }
        StudyEntry e;
        e.source = basePath + " (" + label + ")";
        e.name = name;
        try {
            std::istringstream is(*text + "\n[scenario]\nname = " +
                                  name + "\n" + overrides);
            ScenarioSpec spec = parseScenario(is, e.source, dir);
            spec.validate();
            e.hashValue = canonicalHashValue(spec);
            e.hash = hashHex(e.hashValue);
            e.spec = std::move(spec);
        } catch (const std::exception &ex) {
            e.parseError = ex.what();
            e.hashValue = fnv1a64(e.name);
        }
        entries.push_back(std::move(e));

        std::size_t a = axes.size();
        while (a > 0) {
            --a;
            if (++odo[a] < axes[a].values.size())
                break;
            odo[a] = 0;
            if (a == 0)
                goto expanded;
        }
    }
expanded:
    checkDuplicateNames(entries);
    return entries;
}

int
StudyReport::exitCode() const
{
    bool hardError = false, lostProgress = false;
    for (const auto &row : rows) {
        if (row.state != StudyState::failed)
            continue;
        if (row.status == "parse-error" || row.status == "error")
            hardError = true;
        else
            lostProgress = true;
    }
    return hardError ? 1 : lostProgress ? 3 : 0;
}

namespace
{

/** One scenario's snapshot record in <out>/manifest.json. */
struct SnapRec
{
    std::string hash;
    std::string state; //!< "done" or "failed"
    std::string status;
    std::string error;
    std::string summaryHash;
    std::string metricsHash;
};

/**
 * Rewrite the deterministic manifest snapshot: the journal's fold,
 * sorted by scenario name, without wall times or attempt counts —
 * so an interrupted-then-resumed study converges to the same bytes
 * as an uninterrupted one.
 */
void
writeSnapshot(const std::string &outDir,
              const std::map<std::string, SnapRec> &recs)
{
    atomicWriteFile(outDir + "/manifest.json", [&](std::ostream &os) {
        JsonWriter w(os);
        w.beginObject();
        w.field("schema", "cedar-manifest-v1");
        w.field("kind", "snapshot");
        unsigned done = 0, failed = 0;
        w.key("scenarios").beginArray();
        for (const auto &[name, rec] : recs) {
            (rec.state == "done" ? done : failed) += 1;
            w.beginObject();
            w.field("name", name);
            w.field("hash", rec.hash);
            w.field("state", rec.state);
            w.field("status", rec.status);
            if (!rec.error.empty())
                w.field("error", rec.error);
            if (!rec.summaryHash.empty()) {
                w.key("artifacts").beginObject();
                w.field("summary", rec.summaryHash);
                w.field("metrics", rec.metricsHash);
                w.endObject();
            }
            w.endObject();
        }
        w.endArray();
        w.key("counts").beginObject();
        w.field("done", done);
        w.field("failed", failed);
        w.endObject();
        w.endObject();
    });
}

double
msSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

StudyReport
runStudy(const std::vector<StudyEntry> &entries,
         const StudyOptions &opts)
{
    if (opts.shardCount == 0 || opts.shardIndex >= opts.shardCount)
        throw ConfigError("study: shard index " +
                          std::to_string(opts.shardIndex) +
                          " out of range for " +
                          std::to_string(opts.shardCount) + " shard(s)");
    fs::create_directories(opts.outDir);
    const std::string cacheDir =
        opts.cacheDir.empty() ? opts.outDir + "/cache" : opts.cacheDir;
    fs::create_directories(cacheDir);

    const std::string journalPath = opts.outDir + "/manifest.jsonl";
    std::map<std::string, ManifestState> prior;
    if (opts.resume)
        prior = readManifest(journalPath);
    ManifestJournal journal(journalPath, opts.resume);

    StudyReport rep;
    rep.rows.resize(entries.size());
    // summary/metrics artifact hashes per row, for the snapshot.
    std::vector<std::array<std::string, 2>> artHashes(entries.size());

    auto notify = [&](const StudyEntry &e, StudyState s,
                      const std::string &detail) {
        if (opts.onScenario)
            opts.onScenario(e, s, detail);
    };

    // Classification pass (serial, cheap): shard filter, parse
    // failures, resume verification and cache probes. Only genuine
    // runs go to the thread pool.
    std::vector<std::size_t> toRun;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const StudyEntry &e = entries[i];
        StudyRow &row = rep.rows[i];
        row.name = e.name;
        row.source = e.source;
        row.hash = e.hash;

        if (e.hashValue % opts.shardCount != opts.shardIndex) {
            row.state = StudyState::skipped;
            ++rep.skipped;
            continue;
        }
        if (!e.parseError.empty()) {
            row.state = StudyState::failed;
            row.status = "parse-error";
            row.error = e.parseError;
            row.attempts = 1;
            journal.failed(e.name, e.hash, 1, row.status, row.error,
                           0.0);
            ++rep.failed;
            notify(e, row.state, row.error);
            continue;
        }
        const auto it = prior.find(e.name);
        if (it != prior.end() &&
            it->second.last == ManifestState::Last::done &&
            it->second.hash == e.hash &&
            publishedValid(opts.outDir, e.name, it->second)) {
            row.state = StudyState::resumed;
            row.status = it->second.status;
            artHashes[i] = {it->second.summaryHash,
                            it->second.metricsHash};
            if (const auto hit = probeCache(cacheDir, e.hash)) {
                row.machine = hit->machine;
                row.app = hit->app;
                row.seconds = hit->seconds;
                row.concurrency = hit->concurrency;
            } else if (const auto summary =
                           readFile(summaryPath(opts.outDir, e.name))) {
                rowMetaFromSummary(row, *summary);
            }
            ++rep.resumed;
            notify(e, row.state, row.status);
            continue;
        }
        if (const auto hit = probeCache(cacheDir, e.hash)) {
            publishArtifacts(opts.outDir, e.name, hit->summary,
                             hit->metrics);
            journal.cached(e.name, e.hash, hit->status,
                           hit->summaryHash, hit->metricsHash);
            row.state = StudyState::cached;
            row.status = hit->status;
            row.machine = hit->machine;
            row.app = hit->app;
            row.seconds = hit->seconds;
            row.concurrency = hit->concurrency;
            artHashes[i] = {hit->summaryHash, hit->metricsHash};
            ++rep.cached;
            notify(e, row.state, row.status);
            continue;
        }
        toRun.push_back(i);
    }

    parallelFor(toRun.size(), opts.jobs, [&](std::size_t k) {
        const std::size_t i = toRun[k];
        const StudyEntry &e = entries[i];
        StudyRow &row = rep.rows[i];
        ScenarioSpec spec = *e.spec;
        if (opts.watchdogEvents)
            spec.options.watchdogEvents = *opts.watchdogEvents;
        const auto pr = prior.find(e.name);
        const unsigned baseAttempt =
            pr == prior.end() ? 0 : pr->second.attempts;

        for (unsigned att = 1; att <= opts.retries + 1; ++att) {
            const unsigned attempt = baseAttempt + att;
            row.attempts = attempt;
            journal.start(e.name, e.hash, e.source, attempt);
            const auto t0 = std::chrono::steady_clock::now();
            try {
                const RunResult r = runScenario(spec);
                row.wallMs = msSince(t0);
                if (r.status == sim::RunStatus::Deadlock ||
                    r.status == sim::RunStatus::EventLimit) {
                    row.state = StudyState::failed;
                    row.status = sim::toString(r.status);
                    row.error =
                        r.status == sim::RunStatus::Deadlock
                            ? "no forward progress (deadlock or "
                              "livelock watchdog)"
                            : "event budget exhausted before "
                              "completion";
                    journal.failed(e.name, e.hash, attempt,
                                   row.status, row.error, row.wallMs);
                    continue; // bounded retry
                }
                std::ostringstream sum, met;
                writeScenarioSummary(sum, spec, r);
                r.metrics.writeJson(met);
                CacheEntry ce;
                ce.summary = sum.str();
                ce.metrics = met.str();
                ce.summaryHash = hashHex(fnv1a64(ce.summary));
                ce.metricsHash = hashHex(fnv1a64(ce.metrics));
                ce.status = sim::toString(r.status);
                ce.machine = spec.config.label();
                ce.app = r.app;
                ce.seconds = r.seconds();
                ce.concurrency = r.machineConcurrency;
                storeCache(cacheDir, e.hash, e.name, ce);
                publishArtifacts(opts.outDir, e.name, ce.summary,
                                 ce.metrics);
                journal.done(e.name, e.hash, attempt, ce.status,
                             row.wallMs, ce.summaryHash,
                             ce.metricsHash);
                row.state = StudyState::done;
                row.status = ce.status;
                row.error.clear();
                row.machine = ce.machine;
                row.app = ce.app;
                row.seconds = ce.seconds;
                row.concurrency = ce.concurrency;
                artHashes[i] = {ce.summaryHash, ce.metricsHash};
                break;
            } catch (const std::exception &ex) {
                row.wallMs = msSince(t0);
                row.state = StudyState::failed;
                row.status = "error";
                row.error = ex.what();
                journal.failed(e.name, e.hash, attempt, row.status,
                               row.error, row.wallMs);
            }
        }
        notify(e, row.state,
               row.state == StudyState::failed ? row.error
                                               : row.status);
    });

    for (const std::size_t i : toRun)
        (rep.rows[i].state == StudyState::done ? rep.ran
                                               : rep.failed) += 1;

    // Deterministic snapshot: prior journal state (resume) overlaid
    // with everything this invocation decided.
    std::map<std::string, SnapRec> snap;
    for (const auto &[name, st] : prior) {
        if (st.last == ManifestState::Last::none)
            continue;
        SnapRec rec;
        rec.hash = st.hash;
        rec.state =
            st.last == ManifestState::Last::done ? "done" : "failed";
        rec.status = st.status;
        rec.error = st.error;
        rec.summaryHash = st.summaryHash;
        rec.metricsHash = st.metricsHash;
        snap[name] = rec;
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const StudyRow &row = rep.rows[i];
        if (row.state == StudyState::skipped)
            continue;
        SnapRec rec;
        rec.hash = row.hash;
        rec.state =
            row.state == StudyState::failed ? "failed" : "done";
        rec.status = row.status;
        rec.error = row.error;
        rec.summaryHash = artHashes[i][0];
        rec.metricsHash = artHashes[i][1];
        snap[row.name] = rec;
    }
    writeSnapshot(opts.outDir, snap);
    return rep;
}

} // namespace cedar::core
