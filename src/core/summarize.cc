#include "core/summarize.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "bench_json.hh"
#include "core/study.hh"
#include "obs/resource.hh"
#include "sim/error.hh"
#include "sim/stats.hh"

namespace cedar::core
{

namespace
{

using sim::ConfigError;
using tools::JsonValue;
using tools::JsonWriter;

std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw ConfigError("summarize: cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Parse with the file name attached to the diagnostic. */
JsonValue
parseDoc(const std::string &path, const std::string &text)
{
    try {
        return JsonValue::parse(text);
    } catch (const tools::JsonParseError &e) {
        throw ConfigError("summarize: " + path + ": " + e.what());
    }
}

/** Merge one scenario's two artifacts into the in-memory record. */
SummaryScenario
loadScenario(const std::string &dir, const std::string &name,
             const std::string &hash)
{
    const std::string sumPath = dir + "/" + name + ".json";
    const std::string metPath = dir + "/" + name + ".metrics.json";
    const JsonValue sum = parseDoc(sumPath, slurpFile(sumPath));
    const JsonValue met = parseDoc(metPath, slurpFile(metPath));
    if (sum.strOr("schema") != "cedar-scenario-v1")
        throw ConfigError("summarize: " + sumPath +
                          ": not a cedar-scenario-v1 document");
    if (met.strOr("schema") != "cedar-metrics-v1")
        throw ConfigError("summarize: " + metPath +
                          ": not a cedar-metrics-v1 document");

    constexpr auto max_unsigned = std::numeric_limits<unsigned>::max();
    SummaryScenario s;
    s.name = name;
    s.hash = hash;
    // A field of the wrong type, or a count that is negative,
    // fractional or out of range, names the file it came from.
    const std::string *path = &sumPath;
    try {
        s.app = sum.strOr("app");
        const JsonValue &mach = sum.at("machine");
        s.machineLabel = mach.strOr("label");
        s.nprocs = static_cast<unsigned>(mach.countOr("nprocs", max_unsigned));
        s.seed = mach.countOr("seed");
        const JsonValue &run = sum.at("run");
        s.status = run.strOr("status");
        s.scale = run.numOr("scale", 1.0);
        s.ct = run.countOr("ct_ticks");
        s.seconds = run.numOr("seconds");
        s.concurrency = run.numOr("concurrency");
        s.eventsExecuted = run.countOr("events_executed");
        const JsonValue &con = sum.at("contention");
        s.groundTruthPct = con.numOr("ground_truth_pct");
        s.moduleGini = con.numOr("module_gini");

        path = &metPath;
        s.totalWaitTicks = met.countOr("total_wait_ticks");
        for (const JsonValue &c : met.at("classes").asArray()) {
            SummaryScenario::ClassRow row;
            row.cls = c.strOr("class");
            row.resources =
                static_cast<unsigned>(c.countOr("resources", max_unsigned));
            row.requests = c.countOr("requests");
            row.waitTicks = c.countOr("wait_ticks");
            row.busyTicks = c.countOr("busy_ticks");
            row.utilization = c.numOr("utilization");
            row.waitShare = c.numOr("wait_share");
            if (c.has("wait_hist")) {
                const JsonValue &h = c.at("wait_hist");
                row.histWidth = h.countOr("bucket_width");
                row.histMax = h.countOr("max");
                for (const JsonValue &b : h.at("buckets").asArray())
                    row.histBuckets.push_back(b.asCount());
            }
            s.classes.push_back(std::move(row));
        }
        if (met.has("hot_spots"))
            for (const JsonValue &h : met.at("hot_spots").asArray()) {
                SummaryScenario::HotSpot hs;
                hs.name = h.strOr("name");
                hs.cls = h.strOr("class");
                hs.waitTicks = h.countOr("wait_ticks");
                hs.waitShare = h.numOr("wait_share");
                s.hotSpots.push_back(std::move(hs));
            }
    } catch (const tools::JsonParseError &e) {
        throw ConfigError("summarize: " + *path + ": " + e.what());
    }
    return s;
}

/**
 * Walk one study directory's manifest snapshot and fold every
 * completed scenario into @p scenarios (failed ones into
 * @p failures). Duplicates across directories are the shard-union
 * case: identical hashes collapse to one record, diverging hashes
 * mean the directories came from different studies and throw.
 */
void
loadStudyDirInto(const std::string &dir,
                 std::map<std::string, SummaryScenario> &scenarios,
                 std::map<std::string, SummaryFailure> &failures)
{
    const std::string manPath = dir + "/manifest.json";
    const JsonValue man = parseDoc(manPath, slurpFile(manPath));
    if (man.strOr("schema") != "cedar-manifest-v1" ||
        man.strOr("kind") != "snapshot")
        throw ConfigError("summarize: " + manPath +
                          ": not a cedar-manifest-v1 snapshot (is " +
                          dir + " a study output directory?)");
    for (const JsonValue &e : man.at("scenarios").asArray()) {
        const std::string name = e.strOr("name");
        const std::string hash = e.strOr("hash");
        const std::string state = e.strOr("state");
        if (state != "done") {
            SummaryFailure f;
            f.name = name;
            f.status = e.strOr("status");
            f.error = e.strOr("error");
            failures.emplace(name, std::move(f));
            continue;
        }
        const auto prior = scenarios.find(name);
        if (prior != scenarios.end()) {
            if (prior->second.hash != hash)
                throw ConfigError(
                    "summarize: scenario '" + name +
                    "' appears with different canonical hashes (" +
                    prior->second.hash + " vs " + hash +
                    ") — the directories are not shards of one study");
            continue; // same run published twice (overlapping shards)
        }
        SummaryScenario s = loadScenario(dir, name, hash);
        // Verify the artifacts against the journaled content hashes
        // when the snapshot carries them — a torn or hand-edited
        // artifact must not silently skew the aggregates.
        if (e.has("artifacts")) {
            const JsonValue &a = e.at("artifacts");
            const std::string sumHash = hashHex(
                fnv1a64(slurpFile(dir + "/" + name + ".json")));
            const std::string metHash = hashHex(fnv1a64(
                slurpFile(dir + "/" + name + ".metrics.json")));
            if (sumHash != a.strOr("summary") ||
                metHash != a.strOr("metrics"))
                throw ConfigError("summarize: " + dir + "/" + name +
                                  ".json: artifact does not match the "
                                  "manifest's content hash");
        }
        scenarios.emplace(name, std::move(s));
    }
}

// ---------------------------------------------------------------
// Speedup surface: regroup grid points by name with the machine-
// geometry axis tokens stripped, so `ADM__procs-4__scale-0.1` and
// `ADM__procs-16__scale-0.1` land in one row keyed
// `ADM__scale-0.1`.
// ---------------------------------------------------------------

bool
isGeometryToken(const std::string &token)
{
    for (const char *key :
         {"procs-", "clusters-", "ces_per_cluster-"})
        if (token.rfind(key, 0) == 0)
            return true;
    return false;
}

std::string
stripGeometryTokens(const std::string &name)
{
    std::string out;
    std::size_t pos = 0;
    while (pos <= name.size()) {
        const std::size_t next = name.find("__", pos);
        const std::string token =
            name.substr(pos, next == std::string::npos ? std::string::npos
                                                       : next - pos);
        if (pos == 0 || !isGeometryToken(token)) {
            if (!out.empty())
                out += "__";
            out += token;
        }
        if (next == std::string::npos)
            break;
        pos = next + 2;
    }
    return out;
}

std::vector<SpeedupRow>
buildSpeedup(const std::vector<SummaryScenario> &scenarios)
{
    std::map<std::pair<std::string, std::string>, SpeedupRow> rows;
    for (const SummaryScenario &s : scenarios) {
        SpeedupRow &row = rows[{s.app, stripGeometryTokens(s.name)}];
        row.app = s.app;
        row.base = stripGeometryTokens(s.name);
        SpeedupPoint p;
        p.name = s.name;
        p.nprocs = s.nprocs;
        p.seconds = s.seconds;
        p.concurrency = s.concurrency;
        row.points.push_back(std::move(p));
    }
    std::vector<SpeedupRow> out;
    for (auto &[key, row] : rows) {
        std::sort(row.points.begin(), row.points.end(),
                  [](const SpeedupPoint &a, const SpeedupPoint &b) {
                      return a.nprocs != b.nprocs
                                 ? a.nprocs < b.nprocs
                                 : a.name < b.name;
                  });
        const double base = row.points.front().seconds;
        for (SpeedupPoint &p : row.points)
            p.speedup = p.seconds > 0 ? base / p.seconds : 0.0;
        out.push_back(std::move(row));
    }
    return out; // map order == sorted by (app, base)
}

std::vector<ClassLeague>
buildClassLeagues(const std::vector<SummaryScenario> &scenarios,
                  std::size_t top)
{
    std::vector<ClassLeague> out;
    for (unsigned c = 0; c < obs::num_resource_classes; ++c) {
        ClassLeague league;
        league.cls =
            obs::toString(static_cast<obs::ResourceClass>(c));
        for (const SummaryScenario &s : scenarios)
            for (const auto &row : s.classes) {
                if (row.cls != league.cls || row.waitTicks == 0)
                    continue;
                LeagueRow lr;
                lr.scenario = s.name;
                lr.waitTicks = row.waitTicks;
                lr.waitPerKtick =
                    s.ct > 0 ? 1000.0 *
                                   static_cast<double>(row.waitTicks) /
                                   static_cast<double>(s.ct)
                             : 0.0;
                lr.waitShare = row.waitShare;
                lr.utilization = row.utilization;
                league.rows.push_back(std::move(lr));
            }
        std::sort(league.rows.begin(), league.rows.end(),
                  [](const LeagueRow &a, const LeagueRow &b) {
                      return a.waitPerKtick != b.waitPerKtick
                                 ? a.waitPerKtick > b.waitPerKtick
                                 : a.scenario < b.scenario;
                  });
        if (league.rows.size() > top)
            league.rows.resize(top);
        if (!league.rows.empty())
            out.push_back(std::move(league));
    }
    return out;
}

std::vector<HotSpotRow>
buildHotSpots(const std::vector<SummaryScenario> &scenarios,
              std::size_t top)
{
    std::map<std::string, HotSpotRow> agg;
    for (const SummaryScenario &s : scenarios)
        for (const auto &hs : s.hotSpots) {
            HotSpotRow &row = agg[hs.name];
            row.name = hs.name;
            row.cls = hs.cls;
            row.runs += 1;
            row.totalWaitTicks += hs.waitTicks;
            row.meanWaitShare += hs.waitShare; // sum; divided below
            row.maxWaitShare =
                std::max(row.maxWaitShare, hs.waitShare);
        }
    std::vector<HotSpotRow> out;
    for (auto &[name, row] : agg) {
        row.meanWaitShare /= row.runs;
        out.push_back(std::move(row));
    }
    std::sort(out.begin(), out.end(),
              [](const HotSpotRow &a, const HotSpotRow &b) {
                  return a.totalWaitTicks != b.totalWaitTicks
                             ? a.totalWaitTicks > b.totalWaitTicks
                             : a.name < b.name;
              });
    if (out.size() > top)
        out.resize(top);
    return out;
}

std::vector<MergedHist>
buildMergedHists(const std::vector<SummaryScenario> &scenarios)
{
    // Per class: rebuild every run's histogram and fold with
    // Histogram::merge, so the cross-run percentiles carry a single
    // run's exact semantics (ceil percentile, overflow clamp to the
    // largest observed sample).
    std::map<std::string, std::pair<sim::Histogram, unsigned>> merged;
    for (const SummaryScenario &s : scenarios)
        for (const auto &row : s.classes) {
            if (row.histBuckets.empty() || row.requests == 0)
                continue;
            sim::Histogram h = sim::Histogram::fromBuckets(
                row.histWidth, row.histBuckets, row.histMax);
            auto it = merged.find(row.cls);
            if (it == merged.end())
                merged.emplace(row.cls,
                               std::make_pair(std::move(h), 1u));
            else {
                it->second.first.merge(h);
                it->second.second += 1;
            }
        }
    std::vector<MergedHist> out;
    for (unsigned c = 0; c < obs::num_resource_classes; ++c) {
        const std::string cls =
            obs::toString(static_cast<obs::ResourceClass>(c));
        const auto it = merged.find(cls);
        if (it == merged.end())
            continue;
        const sim::Histogram &h = it->second.first;
        MergedHist m;
        m.cls = cls;
        m.runs = it->second.second;
        m.count = h.count();
        m.max = h.maxSample();
        m.p50 = h.percentile(0.50);
        m.p95 = h.percentile(0.95);
        m.p99 = h.percentile(0.99);
        out.push_back(std::move(m));
    }
    return out;
}

/**
 * Baseline comparison, following the bench_delta conventions: match
 * scenarios by name, report relative deltas, and emit deterministic
 * provenance notes whenever the matched pair is not comparable
 * like-for-like (different scale, seed or machine).
 */
void
buildBaseline(const SummarizeOptions &opts, Summary &s)
{
    std::map<std::string, SummaryScenario> base;
    std::map<std::string, SummaryFailure> baseFail;
    loadStudyDirInto(opts.baselineDir, base, baseFail);
    s.haveBaseline = true;
    s.baselineScenarios = static_cast<unsigned>(base.size());

    unsigned unmatchedNew = 0, unmatchedOld = 0;
    for (const SummaryScenario &cur : s.scenarios) {
        const auto it = base.find(cur.name);
        if (it == base.end()) {
            ++unmatchedNew;
            continue;
        }
        const SummaryScenario &old = it->second;
        if (old.scale != cur.scale)
            s.notes.push_back("scenario '" + cur.name +
                              "': scale differs from baseline (" +
                              JsonWriter::number(old.scale) + " vs " +
                              JsonWriter::number(cur.scale) +
                              ") — delta not like-for-like");
        if (old.seed != cur.seed)
            s.notes.push_back("scenario '" + cur.name +
                              "': seed differs from baseline — delta "
                              "not like-for-like");
        if (old.machineLabel != cur.machineLabel)
            s.notes.push_back("scenario '" + cur.name +
                              "': machine differs from baseline (" +
                              old.machineLabel + " vs " +
                              cur.machineLabel +
                              ") — delta not like-for-like");
        BaselineDelta d;
        d.name = cur.name;
        d.secondsPct = old.seconds > 0 ? (cur.seconds - old.seconds) /
                                             old.seconds * 100.0
                                       : 0.0;
        d.dConcurrency = cur.concurrency - old.concurrency;
        d.dGroundTruthPct = cur.groundTruthPct - old.groundTruthPct;
        s.deltas.push_back(std::move(d));
    }
    for (const auto &[name, old] : base)
        if (std::none_of(s.scenarios.begin(), s.scenarios.end(),
                         [&name = name](const SummaryScenario &c) {
                             return c.name == name;
                         }))
            ++unmatchedOld;
    if (unmatchedNew > 0)
        s.notes.push_back(std::to_string(unmatchedNew) +
                          " scenario(s) have no baseline counterpart");
    if (unmatchedOld > 0)
        s.notes.push_back(std::to_string(unmatchedOld) +
                          " baseline scenario(s) are absent here");
}

/** Fixed-precision decimal — deterministic markdown cells. */
std::string
fmt(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return buf;
}

} // namespace

Summary
buildSummary(const SummarizeOptions &opts)
{
    if (opts.dirs.empty())
        throw ConfigError(
            "summarize: at least one study directory required");
    if (opts.top == 0)
        throw ConfigError("summarize: --top must be >= 1");

    // Name-keyed maps make the merge independent of directory order
    // and of which shard published which scenario.
    std::map<std::string, SummaryScenario> scenarios;
    std::map<std::string, SummaryFailure> failures;
    for (const std::string &dir : opts.dirs)
        loadStudyDirInto(dir, scenarios, failures);

    Summary s;
    s.top = opts.top;
    for (auto &[name, sc] : scenarios)
        s.scenarios.push_back(std::move(sc));
    for (auto &[name, f] : failures) {
        // A scenario can fail in one shard's view yet complete in
        // another directory (e.g. a retried resume); completed wins.
        if (std::any_of(s.scenarios.begin(), s.scenarios.end(),
                        [&name = name](const SummaryScenario &sc) {
                            return sc.name == name;
                        }))
            continue;
        s.failures.push_back(std::move(f));
    }

    std::map<std::string, bool> apps;
    for (const SummaryScenario &sc : s.scenarios)
        apps[sc.app] = true;
    for (const auto &[app, used] : apps)
        s.apps.push_back(app);

    s.speedup = buildSpeedup(s.scenarios);
    s.classLeagues = buildClassLeagues(s.scenarios, s.top);
    s.hotSpots = buildHotSpots(s.scenarios, s.top);
    s.mergedHists = buildMergedHists(s.scenarios);

    if (!opts.baselineDir.empty())
        buildBaseline(opts, s);
    return s;
}

void
writeSummaryJson(std::ostream &os, const Summary &s)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "cedar-summary-v1");
    w.key("counts").beginObject();
    w.field("scenarios", static_cast<unsigned>(s.scenarios.size()));
    w.field("failures", static_cast<unsigned>(s.failures.size()));
    w.field("apps", static_cast<unsigned>(s.apps.size()));
    w.endObject();
    w.field("top", static_cast<std::uint64_t>(s.top));

    w.key("apps").beginArray();
    for (const std::string &a : s.apps)
        w.value(a);
    w.endArray();

    w.key("scenarios").beginArray();
    for (const SummaryScenario &sc : s.scenarios) {
        w.beginObject();
        w.field("name", sc.name);
        w.field("hash", sc.hash);
        w.field("app", sc.app);
        w.field("machine", sc.machineLabel);
        w.field("nprocs", sc.nprocs);
        w.field("scale", sc.scale);
        w.field("seed", sc.seed);
        w.field("status", sc.status);
        w.field("ct_ticks", static_cast<std::uint64_t>(sc.ct));
        w.field("seconds", sc.seconds);
        w.field("concurrency", sc.concurrency);
        w.field("events_executed", sc.eventsExecuted);
        w.field("ground_truth_pct", sc.groundTruthPct);
        w.field("module_gini", sc.moduleGini);
        w.field("total_wait_ticks",
                static_cast<std::uint64_t>(sc.totalWaitTicks));
        w.endObject();
    }
    w.endArray();

    w.key("failures").beginArray();
    for (const SummaryFailure &f : s.failures) {
        w.beginObject();
        w.field("name", f.name);
        w.field("status", f.status);
        if (!f.error.empty())
            w.field("error", f.error);
        w.endObject();
    }
    w.endArray();

    w.key("speedup").beginArray();
    for (const SpeedupRow &row : s.speedup) {
        w.beginObject();
        w.field("app", row.app);
        w.field("base", row.base);
        w.key("points").beginArray();
        for (const SpeedupPoint &p : row.points) {
            w.beginObject();
            w.field("name", p.name);
            w.field("nprocs", p.nprocs);
            w.field("seconds", p.seconds);
            w.field("speedup", p.speedup);
            w.field("concurrency", p.concurrency);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.key("class_leagues").beginArray();
    for (const ClassLeague &league : s.classLeagues) {
        w.beginObject();
        w.field("class", league.cls);
        w.key("rows").beginArray();
        for (const LeagueRow &r : league.rows) {
            w.beginObject();
            w.field("scenario", r.scenario);
            w.field("wait_ticks", r.waitTicks);
            w.field("wait_per_ktick", r.waitPerKtick);
            w.field("wait_share", r.waitShare);
            w.field("utilization", r.utilization);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.key("hot_spots").beginArray();
    for (const HotSpotRow &h : s.hotSpots) {
        w.beginObject();
        w.field("name", h.name);
        w.field("class", h.cls);
        w.field("runs", h.runs);
        w.field("wait_ticks", h.totalWaitTicks);
        w.field("mean_wait_share", h.meanWaitShare);
        w.field("max_wait_share", h.maxWaitShare);
        w.endObject();
    }
    w.endArray();

    w.key("merged_wait_hists").beginArray();
    for (const MergedHist &m : s.mergedHists) {
        w.beginObject();
        w.field("class", m.cls);
        w.field("runs", m.runs);
        w.field("count", m.count);
        w.field("max", static_cast<std::uint64_t>(m.max));
        w.field("p50", static_cast<std::uint64_t>(m.p50));
        w.field("p95", static_cast<std::uint64_t>(m.p95));
        w.field("p99", static_cast<std::uint64_t>(m.p99));
        w.endObject();
    }
    w.endArray();

    if (s.haveBaseline) {
        w.key("baseline").beginObject();
        w.field("scenarios", s.baselineScenarios);
        w.key("deltas").beginArray();
        for (const BaselineDelta &d : s.deltas) {
            w.beginObject();
            w.field("name", d.name);
            w.field("seconds_pct", d.secondsPct);
            w.field("d_concurrency", d.dConcurrency);
            w.field("d_ground_truth_pct", d.dGroundTruthPct);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    w.key("notes").beginArray();
    for (const std::string &n : s.notes)
        w.value(n);
    w.endArray();
    w.endObject();
    os << "\n";
}

void
writeSummaryMarkdown(std::ostream &os, const Summary &s)
{
    os << "# Cedar study summary\n\n";
    os << s.scenarios.size() << " scenario(s), "
       << s.failures.size() << " failure(s), " << s.apps.size()
       << " app(s)";
    if (!s.apps.empty()) {
        os << " (";
        for (std::size_t i = 0; i < s.apps.size(); ++i)
            os << (i ? ", " : "") << s.apps[i];
        os << ")";
    }
    os << ".\n";

    if (!s.speedup.empty()) {
        os << "\n## Speedup surface\n\n"
           << "Speedup is against each row's smallest machine.\n";
        std::string lastApp;
        for (const SpeedupRow &row : s.speedup) {
            if (row.app != lastApp) {
                lastApp = row.app;
                os << "\n### " << row.app << "\n\n"
                   << "| point | procs | seconds | speedup | "
                      "concurrency |\n"
                   << "|---|---:|---:|---:|---:|\n";
            }
            for (const SpeedupPoint &p : row.points)
                os << "| " << p.name << " | " << p.nprocs << " | "
                   << fmt(p.seconds, 6) << " | " << fmt(p.speedup, 2)
                   << "x | " << fmt(p.concurrency, 2) << " |\n";
        }
    }

    if (!s.classLeagues.empty()) {
        os << "\n## Contention league tables\n\n"
           << "Per resource class, the scenarios ranked by wait "
              "intensity (wait ticks per kilotick of run).\n";
        for (const ClassLeague &league : s.classLeagues) {
            os << "\n### " << league.cls << "\n\n"
               << "| # | scenario | wait ticks | wait/ktick | "
                  "wait share | utilization |\n"
               << "|---:|---|---:|---:|---:|---:|\n";
            unsigned rank = 1;
            for (const LeagueRow &r : league.rows)
                os << "| " << rank++ << " | " << r.scenario << " | "
                   << r.waitTicks << " | " << fmt(r.waitPerKtick, 2)
                   << " | " << fmt(100.0 * r.waitShare, 1) << "% | "
                   << fmt(100.0 * r.utilization, 1) << "% |\n";
        }
    }

    if (!s.hotSpots.empty()) {
        os << "\n## Hot spots (cross-study)\n\n"
           << "| # | resource | class | runs | total wait | "
              "mean share | max share |\n"
           << "|---:|---|---|---:|---:|---:|---:|\n";
        unsigned rank = 1;
        for (const HotSpotRow &h : s.hotSpots)
            os << "| " << rank++ << " | " << h.name << " | " << h.cls
               << " | " << h.runs << " | " << h.totalWaitTicks
               << " | " << fmt(100.0 * h.meanWaitShare, 1) << "% | "
               << fmt(100.0 * h.maxWaitShare, 1) << "% |\n";
    }

    if (!s.mergedHists.empty()) {
        os << "\n## Merged wait histograms\n\n"
           << "| class | runs | samples | p50 | p95 | p99 | max |\n"
           << "|---|---:|---:|---:|---:|---:|---:|\n";
        for (const MergedHist &m : s.mergedHists)
            os << "| " << m.cls << " | " << m.runs << " | " << m.count
               << " | " << m.p50 << " | " << m.p95 << " | " << m.p99
               << " | " << m.max << " |\n";
    }

    if (s.haveBaseline) {
        os << "\n## Baseline deltas\n\n"
           << s.deltas.size() << " matched scenario(s) of "
           << s.baselineScenarios << " baseline scenario(s).\n";
        if (!s.deltas.empty()) {
            os << "\n| scenario | seconds | concurrency | "
                  "ground truth |\n"
               << "|---|---:|---:|---:|\n";
            for (const BaselineDelta &d : s.deltas)
                os << "| " << d.name << " | "
                   << (d.secondsPct >= 0 ? "+" : "")
                   << fmt(d.secondsPct, 2) << "% | "
                   << (d.dConcurrency >= 0 ? "+" : "")
                   << fmt(d.dConcurrency, 3) << " | "
                   << (d.dGroundTruthPct >= 0 ? "+" : "")
                   << fmt(d.dGroundTruthPct, 2) << "pp |\n";
        }
    }

    if (!s.failures.empty()) {
        os << "\n## Failures\n\n| scenario | status | error |\n"
           << "|---|---|---|\n";
        for (const SummaryFailure &f : s.failures)
            os << "| " << f.name << " | " << f.status << " | "
               << f.error << " |\n";
    }

    if (!s.notes.empty()) {
        os << "\n## Notes\n\n";
        for (const std::string &n : s.notes)
            os << "- " << n << "\n";
    }
}

} // namespace cedar::core
