/**
 * @file
 * `cedarbench compare --parent A.json... --change B.json...`: judge a
 * change against its parent, with the bounds BENCHMARK.json fixes.
 *
 * Per workload and end-to-end metric it prints both sides' median and
 * quartiles, the share of pairs the change won (the i-th parent run of
 * a workload against its i-th change run; ties count for neither
 * side) and a verdict:
 *
 *  - `unresolved`: the parent's own runs spread (q3 - q1, over the
 *    median) wider than the bound, and not every change run beat
 *    every parent run (then `better`);
 *  - `REGRESSION`: the change's median is worse by more than the bound;
 *  - `gain`: over at least ten pairs, the change won at least 9/10 of
 *    them and the medians differ by more than the parent's
 *    interquartile distance;
 *  - `same` otherwise.
 *
 * Exact metrics (simulated counts) are compared run by run, matched by
 * workload, seed and tracing; any difference is `model changed`.
 * Per-layer host times are listed with their change in median, without
 * a verdict. The exit code is 1 when any metric regressed.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>

#include "bench.hh"
#include "bench_json.hh"

namespace cedarbench
{

using cedar::tools::JsonValue;

namespace
{

/** One run as read back from a result file. */
struct LoadedRun
{
    std::string workload;
    std::uint64_t seed = 0;
    bool traced = false;
    std::map<std::string, Metric> metrics;
};

JsonValue
readJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    return JsonValue::parse(ss.str());
}

/** Every run in @p files, with the metrics named in @p names (JsonValue
 *  looks members up by name; it does not list them). */
std::vector<LoadedRun>
loadRuns(const std::vector<std::string> &files,
         const std::vector<std::string> &names)
{
    std::vector<LoadedRun> out;
    for (const auto &f : files) {
        const JsonValue doc = readJson(f);
        for (const auto &r : doc.at("runs").asArray()) {
            LoadedRun lr;
            lr.workload = r.at("workload").asString();
            lr.seed = static_cast<std::uint64_t>(r.at("seed").asNumber());
            lr.traced = r.at("traced").asBool();
            const JsonValue &ms = r.at("metrics");
            for (const auto &name : names) {
                if (!ms.has(name))
                    continue;
                const JsonValue &m = ms.at(name);
                lr.metrics[name] = {name, m.at("value").asNumber(),
                                    m.at("unit").asString(),
                                    m.at("exact").asBool(),
                                    m.at("end_to_end").asBool()};
            }
            out.push_back(std::move(lr));
        }
    }
    return out;
}

/** An end-to-end metric as BENCHMARK.json defines it. */
struct Spec
{
    std::string name;
    bool lowerBetter = true;
    double bound = 0;
};

std::string
num(double v)
{
    std::ostringstream os;
    os << std::setprecision(4) << v;
    return os.str();
}

} // namespace

int
compareMain(const std::vector<std::string> &args)
{
    std::vector<std::string> parentFiles, changeFiles;
    std::vector<std::string> *side = nullptr;
    for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "--parent")
            side = &parentFiles;
        else if (args[i] == "--change")
            side = &changeFiles;
        else if (side != nullptr)
            side->push_back(args[i]);
        else
            throw std::invalid_argument("expected --parent or --change");
    }
    if (parentFiles.empty() || changeFiles.empty())
        throw std::invalid_argument(
            "compare needs --parent FILE... and --change FILE...");

    const JsonValue bench = readJson(repo_root + "/BENCHMARK.json");
    std::vector<Spec> e2e;
    std::vector<std::string> layers, names;
    for (const auto &m : bench.at("end_to_end").asArray()) {
        e2e.push_back({m.at("name").asString(),
                       m.at("better").asString() == "lower",
                       m.at("bound").asNumber()});
        names.push_back(e2e.back().name);
    }
    for (const auto &m : bench.at("per_layer").asArray()) {
        layers.push_back(m.at("name").asString());
        names.push_back(layers.back());
    }
    const std::vector<LoadedRun> parent = loadRuns(parentFiles, names);
    const std::vector<LoadedRun> change = loadRuns(changeFiles, names);

    std::vector<std::string> workloads;
    for (const auto &r : parent)
        if (std::find(workloads.begin(), workloads.end(), r.workload) ==
            workloads.end())
            workloads.push_back(r.workload);

    auto values = [](const std::vector<LoadedRun> &runs,
                     const std::string &w, const std::string &metric,
                     bool traced) {
        std::vector<double> v;
        for (const auto &r : runs) {
            if (r.workload != w || r.traced != traced)
                continue;
            if (const auto it = r.metrics.find(metric);
                it != r.metrics.end())
                v.push_back(it->second.value);
        }
        return v;
    };

    bool regressed = false;
    std::ostream &os = std::cout;
    os << std::left << std::setw(18) << "workload" << std::setw(13)
       << "metric" << std::setw(30) << "parent med [q1, q3]"
       << std::setw(30) << "change med [q1, q3]" << std::setw(10)
       << "delta" << std::setw(8) << "won" << "verdict\n";
    for (const auto &w : workloads) {
        for (const Spec &s : e2e) {
            const auto pv = values(parent, w, s.name, false);
            const auto cv = values(change, w, s.name, false);
            if (pv.empty() || cv.empty())
                continue;
            const double pm = median(pv), cm = median(cv);
            const auto [pq1, pq3] = quartiles(pv);
            const auto [cq1, cq3] = quartiles(cv);
            auto better = [&](double a, double b) {
                return s.lowerBetter ? a < b : a > b;
            };
            const std::size_t pairs = std::min(pv.size(), cv.size());
            std::size_t won = 0;
            for (std::size_t i = 0; i < pairs; ++i)
                won += better(cv[i], pv[i]) ? 1 : 0;
            bool allBetter = true;
            for (const double c : cv)
                for (const double p : pv)
                    allBetter = allBetter && better(c, p);
            const double delta = pm != 0 ? (cm - pm) / pm : 0.0;
            const double worsening = s.lowerBetter ? delta : -delta;
            const double spread = pm != 0 ? (pq3 - pq1) / pm : 0.0;

            std::string verdict;
            if (spread > s.bound)
                verdict = allBetter ? "better" : "unresolved";
            else if (worsening > s.bound)
                verdict = "REGRESSION";
            else if (pairs >= 10 && 10 * won >= 9 * pairs &&
                     worsening < 0 && std::abs(cm - pm) > pq3 - pq1)
                verdict = "gain";
            else
                verdict = "same";
            regressed = regressed || verdict == "REGRESSION";

            os << std::setw(18) << w << std::setw(13) << s.name
               << std::setw(30)
               << num(pm) + " [" + num(pq1) + ", " + num(pq3) + "]"
               << std::setw(30)
               << num(cm) + " [" + num(cq1) + ", " + num(cq3) + "]"
               << std::setw(10) << num(100 * delta) + "%" << std::setw(8)
               << std::to_string(won) + "/" + std::to_string(pairs)
               << verdict << " (bound " << num(100 * s.bound)
               << "%, parent spread " << num(100 * spread) << "%)\n";
        }
    }

    os << "\nexact metrics, run by run (same workload, seed, tracing):\n";
    for (const auto &w : workloads) {
        std::size_t matched = 0, compared = 0;
        std::vector<std::string> changed;
        for (const auto &p : parent) {
            if (p.workload != w)
                continue;
            for (const auto &c : change) {
                if (c.workload != w || c.seed != p.seed ||
                    c.traced != p.traced)
                    continue;
                ++matched;
                for (const auto &[name, m] : p.metrics) {
                    const auto it = c.metrics.find(name);
                    if (!m.exact || it == c.metrics.end())
                        continue;
                    ++compared;
                    if (it->second.value != m.value)
                        changed.push_back(name + " seed " +
                                          std::to_string(p.seed) + ": " +
                                          num(m.value) + " -> " +
                                          num(it->second.value));
                }
                break;
            }
        }
        os << std::setw(18) << w;
        if (matched == 0)
            os << "no runs with matching seeds\n";
        else if (changed.empty())
            os << compared << " values identical over " << matched
               << " matched runs\n";
        else
            os << "model changed:\n";
        for (const auto &c : changed)
            os << "    " << c << "\n";
    }

    os << "\nper-layer host times (traced runs), median parent -> "
          "change:\n";
    for (const auto &w : workloads) {
        for (const auto &l : layers) {
            const auto pv = values(parent, w, l, true);
            const auto cv = values(change, w, l, true);
            if (pv.empty() || cv.empty())
                continue;
            bool exact = false;
            for (const auto &r : parent)
                if (const auto it = r.metrics.find(l);
                    it != r.metrics.end())
                    exact = it->second.exact;
            if (exact)
                continue;
            const double pm = median(pv), cm = median(cv);
            os << std::setw(18) << w << std::setw(30) << l << num(pm)
               << " -> " << num(cm) << "\n";
        }
    }
    os << (regressed ? "\nverdict: REGRESSION\n"
                     : "\nverdict: no regression\n");
    return regressed ? 1 : 0;
}

} // namespace cedarbench
