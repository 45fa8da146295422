#include "apps/parser.hh"

#include <fstream>
#include <map>
#include <sstream>
#include <vector>

namespace cedar::apps
{

namespace
{

/** key=value pairs plus bare flags of one directive line. */
struct Args
{
    std::map<std::string, std::string> kv;
    std::vector<std::string> flags;
    unsigned line;

    bool
    has(const std::string &key) const
    {
        return kv.count(key) != 0;
    }

    std::uint64_t
    num(const std::string &key, std::uint64_t fallback,
        bool required = false) const
    {
        auto it = kv.find(key);
        if (it == kv.end()) {
            if (required)
                throw ParseError(line, "missing required " + key + "=");
            return fallback;
        }
        try {
            return std::stoull(it->second);
        } catch (const std::exception &) {
            throw ParseError(line, "bad number for " + key + "=" +
                                       it->second);
        }
    }

    double
    real(const std::string &key, double fallback) const
    {
        auto it = kv.find(key);
        if (it == kv.end())
            return fallback;
        try {
            return std::stod(it->second);
        } catch (const std::exception &) {
            throw ParseError(line, "bad number for " + key + "=" +
                                       it->second);
        }
    }

    bool
    flag(const std::string &name) const
    {
        for (const auto &f : flags) {
            if (f == name)
                return true;
        }
        return false;
    }
};

Args
parseArgs(std::istringstream &rest, unsigned line)
{
    Args a;
    a.line = line;
    std::string tok;
    while (rest >> tok) {
        const auto eq = tok.find('=');
        if (eq == std::string::npos)
            a.flags.push_back(tok);
        else
            a.kv[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
    return a;
}

LoopSpec
loopCommon(const Args &a, LoopSpec l)
{
    l.computePerIter = a.num("compute", 1000, true);
    l.words = static_cast<unsigned>(a.num("words", 0));
    l.burstLen = static_cast<unsigned>(a.num("burst", 64));
    if (l.burstLen == 0)
        throw ParseError(a.line, "burst= must be positive");
    l.jitterFrac = a.real("jitter", 0.15);
    l.haloWords = static_cast<unsigned>(a.num("halo", 0));
    l.sharedPages = static_cast<unsigned>(a.num("shared", 0));
    l.pickupBlock =
        static_cast<unsigned>(a.num("block", 1));
    l.nBuffers = static_cast<unsigned>(a.num("buffers", 1));
    l.prefetch = a.flag("prefetch");
    const unsigned min_region =
        std::max(1u << 12, l.words * 4);
    l.regionWords = static_cast<unsigned>(
        a.num("region", std::max(min_region,
                                 l.outerIters * l.innerIters *
                                     std::max(l.words, 1u))));
    if (l.regionWords <= l.words)
        throw ParseError(a.line, "region= must exceed words=");
    if (l.jitterFrac < 0.0 || l.jitterFrac >= 1.0)
        throw ParseError(a.line, "jitter= must be in [0,1)");
    return l;
}

} // namespace

AppModel
parseWorkload(std::istream &in)
{
    AppModel app;
    app.name = "unnamed";
    app.steps = 1;
    bool saw_any = false;

    std::string raw;
    unsigned line = 0;
    while (std::getline(in, raw)) {
        ++line;
        const auto hash = raw.find('#');
        if (hash != std::string::npos)
            raw.resize(hash);
        std::istringstream ls(raw);
        std::string directive;
        if (!(ls >> directive))
            continue;
        saw_any = true;

        if (directive == "app") {
            if (!(ls >> app.name))
                throw ParseError(line, "app needs a name");
        } else if (directive == "steps") {
            unsigned n = 0;
            if (!(ls >> n) || n == 0)
                throw ParseError(line, "steps needs a positive count");
            app.steps = n;
        } else if (directive == "serial") {
            const auto a = parseArgs(ls, line);
            SerialSpec s;
            s.compute = a.num("compute", 0, true);
            s.pages = static_cast<unsigned>(a.num("pages", 0));
            s.ioOps = static_cast<unsigned>(a.num("io", 0));
            app.phases.emplace_back(s);
        } else if (directive == "sdoall") {
            const auto a = parseArgs(ls, line);
            LoopSpec l;
            l.kind = LoopKind::sdoall;
            l.outerIters =
                static_cast<unsigned>(a.num("outer", 0, true));
            l.innerIters =
                static_cast<unsigned>(a.num("inner", 0, true));
            if (l.outerIters == 0 || l.innerIters == 0)
                throw ParseError(line, "outer=/inner= must be positive");
            app.phases.emplace_back(loopCommon(a, l));
        } else if (directive == "xdoall") {
            const auto a = parseArgs(ls, line);
            LoopSpec l;
            l.kind = LoopKind::xdoall;
            l.outerIters =
                static_cast<unsigned>(a.num("iters", 0, true));
            l.innerIters = 1;
            if (l.outerIters == 0)
                throw ParseError(line, "iters= must be positive");
            app.phases.emplace_back(loopCommon(a, l));
        } else if (directive == "mc") {
            const auto a = parseArgs(ls, line);
            LoopSpec l;
            l.kind = LoopKind::mc_cdoall;
            l.outerIters =
                static_cast<unsigned>(a.num("iters", 0, true));
            l.innerIters = 1;
            app.phases.emplace_back(loopCommon(a, l));
        } else if (directive == "cdoacross") {
            const auto a = parseArgs(ls, line);
            LoopSpec l;
            l.kind = LoopKind::cdoacross;
            l.outerIters =
                static_cast<unsigned>(a.num("iters", 0, true));
            l.innerIters = 1;
            l.serialRegion = a.num("serial", 0, true);
            app.phases.emplace_back(loopCommon(a, l));
        } else {
            throw ParseError(line, "unknown directive '" + directive +
                                       "'");
        }
    }

    if (!saw_any || app.phases.empty())
        throw ParseError(line, "workload has no phases");
    return app;
}

AppModel
parseWorkloadString(const std::string &text)
{
    std::istringstream in(text);
    return parseWorkload(in);
}

AppModel
parseWorkloadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open workload file: " + path);
    return parseWorkload(in);
}

std::string
formatWorkload(const AppModel &app)
{
    std::ostringstream os;
    os << "app " << app.name << "\n";
    os << "steps " << app.steps << "\n";
    for (const auto &phase : app.phases) {
        if (const auto *s = std::get_if<SerialSpec>(&phase)) {
            os << "serial compute=" << s->compute;
            if (s->pages)
                os << " pages=" << s->pages;
            if (s->ioOps)
                os << " io=" << s->ioOps;
            os << "\n";
            continue;
        }
        const auto &l = std::get<LoopSpec>(phase);
        switch (l.kind) {
          case LoopKind::sdoall:
            os << "sdoall outer=" << l.outerIters
               << " inner=" << l.innerIters;
            break;
          case LoopKind::xdoall:
            os << "xdoall iters=" << l.outerIters;
            break;
          case LoopKind::mc_cdoall:
            os << "mc iters=" << l.outerIters;
            break;
          case LoopKind::cdoacross:
            os << "cdoacross iters=" << l.outerIters
               << " serial=" << l.serialRegion;
            break;
        }
        os << " compute=" << l.computePerIter;
        if (l.words)
            os << " words=" << l.words << " burst=" << l.burstLen;
        os << " jitter=" << l.jitterFrac;
        os << " region=" << l.regionWords;
        if (l.nBuffers > 1)
            os << " buffers=" << l.nBuffers;
        if (l.haloWords)
            os << " halo=" << l.haloWords;
        if (l.sharedPages)
            os << " shared=" << l.sharedPages;
        if (l.pickupBlock > 1)
            os << " block=" << l.pickupBlock;
        if (l.prefetch)
            os << " prefetch";
        os << "\n";
    }
    return os.str();
}

} // namespace cedar::apps
