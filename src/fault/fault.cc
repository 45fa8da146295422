#include "fault/fault.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>

#include "bench_json.hh"
#include "sim/error.hh"

namespace cedar::fault
{

const char *
toString(FaultKind k)
{
    switch (k) {
      case FaultKind::module_degrade: return "module-degrade";
      case FaultKind::module_stuck: return "module-stuck";
      case FaultKind::switch_stall: return "switch-stall";
      case FaultKind::ce_hiccup: return "ce-hiccup";
      case FaultKind::intr_storm: return "intr-storm";
      case FaultKind::access_timeout: return "access-timeout";
      case FaultKind::access_abandoned: return "access-abandoned";
      case FaultKind::access_parked: return "access-parked";
    }
    return "?";
}

bool
isInjectable(FaultKind k)
{
    switch (k) {
      case FaultKind::module_degrade:
      case FaultKind::module_stuck:
      case FaultKind::switch_stall:
      case FaultKind::ce_hiccup:
      case FaultKind::intr_storm:
        return true;
      default:
        return false;
    }
}

namespace
{

using sim::FaultSpecError;

std::vector<std::string>
splitColon(const std::string &s)
{
    std::vector<std::string> out;
    std::string tok;
    std::istringstream in(s);
    while (std::getline(in, tok, ':'))
        out.push_back(tok);
    return out;
}

/** Parse a number accepting scientific notation ("1e6", "4.5"). */
double
parseNum(const std::string &spec, const std::string &tok)
{
    char *end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0')
        throw FaultSpecError("'" + spec + "': bad number '" + tok + "'");
    return v;
}

/** A count in [0, @p max] ("2e5" included; tools::checkedCount). */
std::uint64_t
parseCount(const std::string &spec, const std::string &tok,
           const std::string &what, std::uint64_t max)
{
    if (const auto n = tools::checkedCount(tok, max))
        return *n;
    throw FaultSpecError("'" + spec + "': bad " + what + " '" + tok +
                         "' (want a whole number in [0, " +
                         std::to_string(max) + "])");
}

sim::Tick
parseTick(const std::string &spec, const std::string &tok)
{
    return parseCount(spec, tok, "time", sim::max_tick);
}

unsigned
parseIndex(const std::string &spec, const std::string &tok)
{
    return static_cast<unsigned>(parseCount(
        spec, tok, "index", std::numeric_limits<unsigned>::max()));
}

/**
 * Split a window bound pair on the range dash, skipping a '-' that
 * is part of a scientific exponent ("1e-4").
 */
std::size_t
findRangeDash(const std::string &s)
{
    for (std::size_t i = 1; i < s.size(); ++i) {
        if (s[i] == '-' && s[i - 1] != 'e' && s[i - 1] != 'E')
            return i;
    }
    return std::string::npos;
}

/** Apply a trailing "@t0[-t1]" window token, if present. */
void
applyWindow(const std::string &spec, FaultSpec &f,
            const std::vector<std::string> &toks, std::size_t from)
{
    for (std::size_t i = from; i < toks.size(); ++i) {
        const auto &t = toks[i];
        if (t.empty() || t[0] != '@')
            throw FaultSpecError("'" + spec + "': unexpected token '" + t +
                                 "'");
        const std::string body = t.substr(1);
        const auto dash = findRangeDash(body);
        if (dash == std::string::npos) {
            f.from = parseTick(spec, body);
        } else {
            f.from = parseTick(spec, body.substr(0, dash));
            f.until = parseTick(spec, body.substr(dash + 1));
        }
        if (f.until <= f.from)
            throw FaultSpecError("'" + spec +
                                 "': window end must follow its start");
    }
}

/** Extract "key=value" from a token; empty string if no match. */
std::string
keyValue(const std::string &tok, const std::string &key)
{
    const std::string prefix = key + "=";
    if (tok.compare(0, prefix.size(), prefix) == 0)
        return tok.substr(prefix.size());
    return "";
}

FaultSpec
parseModule(const std::string &spec, const std::vector<std::string> &toks)
{
    if (toks.size() < 3)
        throw FaultSpecError("'" + spec +
                             "': expected module:<m>:degrade|stuck");
    FaultSpec f;
    f.index = parseIndex(spec, toks[1]);
    std::size_t next = 3;
    if (toks[2] == "degrade") {
        f.kind = FaultKind::module_degrade;
        if (toks.size() < 4)
            throw FaultSpecError("'" + spec +
                                 "': degrade needs a factor (e.g. 4x)");
        std::string fac = toks[3];
        if (!fac.empty() && (fac.back() == 'x' || fac.back() == 'X'))
            fac.pop_back();
        f.factor = static_cast<unsigned>(
            parseCount(spec, fac, "degrade factor",
                       std::numeric_limits<unsigned>::max()));
        if (f.factor < 2)
            throw FaultSpecError("'" + spec +
                                 "': degrade factor must be an integer "
                                 ">= 2");
        next = 4;
    } else if (toks[2] == "stuck") {
        f.kind = FaultKind::module_stuck;
        f.factor = 0;
    } else {
        throw FaultSpecError("'" + spec + "': unknown module action '" +
                             toks[2] + "'");
    }
    applyWindow(spec, f, toks, next);
    return f;
}

FaultSpec
parseSwitch(const std::string &spec, const std::vector<std::string> &toks)
{
    if (toks.size() < 5)
        throw FaultSpecError(
            "'" + spec + "': expected switch:stage1|stage2:<s>:stall:<t>");
    FaultSpec f;
    f.kind = FaultKind::switch_stall;
    if (toks[1] == "stage1")
        f.stage = 1;
    else if (toks[1] == "stage2")
        f.stage = 2;
    else
        throw FaultSpecError("'" + spec + "': unknown stage '" + toks[1] +
                             "' (stage1 or stage2)");
    f.index = parseIndex(spec, toks[2]);
    if (toks[3] != "stall")
        throw FaultSpecError("'" + spec + "': unknown switch action '" +
                             toks[3] + "'");
    f.duration = parseTick(spec, toks[4]);
    if (f.duration == 0)
        throw FaultSpecError("'" + spec +
                             "': stall duration must be positive");
    applyWindow(spec, f, toks, 5);
    return f;
}

FaultSpec
parseCe(const std::string &spec, const std::vector<std::string> &toks)
{
    if (toks.size() < 3 || toks[2] != "hiccup")
        throw FaultSpecError("'" + spec +
                             "': expected ce:<c>:hiccup:p=<prob>");
    FaultSpec f;
    f.kind = FaultKind::ce_hiccup;
    f.index = parseIndex(spec, toks[1]);
    f.duration = 500; // default stall per hiccup, in ticks
    std::size_t i = 3;
    for (; i < toks.size(); ++i) {
        const auto &t = toks[i];
        if (!t.empty() && t[0] == '@')
            break;
        if (auto v = keyValue(t, "p"); !v.empty()) {
            f.prob = parseNum(spec, v);
        } else if (auto c = keyValue(t, "cost"); !c.empty()) {
            f.duration = parseTick(spec, c);
        } else {
            throw FaultSpecError("'" + spec + "': unexpected token '" + t +
                                 "'");
        }
    }
    if (f.prob <= 0.0 || f.prob >= 1.0)
        throw FaultSpecError("'" + spec +
                             "': hiccup needs p=<prob> in (0,1)");
    if (f.duration == 0)
        throw FaultSpecError("'" + spec +
                             "': hiccup cost must be positive");
    applyWindow(spec, f, toks, i);
    return f;
}

FaultSpec
parseOs(const std::string &spec, const std::vector<std::string> &toks)
{
    if (toks.size() < 3 || toks[1] != "intr-storm")
        throw FaultSpecError("'" + spec +
                             "': expected os:intr-storm:cluster<c>");
    FaultSpec f;
    f.kind = FaultKind::intr_storm;
    constexpr const char prefix[] = "cluster";
    if (toks[2].compare(0, sizeof(prefix) - 1, prefix) != 0)
        throw FaultSpecError("'" + spec + "': expected cluster<c>, got '" +
                             toks[2] + "'");
    f.index = parseIndex(spec, toks[2].substr(sizeof(prefix) - 1));
    f.count = 8; // default burst length
    std::size_t i = 3;
    for (; i < toks.size(); ++i) {
        const auto &t = toks[i];
        if (!t.empty() && t[0] == '@')
            break;
        if (auto v = keyValue(t, "n"); !v.empty()) {
            f.count = parseIndex(spec, v);
        } else {
            throw FaultSpecError("'" + spec + "': unexpected token '" + t +
                                 "'");
        }
    }
    if (f.count == 0)
        throw FaultSpecError("'" + spec +
                             "': storm count must be positive");
    applyWindow(spec, f, toks, i);
    return f;
}

} // namespace

FaultSpec
parseFaultSpec(const std::string &spec)
{
    const auto toks = splitColon(spec);
    if (toks.empty() || toks[0].empty())
        throw FaultSpecError("empty spec");

    FaultSpec f;
    if (toks[0] == "module")
        f = parseModule(spec, toks);
    else if (toks[0] == "switch")
        f = parseSwitch(spec, toks);
    else if (toks[0] == "ce")
        f = parseCe(spec, toks);
    else if (toks[0] == "os")
        f = parseOs(spec, toks);
    else
        throw FaultSpecError("'" + spec + "': unknown target '" + toks[0] +
                             "' (module/switch/ce/os)");
    f.text = spec;
    return f;
}

std::uint64_t
FaultLog::count(FaultKind k) const
{
    return static_cast<std::uint64_t>(std::count_if(
        events_.begin(), events_.end(),
        [k](const FaultEvent &e) { return e.kind == k; }));
}

std::uint64_t
FaultLog::injected() const
{
    return static_cast<std::uint64_t>(std::count_if(
        events_.begin(), events_.end(),
        [](const FaultEvent &e) { return isInjectable(e.kind); }));
}

std::uint64_t
FaultLog::degraded() const
{
    return events_.size() - injected();
}

void
FaultLog::dump(std::ostream &os) const
{
    for (const auto &e : events_) {
        os << e.tick << " " << toString(e.kind) << " target=" << e.target
           << " arg=" << e.arg << "\n";
    }
}

} // namespace cedar::fault
