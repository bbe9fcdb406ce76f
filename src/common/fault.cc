#include "common/fault.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace bear::fault
{

namespace
{

/** FNV-1a, the string hash half of the deterministic draw. */
std::uint64_t
fnv1a(const char *data, std::size_t size, std::uint64_t h)
{
    for (std::size_t i = 0; i < size; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001B3ULL;
    }
    return h;
}

/** splitmix64 finaliser: decorrelates the combined hash bits. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

bool
validSiteName(const std::string &site)
{
    if (site.empty())
        return false;
    if (site == "*")
        return true;
    for (char c : site) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

/** Parse one `kind@site[:trigger]` clause; error explains the reject. */
Expected<FaultClause, std::string>
parseClause(const std::string &text)
{
    const auto at = text.find('@');
    if (at == std::string::npos)
        return unexpected("clause \"" + text + "\": missing '@'");

    const std::string kind_name = text.substr(0, at);
    FaultClause clause;
    if (kind_name == "throw")
        clause.kind = FaultKind::Throw;
    else if (kind_name == "panic")
        clause.kind = FaultKind::Panic;
    else if (kind_name == "alloc")
        clause.kind = FaultKind::Alloc;
    else if (kind_name == "stall")
        clause.kind = FaultKind::Stall;
    else if (kind_name == "trace-io")
        clause.kind = FaultKind::TraceIo;
    else {
        return unexpected("clause \"" + text + "\": unknown kind \""
                          + kind_name
                          + "\" (throw|panic|alloc|stall|trace-io)");
    }

    std::string rest = text.substr(at + 1);
    const auto colon = rest.find(':');
    std::string trigger;
    if (colon != std::string::npos) {
        trigger = rest.substr(colon + 1);
        rest = rest.substr(0, colon);
    }
    if (!validSiteName(rest)) {
        return unexpected("clause \"" + text + "\": bad site name \""
                          + rest + "\"");
    }
    clause.site = rest;

    if (colon == std::string::npos)
        return clause;

    if (trigger.size() < 3
        || (trigger[0] != 'n' && trigger[0] != 'p')
        || trigger[1] != '=') {
        return unexpected("clause \"" + text
                          + "\": trigger must be n=<count> or p=<prob>");
    }
    const std::string number = trigger.substr(2);
    errno = 0;
    char *end = nullptr;
    if (trigger[0] == 'n') {
        const unsigned long long n =
            std::strtoull(number.c_str(), &end, 10);
        if (end == number.c_str() || *end != '\0' || errno == ERANGE
            || n == 0) {
            return unexpected("clause \"" + text
                              + "\": n must be an integer >= 1");
        }
        clause.nth = n;
    } else {
        const double p = std::strtod(number.c_str(), &end);
        if (end == number.c_str() || *end != '\0' || errno == ERANGE
            || !std::isfinite(p) || p <= 0.0 || p > 1.0) {
            return unexpected("clause \"" + text
                              + "\": p must be in (0, 1]");
        }
        clause.nth = 0;
        clause.probability = p;
    }
    return clause;
}

} // namespace

Expected<FaultPlan, std::string>
parseFaultSpec(const std::string &spec)
{
    if (spec.empty())
        return unexpected(std::string("empty fault spec"));
    FaultPlan plan;
    std::size_t start = 0;
    while (start <= spec.size()) {
        auto comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        auto clause = parseClause(spec.substr(start, comma - start));
        if (!clause)
            return unexpected(clause.error());
        plan.clauses.push_back(std::move(clause.value()));
        start = comma + 1;
    }
    return plan;
}

void
FaultInjector::arm(FaultPlan plan)
{
    MutexLock lock(mutex_);
    plan_ = std::move(plan);
    counts_.clear();
    fired_.clear();
    armed_.store(!plan_.empty(), std::memory_order_relaxed);
}

void
FaultInjector::disarm()
{
    MutexLock lock(mutex_);
    plan_ = FaultPlan{};
    counts_.clear();
    // fired_ is kept until the next arm(), so the tally stays
    // readable after the Runner that armed the plan is gone.
    armed_.store(false, std::memory_order_relaxed);
}

std::optional<FaultKind>
FaultInjector::evaluate(const char *site, const std::string &scope)
{
    if (!armed())
        return std::nullopt;
    MutexLock lock(mutex_);
    if (plan_.empty())
        return std::nullopt;

    const std::string site_name(site);
    const std::uint64_t occurrence = ++counts_[{site_name, scope}];

    for (const FaultClause &clause : plan_.clauses) {
        if (clause.site != "*" && clause.site != site_name)
            continue;
        bool fires = false;
        if (clause.nth != 0) {
            fires = occurrence == clause.nth;
        } else {
            std::uint64_t h = fnv1a(site_name.data(), site_name.size(),
                                    0xCBF29CE484222325ULL);
            h = fnv1a(scope.data(), scope.size(), h);
            const std::uint64_t draw =
                mix(h ^ mix(plan_.seed ^ occurrence));
            // Top 53 bits -> uniform double in [0, 1).
            const double u = static_cast<double>(draw >> 11)
                * 0x1.0p-53;
            fires = u < clause.probability;
        }
        if (fires) {
            ++fired_[site_name];
            return clause.kind;
        }
    }
    return std::nullopt;
}

std::uint64_t
FaultInjector::firedAt(const std::string &site) const
{
    MutexLock lock(mutex_);
    const auto it = fired_.find(site);
    return it == fired_.end() ? 0 : it->second;
}

FaultInjector &
injector()
{
    static FaultInjector instance;
    return instance;
}

} // namespace bear::fault
