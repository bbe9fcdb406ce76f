#include "common/log.hh"

#include <cstdio>
#include <cstdlib>

namespace bear
{

namespace
{

thread_local bool tls_containing = false;

std::string
located(const char *prefix, const char *file, int line,
        const std::string &msg)
{
    return detail::format(prefix, msg, " (", file, ":", line, ")");
}

} // namespace

ContainmentScope::ContainmentScope() : prev_(tls_containing)
{
    tls_containing = true;
}

ContainmentScope::~ContainmentScope()
{
    tls_containing = prev_;
}

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    if (tls_containing)
        throw ContainedFailure{true, located("panic: ", file, line, msg)};
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (tls_containing)
        throw ContainedFailure{false, located("fatal: ", file, line, msg)};
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace bear
