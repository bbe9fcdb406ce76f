/**
 * @file
 * Status and error reporting in the gem5 tradition.
 *
 * panic()  — an internal invariant was violated: a simulator bug.
 *            Aborts (can dump core).
 * fatal()  — the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments).  Exits with code 1.
 * warn()   — something is suspicious but the run continues.
 * inform() — plain status output.
 *
 * All four write to stderr, so a program's stdout carries only its
 * results (a resumed or recording sweep prints the same table as a
 * clean one).
 */

#ifndef BEAR_COMMON_LOG_HH
#define BEAR_COMMON_LOG_HH

#include <sstream>
#include <string>

namespace bear
{

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/**
 * Thrown by panicImpl()/fatalImpl() instead of aborting/exiting while
 * the calling thread is inside a ContainmentScope.  This is how a
 * bear_assert failure deep inside one simulation job becomes a
 * structured per-job RunError instead of taking the whole sweep down.
 */
struct ContainedFailure
{
    bool isPanic = false;  ///< panic (invariant) vs fatal (config)
    std::string message;   ///< formatted message including file:line
};

/**
 * RAII marker: while alive on a thread, panic/fatal on that thread
 * throw ContainedFailure rather than terminating the process.  Scopes
 * nest; containment is per-thread, so worker crashes never redirect an
 * unrelated thread's panic.
 */
class ContainmentScope
{
  public:
    ContainmentScope();
    ~ContainmentScope();
    ContainmentScope(const ContainmentScope &) = delete;
    ContainmentScope &operator=(const ContainmentScope &) = delete;

  private:
    bool prev_;
};

namespace detail
{

inline void
append(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
append(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    append(os, rest...);
}

template <typename... Args>
std::string
format(const Args &...args)
{
    std::ostringstream os;
    append(os, args...);
    return os.str();
}

} // namespace detail

} // namespace bear

#define bear_panic(...) \
    ::bear::panicImpl(__FILE__, __LINE__, ::bear::detail::format(__VA_ARGS__))
#define bear_fatal(...) \
    ::bear::fatalImpl(__FILE__, __LINE__, ::bear::detail::format(__VA_ARGS__))
#define bear_warn(...) ::bear::warnImpl(::bear::detail::format(__VA_ARGS__))
#define bear_inform(...) ::bear::informImpl(::bear::detail::format(__VA_ARGS__))

/** panic() unless the stated simulator invariant holds. */
#define bear_assert(cond, ...)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::bear::panicImpl(__FILE__, __LINE__,                            \
                ::bear::detail::format("assertion failed: " #cond " ",      \
                                       ##__VA_ARGS__));                      \
        }                                                                    \
    } while (0)

#endif // BEAR_COMMON_LOG_HH
