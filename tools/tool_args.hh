/**
 * @file
 * Command-line parsing shared by the trace tools (trace_stats,
 * trace_record, trace_dump).
 *
 * All three tools share the same tiny grammar — positional inputs,
 * `--name value` options, a `--selftest` switch — and the same
 * failure contract: any malformed invocation (unknown option, option
 * missing its value, malformed number, missing input file) prints the
 * tool's usage text to stderr and exits with status 2, never runs on
 * half-parsed arguments.  Before this helper each tool hand-rolled
 * the loop and e.g. a bare `--top` silently became an input path.
 */

#ifndef BEAR_TOOLS_TOOL_ARGS_HH
#define BEAR_TOOLS_TOOL_ARGS_HH

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

namespace bear::tools
{

/**
 * RAII scratch file for tool self-tests: mkstemp() at construction,
 * unlink at destruction, so every early return (and every failure
 * path) cleans up after itself.  Before this helper each selftest
 * carried its own mkstemp/close/unlink choreography and the failure
 * paths leaked the file.
 */
class TempFile
{
  public:
    /** Create `/tmp/<stem>-XXXXXX`; valid() is false when the
     *  temporary cannot be created. */
    explicit TempFile(const char *stem)
    {
        std::string pattern = "/tmp/" + std::string(stem) + "-XXXXXX";
        std::vector<char> buffer(pattern.begin(), pattern.end());
        buffer.push_back('\0');
        const int fd = ::mkstemp(buffer.data());
        if (fd >= 0) {
            ::close(fd);
            path_.assign(buffer.data());
        }
    }

    ~TempFile()
    {
        if (!path_.empty())
            ::unlink(path_.c_str());
    }

    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;

    bool valid() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** A parsed command line: positionals plus `--name value` options. */
class ToolArgs
{
  public:
    /**
     * Parse @p argv.  @p value_options lists the option names (without
     * the leading dashes) that take a value; `--selftest` is always
     * recognised as a switch.  Exits(2) with @p usage on malformed
     * input.
     */
    ToolArgs(int argc, char **argv,
             const std::vector<std::string> &value_options,
             const char *usage)
        : usage_(usage)
    {
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strcmp(arg, "--selftest") == 0) {
                selftest_ = true;
                continue;
            }
            if (std::strncmp(arg, "--", 2) == 0) {
                const std::string name = arg + 2;
                bool known = false;
                for (const auto &option : value_options)
                    known = known || option == name;
                if (!known)
                    fail("unknown option '" + std::string(arg) + "'");
                if (i + 1 >= argc)
                    fail("option '" + std::string(arg) +
                         "' needs a value");
                options_[name] = argv[++i];
                continue;
            }
            positional_.push_back(arg);
        }
    }

    bool selftest() const { return selftest_; }
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /**
     * The single required input path; exits(2) with usage when the
     * invocation has no (or more than one) positional argument.
     */
    std::string
    inputPath() const
    {
        if (positional_.size() != 1) {
            fail(positional_.empty()
                     ? "missing input file"
                     : "expected exactly one input file");
        }
        return positional_.front();
    }

    /** `--name value` as an unsigned integer; exits(2) on non-numbers. */
    std::uint64_t
    u64Or(const std::string &name, std::uint64_t fallback) const
    {
        const auto it = options_.find(name);
        if (it == options_.end())
            return fallback;
        const std::string &text = it->second;
        errno = 0;
        char *end = nullptr;
        const unsigned long long v =
            std::strtoull(text.c_str(), &end, 10);
        if (text.empty() || text.front() == '-' || end != text.c_str() + text.size()
            || errno == ERANGE) {
            fail("option '--" + name + "' wants an unsigned integer, "
                 "got '" + text + "'");
        }
        return v;
    }

    /** Print @p message and the usage text, then exit(2). */
    [[noreturn]] void
    fail(const std::string &message) const
    {
        std::fprintf(stderr, "error: %s\n%s", message.c_str(), usage_);
        std::exit(2);
    }

  private:
    const char *usage_;
    bool selftest_ = false;
    std::vector<std::string> positional_;
    std::map<std::string, std::string> options_;
};

} // namespace bear::tools

#endif // BEAR_TOOLS_TOOL_ARGS_HH
