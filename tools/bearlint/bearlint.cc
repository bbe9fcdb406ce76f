/**
 * @file
 * bearlint — project-rule static analyzer (DESIGN.md §12).
 *
 * A self-contained lexical analyzer (no LLVM/clang dependency) that
 * enforces BEAR project rules clang-tidy cannot express.  It tokenizes
 * every C++ file under src/, tools/, bench/, tests/ and examples/ and
 * checks:
 *
 *   BL002 raw-unit-arith      additive arithmetic on a shed unit
 *         count (`q.count() + ...`) outside the unit seams
 *         (common/units.hh, common/types.hh).  Same-dimension sums
 *         belong inside the strong types; a `+` on raw counts is how
 *         bytes and beats get mixed.
 *   BL003 naked-mutex         std::mutex / std::condition_variable /
 *         std::lock_guard family (incl. once_flag/call_once) outside
 *         common/sync.hh.  All locking goes through the
 *         capability-annotated wrappers so clang -Wthread-safety can
 *         prove the lock discipline.
 *   BL004 nondeterminism      wall-clock or ambient-randomness seams
 *         (rand, std::random_device, system_clock, gettimeofday, ...)
 *         anywhere.  Everything must draw from the seeded Rng so runs
 *         stay bit-for-bit reproducible.
 *   BL005 include-hygiene     headers must open with a matching
 *         `#ifndef BEAR_..._HH` / `#define` guard (no #pragma once)
 *         and must not contain `using namespace` at any scope.
 *   BL006 private-tag-array   a hand-rolled tag layout inside
 *         src/dramcache/: a `std::vector<S>` member where S is an
 *         AoS tag entry (has `tag` and `valid` members but no `set`
 *         member — the NTC's set-indexed Entry is exempt), or a
 *         shadow replacement vector named `lru_`.  All tag arrays go
 *         through the shared SoA TagStore (dramcache/tag_store.hh).
 *   BL007 hot-path-shift      `erase(... begin ...)` or
 *         `insert(... begin ...)` member calls inside src/mem/ or
 *         src/dramcache/ — a front/middle container mutation that
 *         memmoves the tail on the per-access timing path.  The O(1)
 *         channel-model port (DESIGN.md §15) removed every such
 *         shift; hot-path queues use circular indices instead.
 *
 * Diagnostics are machine-readable (`file:line: [BL###] message`) and
 * suppressible per line with `// bearlint-allow(BL###)` on the same
 * or the preceding line.  Exit codes: 0 clean, 1 violations found,
 * 2 usage error.  `--list-rules` prints the catalog; `--selftest DIR`
 * runs the golden violation corpus (tools/bearlint/corpus) and
 * verifies the exact diagnostic set.
 *
 * Retired rule IDs are never reused.  A discarded Expected result,
 * once BL001, is a compile error: every build adds
 * -Werror=unused-result and Expected is [[nodiscard]].
 *
 * Being lexical, the analyzer is deliberately conservative: anything
 * it cannot prove a violation is not reported.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace
{

namespace fs = std::filesystem;

const char *const kUsage =
    "usage: bearlint [--root DIR] [path...]\n"
    "       bearlint --list-rules\n"
    "       bearlint --selftest CORPUS_DIR\n"
    "  Scans C++ sources (default paths: src tools bench tests\n"
    "  examples, relative to --root, default .) and reports project-\n"
    "  rule violations as `file:line: [BL###] message`.\n"
    "  Suppress one line with `// bearlint-allow(BL###)` on the same\n"
    "  or preceding line.  Exits 0 when clean, 1 on violations,\n"
    "  2 on usage errors.\n";

struct RuleInfo
{
    const char *id;
    const char *name;
    const char *summary;
};

const RuleInfo kRules[] = {
    {"BL002", "raw-unit-arith",
     "additive arithmetic on a shed unit .count() outside "
     "common/units.hh / common/types.hh"},
    {"BL003", "naked-mutex",
     "std::mutex/condition_variable/lock_guard family outside "
     "common/sync.hh (use bear::Mutex/MutexLock)"},
    {"BL004", "nondeterminism",
     "wall-clock or ambient randomness (use the seeded Rng)"},
    {"BL005", "include-hygiene",
     "header missing a BEAR_*_HH include guard, or `using "
     "namespace` in a header"},
    {"BL006", "private-tag-array",
     "hand-rolled tag vector / lru_ shadow vector in src/dramcache/ "
     "instead of the shared SoA TagStore (dramcache/tag_store.hh)"},
    {"BL007", "hot-path-shift",
     "erase/insert at begin() inside src/mem/ or src/dramcache/ "
     "(O(n) memmove per access; use a circular index / ring buffer)"},
};

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

/** One preprocessor directive (tokens are not emitted for these). */
struct PpLine
{
    int line = 0;
    std::string directive; ///< "include", "ifndef", "define", ...
    std::string rest;      ///< remainder of the logical line, trimmed
};

struct Token
{
    std::string text;
    int line = 0;
    char kind = 'p'; ///< i=ident n=number p=punct s=string c=char
};

struct FileData
{
    std::string display;      ///< path as reported in diagnostics
    bool isHeader = false;
    std::vector<Token> toks;
    std::vector<PpLine> pp;
    /** line -> rule ids allowed on that line. */
    std::map<int, std::set<std::string>> allows;
    int lines = 0;
};

bool
isIdentStart(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool
isIdentChar(char c)
{
    return isIdentStart(c) || (c >= '0' && c <= '9');
}

/** Record every bearlint-allow(BL###[,BL###...]) marker in @p text. */
void
recordAllows(FileData &fd, const std::string &text, int line)
{
    std::size_t pos = 0;
    while ((pos = text.find("bearlint-allow(", pos))
           != std::string::npos) {
        pos += std::strlen("bearlint-allow(");
        const std::size_t close = text.find(')', pos);
        if (close == std::string::npos)
            break;
        std::string ids = text.substr(pos, close - pos);
        std::size_t start = 0;
        while (start <= ids.size()) {
            std::size_t comma = ids.find(',', start);
            if (comma == std::string::npos)
                comma = ids.size();
            std::string id = ids.substr(start, comma - start);
            id.erase(std::remove(id.begin(), id.end(), ' '), id.end());
            if (!id.empty())
                fd.allows[line].insert(id);
            start = comma + 1;
        }
        pos = close;
    }
}

/** Tokenize @p src into @p fd (tokens, pp lines, allow markers). */
void
lex(const std::string &src, FileData &fd)
{
    const std::size_t n = src.size();
    std::size_t i = 0;
    int line = 1;
    bool atLineStart = true;

    auto push = [&](std::string text, char kind) {
        fd.toks.push_back(Token{std::move(text), line, kind});
        atLineStart = false;
    };

    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            ++line;
            ++i;
            atLineStart = true;
            continue;
        }
        if (c == ' ' || c == '\t' || c == '\r' || c == '\f'
            || c == '\v') {
            ++i;
            continue;
        }
        // Comments (and their suppression markers).
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            std::size_t end = src.find('\n', i);
            if (end == std::string::npos)
                end = n;
            recordAllows(fd, src.substr(i, end - i), line);
            i = end;
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            std::size_t j = i + 2;
            std::size_t lineBegin = i;
            while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
                if (src[j] == '\n') {
                    recordAllows(
                        fd, src.substr(lineBegin, j - lineBegin), line);
                    ++line;
                    lineBegin = j + 1;
                }
                ++j;
            }
            const std::size_t stop = (j + 1 < n) ? j + 2 : n;
            recordAllows(fd, src.substr(lineBegin, stop - lineBegin),
                         line);
            i = stop;
            continue;
        }
        // Preprocessor: a '#' first on its line swallows the logical
        // line (with backslash continuations); no tokens are emitted.
        if (c == '#' && atLineStart) {
            const int ppLineNo = line;
            std::size_t j = i + 1;
            std::string text;
            while (j < n) {
                if (src[j] == '\\' && j + 1 < n && src[j + 1] == '\n') {
                    ++line;
                    j += 2;
                    text += ' ';
                    continue;
                }
                if (src[j] == '\n')
                    break;
                text += src[j];
                ++j;
            }
            std::istringstream is(text);
            PpLine pp;
            pp.line = ppLineNo;
            is >> pp.directive;
            std::getline(is, pp.rest);
            const std::size_t first = pp.rest.find_first_not_of(" \t");
            pp.rest = first == std::string::npos
                ? std::string()
                : pp.rest.substr(first);
            fd.pp.push_back(std::move(pp));
            i = j;
            atLineStart = false;
            continue;
        }
        // String literals (incl. raw strings) and char literals.
        if (c == '"'
            || (c == 'R' && i + 1 < n && src[i + 1] == '"')) {
            if (c == 'R') {
                std::size_t d = i + 2;
                std::string delim;
                while (d < n && src[d] != '(')
                    delim += src[d++];
                const std::string closer = ")" + delim + "\"";
                std::size_t end = src.find(closer, d);
                if (end == std::string::npos)
                    end = n;
                else
                    end += closer.size();
                for (std::size_t k = i; k < end && k < n; ++k)
                    if (src[k] == '\n')
                        ++line;
                push("\"\"", 's');
                i = end;
                continue;
            }
            std::size_t j = i + 1;
            while (j < n && src[j] != '"') {
                if (src[j] == '\\')
                    ++j;
                else if (src[j] == '\n')
                    ++line; // unterminated; keep line count sane
                ++j;
            }
            push("\"\"", 's');
            i = (j < n) ? j + 1 : n;
            continue;
        }
        if (c == '\'' && !(i > 0 && (isIdentChar(src[i - 1])))) {
            std::size_t j = i + 1;
            while (j < n && src[j] != '\'') {
                if (src[j] == '\\')
                    ++j;
                ++j;
            }
            push("''", 'c');
            i = (j < n) ? j + 1 : n;
            continue;
        }
        // Identifiers and keywords.
        if (isIdentStart(c)) {
            std::size_t j = i + 1;
            while (j < n && isIdentChar(src[j]))
                ++j;
            push(src.substr(i, j - i), 'i');
            i = j;
            continue;
        }
        // Numbers (incl. digit separators and exponents).
        if (c >= '0' && c <= '9') {
            std::size_t j = i + 1;
            while (j < n
                   && (isIdentChar(src[j]) || src[j] == '\''
                       || src[j] == '.'
                       || ((src[j] == '+' || src[j] == '-') && j > 0
                           && (src[j - 1] == 'e' || src[j - 1] == 'E'
                               || src[j - 1] == 'p'
                               || src[j - 1] == 'P'))))
                ++j;
            push(src.substr(i, j - i), 'n');
            i = j;
            continue;
        }
        // Punctuation, longest match first.
        static const char *const kPunct3[] = {"<=>", "->*", "...",
                                              "<<=", ">>="};
        static const char *const kPunct2[] = {
            "::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&",
            "||", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
            "++", "--"};
        bool matched = false;
        for (const char *p : kPunct3) {
            if (src.compare(i, 3, p) == 0) {
                push(p, 'p');
                i += 3;
                matched = true;
                break;
            }
        }
        if (matched)
            continue;
        for (const char *p : kPunct2) {
            if (src.compare(i, 2, p) == 0) {
                push(p, 'p');
                i += 2;
                matched = true;
                break;
            }
        }
        if (matched)
            continue;
        push(std::string(1, c), 'p');
        ++i;
    }
    fd.lines = line;
}

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

struct Diag
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;

    bool
    operator<(const Diag &o) const
    {
        if (file != o.file)
            return file < o.file;
        if (line != o.line)
            return line < o.line;
        return rule < o.rule;
    }
};

class Reporter
{
  public:
    void
    report(const FileData &fd, int line, const char *rule,
           std::string message)
    {
        if (allowed(fd, line, rule))
            return;
        diags_.push_back(Diag{fd.display, line, rule,
                              std::move(message)});
    }

    const std::vector<Diag> &diags() const { return diags_; }

    void
    sortAndPrint()
    {
        std::sort(diags_.begin(), diags_.end());
        for (const Diag &d : diags_) {
            std::printf("%s:%d: [%s] %s\n", d.file.c_str(), d.line,
                        d.rule.c_str(), d.message.c_str());
        }
    }

  private:
    static bool
    allowed(const FileData &fd, int line, const char *rule)
    {
        for (const int l : {line, line - 1}) {
            const auto it = fd.allows.find(l);
            if (it != fd.allows.end()
                && it->second.find(rule) != it->second.end())
                return true;
        }
        return false;
    }

    std::vector<Diag> diags_;
};

// ---------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------

/** Index of the ')' matching the '(' at @p open; -1 when unmatched. */
long
matchForward(const std::vector<Token> &t, long open)
{
    long depth = 0;
    for (long i = open; i < static_cast<long>(t.size()); ++i) {
        if (t[i].text == "(")
            ++depth;
        else if (t[i].text == ")" && --depth == 0)
            return i;
    }
    return -1;
}

/** Index of the '(' or '[' matching the closer at @p close; -1. */
long
matchBackward(const std::vector<Token> &t, long close)
{
    const std::string &closer = t[close].text;
    const std::string opener = closer == ")" ? "(" : "[";
    long depth = 0;
    for (long i = close; i >= 0; --i) {
        if (t[i].text == closer)
            ++depth;
        else if (t[i].text == opener && --depth == 0)
            return i;
    }
    return -1;
}

/**
 * Walk backwards over the postfix chain that ends at @p idx (the
 * callee name): `journal_->appendResult`, `writer.finish`,
 * `trace::TraceReader::open`, `a.b().c`.  Returns the index of the first
 * token *before* the chain (-1 when the chain opens the file).
 */
long
chainStart(const std::vector<Token> &t, long idx)
{
    long j = idx - 1;
    while (j >= 0) {
        const std::string &s = t[j].text;
        if (s == "::" || s == "." || s == "->") {
            --j;
            if (j < 0)
                break;
            if (t[j].text == ")" || t[j].text == "]") {
                const long open = matchBackward(t, j);
                if (open < 0)
                    break;
                j = open - 1;
                // The '(' may itself be preceded by a callee name.
                if (j >= 0 && t[j].kind == 'i')
                    --j;
                continue;
            }
            if (t[j].kind == 'i') {
                --j;
                continue;
            }
            break;
        }
        break;
    }
    return j;
}

/** Skip a balanced `<...>` starting at @p idx (must be '<'); returns
 *  the index after the matching '>', or -1 when it does not close
 *  within a declaration-sized window. */
long
skipTemplateArgs(const std::vector<Token> &t, long idx)
{
    long depth = 0;
    for (long i = idx; i < static_cast<long>(t.size()); ++i) {
        const std::string &s = t[i].text;
        if (s == "<")
            ++depth;
        else if (s == ">") {
            if (--depth == 0)
                return i + 1;
        } else if (s == ">>") {
            depth -= 2;
            if (depth <= 0)
                return i + 1;
        } else if (s == ";" || s == "{") {
            return -1; // was a comparison, not template args
        }
    }
    return -1;
}

// ---------------------------------------------------------------------
// BL002 — additive arithmetic on shed unit counts
// ---------------------------------------------------------------------

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t m = std::strlen(suffix);
    return s.size() >= m && s.compare(s.size() - m, m, suffix) == 0;
}

void
checkRawUnitArith(const FileData &fd, Reporter &out)
{
    if (endsWith(fd.display, "src/common/units.hh")
        || endsWith(fd.display, "src/common/types.hh"))
        return; // the sanctioned dimension-crossing seams
    const auto &t = fd.toks;
    for (long i = 2; i + 2 < static_cast<long>(t.size()); ++i) {
        if (t[i].text != "count"
            || (t[i - 1].text != "." && t[i - 1].text != "->")
            || t[i + 1].text != "(" || t[i + 2].text != ")")
            continue;
        const std::string after = i + 3 < static_cast<long>(t.size())
            ? t[i + 3].text
            : std::string();
        bool additive = after == "+" || after == "-";
        if (!additive) {
            // `... + x.count()` — look before the postfix chain.
            const long before = chainStart(t, i);
            if (before >= 0
                && (t[before].text == "+" || t[before].text == "-"))
                additive = true;
        }
        if (additive) {
            out.report(fd, t[i].line, "BL002",
                       "additive arithmetic on a raw .count(); do the "
                       "sum inside the strong unit type "
                       "(common/units.hh)");
        }
    }
}

// ---------------------------------------------------------------------
// BL003 — naked standard synchronisation primitives
// ---------------------------------------------------------------------

void
checkNakedMutex(const FileData &fd, Reporter &out)
{
    if (endsWith(fd.display, "src/common/sync.hh"))
        return;
    static const std::set<std::string> kBanned = {
        "mutex", "timed_mutex", "recursive_mutex",
        "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
        "condition_variable", "condition_variable_any", "lock_guard",
        "unique_lock", "scoped_lock", "shared_lock", "once_flag",
        "call_once"};
    const auto &t = fd.toks;
    for (long i = 0; i + 2 < static_cast<long>(t.size()); ++i) {
        if (t[i].text == "std" && t[i + 1].text == "::"
            && kBanned.find(t[i + 2].text) != kBanned.end()) {
            out.report(fd, t[i].line, "BL003",
                       "naked std::" + t[i + 2].text
                           + " outside common/sync.hh; use "
                             "bear::Mutex/MutexLock/OnceFlag");
        }
    }
    for (const PpLine &pp : fd.pp) {
        if (pp.directive != "include")
            continue;
        if (pp.rest.rfind("<mutex>", 0) == 0
            || pp.rest.rfind("<condition_variable>", 0) == 0
            || pp.rest.rfind("<shared_mutex>", 0) == 0) {
            out.report(fd, pp.line, "BL003",
                       "include " + pp.rest.substr(0, pp.rest.find('>') + 1)
                           + " outside common/sync.hh; include "
                             "common/sync.hh instead");
        }
    }
}

// ---------------------------------------------------------------------
// BL004 — ambient nondeterminism
// ---------------------------------------------------------------------

void
checkNondeterminism(const FileData &fd, Reporter &out)
{
    static const std::set<std::string> kBannedTypes = {
        "random_device", "system_clock", "high_resolution_clock"};
    static const std::set<std::string> kBannedCalls = {
        "rand", "srand", "gettimeofday", "clock_gettime",
        "timespec_get", "localtime", "gmtime"};
    const auto &t = fd.toks;
    for (long i = 0; i < static_cast<long>(t.size()); ++i) {
        if (t[i].kind != 'i')
            continue;
        const std::string prev = i > 0 ? t[i - 1].text : std::string();
        if (kBannedTypes.find(t[i].text) != kBannedTypes.end()) {
            // std::random_device / std::chrono::system_clock — a
            // qualified type mention is already the violation.
            if (prev == "::") {
                out.report(fd, t[i].line, "BL004",
                           "nondeterministic '" + t[i].text
                               + "'; derive from the seeded Rng");
            }
            continue;
        }
        if (kBannedCalls.find(t[i].text) != kBannedCalls.end()
            && i + 1 < static_cast<long>(t.size())
            && t[i + 1].text == "(") {
            if (prev == "." || prev == "->")
                continue; // a member of ours, not the libc call
            // `unsigned rand()` — a declaration, not a call.
            if (i > 0 && t[i - 1].kind == 'i' && prev != "return"
                && prev != "else" && prev != "do" && prev != "case")
                continue;
            out.report(fd, t[i].line, "BL004",
                       "wall-clock / ambient randomness '" + t[i].text
                           + "()'; derive from the seeded Rng");
        }
    }
}

// ---------------------------------------------------------------------
// BL005 — header include hygiene
// ---------------------------------------------------------------------

void
checkHeaderHygiene(const FileData &fd, Reporter &out)
{
    if (!fd.isHeader)
        return;

    const auto &t = fd.toks;
    for (long i = 0; i + 1 < static_cast<long>(t.size()); ++i) {
        if (t[i].text == "using" && t[i + 1].text == "namespace") {
            out.report(fd, t[i].line, "BL005",
                       "`using namespace` in a header leaks into "
                       "every includer; qualify names instead");
        }
    }

    for (const PpLine &pp : fd.pp) {
        if (pp.directive == "pragma"
            && pp.rest.rfind("once", 0) == 0) {
            out.report(fd, pp.line, "BL005",
                       "#pragma once; use the project's BEAR_*_HH "
                       "include-guard style");
        }
    }

    auto guardName = [](const std::string &rest) {
        std::istringstream is(rest);
        std::string name;
        is >> name;
        return name;
    };
    auto isGuardShaped = [](const std::string &name) {
        if (name.rfind("BEAR_", 0) != 0 || !endsWith(name, "_HH"))
            return false;
        return std::all_of(name.begin(), name.end(), [](char c) {
            return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
                || c == '_';
        });
    };

    if (fd.pp.empty()) {
        out.report(fd, 1, "BL005",
                   "header has no include guard (expected #ifndef "
                   "BEAR_..._HH / #define)");
        return;
    }
    const PpLine &first = fd.pp.front();
    if (first.directive != "ifndef") {
        out.report(fd, first.line, "BL005",
                   "header must open with its #ifndef BEAR_..._HH "
                   "include guard");
        return;
    }
    const std::string guard = guardName(first.rest);
    if (!isGuardShaped(guard)) {
        out.report(fd, first.line, "BL005",
                   "include guard '" + guard
                       + "' does not match the BEAR_*_HH convention");
    }
    if (fd.pp.size() < 2 || fd.pp[1].directive != "define"
        || guardName(fd.pp[1].rest) != guard) {
        out.report(fd, first.line, "BL005",
                   "include guard #ifndef " + guard
                       + " is not followed by its matching #define");
    }
}

// ---------------------------------------------------------------------
// BL006 — private tag arrays in src/dramcache/
// ---------------------------------------------------------------------

/**
 * The TagStore port (DESIGN.md §14) deleted every per-design
 * `std::vector<Tad>`-style layout; this rule keeps them deleted.  A
 * struct counts as a tag entry when its body declares `tag` and
 * `valid` but no `set` — a set-indexed entry (the NTC's) is a victim
 * buffer keyed by set, not a parallel tag plane, and stays legal.
 */
void
checkPrivateTagArray(const FileData &fd, Reporter &out)
{
    if (fd.display.find("src/dramcache/") == std::string::npos
        || endsWith(fd.display, "tag_store.hh"))
        return;
    const auto &t = fd.toks;
    const long n = static_cast<long>(t.size());

    // Tag-shaped struct/class definitions declared in this file.
    std::set<std::string> tagShaped;
    for (long i = 0; i + 2 < n; ++i) {
        if (t[i].text != "struct" && t[i].text != "class")
            continue;
        if (t[i + 1].kind != 'i' || t[i + 2].text != "{")
            continue;
        long depth = 0;
        bool hasTag = false, hasValid = false, hasSet = false;
        for (long j = i + 2; j < n; ++j) {
            if (t[j].text == "{") {
                ++depth;
            } else if (t[j].text == "}") {
                if (--depth == 0)
                    break;
            } else if (t[j].kind == 'i') {
                if (t[j].text == "tag")
                    hasTag = true;
                else if (t[j].text == "valid")
                    hasValid = true;
                else if (t[j].text == "set")
                    hasSet = true;
            }
        }
        if (hasTag && hasValid && !hasSet)
            tagShaped.insert(t[i + 1].text);
    }

    for (long i = 0; i < n; ++i) {
        if (t[i].text != "vector" || i + 1 >= n
            || t[i + 1].text != "<")
            continue;
        const long after = skipTemplateArgs(t, i + 1);
        if (after < 0)
            continue;
        // Element type: the last identifier inside the template args
        // (`std::uint64_t` resolves to `uint64_t`, `Tad` to itself).
        std::string elem;
        for (long k = i + 2; k < after - 1; ++k)
            if (t[k].kind == 'i')
                elem = t[k].text;
        if (tagShaped.find(elem) != tagShaped.end()) {
            out.report(fd, t[i].line, "BL006",
                       "hand-rolled tag array 'std::vector<" + elem
                           + ">' in src/dramcache/; use the shared "
                             "SoA TagStore (dramcache/tag_store.hh)");
            continue;
        }
        if (after < n && t[after].kind == 'i'
            && (t[after].text == "lru_"
                || endsWith(t[after].text, "_lru_"))) {
            out.report(fd, t[after].line, "BL006",
                       "shadow replacement vector '" + t[after].text
                           + "' in src/dramcache/; use TagStore's "
                             "replacement plane");
        }
    }
}

// ---------------------------------------------------------------------
// BL007 — O(n) front/middle container shifts on the timing hot path
// ---------------------------------------------------------------------

/**
 * The O(1) channel-model port (DESIGN.md §15) replaced every
 * `erase(begin(), ...)` / `insert(begin() + k, ...)` memmove on the
 * per-access path with circular head/tail indices; this rule keeps
 * them out.  Scope is deliberately limited to the hot directories
 * (src/mem/, src/dramcache/): shifting a small cold vector elsewhere
 * is fine and stays legal.
 */
void
checkHotPathShift(const FileData &fd, Reporter &out)
{
    if (fd.display.find("src/mem/") == std::string::npos
        && fd.display.find("src/dramcache/") == std::string::npos)
        return;
    const auto &t = fd.toks;
    const long n = static_cast<long>(t.size());
    for (long i = 1; i + 1 < n; ++i) {
        if (t[i].text != "erase" && t[i].text != "insert")
            continue;
        // Member-call syntax only: a free function named insert (or a
        // declaration) is not a container mutation.
        if (t[i - 1].text != "." && t[i - 1].text != "->")
            continue;
        if (t[i + 1].text != "(")
            continue;
        const long close = matchForward(t, i + 1);
        if (close < 0)
            continue;
        bool at_begin = false;
        for (long j = i + 2; j < close && !at_begin; ++j)
            at_begin = t[j].text == "begin" || t[j].text == "cbegin";
        if (at_begin) {
            out.report(fd, t[i].line, "BL007",
                       "'" + t[i].text
                           + "(... begin ...)' shifts the container "
                             "on the timing hot path; use a circular "
                             "index / ring buffer (DESIGN.md §15)");
        }
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" || ext == ".h"
        || ext == ".hpp";
}

bool
isHeaderFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".hh" || ext == ".h" || ext == ".hpp";
}

/**
 * Gather source files under @p roots (files or directories), skipping
 * build trees, the deliberately-uncompilable compile-fail corpus and
 * bearlint's own golden violation corpus.
 */
bool
gatherFiles(const fs::path &root, const std::vector<std::string> &paths,
            bool skipCorpora, std::vector<fs::path> &out)
{
    auto skipDir = [&](const fs::path &dir) {
        const std::string name = dir.filename().string();
        return skipCorpora
            && (name == "build" || name == "compile_fail"
                || name == "corpus"
                || name.rfind("build-", 0) == 0);
    };
    for (const std::string &p : paths) {
        const fs::path full = root / p;
        std::error_code ec;
        if (fs::is_regular_file(full, ec)) {
            out.push_back(full);
            continue;
        }
        if (!fs::is_directory(full, ec)) {
            std::fprintf(stderr, "bearlint: %s: not a file or "
                                 "directory\n",
                         full.string().c_str());
            return false;
        }
        fs::recursive_directory_iterator it(
            full, fs::directory_options::skip_permission_denied, ec);
        const fs::recursive_directory_iterator end;
        while (it != end) {
            if (it->is_directory(ec) && skipDir(it->path())) {
                it.disable_recursion_pending();
            } else if (it->is_regular_file(ec)
                       && isSourceFile(it->path())) {
                out.push_back(it->path());
            }
            it.increment(ec);
            if (ec) {
                std::fprintf(stderr, "bearlint: walking %s: %s\n",
                             full.string().c_str(),
                             ec.message().c_str());
                return false;
            }
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return true;
}

bool
loadFile(const fs::path &path, const fs::path &root, FileData &fd)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "bearlint: cannot read %s\n",
                     path.string().c_str());
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::error_code ec;
    const fs::path rel = fs::relative(path, root, ec);
    fd.display = (ec || rel.empty()) ? path.string() : rel.string();
    fd.isHeader = isHeaderFile(path);
    lex(ss.str(), fd);
    return true;
}

/** Run every rule over @p files; diagnostics land in @p out. */
void
runRules(const std::vector<FileData> &files, Reporter &out)
{
    for (const FileData &fd : files) {
        checkRawUnitArith(fd, out);
        checkNakedMutex(fd, out);
        checkNondeterminism(fd, out);
        checkHeaderHygiene(fd, out);
        checkPrivateTagArray(fd, out);
        checkHotPathShift(fd, out);
    }
}

int
listRules()
{
    std::printf("bearlint rules (suppress one line with "
                "// bearlint-allow(ID)):\n");
    for (const RuleInfo &r : kRules)
        std::printf("  %s  %-20s %s\n", r.id, r.name, r.summary);
    return 0;
}

/**
 * Golden-corpus selftest: scan CORPUS_DIR (corpora included) and
 * compare the diagnostic set against expected.txt, line for line.
 * expected.txt rows are `file:line:RULE`; order does not matter.
 */
int
selftest(const fs::path &corpus)
{
    std::ifstream exp(corpus / "expected.txt");
    if (!exp) {
        std::fprintf(stderr, "bearlint: %s/expected.txt missing\n",
                     corpus.string().c_str());
        return 2;
    }
    std::set<std::string> want;
    std::string lineText;
    while (std::getline(exp, lineText)) {
        if (!lineText.empty() && lineText[0] != '#')
            want.insert(lineText);
    }

    std::vector<fs::path> paths;
    if (!gatherFiles(corpus, {"."}, false, paths))
        return 2;
    std::vector<FileData> files(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
        if (!loadFile(paths[i], corpus, files[i]))
            return 2;
    }
    Reporter reporter;
    runRules(files, reporter);

    std::set<std::string> got;
    for (const Diag &d : reporter.diags()) {
        got.insert(d.file + ":" + std::to_string(d.line) + ":"
                   + d.rule);
    }

    bool ok = true;
    for (const std::string &w : want) {
        if (got.find(w) == got.end()) {
            std::fprintf(stderr,
                         "selftest: MISSING expected diagnostic %s\n",
                         w.c_str());
            ok = false;
        }
    }
    for (const std::string &g : got) {
        if (want.find(g) == want.end()) {
            std::fprintf(stderr,
                         "selftest: UNEXPECTED diagnostic %s\n",
                         g.c_str());
            ok = false;
        }
    }
    if (!ok)
        return 1;
    std::printf("bearlint selftest: %zu diagnostics matched "
                "expected.txt exactly\n",
                want.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path root = ".";
    std::vector<std::string> paths;
    bool wantSelftest = false;
    fs::path corpusDir;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            return 0;
        }
        if (arg == "--list-rules")
            return listRules();
        if (arg == "--root") {
            if (++i >= argc) {
                std::fputs(kUsage, stderr);
                return 2;
            }
            root = argv[i];
            continue;
        }
        if (arg == "--selftest") {
            if (++i >= argc) {
                std::fputs(kUsage, stderr);
                return 2;
            }
            wantSelftest = true;
            corpusDir = argv[i];
            continue;
        }
        if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "bearlint: unknown option %s\n",
                         arg.c_str());
            std::fputs(kUsage, stderr);
            return 2;
        }
        paths.push_back(arg);
    }

    if (wantSelftest)
        return selftest(corpusDir);

    if (paths.empty())
        paths = {"src", "tools", "bench", "tests", "examples"};

    std::vector<fs::path> filePaths;
    if (!gatherFiles(root, paths, true, filePaths))
        return 2;
    if (filePaths.empty()) {
        std::fprintf(stderr, "bearlint: no source files found\n");
        return 2;
    }

    std::vector<FileData> files(filePaths.size());
    for (std::size_t i = 0; i < filePaths.size(); ++i) {
        if (!loadFile(filePaths[i], root, files[i]))
            return 2;
    }

    Reporter reporter;
    runRules(files, reporter);
    reporter.sortAndPrint();
    if (!reporter.diags().empty()) {
        std::fprintf(stderr,
                     "bearlint: %zu violation(s) in %zu file(s) "
                     "scanned\n",
                     reporter.diags().size(), files.size());
        return 1;
    }
    return 0;
}
