// Golden corpus: a clean file — no diagnostics expected.  Exercises
// the lexer's corners: raw strings, char literals, and comments that
// mention std::mutex and rand() without using them.

const char *kDoc = R"doc(
    std::mutex rand() system_clock  — inert inside a raw string,
    a.count() + b.count() too.
)doc";

int
consume()
{
    char quote = '\'';
    const char *s = "std::lock_guard<std::mutex> in a string";
    return quote + (s != nullptr ? 1 : 0);
}
