// Golden corpus: every violation here carries a bearlint-allow
// marker, so no diagnostics are expected from this file.
#include <cstdlib>

struct Q
{
    long count() const { return 0; }
};

long
suppressed(const Q &a, const Q &b)
{
    long r = rand(); // bearlint-allow(BL004)
    // bearlint-allow(BL004)
    srand(7);
    // bearlint-allow(BL004, BL002)
    long s = a.count() + b.count();
    return r + s;
}
