// Positive control for guarded_without_lock.cc, compiled with the
// same flags on every compiler: correctly locked GUARDED_BY access
// must pass clang's analysis, and the annotation macros must degrade
// to no-ops on toolchains without it (gcc), so this file compiling is
// the proof that common/sync.hh costs nothing off clang.
#include "common/sync.hh"

namespace
{

struct Counter
{
    bear::Mutex mutex;
    int value GUARDED_BY(mutex) = 0;

    void
    bump()
    {
        bear::MutexLock lock(mutex);
        ++value;
    }

    int
    read()
    {
        bear::MutexLock lock(mutex);
        return value;
    }
};

} // namespace

int
main()
{
    Counter counter;
    counter.bump();
    return counter.read() == 1 ? 0 : 1;
}
