/**
 * @file
 * Capability-annotated synchronisation primitives (DESIGN.md §12).
 *
 * Every lock in the simulator goes through these wrappers, never
 * through std::mutex directly (bearlint rule BL003 enforces this
 * lexically; tools/bearlint).  The wrappers carry clang thread-safety
 * capability attributes, so under clang with -Wthread-safety the
 * compiler proves lock discipline: a field marked GUARDED_BY(m) can
 * only be touched while m is held, a function marked REQUIRES(m)
 * can only be called with m held, and a forgotten unlock is a
 * compile error.  Off clang (gcc builds) the attribute macros expand
 * to nothing and the wrappers are exactly std::mutex /
 * std::lock_guard with zero added cost — the annotations are
 * compile-time only and never change behaviour.
 *
 * The strict build is wired in the top-level CMakeLists: with a clang
 * compiler and BEAR_STRICT_WARNINGS=ON the tree compiles under
 * -Wthread-safety -Werror=thread-safety-analysis, and a configure-time
 * compile-fail check (tests/compile_fail/guarded_without_lock.cc)
 * proves the analysis actually rejects an unlocked access.
 *
 * Annotation vocabulary (the clang attribute each macro carries):
 *
 *   CAPABILITY(name)       the class is a lockable capability
 *   SCOPED_CAPABILITY      RAII type that acquires/releases in
 *                          ctor/dtor
 *   GUARDED_BY(m)          field may only be accessed holding m
 *   PT_GUARDED_BY(m)       pointee may only be accessed holding m
 *   REQUIRES(m)            caller must hold m
 *   ACQUIRE(m) RELEASE(m)  function acquires / releases m
 *   TRY_ACQUIRE(ok, m)     function acquires m when returning ok
 *   EXCLUDES(m)            caller must NOT hold m (deadlock guard)
 *   NO_THREAD_SAFETY_ANALYSIS  opt one function out (constructors
 *                          of still-unshared state, test harnesses)
 */

#ifndef BEAR_COMMON_SYNC_HH
#define BEAR_COMMON_SYNC_HH

#include <mutex>
#include <utility>

#if defined(__clang__)
#define BEAR_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define BEAR_THREAD_ANNOTATION(x) // no-op off clang
#endif

#define CAPABILITY(x) BEAR_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY BEAR_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) BEAR_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) BEAR_THREAD_ANNOTATION(pt_guarded_by(x))
#define REQUIRES(...) \
    BEAR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) \
    BEAR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELEASE(...) \
    BEAR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
    BEAR_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) BEAR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define RETURN_CAPABILITY(x) BEAR_THREAD_ANNOTATION(lock_returned(x))
#define ASSERT_CAPABILITY(x) \
    BEAR_THREAD_ANNOTATION(assert_capability(x))
#define NO_THREAD_SAFETY_ANALYSIS \
    BEAR_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace bear
{

class MutexLock;

/** std::mutex as a named capability the analysis can track. */
class CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ACQUIRE() { m_.lock(); }
    void unlock() RELEASE() { m_.unlock(); }
    bool tryLock() TRY_ACQUIRE(true) { return m_.try_lock(); }

  private:
    friend class MutexLock;
    std::mutex m_;
};

/**
 * RAII lock over a Mutex: the only way the simulator takes a lock
 * (there is deliberately no std::lock_guard user outside this file).
 */
class SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) ACQUIRE(mutex)
        : lock_(mutex.m_)
    {
    }

    ~MutexLock() RELEASE() {}

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    std::lock_guard<std::mutex> lock_;
};

/**
 * One-time initialisation seam: the only sanctioned user of
 * std::once_flag outside this header (BL003 covers once_flag too, so
 * ad-hoc double-checked-locking idioms cannot creep back in).
 */
using OnceFlag = std::once_flag;

template <typename Callable, typename... Args>
void
callOnce(OnceFlag &flag, Callable &&fn, Args &&...args)
{
    std::call_once(flag, std::forward<Callable>(fn),
                   std::forward<Args>(args)...);
}

} // namespace bear

#endif // BEAR_COMMON_SYNC_HH
