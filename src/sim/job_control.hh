/**
 * @file
 * Cooperative cancellation of simulation jobs on SIGINT/SIGTERM.
 *
 * The Runner installs a handler that records the first SIGINT/SIGTERM
 * in g_interrupt_signal.  A System whose config carries a JobControl
 * reads that flag once per block of System::kControlBlock (1024)
 * simulated references and unwinds as JobCancelled once it is set, so
 * a ^C drains a running sweep within a millisecond, with no thread
 * watching the jobs.
 *
 * perfbench's traced copy of System::run (ROADMAP item 1) names the
 * members marked below, and only that copy uses them.
 */

#ifndef BEAR_SIM_JOB_CONTROL_HH
#define BEAR_SIM_JOB_CONTROL_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace bear
{

/**
 * The first SIGINT/SIGTERM this process received; 0 while none has.
 * Only the Runner's signal handler writes it, which is safe because the
 * store is a lock-free atomic one.
 */
inline std::atomic<int> g_interrupt_signal{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "a signal handler may only store to a lock-free atomic");

/** Why a job was asked to stop. */
enum class CancelReason : std::uint8_t
{
    None = 0,
    Interrupt, ///< SIGINT/SIGTERM: the whole sweep is shutting down
};

/** Opts a System into cancellation checkpoints. */
struct JobControl
{
    /** Kept only for perfbench's traced copy, which counts its
     *  references here; nothing reads it. */
    std::atomic<std::uint64_t> progress{0};

    /** Inline and one relaxed load: perfbench's traced copy calls it
     *  on every reference. */
    CancelReason
    cancelReason() const
    {
        return g_interrupt_signal.load(std::memory_order_relaxed) != 0
            ? CancelReason::Interrupt
            : CancelReason::None;
    }

    /** Kept only for perfbench's traced copy; a no-op. */
    void setPhase(const char *) {}
};

/**
 * Thrown at a cancellation checkpoint once a cancel is requested; the
 * runner turns it into an `interrupted` RunError.
 */
struct JobCancelled
{
    CancelReason reason = CancelReason::Interrupt;
    /** Kept only for perfbench's traced copy, which throws
     *  `JobCancelled{why, {}}`; always empty. */
    std::string diagnostics;
};

} // namespace bear

#endif // BEAR_SIM_JOB_CONTROL_HH
