/**
 * @file
 * The single run primitive of the batch runner (sim/runner).
 *
 * One "run" is the paper's methodology in miniature: build a System
 * over per-core reference streams, execute the warm-up phase, reset
 * statistics, execute the measurement phase, and gather the schema-v2
 * statistics.  The runner wraps that sequence in its sweep machinery
 * (memoisation, retries, recording tees); its rate/mix jobs and its
 * single-core IPC_alone reference runs both go through it.
 *
 * Cancellation composes unchanged: when spec.config.control is set,
 * the run checks the cancel flag once per System::kControlBlock
 * (1024) simulated references and unwinds as JobCancelled with
 * diagnostics (event-trace tail, busiest banks) attached while the
 * System is still alive — the runner's watchdog and its SIGINT/SIGTERM
 * drain both ride on it.
 */

#ifndef BEAR_SIM_SINGLE_RUN_HH
#define BEAR_SIM_SINGLE_RUN_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/metrics.hh"
#include "sim/system.hh"

namespace bear
{

/** Lifecycle phases reported to SingleRunSpec::onPhase. */
enum class RunPhase : std::uint8_t
{
    Warmup,
    Measure,
};

/** One single-tenant run: system knobs, phase budgets, labels. */
struct SingleRunSpec
{
    /** System knobs; config.control wires cooperative cancellation. */
    SystemConfig config;

    std::uint64_t warmupRefsPerCore = 0;
    std::uint64_t measureRefsPerCore = 0;

    /** Labels carried into the RunResult (report identity). */
    std::string workload;
    std::string design;
    bool isMix = false;

    /**
     * Invoked at each phase boundary, after the phase label is
     * published to the JobControl and before the phase executes.  The
     * runner injects its fault sites here; empty means no hook.
     */
    std::function<void(RunPhase)> onPhase;
};

/**
 * Execute one run over @p streams (one per core) and return the
 * completed RunResult.  Throws JobCancelled (diagnostics attached)
 * when the control requests cancellation, and propagates whatever a
 * fault hook throws.
 */
RunResult
runSingleTenant(const SingleRunSpec &spec,
                std::vector<std::unique_ptr<RefStream>> streams);

/**
 * Failure evidence gathered while the System is still alive: the tail
 * of the event-trace ring (when tracing is on) and the busiest
 * DRAM-cache banks with their queue state.
 */
std::string gatherRunDiagnostics(System &system, JobControl &control);

/**
 * Install the process-wide SIGINT/SIGTERM handlers (idempotent).  The
 * first signal is recorded — interruptRequested() turns true — and
 * the disposition resets to default so a second signal force-kills.
 * Runner's constructor calls this, and its monitor thread polls
 * interruptRequested() to start the drain.
 */
void installInterruptHandlers();

} // namespace bear

#endif // BEAR_SIM_SINGLE_RUN_HH
