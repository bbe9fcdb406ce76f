/**
 * @file
 * chaos_serve: fault-injection soak harness for the beard daemon
 * (DESIGN.md §17, ci.sh step 12).
 *
 * Everything runs in one process so the harness can hold both ends of
 * the invariant: it records a small deterministic trace, computes the
 * offline reference report through the batch Runner *before* any
 * fault plan is armed, then starts an in-process Server whose
 * BEAR_FAULT-style spec targets the serve.* sites and drives rounds
 * of concurrent tenant sessions at it.  After every round it asserts
 * the tenant-isolation contract:
 *
 *   - the daemon is still serving (no round ends in transport
 *     breakage — even a faulted tenant hears a structured, attributed
 *     Error frame, never a dead socket);
 *   - every healthy tenant's report is byte-identical to the offline
 *     replay of the same trace;
 *   - every faulted tenant's error is one of the tolerated structured
 *     kinds (internal / deadline / idle / draining / bad-trace).
 *
 * The final round is a drain test: a wave of tenants is launched and
 * SIGTERM semantics (requestDrain(Interrupt)) land mid-flight; the
 * daemon must drain to exit code 130 while every in-flight session
 * still settles with a report or a structured error.  The harness
 * also checks the injector's fire tally afterwards, so a soak whose
 * spec never actually fired fails loudly instead of greenwashing.
 *
 *   chaos_serve [--tenants N] [--rounds N] [--fault SPEC]
 *               [--seed S] [--design D]
 *   chaos_serve --selftest
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/fault.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "tools/tool_args.hh"
#include "trace/trace_writer.hh"

namespace
{

const char *const kUsage =
    "usage: chaos_serve [--tenants N] [--rounds N] [--fault SPEC]\n"
    "                   [--seed S] [--design D]\n"
    "       chaos_serve --selftest\n"
    "  --tenants  concurrent tenants per round (default 8, 1..256)\n"
    "  --rounds   soak rounds before the drain round (default 3)\n"
    "  --fault    BEAR_FAULT spec over the serve.* sites (default\n"
    "             hits accept, decode, job.run and reply)\n"
    "  --seed     fault-plan seed (default 0xBEEF)\n"
    "  --design   design roster name every tenant runs (default "
    "BEAR)\n";

/** Default spec: one deterministic accept victim plus probabilistic
 *  per-tenant victims at every other serve site. */
const char *const kDefaultFault =
    "throw@serve.accept:n=1,panic@serve.job.run:p=0.25,"
    "alloc@serve.decode:p=0.15,throw@serve.reply:p=0.15";

/** Record a tiny deterministic 2-core trace for the soak. */
bool
writeSoakTrace(const std::string &path)
{
    bear::trace::TraceMeta meta;
    meta.workload = "chaos-serve";
    meta.coreCount = 2;
    meta.seed = 11;
    auto writer = bear::trace::TraceWriter::create(path, meta);
    if (!writer.hasValue()) {
        std::fprintf(stderr, "chaos_serve: %s\n",
                     writer.error().message().c_str());
        return false;
    }
    for (std::uint32_t i = 0; i < 512; ++i) {
        for (bear::CoreId core = 0; core < 2; ++core) {
            bear::MemRef ref;
            ref.vaddr = 0x20000 + 64ULL * ((i * 13 + core * 89) % 256);
            ref.pc = 0x400000 + 4ULL * (i % 64);
            ref.instGap = 1 + (i % 4);
            ref.isWrite = (i % 7) == 0;
            ref.dependent = (i % 3) == 0;
            auto appended = writer->append(core, ref);
            if (!appended.hasValue()) {
                std::fprintf(stderr, "chaos_serve: %s\n",
                             appended.error().message().c_str());
                return false;
            }
        }
    }
    auto finished = writer->finish();
    if (!finished.hasValue()) {
        std::fprintf(stderr, "chaos_serve: %s\n",
                     finished.error().message().c_str());
        return false;
    }
    return true;
}

/** Small budgets: the soak proves isolation, not paper numbers. */
bear::RunnerOptions
soakBudgets()
{
    bear::RunnerOptions options;
    options.scale = 0.015625;
    options.warmupRefsPerCore = 2000;
    options.measureRefsPerCore = 1000;
    options.workers = 1;
    return options;
}

/** Read a whole file as bytes. */
std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string &data = ss.str();
    return std::vector<std::uint8_t>(data.begin(), data.end());
}

/** What one tenant session ended as. */
struct Outcome
{
    bool ok = false;
    bear::serve::ServeErrorKind kind = bear::serve::ServeErrorKind::Io;
    std::string report;
    std::string error;
};

/** May this structured failure happen under injected chaos? */
bool
tolerable(bear::serve::ServeErrorKind kind)
{
    using bear::serve::ServeErrorKind;
    switch (kind) {
    case ServeErrorKind::Internal:
    case ServeErrorKind::Deadline:
    case ServeErrorKind::Idle:
    case ServeErrorKind::Draining:
    case ServeErrorKind::BadTrace:
    case ServeErrorKind::Busy:
        return true;
    default:
        return false;
    }
}

/** Launch @p tenants concurrent sessions; outcomes in slot order. */
std::vector<Outcome>
launchWave(const std::string &socket_path, const std::string &design,
           const std::vector<std::uint8_t> &trace_bytes,
           std::uint32_t tenants)
{
    std::vector<Outcome> outcomes(tenants);
    std::vector<std::thread> threads;
    threads.reserve(tenants);
    for (std::uint32_t i = 0; i < tenants; ++i) {
        threads.emplace_back([&, i] {
            bear::serve::ClientOptions options;
            options.socketPath = socket_path;
            options.design = design;
            auto outcome =
                bear::serve::Client::runSession(options, trace_bytes);
            if (!outcome.hasValue()) {
                outcomes[i].kind = outcome.error().kind;
                outcomes[i].error = outcome.error().message();
                return;
            }
            outcomes[i].ok = true;
            outcomes[i].report = std::move(outcome->reportJson);
        });
    }
    for (std::thread &t : threads)
        t.join();
    return outcomes;
}

struct WaveTally
{
    std::uint32_t healthy = 0;
    std::uint32_t faulted = 0;
};

/**
 * Assert the isolation invariant over one wave: healthy tenants are
 * byte-identical to @p offline_report, faulted tenants carry a
 * tolerated structured kind with a non-empty attribution.  During the
 * drain round a connection refusal (the listener already closed) is
 * additionally acceptable.
 */
bool
checkWave(const std::vector<Outcome> &outcomes,
          const std::string &offline_report, bool draining,
          WaveTally &tally)
{
    bool ok = true;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome &out = outcomes[i];
        if (out.ok) {
            ++tally.healthy;
            if (out.report != offline_report) {
                std::fprintf(stderr,
                             "chaos_serve: FAILED: healthy tenant "
                             "%zu diverges from the offline "
                             "reference\n",
                             i);
                ok = false;
            }
            continue;
        }
        ++tally.faulted;
        const bool refused = draining
            && out.kind == bear::serve::ServeErrorKind::Io
            && out.error.find("connect") != std::string::npos;
        if (!tolerable(out.kind) && !refused) {
            std::fprintf(stderr,
                         "chaos_serve: FAILED: tenant %zu broke the "
                         "structured-error contract: %s\n",
                         i, out.error.c_str());
            ok = false;
        }
        if (out.error.empty()) {
            std::fprintf(stderr,
                         "chaos_serve: FAILED: tenant %zu faulted "
                         "with no attribution\n",
                         i);
            ok = false;
        }
    }
    return ok;
}

int
runSoak(std::uint32_t tenants, std::uint32_t rounds,
        const std::string &fault_spec, std::uint64_t seed,
        const std::string &design)
{
    const std::string tag =
        std::to_string(static_cast<unsigned>(::getpid()));
    const std::string trace_path =
        "/tmp/chaos-serve-" + tag + ".beartrace";
    const std::string socket_path = "/tmp/chaos-serve-" + tag + ".sock";
    if (!writeSoakTrace(trace_path))
        return 1;

    auto parsed_design = bear::serve::parseDesignName(design);
    if (!parsed_design.hasValue()) {
        std::fprintf(stderr, "chaos_serve: %s\n",
                     parsed_design.error().message().c_str());
        return 2;
    }

    // Offline reference first, before any fault plan exists: this is
    // the truth every healthy served report must match byte-for-byte.
    std::string offline_report;
    {
        bear::RunnerOptions options = soakBudgets();
        options.cores = 2;
        options.traceInPath = trace_path;
        bear::Runner runner(options);
        offline_report = bear::runResultToJson(
            runner.runRate(*parsed_design, "chaos-serve"));
    }

    bear::serve::ServerOptions options;
    options.socketPath = socket_path;
    options.shards = 2;
    options.queueDepth = tenants; // no Busy noise; chaos is the test
    options.busyRetryMs = 2;
    options.recvTimeoutMs = 50;
    options.drainGraceSeconds = 0.5;
    options.run = soakBudgets();
    options.run.faultSpec = fault_spec;
    options.run.seed = seed;
    options.run.jobTimeoutSeconds = 2.0; // stall clauses → Deadline

    bear::serve::Server server(options);
    auto started = server.start();
    if (!started.hasValue()) {
        std::fprintf(stderr, "chaos_serve: %s\n",
                     started.error().message().c_str());
        std::remove(trace_path.c_str());
        return 1;
    }

    const std::vector<std::uint8_t> trace_bytes = slurp(trace_path);
    bool ok = true;
    WaveTally tally;
    for (std::uint32_t round = 0; round < rounds; ++round) {
        const auto outcomes =
            launchWave(socket_path, design, trace_bytes, tenants);
        ok = checkWave(outcomes, offline_report, false, tally) && ok;
        std::fprintf(stderr,
                     "chaos_serve: round %u/%u: %u healthy, %u "
                     "faulted so far\n",
                     round + 1, rounds, tally.healthy, tally.faulted);
    }

    // Drain round: SIGTERM semantics land while a wave is in flight.
    // The daemon must still settle every session and exit 130.
    std::thread drainer([&server] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        server.requestDrain(bear::CancelReason::Interrupt);
    });
    const auto drain_outcomes =
        launchWave(socket_path, design, trace_bytes, tenants);
    drainer.join();
    ok = checkWave(drain_outcomes, offline_report, true, tally) && ok;

    const int rc = server.serve();
    if (rc != 130) {
        std::fprintf(stderr,
                     "chaos_serve: FAILED: interrupt drain exited "
                     "%d, want 130\n",
                     rc);
        ok = false;
    }

    const std::uint64_t fired = bear::fault::injector().firedTotal();
    if (fired == 0) {
        std::fprintf(stderr,
                     "chaos_serve: FAILED: the fault plan never "
                     "fired — the soak proved nothing\n");
        ok = false;
    }
    if (tally.healthy == 0) {
        std::fprintf(stderr,
                     "chaos_serve: FAILED: no tenant survived; the "
                     "byte-identity half of the invariant never "
                     "ran\n");
        ok = false;
    }

    std::fprintf(stderr,
                 "chaos_serve: %s: %u healthy (byte-identical), %u "
                 "faulted (structured), %llu faults fired, drain rc "
                 "%d\n",
                 ok ? "PASS" : "FAIL", tally.healthy, tally.faulted,
                 static_cast<unsigned long long>(fired), rc);
    std::remove(trace_path.c_str());
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const bear::tools::ToolArgs args(
        argc, argv, {"tenants", "rounds", "fault", "seed", "design"},
        kUsage);
    if (args.selftest())
        return runSoak(4, 2, kDefaultFault, 0xBEEF, "BEAR");

    const std::uint64_t tenants = args.u64Or("tenants", 8);
    if (tenants < 1 || tenants > 256)
        args.fail("--tenants wants 1..256");
    const std::uint64_t rounds = args.u64Or("rounds", 3);
    if (rounds < 1 || rounds > 64)
        args.fail("--rounds wants 1..64");
    return runSoak(static_cast<std::uint32_t>(tenants),
                   static_cast<std::uint32_t>(rounds),
                   args.stringOr("fault", kDefaultFault),
                   args.u64Or("seed", 0xBEEF),
                   args.stringOr("design", "BEAR"));
}
