/**
 * @file
 * bearload: concurrent load generator for the beard daemon.
 *
 * Spawns N tenant sessions against a running daemon, each streaming
 * the same recorded .beartrace and collecting its schema-v2 report
 * (serve/client.hh handles Busy backpressure by honouring the
 * server's retry hint).  Every session must complete and every report
 * must be byte-identical — the sessions replay the same trace under
 * the same design, so any divergence is a server bug, not load noise.
 * One report is emitted (stdout, or --report PATH) for diffing
 * against `beard --offline`; the Busy tally lands on stderr so CI can
 * see backpressure engage.
 *
 *   bearload <socket> <trace> [--tenants N] [--design D]
 *            [--report PATH] [--tolerate-faults 1]
 *   bearload --selftest
 *
 * --tolerate-faults turns bearload into the client half of a chaos
 * soak (ci.sh step 12): tenants that receive a structured Error frame
 * from a fault-injected daemon are counted rather than fatal, while
 * the surviving tenants' reports must still agree byte-for-byte.
 *
 * The self-test is the full loop in one process: record a tiny trace,
 * serve it from an in-process daemon on a private socket, run
 * concurrent tenants through this client, and require the served
 * report to equal the offline Runner's report on the same file.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "tools/tool_args.hh"
#include "trace/trace_writer.hh"

namespace
{

const char *const kUsage =
    "usage: bearload <socket> <trace> [--tenants N] [--design D]\n"
    "                [--report PATH] [--tolerate-faults 1]\n"
    "       bearload --selftest\n"
    "  --tenants  concurrent tenant sessions (default 8, max 4096)\n"
    "  --design   design roster name every tenant runs (default "
    "BEAR)\n"
    "  --report   write the (identical) report here instead of "
    "stdout\n"
    "  --tolerate-faults 1\n"
    "             chaos mode: tenants answered with a structured\n"
    "             server-side Error frame (internal, deadline, idle,\n"
    "             draining, bad-trace, busy) count as faulted instead\n"
    "             of failing the run; at least one tenant must stay\n"
    "             healthy and all healthy reports must still be\n"
    "             byte-identical.  Transport/protocol breakage (io,\n"
    "             truncated, bad-crc, ...) always fails.\n";

/** Chaos mode: may this structured failure be tolerated? */
bool
tolerableFault(bear::serve::ServeErrorKind kind)
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
        // A crashed connection or a corrupt frame is never an
        // acceptable chaos outcome: the daemon's contract is that
        // even a faulted tenant hears a well-formed Error frame.
        return false;
    }
}

/** Read a whole file as bytes; empty optional-style failure → exit. */
std::vector<std::uint8_t>
readFileOrDie(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "bearload: cannot open %s\n%s",
                     path.c_str(), kUsage);
        std::exit(2);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string &data = ss.str();
    return std::vector<std::uint8_t>(data.begin(), data.end());
}

/** One tenant's thread: session outcome or the structured failure. */
struct TenantSlot
{
    bool ok = false;
    bear::serve::ServeErrorKind errorKind =
        bear::serve::ServeErrorKind::Io;
    std::string report;
    std::string error;
    std::uint32_t busyRetries = 0;
};

/**
 * Run @p tenants concurrent sessions of @p trace_bytes against
 * @p socket_path.  Returns true when every session completed and all
 * reports are byte-identical; with @p tolerate_faults, sessions that
 * received a tolerable structured Error frame (see tolerableFault)
 * are counted in @p faulted_total instead of failing the run, and at
 * least one tenant must still complete.  The shared healthy report
 * and the Busy tally come back through the out-parameters.
 */
bool
runTenants(const std::string &socket_path,
           const std::vector<std::uint8_t> &trace_bytes,
           const std::string &design, std::uint32_t tenants,
           bool tolerate_faults, std::string &report,
           std::uint64_t &busy_total, std::uint64_t &faulted_total)
{
    std::vector<TenantSlot> slots(tenants);
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
                slots[i].errorKind = outcome.error().kind;
                slots[i].error = outcome.error().message();
                return;
            }
            slots[i].ok = true;
            slots[i].report = std::move(outcome->reportJson);
            slots[i].busyRetries = outcome->busyRetries;
        });
    }
    for (std::thread &t : threads)
        t.join();

    bool ok = true;
    busy_total = 0;
    faulted_total = 0;
    for (std::uint32_t i = 0; i < tenants; ++i) {
        if (!slots[i].ok) {
            if (tolerate_faults
                && tolerableFault(slots[i].errorKind)) {
                ++faulted_total;
                std::fprintf(stderr,
                             "bearload: tenant %u faulted "
                             "(tolerated): %s\n",
                             i, slots[i].error.c_str());
            } else {
                std::fprintf(stderr,
                             "bearload: tenant %u failed: %s\n", i,
                             slots[i].error.c_str());
                ok = false;
            }
            continue;
        }
        busy_total += slots[i].busyRetries;
        if (report.empty()) {
            report = slots[i].report;
        } else if (report != slots[i].report) {
            std::fprintf(stderr,
                         "bearload: tenant %u report diverges from "
                         "the first healthy tenant (same trace, same "
                         "design — server bug)\n",
                         i);
            ok = false;
        }
    }
    if (report.empty()) {
        std::fprintf(stderr,
                     "bearload: no tenant completed healthily\n");
        return false;
    }
    return ok;
}

/** Record a tiny deterministic 2-core trace for the self-test. */
bool
writeSelftestTrace(const std::string &path)
{
    bear::trace::TraceMeta meta;
    meta.workload = "selftest";
    meta.coreCount = 2;
    meta.seed = 7;
    auto writer = bear::trace::TraceWriter::create(path, meta);
    if (!writer.hasValue()) {
        std::fprintf(stderr, "selftest: %s\n",
                     writer.error().message().c_str());
        return false;
    }
    for (std::uint32_t i = 0; i < 512; ++i) {
        for (bear::CoreId core = 0; core < 2; ++core) {
            bear::MemRef ref;
            ref.vaddr = 0x10000 + 64ULL * ((i * 7 + core * 131) % 256);
            ref.pc = 0x400000 + 4ULL * (i % 32);
            ref.instGap = 1 + (i % 3);
            ref.isWrite = (i % 5) == 0;
            ref.dependent = (i % 2) == 0;
            auto appended = writer->append(core, ref);
            if (!appended.hasValue()) {
                std::fprintf(stderr, "selftest: %s\n",
                             appended.error().message().c_str());
                return false;
            }
        }
    }
    auto finished = writer->finish();
    if (!finished.hasValue()) {
        std::fprintf(stderr, "selftest: %s\n",
                     finished.error().message().c_str());
        return false;
    }
    return true;
}

/** Small budgets: the self-test proves plumbing, not paper numbers. */
bear::RunnerOptions
selftestBudgets()
{
    bear::RunnerOptions options;
    options.scale = 0.015625;
    options.warmupRefsPerCore = 2000;
    options.measureRefsPerCore = 1000;
    options.workers = 1;
    return options;
}

int
selftest()
{
    const std::string tag =
        std::to_string(static_cast<unsigned>(::getpid()));
    const std::string trace_path =
        "/tmp/bearload-selftest-" + tag + ".beartrace";
    const std::string socket_path =
        "/tmp/bearload-selftest-" + tag + ".sock";
    if (!writeSelftestTrace(trace_path))
        return 1;

    bool ok = true;
    auto check = [&](bool cond, const char *what) {
        if (!cond) {
            std::fprintf(stderr, "selftest: FAILED: %s\n", what);
            ok = false;
        }
    };

    std::string served;
    {
        bear::serve::ServerOptions options;
        options.socketPath = socket_path;
        options.shards = 1;
        options.queueDepth = 2;
        options.busyRetryMs = 5;
        options.run = selftestBudgets();
        bear::serve::Server server(options);
        auto started = server.start();
        check(started.hasValue(), "in-process daemon starts");
        if (started.hasValue()) {
            std::uint64_t busy = 0;
            std::uint64_t faulted = 0;
            check(runTenants(socket_path, readFileOrDie(trace_path),
                             "BEAR", 4, false, served, busy, faulted),
                  "4 concurrent tenants all complete identically");
            server.requestDrain(bear::CancelReason::None);
            check(server.serve() == 0, "drain exits 0");
        }
    }

    // The byte-identity contract: the served report must equal the
    // offline Runner's report for the same trace and design.
    if (ok) {
        bear::RunnerOptions options = selftestBudgets();
        options.cores = 2;
        options.traceInPath = trace_path;
        bear::Runner runner(options);
        const bear::RunResult offline =
            runner.runRate(bear::DesignKind::Bear, "selftest");
        check(served == bear::runResultToJson(offline),
              "served report is byte-identical to the offline run");
    }

    std::remove(trace_path.c_str());
    if (ok)
        std::printf("selftest passed\n");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const bear::tools::ToolArgs args(
        argc, argv,
        {"tenants", "design", "report", "tolerate-faults"}, kUsage);
    if (args.selftest())
        return selftest();
    if (args.positional().size() != 2)
        args.fail("expected <socket> and <trace>");

    const std::string socket_path = args.positional()[0];
    const std::string trace_path = args.positional()[1];
    const std::uint64_t tenants = args.u64Or("tenants", 8);
    if (tenants < 1 || tenants > 4096)
        args.fail("--tenants wants 1..4096");
    const std::string design = args.stringOr("design", "BEAR");
    const bool tolerate = args.u64Or("tolerate-faults", 0) != 0;

    const std::vector<std::uint8_t> trace_bytes =
        readFileOrDie(trace_path);
    std::string report;
    std::uint64_t busy = 0;
    std::uint64_t faulted = 0;
    if (!runTenants(socket_path, trace_bytes, design,
                    static_cast<std::uint32_t>(tenants), tolerate,
                    report, busy, faulted)) {
        std::fprintf(stderr, "bearload: FAILED\n");
        return 1;
    }
    std::fprintf(stderr,
                 "bearload: %llu healthy tenants, %llu faulted, "
                 "%llu busy retries\n",
                 static_cast<unsigned long long>(tenants - faulted),
                 static_cast<unsigned long long>(faulted),
                 static_cast<unsigned long long>(busy));

    const std::string report_path = args.stringOr("report", "");
    if (report_path.empty()) {
        std::printf("%s\n", report.c_str());
    } else {
        std::ofstream out(report_path,
                          std::ios::binary | std::ios::trunc);
        out << report << "\n";
        if (!out) {
            std::fprintf(stderr, "bearload: cannot write %s\n",
                         report_path.c_str());
            return 1;
        }
    }
    return 0;
}
