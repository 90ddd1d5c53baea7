/**
 * @file
 * mccheck — the command-line front end.
 *
 * Usage:
 *     mccheck --protocol <name>          check a generated paper protocol
 *     mccheck --emit-corpus <name> <dir> write its sources to disk
 *     mccheck --list                     list known protocols
 *     mccheck --metal <c.metal> <f.c>... run a user-written metal checker
 *     mccheck <file.c>...                check FLASH-dialect sources
 *
 * Observability options (combine with any checking mode):
 *     --metrics <out.json>   write the MetricsRegistry report
 *     --trace <out.json>     write a Chrome trace-event file
 *     --witness              attach witness paths (SM transition history
 *                            + CFG block path) to findings
 *     --witness-limit <n>    cap witness steps/blocks (default 16)
 *     --ledger <out.jsonl>   append a per-unit run ledger
 *     --format text|json|sarif   diagnostic output encoding
 *     --jobs <n>             checking concurrency (default: all cores)
 *
 * Caching (combine with --protocol, --metal, or file checking):
 *     --cache <dir>          persistent per-(function, checker) result
 *                            cache; unchanged units replay instead of
 *                            re-walking paths
 *     --cache-readonly       consult the cache but never write it
 *     --cache-limit-mb <n>   evict oldest entries past n MiB after a run
 *
 * Robustness (see docs/robustness.md):
 *     --unit-timeout-ms <n>  per-(function, checker) wall-clock budget
 *     --unit-max-steps <n>   per-unit path-walker step budget
 *     --fail-fast            abort the run on the first unit failure
 *     --keep-going           contain unit failures (default)
 *     --inject-fault <s:n>   arm a fault-injection probe (testing)
 *
 * Exit codes:
 *     0  clean — every unit analyzed completely, no errors found
 *     1  findings — checkers reported at least one error
 *     2  degraded — analysis incomplete somewhere (a parse error
 *        recovered into a poisoned declaration, a contained unit
 *        failure, or a budget truncation); takes precedence over 1
 *     3  fatal — usage errors, unreadable inputs, --fail-fast aborts,
 *        or an escaped internal error
 *
 * The checking pipeline itself lives in src/server/check_request.cc,
 * shared with the mccheckd daemon: this file only parses argv into a
 * server::CheckRequest and runs it against fresh (non-resident) state.
 * Output is deterministic for any --jobs value and for warm vs. cold
 * cache runs — see that file for the ordering guarantees. Cache status
 * goes to stderr only.
 *
 * When checking loose files, every CamelCase function is treated as a
 * hardware handler unless its name starts with "Sw" (software handler);
 * lowercase-named functions are plain routines — the FLASH naming
 * conventions the corpus also uses.
 */
#include "cache/analysis_cache.h"
#include "corpus/generator.h"
#include "metal/engine.h"
#include "server/check_request.h"
#include "server/daemon.h"
#include "support/fault_injection.h"
#include "support/metrics.h"
#include "support/run_ledger.h"
#include "support/text.h"
#include "support/trace.h"
#include "support/version.h"
#include "support/witness.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include <unistd.h>

namespace {

using namespace mc;

const char* const kUsage =
    "usage: mccheck [options] --protocol <name> | --list |\n"
    "       mccheck [options] --emit-corpus <name> <dir> |\n"
    "       mccheck [options] --metal <c.metal> <file.c>... |\n"
    "       mccheck [options] <file.c>...\n"
    "\n"
    "modes:\n"
    "  --protocol <name>        generate and check a paper protocol\n"
    "  --list                   list known protocols\n"
    "  --emit-corpus <name> <d> write a protocol's sources under <d>\n"
    "  --metal <c.metal> ...    run a user metal checker over sources\n"
    "  <file.c>...              check FLASH-dialect sources\n"
    "\n"
    "options:\n"
    "  --format <text|json|sarif>  diagnostic output encoding\n"
    "  --metrics <out.json>        write engine/checker metrics report\n"
    "                              (timers carry count/mean/min/max;\n"
    "                              histograms carry p50/p95/max)\n"
    "  --trace <out.json>          write Chrome trace-event JSON\n"
    "                              (open in chrome://tracing or Perfetto)\n"
    "  --witness                   record each finding's provenance: the\n"
    "                              SM transitions and CFG block path that\n"
    "                              led to it (text back-trace, JSON\n"
    "                              'witness', SARIF codeFlows); output is\n"
    "                              byte-identical for any --jobs value,\n"
    "                              either match strategy, warm or cold\n"
    "                              cache\n"
    "  --witness-limit <n>         cap witness steps/blocks per finding\n"
    "                              (default 16; truncation is marked)\n"
    "  --ledger <out.jsonl>        append one JSON line per (function,\n"
    "                              checker) unit — wall time, visits,\n"
    "                              cache status, budget/failure state —\n"
    "                              plus run_start/run_end manifests (see\n"
    "                              tools/ledger_schema.json)\n"
    "  --jobs <n>                  run checkers on n threads (default:\n"
    "                              hardware concurrency; output is\n"
    "                              byte-identical for any n)\n"
    "  --cache <dir>               reuse analysis results for unchanged\n"
    "                              (function, checker) units; output is\n"
    "                              byte-identical warm or cold\n"
    "  --match-strategy <s>        SM matching strategy: 'table'\n"
    "                              (pre-compiled transition tables, the\n"
    "                              default) or 'legacy' (re-match per\n"
    "                              visit); output is byte-identical\n"
    "                              either way\n"
    "  --prune-paths <s>           path-feasibility pruning: 'off'\n"
    "                              (the default; walk every syntactic\n"
    "                              path like the paper's tool),\n"
    "                              'correlated' (re-tests of the same\n"
    "                              condition take the same edge), or\n"
    "                              'constraints' (adds a semantic value\n"
    "                              domain: x == 5 then x > 10 prunes);\n"
    "                              each strategy's output is\n"
    "                              byte-identical for any --jobs value,\n"
    "                              warm or cold cache\n"
    "  --cache-readonly            read the cache but never write it\n"
    "                              (needs --cache)\n"
    "  --cache-limit-mb <n>        evict oldest cache entries beyond n\n"
    "                              MiB after the run (needs --cache)\n"
    "  --unit-timeout-ms <n>       wall-clock budget per (function,\n"
    "                              checker) unit; exhausted units are\n"
    "                              truncated, not killed\n"
    "  --unit-max-steps <n>        path-walker step budget per unit\n"
    "  --fail-fast                 abort on the first unit failure\n"
    "                              (exit 3) instead of containing it\n"
    "  --keep-going                contain unit failures and keep\n"
    "                              checking (default)\n"
    "  --inject-fault <site:n>     arm a fault-injection probe (also\n"
    "                              via MCCHECK_FAULT_INJECT)\n"
    "  --shards <n>                run (function, checker) units in n\n"
    "                              supervised worker processes; output\n"
    "                              is byte-identical to an in-process\n"
    "                              run at any n, even when workers crash\n"
    "                              and are respawned (--protocol and\n"
    "                              file checking; see docs/sharding.md)\n"
    "  --shard-batch-units <n>     units per shard work batch\n"
    "                              (default 16)\n"
    "  --shard-batch-timeout-ms <n> kill + respawn a worker holding one\n"
    "                              batch longer than n ms (default: no\n"
    "                              deadline; heartbeat supervision still\n"
    "                              applies)\n"
    "  --shard-backoff-ms <n>      worker respawn backoff base, doubled\n"
    "                              per consecutive crash and capped\n"
    "                              (default 50; timing only, never\n"
    "                              output bytes)\n"
    "  --shard-worker              internal: serve check_units batches\n"
    "                              on stdin/stdout for a --shards\n"
    "                              coordinator\n"
    "  --help                      show this help\n"
    "  --version                   print version and exit\n"
    "\n"
    "exit codes: 0 clean, 1 findings, 2 degraded (incomplete analysis;\n"
    "wins over 1), 3 fatal (usage, unreadable input, --fail-fast)\n";

/** Parsed command line: one mode plus cross-cutting options. */
struct CliOptions
{
    enum class Mode
    {
        Help,
        Version,
        List,
        Protocol,
        EmitCorpus,
        Metal,
        Files,
        /** Serve check_units batches on stdin/stdout (internal). */
        ShardWorker,
    };

    Mode mode = Mode::Files;
    std::string protocol;
    std::string emit_dir;
    std::string metal_path;
    std::vector<std::string> files;
    std::string metrics_path;
    std::string trace_path;
    /** Attach witness paths (provenance) to findings. */
    bool witness = false;
    /** Witness step/block cap; 0 = the built-in default. */
    unsigned long witness_limit = 0;
    /** Run-ledger JSONL path; empty = ledger off. */
    std::string ledger_path;
    support::OutputFormat format = support::OutputFormat::Text;
    /** Checking concurrency; 0 = one lane per hardware thread. */
    unsigned jobs = 0;
    /** Analysis cache directory; empty = caching off. */
    std::string cache_dir;
    bool cache_readonly = false;
    /** Cache size cap in MiB enforced after the run; 0 = unlimited. */
    unsigned long cache_limit_mb = 0;
    /** Per-unit wall-clock budget in ms; 0 = unlimited. */
    unsigned long unit_timeout_ms = 0;
    /** Per-unit path-walker step budget; 0 = unlimited. */
    unsigned long unit_max_steps = 0;
    /** Path-feasibility pruning strategy for every checker's walks. */
    metal::PruneStrategy prune_strategy = metal::PruneStrategy::Off;
    /** SM matching strategy (both produce identical bytes). */
    metal::MatchStrategy match_strategy = metal::MatchStrategy::Table;
    /** Abort on the first contained unit failure instead of degrading. */
    bool fail_fast = false;
    /** Fault-injection spec ("site:n"); empty = use the env var only. */
    std::string inject_fault;
    /** Shard worker processes; 0 = in-process checking. */
    unsigned shards = 0;
    /** Units per shard work batch. */
    unsigned long shard_batch_units = 16;
    /** Per-batch wall-clock deadline in ms (0 = none). */
    unsigned long shard_batch_timeout_ms = 0;
    /** Worker respawn backoff base in ms. */
    unsigned long shard_backoff_ms = 50;
};

/** Print `what` plus usage to stderr; used for every CLI error. */
int
usageError(const std::string& what)
{
    std::cerr << "mccheck: " << what << '\n' << kUsage;
    return 3;
}

/**
 * Parse a whole-string decimal count for `flag` into `out`. Reports
 * exactly why a value was rejected — the stoul failure modes
 * (non-numeric, out of range) used to be swallowed by a bare catch and
 * surfaced as a generic usage error.
 */
bool
parseCount(const std::string& flag, const std::string& value,
           unsigned long& out)
{
    std::size_t used = 0;
    try {
        out = std::stoul(value, &used);
    } catch (const std::invalid_argument&) {
        std::cerr << "mccheck: " << flag << ": '" << value
                  << "' is not a number\n";
        return false;
    } catch (const std::out_of_range&) {
        std::cerr << "mccheck: " << flag << ": '" << value
                  << "' is out of range for unsigned long\n";
        return false;
    }
    if (used != value.size()) {
        std::cerr << "mccheck: " << flag << ": trailing characters in '"
                  << value << "'\n";
        return false;
    }
    return true;
}

/**
 * Parse argv into `out`. Returns -1 on success or the exit code to
 * return immediately (usage errors).
 */
int
parseArgs(const std::vector<std::string>& args, CliOptions& out)
{
    auto need_value = [&](std::size_t i, const std::string& flag,
                          std::string& value) -> bool {
        if (i + 1 >= args.size())
            return false;
        value = args[i + 1];
        (void)flag;
        return true;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (arg == "--help" || arg == "-h") {
            out.mode = CliOptions::Mode::Help;
            return -1;
        }
        if (arg == "--version") {
            out.mode = CliOptions::Mode::Version;
            return -1;
        }
        if (arg == "--list") {
            out.mode = CliOptions::Mode::List;
        } else if (arg == "--protocol") {
            if (!need_value(i, arg, out.protocol))
                return usageError("--protocol needs a protocol name");
            out.mode = CliOptions::Mode::Protocol;
            ++i;
        } else if (arg == "--emit-corpus") {
            if (i + 2 >= args.size())
                return usageError(
                    "--emit-corpus needs a protocol name and a directory");
            out.protocol = args[i + 1];
            out.emit_dir = args[i + 2];
            out.mode = CliOptions::Mode::EmitCorpus;
            i += 2;
        } else if (arg == "--metal") {
            if (!need_value(i, arg, out.metal_path))
                return usageError("--metal needs a .metal file");
            out.mode = CliOptions::Mode::Metal;
            ++i;
        } else if (arg == "--metrics") {
            if (!need_value(i, arg, out.metrics_path))
                return usageError("--metrics needs an output path");
            ++i;
        } else if (arg == "--trace") {
            if (!need_value(i, arg, out.trace_path))
                return usageError("--trace needs an output path");
            ++i;
        } else if (arg == "--witness") {
            out.witness = true;
        } else if (arg == "--witness-limit") {
            std::string value;
            if (!need_value(i, arg, value))
                return usageError("--witness-limit needs a step count");
            unsigned long parsed = 0;
            if (!parseCount(arg, value, parsed) || parsed == 0)
                return usageError(
                    "--witness-limit needs a positive step count, "
                    "got '" + value + "'");
            out.witness_limit = parsed;
            ++i;
        } else if (arg == "--ledger") {
            if (!need_value(i, arg, out.ledger_path))
                return usageError("--ledger needs an output path");
            ++i;
        } else if (arg == "--jobs") {
            std::string value;
            if (!need_value(i, arg, value))
                return usageError("--jobs needs a positive thread count");
            unsigned long parsed = 0;
            if (!parseCount(arg, value, parsed) || parsed == 0 ||
                parsed > 1024)
                return usageError("--jobs needs a thread count in 1..1024, "
                                  "got '" + value + "'");
            out.jobs = static_cast<unsigned>(parsed);
            ++i;
        } else if (arg == "--match-strategy") {
            std::string value;
            if (!need_value(i, arg, value))
                return usageError(
                    std::string("--match-strategy needs a value, one of ") +
                    metal::matchStrategyChoices());
            std::optional<metal::MatchStrategy> strategy =
                metal::parseMatchStrategy(value);
            if (!strategy)
                return usageError(
                    std::string("--match-strategy must be one of ") +
                    metal::matchStrategyChoices() + ", got '" + value +
                    "'");
            out.match_strategy = *strategy;
            ++i;
        } else if (arg == "--prune-paths") {
            std::string value;
            if (!need_value(i, arg, value))
                return usageError("--prune-paths needs a value (off, "
                                  "correlated, or constraints)");
            std::optional<metal::PruneStrategy> strategy =
                metal::parsePruneStrategy(value);
            if (!strategy)
                return usageError("--prune-paths must be 'off', "
                                  "'correlated', or 'constraints', got '" +
                                  value + "'");
            out.prune_strategy = *strategy;
            ++i;
        } else if (arg == "--cache") {
            if (!need_value(i, arg, out.cache_dir))
                return usageError("--cache needs a directory");
            ++i;
        } else if (arg == "--cache-readonly") {
            out.cache_readonly = true;
        } else if (arg == "--cache-limit-mb") {
            std::string value;
            if (!need_value(i, arg, value))
                return usageError("--cache-limit-mb needs a size in MiB");
            unsigned long parsed = 0;
            if (!parseCount(arg, value, parsed) || parsed == 0)
                return usageError(
                    "--cache-limit-mb needs a positive size in MiB, "
                    "got '" + value + "'");
            out.cache_limit_mb = parsed;
            ++i;
        } else if (arg == "--unit-timeout-ms") {
            std::string value;
            if (!need_value(i, arg, value))
                return usageError("--unit-timeout-ms needs a duration");
            unsigned long parsed = 0;
            if (!parseCount(arg, value, parsed) || parsed == 0)
                return usageError(
                    "--unit-timeout-ms needs a positive duration in "
                    "milliseconds, got '" + value + "'");
            out.unit_timeout_ms = parsed;
            ++i;
        } else if (arg == "--unit-max-steps") {
            std::string value;
            if (!need_value(i, arg, value))
                return usageError("--unit-max-steps needs a step count");
            unsigned long parsed = 0;
            if (!parseCount(arg, value, parsed) || parsed == 0)
                return usageError(
                    "--unit-max-steps needs a positive step count, "
                    "got '" + value + "'");
            out.unit_max_steps = parsed;
            ++i;
        } else if (arg == "--fail-fast") {
            out.fail_fast = true;
        } else if (arg == "--keep-going") {
            out.fail_fast = false;
        } else if (arg == "--inject-fault") {
            if (!need_value(i, arg, out.inject_fault))
                return usageError("--inject-fault needs a <site>:<n> spec");
            ++i;
        } else if (arg == "--shards") {
            std::string value;
            if (!need_value(i, arg, value))
                return usageError("--shards needs a worker count");
            unsigned long parsed = 0;
            if (!parseCount(arg, value, parsed) || parsed == 0 ||
                parsed > 64)
                return usageError("--shards needs a worker count in "
                                  "1..64, got '" + value + "'");
            out.shards = static_cast<unsigned>(parsed);
            ++i;
        } else if (arg == "--shard-batch-units") {
            std::string value;
            if (!need_value(i, arg, value))
                return usageError("--shard-batch-units needs a unit count");
            unsigned long parsed = 0;
            if (!parseCount(arg, value, parsed) || parsed == 0 ||
                parsed > 4096)
                return usageError("--shard-batch-units needs a unit count "
                                  "in 1..4096, got '" + value + "'");
            out.shard_batch_units = parsed;
            ++i;
        } else if (arg == "--shard-batch-timeout-ms") {
            std::string value;
            if (!need_value(i, arg, value))
                return usageError(
                    "--shard-batch-timeout-ms needs a duration");
            unsigned long parsed = 0;
            if (!parseCount(arg, value, parsed) || parsed == 0)
                return usageError(
                    "--shard-batch-timeout-ms needs a positive duration "
                    "in milliseconds, got '" + value + "'");
            out.shard_batch_timeout_ms = parsed;
            ++i;
        } else if (arg == "--shard-backoff-ms") {
            std::string value;
            if (!need_value(i, arg, value))
                return usageError("--shard-backoff-ms needs a duration");
            unsigned long parsed = 0;
            if (!parseCount(arg, value, parsed) || parsed == 0)
                return usageError(
                    "--shard-backoff-ms needs a positive duration in "
                    "milliseconds, got '" + value + "'");
            out.shard_backoff_ms = parsed;
            ++i;
        } else if (arg == "--shard-worker") {
            out.mode = CliOptions::Mode::ShardWorker;
        } else if (arg == "--format") {
            std::string name;
            if (!need_value(i, arg, name))
                return usageError("--format needs text, json, or sarif");
            if (!support::parseOutputFormat(name, out.format))
                return usageError("unknown format '" + name +
                                  "' (expected text, json, or sarif)");
            ++i;
        } else if (support::startsWith(arg, "-") && arg != "-") {
            return usageError("unknown option '" + arg + "'");
        } else {
            out.files.push_back(arg);
        }
    }
    if (out.cache_dir.empty() && out.cache_readonly)
        return usageError("--cache-readonly needs --cache");
    if (out.cache_dir.empty() && out.cache_limit_mb > 0)
        return usageError("--cache-limit-mb needs --cache");
    return -1;
}

int
listProtocols()
{
    for (const corpus::ProtocolProfile& profile : corpus::paperProfiles())
        std::cout << profile.name << '\n';
    return 0;
}

int
emitCorpus(const std::string& name, const std::string& dir)
{
    corpus::GeneratedProtocol gen =
        corpus::generateProtocol(corpus::profileByName(name));
    for (const corpus::GeneratedFile& file : gen.files) {
        std::filesystem::path path =
            std::filesystem::path(dir) / file.name;
        std::filesystem::create_directories(path.parent_path());
        std::ofstream out(path);
        out << file.source;
    }
    std::cout << "wrote " << gen.files.size() << " files ("
              << gen.totalLoc() << " LOC) under " << dir << '\n';
    return 0;
}

/**
 * Absolute path of this executable (for shard worker argv): workers
 * must be respawnable at any point of the run, so the path has to stay
 * valid even if the invoker's argv[0] was relative and the coordinator
 * later changes directory.
 */
std::string
selfExecutable(const std::string& argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0)
        return std::string(buf, static_cast<std::size_t>(n));
    return argv0;
}

/**
 * Serve `check_units` batches for a `--shards` coordinator: one
 * request line in, one response line out, over stdin/stdout (the
 * coordinator's socketpair). A detached-looking heartbeat thread
 * interleaves `{"heartbeat": n}` lines so the supervisor can tell a
 * busy worker from a dead one; both streams share one write mutex so
 * heartbeats never tear a response line.
 */
int
runShardWorker()
{
    // No disk cache and no ledger: the coordinator owns persistent
    // state, workers are disposable by design.
    server::DaemonOptions dopts;
    dopts.default_jobs = 1;
    server::Daemon daemon(dopts);
    std::mutex write_mu;
    std::atomic<bool> done{false};
    std::thread heartbeat([&] {
        std::uint64_t beats = 0;
        while (!done.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(250));
            if (done.load(std::memory_order_acquire))
                break;
            std::lock_guard<std::mutex> lock(write_mu);
            std::cout << "{\"heartbeat\": " << ++beats << "}\n"
                      << std::flush;
        }
    });
    std::string line;
    while (std::getline(std::cin, line)) {
        const std::string response = daemon.handleRequestLine(line);
        {
            std::lock_guard<std::mutex> lock(write_mu);
            std::cout << response << '\n' << std::flush;
        }
        if (daemon.shutdownRequested())
            break;
    }
    done.store(true, std::memory_order_release);
    heartbeat.join();
    return 0;
}

/** The checking-mode portion of the CLI as one engine request. */
server::CheckRequest
toCheckRequest(const CliOptions& opts, const std::string& self_exe)
{
    server::CheckRequest req;
    switch (opts.mode) {
      case CliOptions::Mode::Protocol:
        req.mode = server::CheckRequest::Mode::Protocol;
        break;
      case CliOptions::Mode::Metal:
        req.mode = server::CheckRequest::Mode::Metal;
        break;
      default:
        req.mode = server::CheckRequest::Mode::Files;
        break;
    }
    req.protocol = opts.protocol;
    req.metal_path = opts.metal_path;
    req.files = opts.files;
    req.format = opts.format;
    req.jobs = opts.jobs;
    req.prune_strategy = opts.prune_strategy;
    req.unit_timeout_ms = opts.unit_timeout_ms;
    req.unit_max_steps = opts.unit_max_steps;
    req.fail_fast = opts.fail_fast;
    req.witness = opts.witness;
    req.witness_limit = static_cast<unsigned>(opts.witness_limit);
    req.match_strategy = opts.match_strategy;
    req.shards = opts.shards;
    req.shard_batch_units = opts.shard_batch_units;
    req.shard_batch_timeout_ms = opts.shard_batch_timeout_ms;
    req.shard_backoff_ms = opts.shard_backoff_ms;
    if (opts.shards > 0) {
        req.shard_worker_argv = {self_exe, "--shard-worker"};
        // The MCCHECK_FAULT_INJECT environment variable is inherited by
        // forked workers automatically; the CLI flag must be forwarded
        // explicitly so both arming paths reach worker probe sites.
        if (!opts.inject_fault.empty()) {
            req.shard_worker_argv.push_back("--inject-fault");
            req.shard_worker_argv.push_back(opts.inject_fault);
        }
    }
    return req;
}

/** Write metrics / trace reports if requested. Returns false on I/O error. */
bool
writeObservabilityOutputs(const CliOptions& opts)
{
    bool ok = true;
    if (!opts.metrics_path.empty()) {
        std::ofstream out(opts.metrics_path);
        if (!out) {
            std::cerr << "mccheck: cannot write " << opts.metrics_path
                      << '\n';
            ok = false;
        } else {
            support::MetricsRegistry::global().writeJson(out);
        }
    }
    if (!opts.trace_path.empty()) {
        std::ofstream out(opts.trace_path);
        if (!out) {
            std::cerr << "mccheck: cannot write " << opts.trace_path
                      << '\n';
            ok = false;
        } else {
            support::TraceRecorder::global().writeJson(out);
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        std::cerr << kUsage;
        return 3;
    }

    CliOptions opts;
    if (int rc = parseArgs(args, opts); rc >= 0)
        return rc;

    // Arm fault injection before any probe site can run. The CLI flag
    // wins over the environment variable.
    if (!opts.inject_fault.empty()) {
        if (!support::fault::arm(opts.inject_fault))
            return usageError(
                "--inject-fault needs <site>:<n> with n >= 1, got '" +
                opts.inject_fault +
                "' (or this build has MCHECK_FAULT_INJECTION off)");
    } else {
        support::fault::armFromEnv();
    }

    if (opts.mode == CliOptions::Mode::Help) {
        std::cout << kUsage;
        return 0;
    }
    if (opts.mode == CliOptions::Mode::ShardWorker)
        return runShardWorker();
    if (opts.shards > 0 && opts.mode == CliOptions::Mode::Metal)
        return usageError("--shards supports --protocol and file "
                          "checking only");
    if (opts.mode == CliOptions::Mode::Version) {
        std::cout << support::kToolName << ' ' << support::kToolVersion
                  << '\n';
        return 0;
    }

    if (!opts.metrics_path.empty())
        support::MetricsRegistry::global().setEnabled(true);
    if (!opts.trace_path.empty())
        support::TraceRecorder::global().setEnabled(true);
    // Installed here so the ledger manifest reads the effective limit;
    // runCheckRequest re-installs the same values per run.
    support::setWitnessConfig(opts.witness,
                              static_cast<unsigned>(opts.witness_limit));
    if (!opts.ledger_path.empty()) {
        support::RunLedger& ledger = support::RunLedger::global();
        if (!ledger.open(opts.ledger_path)) {
            std::cerr << "mccheck: cannot write " << opts.ledger_path
                      << '\n';
            return 3;
        }
        ledger.runStart(args, opts.witness, support::witnessLimit(),
                        opts.jobs);
    }

    // The cache touches stderr only: findings on stdout must stay
    // byte-identical between cold and warm runs.
    std::unique_ptr<cache::AnalysisCache> cache;
    if (!opts.cache_dir.empty()) {
        try {
            cache = std::make_unique<cache::AnalysisCache>(
                opts.cache_dir, opts.cache_readonly);
        } catch (const std::exception& e) {
            std::cerr << "mccheck: " << e.what() << '\n';
            return 3;
        }
    }

    try {
        int rc = 0;
        int run_errors = 0;
        int run_warnings = 0;
        switch (opts.mode) {
          case CliOptions::Mode::List:
            rc = listProtocols();
            break;
          case CliOptions::Mode::EmitCorpus:
            rc = emitCorpus(opts.protocol, opts.emit_dir);
            break;
          case CliOptions::Mode::Metal:
          case CliOptions::Mode::Files:
            if (opts.files.empty())
                return usageError(opts.mode == CliOptions::Mode::Metal
                                      ? "--metal needs source files to "
                                        "check"
                                      : "no input files");
            [[fallthrough]];
          case CliOptions::Mode::Protocol: {
            // Batch = the shared pipeline against fresh state: no
            // resident snapshots, reads straight from disk.
            const server::CheckOutcome outcome = server::runCheckRequest(
                toCheckRequest(opts, selfExecutable(argv[0])),
                cache.get(), /*resident=*/nullptr, std::cout, std::cerr);
            rc = outcome.exit_code;
            run_errors = outcome.errors;
            run_warnings = outcome.warnings;
            break;
          }
          case CliOptions::Mode::Help:
          case CliOptions::Mode::Version:
          case CliOptions::Mode::ShardWorker:
            break;
        }
        if (cache) {
            if (opts.cache_limit_mb > 0)
                cache->trim(opts.cache_limit_mb * 1024ull * 1024ull);
            cache->flush();
            for (const std::string& warning : cache->takeWarnings())
                std::cerr << "mccheck: cache: " << warning << '\n';
            const cache::CacheStats cs = cache->stats();
            std::cerr << "mccheck: cache: " << cs.hits << " hit(s), "
                      << cs.misses << " miss(es), " << cs.stores
                      << " stored, " << cs.evictions << " evicted\n";
        }
        if (!writeObservabilityOutputs(opts))
            rc = 3;
        support::RunLedger::global().runEnd(rc, run_errors,
                                            run_warnings);
        return rc;
    } catch (const std::exception& e) {
        // Anything that escapes containment — including fault-injection
        // probes outside any run — is fatal.
        std::cerr << "mccheck: " << e.what() << '\n';
        return 3;
    }
}
