/**
 * @file
 * The one way a (function x checker) unit runs, replays and merges.
 *
 * Every execution path — the in-process pool, the analysis cache, the
 * checking daemon, shard workers and their coordinator, and metal mode
 * — goes through these functions, so their bytes agree by construction:
 * a unit's outcome is a pure function of its identity, and the merge
 * folds outcomes in the sequential visit order wherever they came from.
 */
#include "checkers/unit_executor.h"

#include "checkers/unit_guard.h"
#include "flash/protocol_spec.h"
#include "lang/fingerprint.h"
#include "support/fault_injection.h"
#include "support/hash.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "support/version.h"
#include "support/witness.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

namespace mc::checkers {

namespace {

using Clock = std::chrono::steady_clock;

support::TraceRecorder*
activeTracer()
{
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    return tracer.enabled() ? &tracer : nullptr;
}

} // namespace

const cfg::Cfg&
CfgCache::get(const lang::FunctionDecl& fn, bool* reused)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = cfgs.find(&fn);
        if (reused)
            *reused = it != cfgs.end();
        if (it != cfgs.end())
            return it->second;
    }
    cfg::Cfg built = cfg::CfgBuilder::build(fn);
    built.backEdges();
    std::lock_guard<std::mutex> lock(mu);
    return cfgs.emplace(&fn, std::move(built)).first->second;
}

namespace {

/** The column half of unitCacheKey: the FNV-1a state after every
 *  ingredient one checker's units share (all but the fingerprints). */
std::uint64_t
unitKeyPrefix(const std::string& checker_name,
              const CheckerSetOptions& options)
{
    support::Fnv1a h;
    h.i64(cache::kCacheFormatVersion);
    h.str(support::kToolVersion);
    h.str(checker_name);
    h.str(builtinMetalSource(checker_name));
    h.u8(options.value_sensitive_frees ? 1 : 0);
    // PruneStrategy::Off encodes 0 — the byte the old boolean flag
    // wrote — so existing cache entries stay valid for unpruned runs.
    h.u8(static_cast<std::uint8_t>(options.prune_strategy));
    // Witness capture changes the bytes a unit produces (diagnostics
    // carry provenance), so witness-on and witness-off runs must never
    // share an entry — and neither may runs with different caps.
    h.u8(support::witnessEnabled() ? 1 : 0);
    h.u64(support::witnessLimit());
    return h.value();
}

/** The unit half: `prefix` resumed with the two fingerprints. */
std::uint64_t
unitKey(std::uint64_t prefix, std::uint64_t spec_fp, std::uint64_t fn_fp)
{
    return support::Fnv1a::resume(prefix).u64(spec_fp).u64(fn_fp).value();
}

} // namespace

std::uint64_t
unitCacheKey(const std::string& checker_name,
             const CheckerSetOptions& options, std::uint64_t spec_fp,
             std::uint64_t fn_fp)
{
    return unitKey(unitKeyPrefix(checker_name, options), spec_fp, fn_fp);
}

UnitGrid
builtinGrid(const lang::Program& program, const flash::ProtocolSpec& spec,
            const std::vector<Checker*>& checkers,
            const CheckerSetOptions& options)
{
    const std::vector<std::string>& known = allCheckerNames();
    for (Checker* checker : checkers)
        if (std::find(known.begin(), known.end(), checker->name()) ==
            known.end())
            throw std::invalid_argument(
                "checker '" + checker->name() +
                "' is not registered; units need makeChecker to rebuild "
                "it");
    UnitGrid grid{program, spec, checkers, nullptr, nullptr};
    grid.make = [checkers, options](std::size_t c) {
        return makeChecker(checkers[c]->name(), options);
    };
    // The column's share of the key is hashed once per grid, not per
    // unit: it covers the whole metal source of the metal checkers.
    std::vector<std::uint64_t> prefixes;
    for (Checker* checker : checkers)
        prefixes.push_back(unitKeyPrefix(checker->name(), options));
    grid.key = [prefixes = std::move(prefixes)](std::size_t c,
                                                std::uint64_t spec_fp,
                                                std::uint64_t fn_fp) {
        return unitKey(prefixes[c], spec_fp, fn_fp);
    };
    return grid;
}

void
failUnit(const UnitGrid& grid, std::size_t u, UnitResult& result,
         std::string error)
{
    const lang::FunctionDecl& fn = grid.function(u);
    const std::string& checker = grid.master(u).name();
    support::DiagnosticSink sink;
    sink.warning(fn.loc, "engine", "unit-failure",
                 "analysis incomplete: " + checker + " failed on '" +
                     fn.name + "': " + error);
    result.checker = grid.make(u % grid.columns());
    result.diags = sink.diagnostics();
    result.failed = true;
    result.error = std::move(error);
    result.hit = false;
}

UnitResult
runUnit(const UnitGrid& grid, std::size_t u, CfgCache& cfgs,
        const support::BudgetLimits& budget)
{
    const lang::FunctionDecl& fn = grid.function(u);
    const std::string& checker_name = grid.master(u).name();
    const std::string label = grid.label(u);
    UnitResult result;
    support::TraceRecorder* tracer = activeTracer();
    support::TraceSpan span(tracer, checker_name, "checker");
    if (tracer)
        span.arg("function", fn.name);
    // Visit accumulator for the ledger: every walk this unit performs
    // publishes into it through the thread-local scope.
    support::LedgerUnitScope stats_scope(&result.stats);
    const Clock::time_point t0 = Clock::now();
    support::DiagnosticSink sink;
    UnitOutcome outcome = UnitGuard(label, budget).run([&] {
        // Keyed by the unit's identity: the same units fault no matter
        // how units are scheduled across lanes and processes.
        support::fault::probe("checker.unit", label);
        result.checker = grid.make(u % grid.columns());
        CheckContext ctx{grid.program, grid.spec, sink};
        result.checker->checkFunction(fn, cfgs.get(fn), ctx);
    });
    result.budget_stop = outcome.budget_stop;
    if (outcome.failed) {
        failUnit(grid, u, result, std::move(outcome.error));
    } else {
        if (outcome.budget_stop != support::BudgetStop::None)
            sink.warning(fn.loc, "engine", "budget-exhausted",
                         "analysis truncated: " + checker_name + " on '" +
                             fn.name + "' exhausted its " +
                             support::budgetStopName(outcome.budget_stop) +
                             " budget");
        result.diags = sink.diagnostics();
    }
    result.wall = Clock::now() - t0;
    return result;
}

bool
replayUnit(const UnitGrid& grid, std::size_t u,
           const cache::CachedUnit& stored,
           const std::map<std::string, std::int32_t>& file_ids,
           UnitResult& result)
{
    if (stored.checker != grid.master(u).name() ||
        stored.function != grid.function(u).name)
        return false;
    std::vector<support::Diagnostic> diags;
    for (const cache::CachedDiagnostic& cached : stored.diags) {
        support::Diagnostic d;
        if (!cache::AnalysisCache::fromCached(cached, file_ids, d))
            return false;
        diags.push_back(std::move(d));
    }
    std::unique_ptr<Checker> checker = grid.make(u % grid.columns());
    std::istringstream state(stored.state);
    if (!checker->loadState(state))
        return false;
    result.checker = std::move(checker);
    result.diags = std::move(diags);
    return true;
}

cache::CachedUnit
cachedUnit(const UnitGrid& grid, std::size_t u, const UnitResult& result)
{
    cache::CachedUnit unit;
    unit.checker = grid.master(u).name();
    unit.function = grid.function(u).name;
    std::ostringstream state;
    result.checker->saveState(state);
    unit.state = state.str();
    for (const support::Diagnostic& d : result.diags)
        unit.diags.push_back(cache::AnalysisCache::toCached(
            d, grid.program.sourceManager()));
    return unit;
}

std::vector<std::uint64_t>
lookupUnits(const UnitGrid& grid, cache::AnalysisCache* cache,
            support::ThreadPool& pool, std::vector<UnitResult>& results)
{
    std::vector<std::uint64_t> keys(grid.size(), 0);
    if (!cache)
        return keys;
    support::TraceSpan span(activeTracer(), "cache.lookup", "cache");
    const std::vector<std::optional<std::uint64_t>> fn_fps =
        lang::functionFingerprints(grid.program);
    const std::map<std::string, std::int32_t> file_ids =
        cache::AnalysisCache::fileIdsByName(grid.program.sourceManager());
    const std::uint64_t spec_fp = flash::specFingerprint(grid.spec);
    pool.parallelFor(grid.size(), [&](std::size_t u) {
        const std::optional<std::uint64_t>& fn_fp =
            fn_fps[u / grid.columns()];
        if (!fn_fp)
            return;
        keys[u] = grid.key(u % grid.columns(), spec_fp, *fn_fp);
        cache::CachedUnit stored;
        if (cache->lookup(keys[u], stored) &&
            replayUnit(grid, u, stored, file_ids, results[u]))
            results[u].hit = true;
    });
    return keys;
}

void
storeUnit(const UnitGrid& grid, std::size_t u, cache::AnalysisCache* cache,
          std::uint64_t key, const UnitResult& result,
          const cache::CachedUnit* stored)
{
    if (!cache || cache->readonly() || key == 0 || !storable(result))
        return;
    cache->store(key, stored ? *stored : cachedUnit(grid, u, result));
}

void
registerUnitMetrics()
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (!metrics.enabled())
        return;
    for (const char* name :
         {"engine.unit_failures", "budget.truncations", "witness.steps",
          "witness.truncations", "ledger.events", "walker.infeasible_pruned",
          "walker.prune_cache_hits", "walker.prune_skipped_nary",
          "metal.programs_parsed", "checker.instances_built",
          "engine.table_memo_hits", "engine.table_memo_misses",
          "lang.fingerprint_memo_hits", "lang.fingerprint_memo_misses"})
        metrics.counter(name).add(0);
    metrics.histogram("unit.wall_ns");
    metrics.histogram("unit.visits");
}

std::vector<CheckerRunStats>
mergeUnits(const UnitGrid& grid, std::vector<UnitResult>& results,
           support::DiagnosticSink& sink, const MergeOptions& options)
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::RunLedger& ledger = support::RunLedger::global();
    CheckerRun run(grid.checkers, sink);
    std::set<std::int32_t> degraded_files;
    if (ledger.enabled())
        for (const lang::TranslationUnit& tu : grid.program.units())
            if (!tu.issues.empty())
                degraded_files.insert(tu.file_id);

    std::uint64_t failures = 0;
    std::uint64_t truncations = 0;
    std::uint64_t witness_truncations = 0;
    for (std::size_t u = 0; u < results.size(); ++u) {
        const UnitResult& r = results[u];
        const lang::FunctionDecl& fn = grid.function(u);
        const std::size_t c = u % grid.columns();
        if (options.fail_fast && r.failed)
            throw std::runtime_error("unit '" + grid.label(u) +
                                     "' failed: " + r.error);
        const bool truncated = r.budget_stop != support::BudgetStop::None;
        grid.checkers[c]->absorb(*r.checker);
        run.elapsed[c] += r.wall;
        for (const support::Diagnostic& d : r.diags) {
            witness_truncations += d.witness.truncated ? 1 : 0;
            sink.report(d);
        }
        failures += r.failed ? 1 : 0;
        truncations += truncated ? 1 : 0;
        if (ledger.enabled()) {
            support::LedgerUnitEvent event;
            event.function = fn.name;
            event.checker = grid.checkers[c]->name();
            event.wall_ms =
                std::chrono::duration<double, std::milli>(r.wall).count();
            event.visits = r.stats.visits;
            event.pruned_edges = r.stats.pruned_edges;
            event.prune_cache_hits = r.stats.prune_cache_hits;
            event.prune_skipped_nary = r.stats.prune_skipped_nary;
            event.cache = !options.cached ? "off" : r.hit ? "hit" : "miss";
            event.budget_stop = support::budgetStopName(r.budget_stop);
            event.truncated = truncated;
            event.failed = r.failed;
            event.degraded_parse = degraded_files.count(fn.loc.file_id) != 0;
            event.worker = r.worker;
            event.attempts = r.attempts;
            ledger.unit(event);
        }
        if (metrics.enabled() && !r.hit) {
            metrics.histogram("unit.wall_ns")
                .observe(static_cast<std::uint64_t>(r.wall.count()));
            metrics.histogram("unit.visits").observe(r.stats.visits);
        }
    }
    if (options.health) {
        options.health->unit_failures += failures;
        options.health->budget_truncations += truncations;
    }
    if (metrics.enabled()) {
        metrics.counter("engine.unit_failures").add(failures);
        metrics.counter("budget.truncations").add(truncations);
        metrics.counter("witness.truncations").add(witness_truncations);
    }

    CheckContext ctx{grid.program, grid.spec, sink};
    return run.finish(ctx);
}

} // namespace mc::checkers
