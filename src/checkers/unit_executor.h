#ifndef MCHECK_CHECKERS_UNIT_EXECUTOR_H
#define MCHECK_CHECKERS_UNIT_EXECUTOR_H

#include "cache/analysis_cache.h"
#include "checkers/checker.h"
#include "checkers/registry.h"
#include "support/budget.h"
#include "support/run_ledger.h"
#include "support/thread_pool.h"

#include <chrono>
#include <functional>
#include <map>
#include <mutex>

namespace mc::checkers {

/**
 * The CFG store every unit reads its function's CFG from: resident in
 * the checking daemon, local to the run otherwise.
 *
 * Keyed by function *declaration pointer*: the AST arena is append-only,
 * so a declaration that survives an incremental re-parse keeps its
 * address (and its CFG here stays valid — CFGs hold pointers into the
 * same arena), while a re-parsed file's functions get fresh declarations
 * and therefore fresh entries. Stale entries for replaced declarations
 * are never looked up again; they are reclaimed when the owner drops the
 * whole cache (the daemon does so whenever it rebuilds a program).
 */
struct CfgCache
{
    mutable std::mutex mu;
    std::map<const lang::FunctionDecl*, cfg::Cfg> cfgs;

    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return cfgs.size();
    }

    /**
     * The CFG of `fn`, built on first use. The build (and its
     * backEdges() warm-up, whose lazily-filled cache is not
     * synchronized) happens outside the lock while the CFG still has a
     * single owner, so concurrent units only ever *read* a published
     * CFG. std::map nodes are address-stable, so the reference stays
     * good as other functions insert. `reused`, when given, reports
     * whether the CFG was already resident.
     */
    const cfg::Cfg& get(const lang::FunctionDecl& fn,
                        bool* reused = nullptr);
};

/**
 * Containment tally for one run: how many work units failed under their
 * UnitGuard and how many were truncated by their resource budget. The
 * driver maps either (or frontend issues) to the "degraded" exit code.
 */
struct RunHealth
{
    std::uint64_t unit_failures = 0;
    std::uint64_t budget_truncations = 0;

    bool degraded() const { return unit_failures > 0; }
};

/**
 * The (function x checker) grid one run covers. Unit u is function
 * u / columns() crossed with checker column u % columns(), so walking u
 * in order is the sequential runner's function-major visit order.
 */
struct UnitGrid
{
    const lang::Program& program;
    const flash::ProtocolSpec& spec;
    /** Master instance per column; they absorb the units at merge. */
    std::vector<Checker*> checkers;
    /** A fresh private instance of column `c`. */
    std::function<std::unique_ptr<Checker>(std::size_t c)> make;
    /** Cache key of column `c` over a function fingerprint. */
    std::function<std::uint64_t(std::size_t c, std::uint64_t spec_fp,
                                std::uint64_t fn_fp)>
        key;

    std::size_t columns() const { return checkers.size(); }
    std::size_t size() const
    {
        return program.functions().size() * checkers.size();
    }
    const lang::FunctionDecl& function(std::size_t u) const
    {
        return *program.functions()[u / checkers.size()];
    }
    Checker& master(std::size_t u) const
    {
        return *checkers[u % checkers.size()];
    }
    /** "function/checker", the unit's identity in probes and messages. */
    std::string label(std::size_t u) const
    {
        return function(u).name + "/" + master(u).name();
    }
};

/**
 * The grid of built-in checkers: private instances come from
 * makeChecker with `options`, keys from unitCacheKey. Throws
 * std::invalid_argument for a checker name the registry does not know —
 * a unit must be rebuildable to run, replay or cross a process boundary.
 */
UnitGrid builtinGrid(const lang::Program& program,
                     const flash::ProtocolSpec& spec,
                     const std::vector<Checker*>& checkers,
                     const CheckerSetOptions& options);

/**
 * Content key for one built-in (function, checker) work unit: engine
 * version, checker identity + options + metal source, witness
 * configuration, protocol-spec fingerprint, function token-stream
 * fingerprint. Two runs may share a cache entry only when every
 * ingredient matches.
 */
std::uint64_t unitCacheKey(const std::string& checker_name,
                           const CheckerSetOptions& options,
                           std::uint64_t spec_fp, std::uint64_t fn_fp);

/**
 * Everything one unit produced, however it was produced — run here,
 * replayed from the cache, or decoded from a shard worker — and all the
 * merge needs to fold it into the run.
 */
struct UnitResult
{
    /** The private instance holding the unit's per-run checker state. */
    std::unique_ptr<Checker> checker;
    /** The unit's findings, deduplicated, in reporting order. */
    std::vector<support::Diagnostic> diags;
    /** The unit threw: fresh state and one "analysis incomplete". */
    bool failed = false;
    std::string error;
    /** The budget limit that truncated the unit, if any. */
    support::BudgetStop budget_stop = support::BudgetStop::None;
    /** Wall time, checker construction included. */
    std::chrono::nanoseconds wall{0};
    support::LedgerUnitStats stats;
    /** Replayed from the analysis cache. */
    bool hit = false;
    /** Shard worker slot and dispatch attempts (-1 / 0 in process). */
    int worker = -1;
    std::uint64_t attempts = 0;
};

/**
 * Run unit `u`: build its private checker and walk its function under
 * a UnitGuard with `budget`, the `checker.unit` fault probe, the ledger
 * stats scope and a private sink. A unit that throws keeps nothing but
 * a fresh instance and one "analysis incomplete" warning (failUnit); a
 * truncated one keeps its partial findings plus a budget-exhausted
 * warning. Never throws.
 */
UnitResult runUnit(const UnitGrid& grid, std::size_t u, CfgCache& cfgs,
                   const support::BudgetLimits& budget);

/**
 * Turn `result` into the contained failure of unit `u`: a fresh
 * instance's state and one engine/unit-failure warning naming `error`.
 * Timing, walk stats and budget stop are left as they were.
 */
void failUnit(const UnitGrid& grid, std::size_t u, UnitResult& result,
              std::string error);

/**
 * Rebuild unit `u`'s checker and findings from a stored outcome — a
 * cache entry or a shard worker's payload — into `result`. Returns
 * false, leaving `result` untouched, when the entry names another unit,
 * names a file this run does not know, or carries state the checker
 * rejects.
 */
bool replayUnit(const UnitGrid& grid, std::size_t u,
                const cache::CachedUnit& stored,
                const std::map<std::string, std::int32_t>& file_ids,
                UnitResult& result);

/** The storable form of a finished unit: saved state plus findings. */
cache::CachedUnit cachedUnit(const UnitGrid& grid, std::size_t u,
                             const UnitResult& result);

/** Whether a finished unit may be stored: it neither failed nor was
 *  truncated (budgets are not part of the key). */
inline bool
storable(const UnitResult& result)
{
    return !result.failed &&
           result.budget_stop == support::BudgetStop::None;
}

/**
 * Cache phase: key every unit and replay every usable hit into
 * `results` (hit = true), across `pool`. Returns the keys; 0 marks a
 * unit with no key (its function has no fingerprint), which is never
 * stored. Without a cache every key is 0.
 */
std::vector<std::uint64_t> lookupUnits(const UnitGrid& grid,
                                       cache::AnalysisCache* cache,
                                       support::ThreadPool& pool,
                                       std::vector<UnitResult>& results);

/**
 * Cache phase's other half: store finished unit `u` under `key` when
 * the cache is writable, the unit has a key (non-zero) and it is
 * storable. `stored` is its storable form when the caller already holds
 * one (a shard worker's payload); otherwise it is built from `result`.
 */
void storeUnit(const UnitGrid& grid, std::size_t u,
               cache::AnalysisCache* cache, std::uint64_t key,
               const UnitResult& result,
               const cache::CachedUnit* stored = nullptr);

/**
 * Pre-register the unit-level counters and histograms so a report's
 * zeros are statements, not omissions — and so the registry nodes exist
 * before units fan out, keeping first-use registration off the workers.
 */
void registerUnitMetrics();

/** Knobs for mergeUnits. */
struct MergeOptions
{
    /** A cache took part (ledger "hit"/"miss" rather than "off"). */
    bool cached = false;
    /** Throw on the first failed unit in merge order. */
    bool fail_fast = false;
    /** Optional out-param receiving the run's containment tally. */
    RunHealth* health = nullptr;
};

/**
 * Fold every unit into the run, in function-major order whatever order
 * they finished in: the masters absorb the private instances, the
 * findings replay through `sink` (which runs the global dedup the
 * private sinks could not), and each unit leaves its ledger event and
 * unit.* histograms. Then the program-level passes run on the masters.
 * Returns per-checker statistics.
 *
 * With fail_fast the first failed unit throws std::runtime_error
 * "unit '<function>/<checker>' failed: <error>" instead.
 */
std::vector<CheckerRunStats> mergeUnits(const UnitGrid& grid,
                                        std::vector<UnitResult>& results,
                                        support::DiagnosticSink& sink,
                                        const MergeOptions& options);

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_UNIT_EXECUTOR_H
