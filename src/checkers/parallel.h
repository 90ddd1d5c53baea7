#ifndef MCHECK_CHECKERS_PARALLEL_H
#define MCHECK_CHECKERS_PARALLEL_H

#include "checkers/unit_executor.h"

namespace mc::checkers {

/** Knobs for runCheckersParallel. */
struct ParallelRunOptions
{
    /** Worker lanes; 0 means one per hardware thread. */
    unsigned jobs = 0;
    /**
     * Factory options for the per-unit checker instances. Must match the
     * options the master `checkers` were built with, or the private
     * instances check different things than the masters claim.
     */
    CheckerSetOptions checker_options;
    /**
     * Persistent analysis cache. When set, each (function, checker) work
     * unit is first looked up by content key — engine version, checker
     * identity/options/metal source, protocol-spec fingerprint, function
     * token-stream fingerprint — and on a hit its stored diagnostics and
     * checker state replay through the normal merge path instead of
     * re-walking paths; CFGs are only built for functions with at least
     * one miss. Output stays byte-identical to an uncached run for any
     * job count.
     */
    cache::AnalysisCache* cache = nullptr;
    /**
     * Per-unit resource budget (wall-clock deadline, step and byte
     * allowances) installed around each (function, checker) unit and
     * consulted by the path walker. Exhaustion truncates that unit's
     * analysis gracefully — partial findings survive, a
     * budget-exhausted warning marks the gap — and the unit is not
     * stored in the cache (budgets are not part of cache keys).
     * Default-constructed means unlimited.
     */
    support::BudgetLimits unit_budget;
    /**
     * Abort the whole run on the first failed unit in merge order
     * instead of containing it: runCheckersParallel throws
     * std::runtime_error "unit '<function>/<checker>' failed: <error>",
     * the same at any job count.
     */
    bool fail_fast = false;
    /** Optional out-param receiving the run's containment tally. */
    RunHealth* health = nullptr;
    /**
     * Resident CFG store shared across runs over the same Program; unset
     * means a store local to the run. Reuses tally into the
     * "parallel.cfg_reused" counter. The cache must only ever be paired
     * with the Program whose declarations key it.
     */
    CfgCache* cfg_cache = nullptr;
};

/**
 * Parallel drop-in for runCheckers: same inputs, same outputs, same
 * bytes in the sink — only the wall clock differs.
 *
 * The function passes run as (function x checker) units through the
 * unit executor (unit_executor.h): look every unit up in the cache, run
 * the misses with runUnit across a pool of `jobs` lanes, and fold them
 * all back with mergeUnits in the sequential visit order. Every unit
 * runs under a UnitGuard, so a unit that throws degrades to one
 * "analysis incomplete" warning instead of taking the run down, and a
 * degraded run is byte-identical for any job count too.
 *
 * Every checker must be one makeChecker can rebuild (a registered
 * name); anything else throws std::invalid_argument.
 */
std::vector<CheckerRunStats>
runCheckersParallel(const lang::Program& program,
                    const flash::ProtocolSpec& spec,
                    const std::vector<Checker*>& checkers,
                    support::DiagnosticSink& sink,
                    const ParallelRunOptions& options = ParallelRunOptions());

/**
 * runCheckersParallel over any unit grid — the built-in checkers' or
 * metal mode's one user state machine: cache lookup, runUnit across the
 * pool for the misses (storing what may be stored), mergeUnits.
 * `options.checker_options` is unused; the grid builds its own
 * instances.
 */
std::vector<CheckerRunStats>
runGrid(const UnitGrid& grid, support::DiagnosticSink& sink,
        const ParallelRunOptions& options);

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_PARALLEL_H
