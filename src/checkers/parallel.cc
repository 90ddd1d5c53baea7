#include "checkers/parallel.h"

#include "support/metrics.h"

#include <atomic>

namespace mc::checkers {

std::vector<CheckerRunStats>
runGrid(const UnitGrid& grid, support::DiagnosticSink& sink,
        const ParallelRunOptions& options)
{
    using Clock = std::chrono::steady_clock;
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::ThreadPool pool(options.jobs);
    if (metrics.enabled()) {
        metrics.gauge("parallel.jobs").observe(pool.jobs());
        metrics.counter("parallel.work_units").add(grid.size());
        if (options.cfg_cache)
            metrics.counter("parallel.cfg_reused").add(0);
    }
    registerUnitMetrics();

    std::vector<UnitResult> results(grid.size());
    const std::vector<std::uint64_t> keys =
        lookupUnits(grid, options.cache, pool, results);

    // Build the CFG of every function with at least one unit to run, one
    // builder per function, before any unit reads one — functions whose
    // every unit replayed from the cache skip the build, which is the
    // warm-run speedup.
    const std::vector<const lang::FunctionDecl*>& fns =
        grid.program.functions();
    CfgCache local_cfgs;
    CfgCache& cfgs = options.cfg_cache ? *options.cfg_cache : local_cfgs;
    std::atomic<std::uint64_t> cfg_reused{0};
    const Clock::time_point cfg_t0 = Clock::now();
    pool.parallelFor(fns.size(), [&](std::size_t f) {
        for (std::size_t c = 0; c < grid.columns(); ++c) {
            if (results[f * grid.columns() + c].hit)
                continue;
            bool reused = false;
            cfgs.get(*fns[f], &reused);
            cfg_reused.fetch_add(reused ? 1 : 0, std::memory_order_relaxed);
            return;
        }
    });
    if (metrics.enabled()) {
        metrics.timer("parallel.cfg_build")
            .add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - cfg_t0));
        if (options.cfg_cache)
            metrics.counter("parallel.cfg_reused").add(cfg_reused.load());
    }

    pool.parallelFor(grid.size(), [&](std::size_t u) {
        if (results[u].hit)
            return;
        results[u] = runUnit(grid, u, cfgs, options.unit_budget);
        storeUnit(grid, u, options.cache, keys[u], results[u]);
    });

    return mergeUnits(grid, results, sink,
                      {options.cache != nullptr, options.fail_fast,
                       options.health});
}

std::vector<CheckerRunStats>
runCheckersParallel(const lang::Program& program,
                    const flash::ProtocolSpec& spec,
                    const std::vector<Checker*>& checkers,
                    support::DiagnosticSink& sink,
                    const ParallelRunOptions& options)
{
    return runGrid(builtinGrid(program, spec, checkers,
                               options.checker_options),
                   sink, options);
}

} // namespace mc::checkers
