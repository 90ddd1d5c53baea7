/**
 * @file
 * The coordinator's half of sharded checking.
 *
 * Determinism is the whole design: every decision that shapes output
 * bytes — unit enumeration, batch membership, cache keys, quarantine
 * thresholds, merge order — is a pure function of unit identity, never
 * of scheduling, worker count, or wall-clock time. Workers only ever
 * influence *when* a result arrives, not *what* it says, and the merge
 * below replays results in the sequential visit order regardless of
 * arrival order. The compare_shards differential suite pins this:
 * shards 1/2/4 must be byte-identical, clean and under injected
 * worker kills alike.
 */
#include "server/sharded_check.h"

#include "server/check_units.h"
#include "shard/supervisor.h"
#include "support/fault_injection.h"
#include "support/metrics.h"
#include "support/run_ledger.h"
#include "support/trace.h"

#include <optional>
#include <stdexcept>

namespace mc::server {

std::vector<checkers::CheckerRunStats>
runCheckersSharded(const lang::Program& program,
                   const flash::ProtocolSpec& spec,
                   const std::vector<checkers::Checker*>& checkers,
                   support::DiagnosticSink& sink,
                   const CheckRequest& request,
                   cache::AnalysisCache* cache,
                   checkers::RunHealth* health)
{
    checkers::CheckerSetOptions copts;
    copts.prune_strategy = request.prune_strategy;
    const checkers::UnitGrid grid =
        checkers::builtinGrid(program, spec, checkers, copts);
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    if (metrics.enabled()) {
        metrics.gauge("shard.workers").observe(request.shards);
        metrics.counter("shard.work_units").add(grid.size());
    }
    checkers::registerUnitMetrics();

    // Cache hits replay locally and never reach a worker; the lookup is
    // sequential, before any worker is spawned.
    std::vector<checkers::UnitResult> results(grid.size());
    support::ThreadPool inline_pool(1);
    const std::vector<std::uint64_t> keys =
        checkers::lookupUnits(grid, cache, inline_pool, results);
    std::vector<std::uint64_t> misses;
    for (std::size_t u = 0; u < grid.size(); ++u)
        if (!results[u].hit)
            misses.push_back(u);

    // Worker results land in the same slots as cache hits and replay
    // through the same replayUnit — from here on the merge cannot tell a
    // cache hit from a worker result from an in-process unit. Payloads
    // replay once supervision is over, so the coordinator never holds up
    // a worker's next batch.
    std::vector<std::optional<cache::CachedUnit>> payloads(grid.size());
    support::RunLedger& ledger = support::RunLedger::global();
    if (!misses.empty()) {
        shard::SupervisorOptions sopts;
        sopts.workers = request.shards;
        sopts.worker_argv = request.shard_worker_argv;
        sopts.batch_units = request.shard_batch_units;
        sopts.batch_timeout_ms = request.shard_batch_timeout_ms;
        sopts.backoff_base_ms = request.shard_backoff_ms;

        shard::SupervisorHooks hooks;
        std::uint64_t seq = 0;
        hooks.make_request =
            [&](const std::vector<std::uint64_t>& units) {
                return makeCheckUnitsRequest(request, units, ++seq);
            };
        hooks.on_result = [&](const std::vector<std::uint64_t>& units,
                              const std::string& line, unsigned slot,
                              const std::vector<unsigned>& attempts) {
            std::vector<WireUnit> decoded =
                decodeCheckUnitsResponse(units, line);
            for (std::size_t i = 0; i < decoded.size(); ++i) {
                checkers::UnitResult& r = results[decoded[i].unit];
                r = std::move(decoded[i].result);
                r.worker = static_cast<int>(slot);
                r.attempts = i < attempts.size() ? attempts[i] : 1;
                payloads[decoded[i].unit] = std::move(decoded[i].payload);
            }
        };
        hooks.on_quarantine = [&](std::uint64_t unit, unsigned crashes) {
            checkers::failUnit(grid, unit, results[unit],
                               "shard worker crashed; unit quarantined");
            results[unit].attempts = crashes;
        };
        hooks.on_event = [&](unsigned slot, const char* action,
                             std::uint64_t detail) {
            if (ledger.enabled())
                ledger.worker(slot, action, detail);
        };

        support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                "shard.supervise", "shard");
        shard::Supervisor(sopts).run(misses, hooks);
    }

    // Replay failures are fatal, not demotable: the unit already ran, and
    // silently re-running it could mask a determinism bug.
    const std::map<std::string, std::int32_t> file_ids =
        cache::AnalysisCache::fileIdsByName(program.sourceManager());
    for (std::size_t u = 0; u < grid.size(); ++u) {
        if (payloads[u]) {
            if (!checkers::replayUnit(grid, u, *payloads[u], file_ids,
                                      results[u]))
                throw std::runtime_error(
                    "shard worker returned an unreplayable result for '" +
                    grid.label(u) + "'");
            checkers::storeUnit(grid, u, cache, keys[u], results[u],
                                &*payloads[u]);
        } else if (!results[u].checker) {
            throw std::runtime_error("shard run left unit '" +
                                     grid.label(u) + "' unresolved");
        }
        // Keyed by unit identity: the same units fault at any shard
        // count, and fail as the standard contained unit failure.
        try {
            support::fault::probe("shard.merge", grid.label(u));
        } catch (const support::InjectedFault& e) {
            checkers::failUnit(grid, u, results[u], e.what());
        }
    }

    return checkers::mergeUnits(grid, results, sink,
                                {cache != nullptr, request.fail_fast, health});
}

} // namespace mc::server
