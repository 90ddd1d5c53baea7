#ifndef MCHECK_SERVER_SHARDED_CHECK_H
#define MCHECK_SERVER_SHARDED_CHECK_H

#include "checkers/unit_executor.h"
#include "server/check_request.h"

#include <vector>

namespace mc::server {

/**
 * Multi-process drop-in for runCheckersParallel: same inputs, same
 * bytes in the sink at any shard count — including `--shards 1`, which
 * still crosses a process boundary and therefore exercises the whole
 * worker protocol.
 *
 * The unit executor with a process boundary in the middle: cache
 * lookup (lookupUnits), then the misses batched in deterministic order
 * and dispatched by a shard::Supervisor to `request.shards` worker
 * processes (`request.shard_worker_argv`) speaking the mccheckd line
 * protocol's `check_units` method over socketpairs — each worker runs
 * its units with runUnit — then every result rebuilt with replayUnit,
 * then mergeUnits in the sequential visit order, so the shared sink
 * cannot tell a sharded run from an in-process one.
 *
 * Robustness: a worker that crashes, EOFs, stalls past the heartbeat
 * activity window, or blows the per-batch deadline is killed and
 * respawned with capped exponential backoff; its un-acked units are
 * requeued as singleton batches. A unit that kills workers
 * crashes_to_quarantine times *alone* is quarantined: it merges as a
 * contained "analysis incomplete" unit failure (failUnit; degraded exit
 * code 2), identical bytes at any shard count.
 *
 * The request carries the shard topology (worker count, argv, batch
 * size, timeouts), fail_fast, and the checker options — the masters
 * must be built with the prune strategy the workers derive from it too.
 * `cache`, when set, is looked up before any worker is spawned (hits
 * never cross a process boundary) and populated with worker results,
 * so a warm re-run ships only the units that changed. `health`, when
 * set, receives the run's containment tally.
 *
 * Throws std::invalid_argument for a checker makeChecker cannot
 * rebuild, and std::runtime_error when no worker can be kept alive,
 * when a worker answers with a protocol error or undecodable payload,
 * or on the first failed unit in merge order under fail_fast — all
 * rendered by runCheckRequest as the fatal "mccheck: <what>" line
 * (exit 3).
 */
std::vector<checkers::CheckerRunStats>
runCheckersSharded(const lang::Program& program,
                   const flash::ProtocolSpec& spec,
                   const std::vector<checkers::Checker*>& checkers,
                   support::DiagnosticSink& sink,
                   const CheckRequest& request,
                   cache::AnalysisCache* cache,
                   checkers::RunHealth* health);

} // namespace mc::server

#endif // MCHECK_SERVER_SHARDED_CHECK_H
