#ifndef MCHECK_SERVER_CHECK_UNITS_H
#define MCHECK_SERVER_CHECK_UNITS_H

#include "checkers/unit_executor.h"
#include "flash/protocol_spec.h"
#include "lang/program.h"
#include "server/check_request.h"
#include "server/json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mc::server {

class ResidentState;

/**
 * The synthetic handler-classification spec Files mode checks against:
 * CamelCase names are handlers (Sw* software, the rest hardware),
 * lower-case names are ordinary functions. Shared between the batch
 * Files pipeline and the shard worker so both classify identically.
 */
flash::ProtocolSpec cliFilesSpec(const lang::Program& program);

/**
 * Execute one `check_units` worker request: run exactly the requested
 * (function x checker) unit ids — u = f * ncheckers + c over
 * program.functions() x makeAllCheckers order — each through runUnit
 * with the request's budget, always keep-going (fail-fast is decided at
 * the coordinator's merge), and return a result object:
 *
 *     {"units": [<encodeUnitEntry>, ...], "units_total": n}
 *
 * Protocol and Files modes only. Throws on malformed requests (unknown
 * protocol, unreadable files, out-of-range unit ids); the daemon turns
 * that into a structured error response.
 */
JsonValue runCheckUnits(const CheckRequest& request,
                        const std::vector<std::uint64_t>& units,
                        ResidentState* resident);

// ---- the check_units wire format ------------------------------------

/**
 * Render one check_units request line. The vocabulary is the `check`
 * params that shape analysis *results*; presentation knobs (format,
 * jobs) and containment policy (fail_fast — workers always contain,
 * the coordinator enforces the policy at merge) stay home.
 */
std::string makeCheckUnitsRequest(const CheckRequest& request,
                                  const std::vector<std::uint64_t>& units,
                                  std::uint64_t id);

/**
 * One unit of a check_units response: its outcome (failed, error,
 * budget_stop, wall time, walk stats — `result.checker` and
 * `result.diags` stay empty) and the payload replayUnit rebuilds them
 * from.
 */
struct WireUnit
{
    std::uint64_t unit = 0;
    checkers::UnitResult result;
    cache::CachedUnit payload;
};

/**
 * Encode one finished unit as its response entry:
 *
 *     {"unit": u, "failed": b, "error": s, "budget_stop": s,
 *      "wall_ms": n, "visits": n, "pruned_edges": n,
 *      "prune_cache_hits": n, "prune_skipped_nary": n, "data": s}
 *
 * `data` is the cache-format encoding (AnalysisCache::encodeUnit) of
 * `payload` — the same checksummed representation warm cache runs
 * replay, so the coordinator replays a worker result exactly as it
 * replays a cache hit.
 */
JsonValue encodeUnitEntry(std::uint64_t unit,
                          const checkers::UnitResult& result,
                          const cache::CachedUnit& payload);

/**
 * Decode a worker's response line to the batch `units`. Anything
 * malformed throws std::runtime_error — an error response, entries
 * that do not cover the batch in order, an unknown budget_stop
 * spelling, an undecodable `data` — because a worker that is alive but
 * talking nonsense cannot be fixed by retrying.
 */
std::vector<WireUnit>
decodeCheckUnitsResponse(const std::vector<std::uint64_t>& units,
                         const std::string& line);

} // namespace mc::server

#endif // MCHECK_SERVER_CHECK_UNITS_H
