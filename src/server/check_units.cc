/**
 * @file
 * The `check_units` method: the shard worker's half of sharded checking
 * plus the wire format both halves speak.
 *
 * A worker is an `mccheck --shard-worker` process holding a Daemon;
 * `check_units` requests name explicit unit ids instead of "everything",
 * and the response carries each unit's outcome in the analysis cache's
 * encoded form. Determinism rests on three properties: unit ids index
 * the same (function x checker) grid the coordinator enumerates, each
 * unit runs through the same runUnit as in process, and results travel
 * in the cache encoding that replayUnit reads for cache hits too.
 */
#include "server/check_units.h"

#include "corpus/generator.h"
#include "metal/feasibility.h"
#include "server/resident.h"
#include "support/fault_injection.h"
#include "support/text.h"
#include "support/witness.h"

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

namespace mc::server {

flash::ProtocolSpec
cliFilesSpec(const lang::Program& program)
{
    flash::ProtocolSpec spec;
    spec.name = "<cli>";
    for (const lang::FunctionDecl* fn : program.functions()) {
        flash::HandlerSpec hs;
        hs.name = fn->name;
        bool camel_case =
            !fn->name.empty() &&
            std::isupper(static_cast<unsigned char>(fn->name[0]));
        if (!camel_case)
            hs.kind = flash::HandlerKind::Normal;
        else if (support::startsWith(fn->name, "Sw"))
            hs.kind = flash::HandlerKind::Software;
        else
            hs.kind = flash::HandlerKind::Hardware;
        spec.addHandler(hs);
    }
    return spec;
}

JsonValue
runCheckUnits(const CheckRequest& request,
              const std::vector<std::uint64_t>& units,
              ResidentState* resident)
{
    // Process-global per-run configuration, exactly as runCheckRequest
    // installs it — the daemon's execution mutex serializes requests,
    // so the globals cannot leak across concurrent batches.
    support::setWitnessConfig(request.witness, request.witness_limit);
    metal::setDefaultMatchStrategy(request.match_strategy);

    FileReader reader =
        request.read_file ? request.read_file : FileReader(readDiskFile);

    corpus::LoadedProtocol local_proto;
    PreparedProgram prepared;
    lang::Program* program = nullptr;
    checkers::CfgCache* cfg_cache = nullptr;
    checkers::CfgCache local_cfgs;
    const flash::ProtocolSpec* spec = nullptr;
    flash::ProtocolSpec files_spec;

    switch (request.mode) {
      case CheckRequest::Mode::Protocol: {
        corpus::LoadedProtocol* loaded = &local_proto;
        if (resident) {
            bool reused = false;
            loaded = &resident->protocolSnapshot(request.protocol,
                                                 cfg_cache, reused);
        } else {
            local_proto =
                corpus::loadProtocol(corpus::profileByName(request.protocol));
        }
        program = &*loaded->program;
        spec = &loaded->gen.spec;
        break;
      }
      case CheckRequest::Mode::Files: {
        prepared = resident
                       ? resident->prepareFiles(request.files, reader)
                       : buildProgramOneShot(request.files, reader);
        if (!prepared.ok)
            throw std::runtime_error(prepared.error);
        program = prepared.program;
        cfg_cache = prepared.cfg_cache;
        files_spec = cliFilesSpec(*program);
        spec = &files_spec;
        break;
      }
      case CheckRequest::Mode::Metal:
        throw std::runtime_error(
            "check_units supports protocol and files modes only");
    }
    if (!cfg_cache)
        cfg_cache = &local_cfgs;

    checkers::CheckerSetOptions copts;
    copts.prune_strategy = request.prune_strategy;
    auto set = checkers::makeAllCheckers(copts);
    const checkers::UnitGrid grid =
        checkers::builtinGrid(*program, *spec, set.pointers(), copts);

    JsonValue entries = JsonValue::array();
    for (std::uint64_t u : units) {
        if (u >= grid.size())
            throw std::runtime_error("unit id out of range: " +
                                     std::to_string(u));
        const std::string label = grid.label(u);

        // Worker-process fault sites. Unlike checker.unit these are NOT
        // contained: they simulate the worker dying mid-batch (_Exit,
        // as an OOM kill or segfault would look from outside) or
        // wedging (an infinite stall under a live heartbeat thread).
        // Keyed by unit identity so the same units misbehave at any
        // shard count.
        try {
            support::fault::probe("worker.request", label);
        } catch (const support::InjectedFault&) {
            std::_Exit(9);
        }
        try {
            support::fault::probe("worker.hang", label);
        } catch (const support::InjectedFault&) {
            for (;;)
                std::this_thread::sleep_for(std::chrono::hours(1));
        }

        const checkers::UnitResult result =
            checkers::runUnit(grid, u, *cfg_cache, request.unitBudget());
        entries.push(
            encodeUnitEntry(u, result, checkers::cachedUnit(grid, u, result)));
    }

    JsonValue result = JsonValue::object();
    result.set("units", std::move(entries));
    result.set("units_total", JsonValue::number(
                                  static_cast<std::uint64_t>(grid.size())));
    return result;
}

std::string
makeCheckUnitsRequest(const CheckRequest& request,
                      const std::vector<std::uint64_t>& units,
                      std::uint64_t id)
{
    JsonValue params = JsonValue::object();
    if (request.mode == CheckRequest::Mode::Protocol) {
        params.set("protocol", JsonValue::string(request.protocol));
    } else {
        JsonValue files = JsonValue::array();
        for (const std::string& f : request.files)
            files.push(JsonValue::string(f));
        params.set("files", std::move(files));
    }
    params.set("prune_paths",
               JsonValue::string(
                   metal::pruneStrategyName(request.prune_strategy)));
    params.set("match_strategy",
               JsonValue::string(request.match_strategy ==
                                         metal::MatchStrategy::Legacy
                                     ? "legacy"
                                     : "table"));
    params.set("witness", JsonValue::boolean(request.witness));
    if (request.witness_limit != 0)
        params.set("witness_limit",
                   JsonValue::number(
                       static_cast<std::uint64_t>(request.witness_limit)));
    if (request.unit_timeout_ms != 0)
        params.set("unit_timeout_ms",
                   JsonValue::number(static_cast<std::uint64_t>(
                       request.unit_timeout_ms)));
    if (request.unit_max_steps != 0)
        params.set("unit_max_steps",
                   JsonValue::number(static_cast<std::uint64_t>(
                       request.unit_max_steps)));
    JsonValue ids = JsonValue::array();
    for (std::uint64_t u : units)
        ids.push(JsonValue::number(u));
    params.set("units", std::move(ids));

    JsonValue line = JsonValue::object();
    line.set("id", JsonValue::number(id));
    line.set("method", JsonValue::string("check_units"));
    line.set("params", std::move(params));
    return line.dump();
}

JsonValue
encodeUnitEntry(std::uint64_t unit, const checkers::UnitResult& result,
                const cache::CachedUnit& payload)
{
    JsonValue entry = JsonValue::object();
    entry.set("unit", JsonValue::number(unit));
    entry.set("failed", JsonValue::boolean(result.failed));
    entry.set("error", JsonValue::string(result.error));
    entry.set("budget_stop", JsonValue::string(support::budgetStopName(
                                 result.budget_stop)));
    entry.set("wall_ms",
              JsonValue::number(
                  std::chrono::duration<double, std::milli>(result.wall)
                      .count()));
    entry.set("visits", JsonValue::number(result.stats.visits));
    entry.set("pruned_edges", JsonValue::number(result.stats.pruned_edges));
    entry.set("prune_cache_hits",
              JsonValue::number(result.stats.prune_cache_hits));
    entry.set("prune_skipped_nary",
              JsonValue::number(result.stats.prune_skipped_nary));
    entry.set("data",
              JsonValue::string(cache::AnalysisCache::encodeUnit(payload)));
    return entry;
}

std::vector<WireUnit>
decodeCheckUnitsResponse(const std::vector<std::uint64_t>& units,
                         const std::string& line)
{
    JsonValue response;
    std::string parse_error;
    if (!JsonValue::parse(line, response, parse_error) ||
        !response.isObject())
        throw std::runtime_error(
            "shard worker sent a malformed response: " + parse_error);
    if (const JsonValue* error = response.get("error")) {
        const JsonValue* message = error->get("message");
        throw std::runtime_error(
            "shard worker error: " +
            (message && message->isString() ? message->asString()
                                            : error->dump()));
    }
    const JsonValue* result = response.get("result");
    const JsonValue* entries = result ? result->get("units") : nullptr;
    if (!entries || !entries->isArray() ||
        entries->items().size() != units.size())
        throw std::runtime_error(
            "shard worker response does not cover its batch");
    const auto count = [](const JsonValue& entry, const char* key) {
        const JsonValue* v = entry.get(key);
        return v ? static_cast<std::uint64_t>(v->asInt()) : 0;
    };
    std::vector<WireUnit> decoded(units.size());
    for (std::size_t i = 0; i < units.size(); ++i) {
        const JsonValue& entry = entries->items()[i];
        WireUnit& w = decoded[i];
        const JsonValue* unit_id = entry.get("unit");
        if (!unit_id ||
            static_cast<std::uint64_t>(unit_id->asInt(-1)) != units[i])
            throw std::runtime_error(
                "shard worker response units out of order");
        w.unit = units[i];
        checkers::UnitResult& r = w.result;
        const JsonValue* failed = entry.get("failed");
        r.failed = failed && failed->asBool();
        if (const JsonValue* error = entry.get("error"))
            r.error = error->asString();
        const JsonValue* stop = entry.get("budget_stop");
        const std::string stop_name = stop ? stop->asString() : "none";
        bool stop_known = false;
        for (support::BudgetStop s :
             {support::BudgetStop::None, support::BudgetStop::Deadline,
              support::BudgetStop::Steps, support::BudgetStop::Bytes})
            if (stop_name == support::budgetStopName(s)) {
                r.budget_stop = s;
                stop_known = true;
            }
        if (!stop_known)
            throw std::runtime_error(
                "shard worker sent an unknown budget_stop '" + stop_name +
                "'");
        if (const JsonValue* ms = entry.get("wall_ms"))
            r.wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::duration<double, std::milli>(ms->asDouble()));
        r.stats.visits = count(entry, "visits");
        r.stats.pruned_edges = count(entry, "pruned_edges");
        r.stats.prune_cache_hits = count(entry, "prune_cache_hits");
        r.stats.prune_skipped_nary = count(entry, "prune_skipped_nary");
        const JsonValue* data = entry.get("data");
        std::string decode_error = "no data";
        if (!data || !data->isString() ||
            !cache::AnalysisCache::decodeUnit(data->asString(), w.payload,
                                              decode_error))
            throw std::runtime_error(
                "shard worker returned an undecodable unit result: " +
                decode_error);
    }
    return decoded;
}

} // namespace mc::server
