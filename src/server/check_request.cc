/**
 * @file
 * The checking pipeline shared by mccheck (batch) and mccheckd (daemon).
 *
 * This code moved here from the batch driver so both front ends execute
 * the same functions against the same streams: every byte a daemon
 * `check` response carries was produced by the code that produces batch
 * stdout, which is what the daemon-vs-batch differential suite pins.
 *
 * Output is deterministic for any jobs value, warm or cold cache,
 * shard count, and one-shot or resident program state: diagnostics are
 * ordered by (file, line, column, checker, rule) at emission, every
 * mode runs and merges its units through the one unit executor
 * (checkers/unit_executor.h) in the sequential visit order, cached and
 * sharded units replay through that same merge, and resident programs
 * keep their file ids stable across in-place re-parses so emission
 * order cannot drift.
 */
#include "server/check_request.h"

#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "flash/protocol_spec.h"
#include "metal/metal_parser.h"
#include "server/check_units.h"
#include "server/resident.h"
#include "server/sharded_check.h"
#include "support/hash.h"
#include "support/text.h"
#include "support/trace.h"
#include "support/version.h"
#include "support/witness.h"

#include <cctype>
#include <ostream>
#include <sstream>

namespace mc::server {

namespace {

/**
 * Map a finished run to the documented exit scheme: degraded (2) wins
 * over findings (1) — an incomplete analysis can neither prove nor
 * refute cleanliness, and the caller must not mistake "no errors
 * reported" for "no errors present".
 */
int
exitCode(const lang::Program& program, const checkers::RunHealth& health,
         const support::DiagnosticSink& sink)
{
    if (program.degraded() || health.unit_failures > 0 ||
        health.budget_truncations > 0)
        return 2;
    return sink.count(support::Severity::Error) > 0 ? 1 : 0;
}

/**
 * Surface recovered frontend failures (parse/lex errors that poisoned a
 * declaration) as ordinary diagnostics so they reach every output
 * format, SARIF included, through the same sorted emission path.
 */
void
reportFrontendIssues(const lang::Program& program,
                     support::DiagnosticSink& sink)
{
    for (const lang::TranslationUnit& unit : program.units())
        for (const lang::ParseIssue& issue : unit.issues)
            sink.error(issue.loc, "frontend", issue.rule, issue.message);
}

/** Render run stats + diagnostics in the selected format. */
void
emitFindings(const CheckRequest& req,
             const support::DiagnosticSink& sink,
             const support::SourceManager* sm,
             const std::vector<checkers::CheckerRunStats>* stats,
             std::ostream& out, CheckOutcome& outcome)
{
    outcome.errors = sink.count(support::Severity::Error);
    outcome.warnings = sink.count(support::Severity::Warning);
    if (req.format == support::OutputFormat::Text) {
        sink.print(out, sm);
        if (stats) {
            out << '\n';
            std::vector<std::vector<std::string>> rows;
            for (const auto& s : *stats) {
                std::ostringstream ms;
                ms.precision(2);
                ms << std::fixed << s.wall_ms;
                rows.push_back({s.checker, std::to_string(s.errors),
                                std::to_string(s.warnings),
                                std::to_string(s.applied), ms.str()});
            }
            out << support::formatTable(
                {"checker", "errors", "warnings", "applied", "wall_ms"},
                rows);
        }
    } else {
        sink.write(out, req.format, sm);
    }
}

FileReader
sourceReader(const CheckRequest& req)
{
    return req.read_file ? req.read_file : FileReader(readDiskFile);
}

/** The in-process run options `req` asks for. */
checkers::ParallelRunOptions
inProcessOptions(const CheckRequest& req, cache::AnalysisCache* cache,
                 checkers::RunHealth& health, checkers::CfgCache* cfgs)
{
    checkers::ParallelRunOptions prun;
    prun.jobs = req.jobs;
    prun.cache = cache;
    prun.unit_budget = req.unitBudget();
    prun.fail_fast = req.fail_fast;
    prun.health = &health;
    prun.cfg_cache = cfgs;
    return prun;
}

/**
 * Run the checker set in-process or — when the request asks for shards
 * — across supervised worker processes. Both paths produce identical
 * sink bytes; only the execution substrate differs.
 */
std::vector<checkers::CheckerRunStats>
runCheckerSet(const CheckRequest& req, cache::AnalysisCache* cache,
              const lang::Program& program,
              const flash::ProtocolSpec& spec,
              const std::vector<checkers::Checker*>& checkers,
              support::DiagnosticSink& sink,
              const checkers::CheckerSetOptions& copts,
              checkers::RunHealth& health, checkers::CfgCache* cfgs)
{
    if (req.shards > 0)
        return runCheckersSharded(program, spec, checkers, sink, req, cache,
                                  &health);
    checkers::ParallelRunOptions prun =
        inProcessOptions(req, cache, health, cfgs);
    prun.checker_options = copts;
    return checkers::runCheckersParallel(program, spec, checkers, sink,
                                         prun);
}

PreparedProgram
prepareSources(const CheckRequest& req, ResidentState* resident)
{
    if (resident)
        return resident->prepareFiles(req.files, sourceReader(req));
    return buildProgramOneShot(req.files, sourceReader(req));
}

int
checkProtocol(const CheckRequest& req, cache::AnalysisCache* cache,
              ResidentState* resident, std::ostream& out,
              CheckOutcome& outcome)
{
    corpus::LoadedProtocol local;
    corpus::LoadedProtocol* loaded = &local;
    checkers::CfgCache* cfgs = nullptr;
    bool reused = false;
    if (resident) {
        loaded = &resident->protocolSnapshot(req.protocol, cfgs, reused);
    } else {
        local = corpus::loadProtocol(corpus::profileByName(req.protocol));
    }
    outcome.program_reused = reused;
    outcome.files_reparsed = reused ? 0 : loaded->gen.files.size();
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                            "protocol:" + req.protocol, "driver");
    checkers::CheckerSetOptions copts;
    copts.prune_strategy = req.prune_strategy;
    auto set = checkers::makeAllCheckers(copts);
    support::DiagnosticSink sink;
    reportFrontendIssues(*loaded->program, sink);
    checkers::RunHealth health;
    auto stats =
        runCheckerSet(req, cache, *loaded->program, loaded->gen.spec,
                      set.pointers(), sink, copts, health, cfgs);
    span.finish();
    outcome.units_total =
        loaded->program->functions().size() * set.pointers().size();
    emitFindings(req, sink, &loaded->program->sourceManager(), &stats,
                 out, outcome);
    return exitCode(*loaded->program, health, sink);
}

/**
 * A user metal state machine as a Checker, so metal mode runs through
 * the unit executor. Every instance shares one parsed MetalProgram;
 * walking a function reports straight into the unit's sink. The
 * machine keeps no per-run state, so the saved state is empty — the
 * cache entries stay what metal mode always stored.
 */
class MetalUnitChecker : public checkers::Checker
{
  public:
    MetalUnitChecker(const metal::MetalProgram& program,
                     metal::PruneStrategy prune)
        : program_(program)
    {
        options_.prune_strategy = prune;
    }

    std::string name() const override { return "metal:" + program_.name; }

    void
    checkFunction(const lang::FunctionDecl&, const cfg::Cfg& cfg,
                  checkers::CheckContext& ctx) override
    {
        metal::runStateMachine(*program_.sm, cfg, ctx.sink, options_);
    }

    void saveState(std::ostream&) const override {}
    bool loadState(std::istream&) override { return true; }

  private:
    const metal::MetalProgram& program_;
    metal::SmRunOptions options_;
};

/** Run one user-written metal checker over dialect sources. */
int
runMetalChecker(const CheckRequest& req, cache::AnalysisCache* cache,
                ResidentState* resident, std::ostream& out,
                std::ostream& err, CheckOutcome& outcome)
{
    std::string metal_source;
    {
        std::string error;
        if (!sourceReader(req)(req.metal_path, metal_source, error)) {
            // The batch loadMetalFile error line, byte for byte.
            err << "mccheck: cannot open metal file: " << req.metal_path
                << '\n';
            return 3;
        }
    }
    metal::MetalProgram local_checker;
    const metal::MetalProgram* checker = &local_checker;
    try {
        if (resident) {
            checker =
                &resident->metalProgram(metal_source, req.metal_path);
        } else {
            local_checker =
                metal::parseMetal(metal_source, req.metal_path);
        }
    } catch (const metal::MetalParseError& e) {
        err << "mccheck: " << e.what() << '\n';
        return 3;
    }

    PreparedProgram prepared = prepareSources(req, resident);
    if (!prepared.ok) {
        err << prepared.error << '\n';
        return 3;
    }
    lang::Program& program = *prepared.program;
    outcome.files_reparsed = prepared.files_reparsed;
    outcome.program_reused = prepared.reused;

    // The user state machine is a one-column unit grid: every function
    // runs, caches, contains and merges exactly like a built-in
    // checker's units, with the parsed machine shared read-only by all
    // of them. Units key by the metal source text plus the function's
    // token-stream fingerprint, so re-checks after an edit replay every
    // untouched function.
    MetalUnitChecker master(*checker, req.prune_strategy);
    const flash::ProtocolSpec no_spec;
    checkers::UnitGrid grid{program, no_spec, {&master}, nullptr, nullptr};
    grid.make = [&](std::size_t) {
        return std::make_unique<MetalUnitChecker>(*checker,
                                                  req.prune_strategy);
    };
    // Witness capture changes the cached bytes, so witness-on and
    // witness-off runs (and different caps) key separately. All but the
    // function fingerprint is hashed once, not per unit.
    const std::uint64_t key_prefix =
        support::Fnv1a()
            .i64(cache::kCacheFormatVersion)
            .str(support::kToolVersion)
            .str(master.name())
            .str(metal_source)
            .u8(support::witnessEnabled() ? 1 : 0)
            .u64(support::witnessLimit())
            .u8(static_cast<std::uint8_t>(req.prune_strategy))
            .value();
    grid.key = [key_prefix](std::size_t, std::uint64_t,
                            std::uint64_t fn_fp) {
        return support::Fnv1a::resume(key_prefix).u64(fn_fp).value();
    };
    support::DiagnosticSink sink;
    reportFrontendIssues(program, sink);
    checkers::RunHealth health;
    checkers::runGrid(grid, sink,
                      inProcessOptions(req, cache, health,
                                       prepared.cfg_cache));
    outcome.units_total = grid.size();
    emitFindings(req, sink, &program.sourceManager(), nullptr, out,
                 outcome);
    if (req.format == support::OutputFormat::Text)
        out << "sm '" << checker->name << "': "
            << sink.count(support::Severity::Error) << " error(s), "
            << sink.count(support::Severity::Warning)
            << " warning(s)\n";
    return exitCode(program, health, sink);
}

int
checkFiles(const CheckRequest& req, cache::AnalysisCache* cache,
           ResidentState* resident, std::ostream& out, std::ostream& err,
           CheckOutcome& outcome)
{
    PreparedProgram prepared = prepareSources(req, resident);
    if (!prepared.ok) {
        err << prepared.error << '\n';
        return 3;
    }
    lang::Program& program = *prepared.program;
    outcome.files_reparsed = prepared.files_reparsed;
    outcome.program_reused = prepared.reused;

    // The (function name -> handler kind) classification lives in
    // cliFilesSpec so shard workers classify identically to this
    // in-process path.
    flash::ProtocolSpec spec = cliFilesSpec(program);

    checkers::CheckerSetOptions copts;
    copts.prune_strategy = req.prune_strategy;
    auto set = checkers::makeAllCheckers(copts);
    support::DiagnosticSink sink;
    reportFrontendIssues(program, sink);
    checkers::RunHealth health;
    auto stats = runCheckerSet(req, cache, program, spec, set.pointers(),
                               sink, copts, health, prepared.cfg_cache);
    outcome.units_total =
        program.functions().size() * set.pointers().size();
    emitFindings(req, sink, &program.sourceManager(), nullptr, out,
                 outcome);
    if (req.format == support::OutputFormat::Text)
        out << sink.count(support::Severity::Error) << " error(s), "
            << sink.count(support::Severity::Warning)
            << " warning(s)\n";
    (void)stats;
    return exitCode(program, health, sink);
}

std::uint64_t
cacheHits(cache::AnalysisCache* cache)
{
    return cache ? cache->stats().hits : 0;
}

} // namespace

CheckOutcome
runCheckRequest(const CheckRequest& request, cache::AnalysisCache* cache,
                ResidentState* resident, std::ostream& out,
                std::ostream& err)
{
    CheckOutcome outcome;
    // Per-run process-global configuration. Both are folded into every
    // cache key (witness) or proven byte-neutral (match strategy), so a
    // resident cache can never leak one configuration's results into
    // another's run.
    support::setWitnessConfig(request.witness, request.witness_limit);
    metal::setDefaultMatchStrategy(request.match_strategy);
    const std::uint64_t hits_before = cacheHits(cache);
    try {
        switch (request.mode) {
          case CheckRequest::Mode::Protocol:
            outcome.exit_code =
                checkProtocol(request, cache, resident, out, outcome);
            break;
          case CheckRequest::Mode::Metal:
            outcome.exit_code = runMetalChecker(request, cache, resident,
                                                out, err, outcome);
            break;
          case CheckRequest::Mode::Files:
            outcome.exit_code =
                checkFiles(request, cache, resident, out, err, outcome);
            break;
        }
    } catch (const std::exception& e) {
        // Anything that escapes containment — unknown protocol names,
        // --fail-fast rethrows, fault-injection probes outside any
        // UnitGuard — is fatal, rendered exactly as the batch driver
        // renders it.
        err << "mccheck: " << e.what() << '\n';
        outcome.exit_code = 3;
    }
    outcome.units_reused = cacheHits(cache) - hits_before;
    return outcome;
}

} // namespace mc::server
