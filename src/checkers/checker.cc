#include "checkers/checker.h"

#include "support/metrics.h"
#include "support/trace.h"

#include <chrono>
#include <istream>
#include <ostream>

namespace mc::checkers {

void
Checker::saveState(std::ostream& os) const
{
    os << "applied " << applied_ << '\n';
}

bool
Checker::loadState(std::istream& is)
{
    std::string tag;
    int n = 0;
    if (!(is >> tag >> n) || tag != "applied" || n < 0)
        return false;
    applied_ = n;
    return true;
}

CheckerRun::CheckerRun(const std::vector<Checker*>& checkers,
                       const support::DiagnosticSink& sink)
    : elapsed(checkers.size(), std::chrono::steady_clock::duration::zero()),
      checkers_(checkers)
{
    // Baseline per-checker counts, so stats reflect only this run even if
    // the sink already held diagnostics.
    for (Checker* checker : checkers) {
        checker->reset();
        base_errors_.push_back(sink.countForChecker(
            checker->name(), support::Severity::Error));
        base_warnings_.push_back(sink.countForChecker(
            checker->name(), support::Severity::Warning));
    }
}

std::vector<CheckerRunStats>
CheckerRun::finish(CheckContext& ctx)
{
    using Clock = std::chrono::steady_clock;
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    for (std::size_t i = 0; i < checkers_.size(); ++i) {
        support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                checkers_[i]->name() + ".program",
                                "checker");
        Clock::time_point t0 = Clock::now();
        checkers_[i]->checkProgram(ctx);
        elapsed[i] += Clock::now() - t0;
    }

    std::vector<CheckerRunStats> stats;
    for (std::size_t i = 0; i < checkers_.size(); ++i) {
        CheckerRunStats s;
        s.checker = checkers_[i]->name();
        s.errors = ctx.sink.countForChecker(s.checker,
                                            support::Severity::Error) -
                   base_errors_[i];
        s.warnings = ctx.sink.countForChecker(
                         s.checker, support::Severity::Warning) -
                     base_warnings_[i];
        s.applied = checkers_[i]->applied();
        s.wall_ms =
            std::chrono::duration<double, std::milli>(elapsed[i]).count();
        if (metrics.enabled()) {
            metrics.timer("checker." + s.checker)
                .add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    elapsed[i]));
            metrics.counter("checker." + s.checker + ".errors")
                .add(static_cast<std::uint64_t>(s.errors));
            metrics.counter("checker." + s.checker + ".warnings")
                .add(static_cast<std::uint64_t>(s.warnings));
            metrics.counter("checker." + s.checker + ".applied")
                .add(static_cast<std::uint64_t>(s.applied));
        }
        stats.push_back(std::move(s));
    }
    return stats;
}

std::vector<CheckerRunStats>
runCheckers(const lang::Program& program, const flash::ProtocolSpec& spec,
            const std::vector<Checker*>& checkers,
            support::DiagnosticSink& sink)
{
    CheckContext ctx{program, spec, sink};
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::TraceRecorder& tracer = support::TraceRecorder::global();

    // Pre-registered to match the parallel runner's report: the
    // sequential runner has no unit containment, so the first two are
    // honestly zero — but the key set must not depend on which runner
    // ran.
    if (metrics.enabled())
        for (const char* name :
             {"engine.unit_failures", "budget.truncations",
              "engine.table_memo_hits", "engine.table_memo_misses"})
            metrics.counter(name).add(0);

    // Per-checker wall time, accumulated across every function pass plus
    // the program-level pass. One steady_clock read per (function,
    // checker) pair — microseconds against the checking work itself.
    using Clock = std::chrono::steady_clock;
    CheckerRun run(checkers, sink);
    for (const lang::FunctionDecl* fn : program.functions()) {
        cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);
        for (std::size_t i = 0; i < checkers.size(); ++i) {
            support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                    checkers[i]->name(), "checker");
            if (tracer.enabled())
                span.arg("function", fn->name);
            Clock::time_point t0 = Clock::now();
            checkers[i]->checkFunction(*fn, cfg, ctx);
            run.elapsed[i] += Clock::now() - t0;
        }
    }
    return run.finish(ctx);
}

} // namespace mc::checkers
