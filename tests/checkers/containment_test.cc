/**
 * @file
 * Per-unit fault containment: injected faults stay inside their
 * (function, checker) unit, degraded output is deterministic across job
 * counts, --fail-fast escalates, and resource budgets truncate
 * gracefully.
 */
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "checkers/unit_guard.h"
#include "support/fault_injection.h"
#include "support/text.h"

#include <gtest/gtest.h>

#include <sstream>

namespace mc::checkers {
namespace {

#if defined(MCHECK_FAULT_INJECTION)
constexpr bool kFaultsCompiledIn = true;
#else
constexpr bool kFaultsCompiledIn = false;
#endif

/** Disarm on scope exit so one test's arming cannot leak into another. */
struct ArmedScope
{
    explicit ArmedScope(const std::string& spec)
    {
        EXPECT_TRUE(support::fault::arm(spec));
    }
    ~ArmedScope() { support::fault::disarm(); }
};

/** Three clean-ish handlers so multiple units exist per checker. */
struct Fixture
{
    lang::Program program;
    flash::ProtocolSpec spec;

    Fixture()
    {
        addHandler("PILocalGet",
                   "MSG_T* m = MISCBUS_GET_MSG();\nSEND(m);\n");
        addHandler("PIRemoteGet", "int x = 1;\n");
        addHandler("SwPut", "int y = 2;\n");
    }

    void
    addHandler(const std::string& name, const std::string& body)
    {
        flash::HandlerSpec hs;
        hs.name = name;
        hs.kind = support::startsWith(name, "Sw")
                      ? flash::HandlerKind::Software
                      : flash::HandlerKind::Hardware;
        spec.addHandler(hs);
        program.addSource(name + ".c",
                          "void " + name + "(void) {\n" + body + "}\n");
    }

    /** One full parallel run; returns the rendered diagnostics. */
    std::string
    run(unsigned jobs, RunHealth& health, bool fail_fast = false,
        support::BudgetLimits budget = {})
    {
        auto set = makeAllCheckers();
        support::DiagnosticSink sink;
        ParallelRunOptions options;
        options.jobs = jobs;
        options.fail_fast = fail_fast;
        options.unit_budget = budget;
        options.health = &health;
        runCheckersParallel(program, spec, set.pointers(), sink,
                            options);
        std::ostringstream os;
        sink.print(os, &program.sourceManager());
        return os.str();
    }
};

TEST(UnitGuard, ContainsExceptions)
{
    UnitGuard guard("fn/checker");
    UnitOutcome outcome = guard.run(
        [] { throw std::runtime_error("checker bug"); });
    EXPECT_TRUE(outcome.failed);
    EXPECT_EQ(outcome.error, "checker bug");
}

TEST(UnitGuard, ContainsNonStandardExceptions)
{
    UnitGuard guard("fn/checker");
    UnitOutcome outcome = guard.run([] { throw 42; });
    EXPECT_TRUE(outcome.failed);
    EXPECT_NE(outcome.error.find("fn/checker"), std::string::npos);
}

TEST(UnitGuard, CleanBodyReportsBudgetUsage)
{
    support::BudgetLimits limits;
    limits.max_steps = 4;
    UnitGuard guard("fn/checker", limits);
    UnitOutcome outcome = guard.run([] {
        support::Budget* budget = support::Budget::current();
        ASSERT_NE(budget, nullptr);
        budget->chargeStep(10);
    });
    EXPECT_FALSE(outcome.failed);
    EXPECT_EQ(outcome.budget_stop, support::BudgetStop::Steps);
    EXPECT_EQ(outcome.steps, 10u);
}

TEST(Containment, InjectedFaultDegradesButCompletes)
{
    if (!kFaultsCompiledIn)
        GTEST_SKIP() << "fault injection compiled out";
    ArmedScope armed("checker.unit:1");
    Fixture fx;
    RunHealth health;
    const std::string out = fx.run(2, health);
    EXPECT_GT(health.unit_failures, 0u);
    EXPECT_TRUE(health.degraded());
    EXPECT_NE(out.find("analysis incomplete"), std::string::npos);
    EXPECT_NE(out.find("unit-failure"), std::string::npos);
}

TEST(Containment, DegradedOutputIdenticalAcrossJobCounts)
{
    if (!kFaultsCompiledIn)
        GTEST_SKIP() << "fault injection compiled out";
    // n=3: a keyed subset of units faults; the subset depends only on
    // unit identity, so every job count must degrade identically.
    std::string first;
    std::uint64_t first_failures = 0;
    for (unsigned jobs : {1u, 2u, 4u}) {
        ArmedScope armed("checker.unit:3");
        Fixture fx;
        RunHealth health;
        const std::string out = fx.run(jobs, health);
        if (first.empty()) {
            first = out;
            first_failures = health.unit_failures;
            EXPECT_GT(first_failures, 0u)
                << "n=3 hit no unit; pick a different modulus";
        } else {
            EXPECT_EQ(out, first) << "degraded output depends on --jobs";
            EXPECT_EQ(health.unit_failures, first_failures);
        }
    }
}

TEST(Containment, HealthyUnitsUnaffectedByFaultyOnes)
{
    if (!kFaultsCompiledIn)
        GTEST_SKIP() << "fault injection compiled out";
    // Baseline without faults.
    std::string baseline;
    {
        Fixture fx;
        RunHealth health;
        baseline = fx.run(2, health);
        EXPECT_EQ(health.unit_failures, 0u);
    }
    // Every diagnostic in the degraded run that is not an engine marker
    // must also exist in the baseline: containment adds markers, it
    // never invents or corrupts findings.
    ArmedScope armed("checker.unit:3");
    Fixture fx;
    RunHealth health;
    auto set = makeAllCheckers();
    support::DiagnosticSink sink;
    ParallelRunOptions options;
    options.jobs = 2;
    options.health = &health;
    runCheckersParallel(fx.program, fx.spec, set.pointers(), sink,
                        options);
    for (const support::Diagnostic& d : sink.diagnostics()) {
        if (d.checker == "engine")
            continue;
        EXPECT_NE(baseline.find(d.message), std::string::npos)
            << "degraded run invented finding: " << d.message;
    }
}

TEST(Containment, FailFastEscalates)
{
    if (!kFaultsCompiledIn)
        GTEST_SKIP() << "fault injection compiled out";
    // checker.unit:1 fails every unit; fail-fast names the first one in
    // function-major merge order, whatever the job count.
    for (unsigned jobs : {1u, 4u}) {
        ArmedScope armed("checker.unit:1");
        Fixture fx;
        RunHealth health;
        try {
            fx.run(jobs, health, /*fail_fast=*/true);
            ADD_FAILURE() << "fail-fast run did not throw at jobs " << jobs;
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()),
                      "unit 'PILocalGet/buffer_mgmt' failed: injected "
                      "fault at checker.unit [PILocalGet/buffer_mgmt]");
        }
    }
}

TEST(Containment, StepBudgetTruncatesGracefully)
{
    Fixture fx;
    RunHealth health;
    support::BudgetLimits budget;
    budget.max_steps = 1;
    const std::string out = fx.run(2, health, false, budget);
    EXPECT_GT(health.budget_truncations, 0u);
    EXPECT_EQ(health.unit_failures, 0u);
    EXPECT_NE(out.find("budget-exhausted"), std::string::npos);
}

TEST(Containment, BudgetTruncationDeterministicAcrossJobs)
{
    support::BudgetLimits budget;
    budget.max_steps = 1;
    std::string first;
    for (unsigned jobs : {1u, 4u}) {
        Fixture fx;
        RunHealth health;
        const std::string out = fx.run(jobs, health, false, budget);
        if (first.empty())
            first = out;
        else
            EXPECT_EQ(out, first)
                << "budget truncation depends on --jobs";
    }
}

TEST(Containment, WalkerFaultContainedToo)
{
    if (!kFaultsCompiledIn)
        GTEST_SKIP() << "fault injection compiled out";
    ArmedScope armed("walker.walk:1");
    Fixture fx;
    RunHealth health;
    const std::string out = fx.run(2, health);
    EXPECT_GT(health.unit_failures, 0u);
    EXPECT_NE(out.find("analysis incomplete"), std::string::npos);
}

} // namespace
} // namespace mc::checkers
