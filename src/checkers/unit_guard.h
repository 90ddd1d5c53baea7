#ifndef MCHECK_CHECKERS_UNIT_GUARD_H
#define MCHECK_CHECKERS_UNIT_GUARD_H

#include "support/budget.h"

#include <cstdint>
#include <functional>
#include <string>

namespace mc::checkers {

/** What happened to one guarded (function, checker) work unit. */
struct UnitOutcome
{
    /** True when the unit threw and its results must be discarded. */
    bool failed = false;
    /** Failure description (exception what()) when failed. */
    std::string error;
    /**
     * Resource-budget limit that truncated the unit's analysis, or
     * None. Truncation is graceful — the unit "succeeded" with partial
     * coverage — so failed stays false.
     */
    support::BudgetStop budget_stop = support::BudgetStop::None;
    /** Budget steps the unit charged (walker visits, mostly). */
    std::uint64_t steps = 0;
};

/**
 * Fault containment for one (function, checker) work unit.
 *
 * `run` installs a per-unit resource Budget (thread-local, consulted by
 * PathWalker deep inside the checker) and executes the body under a
 * catch-everything barrier: any exception — a checker bug, an injected
 * fault, bad_alloc — is captured into the outcome instead of escaping
 * to the thread pool, so one crashing unit cannot take down the run or
 * perturb the deterministic merge.
 *
 * The guard is deliberately containment-only: it does not log, count
 * metrics, or emit diagnostics. runUnit decides how a failure surfaces
 * (an "analysis incomplete" diagnostic), and mergeUnits whether it
 * aborts the run (--fail-fast).
 */
class UnitGuard
{
  public:
    /**
     * @param label Unit identity ("function/checker"), used in error
     *   messages.
     * @param limits Per-unit resource budget (default: unlimited).
     */
    explicit UnitGuard(std::string label,
                       support::BudgetLimits limits = {})
        : label_(std::move(label)), limits_(limits)
    {
    }

    /** Execute `body` contained; never throws. */
    UnitOutcome run(const std::function<void()>& body) const;

  private:
    std::string label_;
    support::BudgetLimits limits_;
};

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_UNIT_GUARD_H
