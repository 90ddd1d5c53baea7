#include "checkers/unit_guard.h"

namespace mc::checkers {

UnitOutcome
UnitGuard::run(const std::function<void()>& body) const
{
    UnitOutcome outcome;
    support::Budget budget(limits_);
    support::BudgetScope scope(&budget);
    try {
        body();
    } catch (const std::exception& e) {
        outcome.failed = true;
        outcome.error = e.what();
    } catch (...) {
        outcome.failed = true;
        outcome.error = "non-standard exception in unit " + label_;
    }
    outcome.budget_stop = budget.stop();
    outcome.steps = budget.steps();
    return outcome;
}

} // namespace mc::checkers
