#ifndef MCHECK_CHECKERS_REGISTRY_H
#define MCHECK_CHECKERS_REGISTRY_H

#include "checkers/checker.h"
#include "metal/feasibility.h"

#include <memory>
#include <string>
#include <vector>

namespace mc::metal {
struct MetalProgram;
} // namespace mc::metal

namespace mc::checkers {

/** An owned set of checkers plus the raw-pointer view runCheckers takes. */
struct CheckerSet
{
    std::vector<std::unique_ptr<Checker>> owned;

    std::vector<Checker*>
    pointers() const
    {
        std::vector<Checker*> out;
        for (const auto& c : owned)
            out.push_back(c.get());
        return out;
    }

    Checker* byName(const std::string& name) const;
};

/** Options applied when building the full checker set. */
struct CheckerSetOptions
{
    /** Section 6.1 value-sensitive frees refinement (ablation toggle). */
    bool value_sensitive_frees = true;
    /**
     * Path-feasibility pruning strategy (`--prune-paths`), applied
     * uniformly to every path-sensitive checker — the extension the
     * paper declined to build. Off matches the paper. (This replaces
     * the old `prune_impossible_paths` flag, which only the
     * message-length checker honored.)
     */
    metal::PruneStrategy prune_strategy = metal::PruneStrategy::Off;
};

/**
 * Instantiate all nine checkers of the paper's Table 7:
 * buffer_mgmt, msglen_check, lanes, wait_for_db, alloc_check,
 * dir_check, send_wait, exec_restrict, no_float.
 */
CheckerSet makeAllCheckers(
    const CheckerSetOptions& options = CheckerSetOptions());

/**
 * Instantiate one checker by its stable name (a Table 7 row). Returns
 * nullptr for unknown names. Every unit builds its checker here (through
 * UnitGrid::make): checkers carry mutable per-run state (applied counts,
 * lanes summaries, tallies), so each (function, checker) work unit gets
 * a fresh instance built with the same options. What is immutable is
 * not rebuilt: the two metal checkers refer to their process-wide
 * builtinMetalProgram, so a fresh instance costs microseconds.
 */
std::unique_ptr<Checker> makeChecker(
    const std::string& name,
    const CheckerSetOptions& options = CheckerSetOptions());

/**
 * The metal source a built-in checker compiles from (wait_for_db,
 * msglen_check), or "" for the hand-written ones. Part of every unit's
 * cache key: editing a .metal file invalidates every result its checker
 * produced.
 */
const char* builtinMetalSource(const std::string& checker_name);

/**
 * The compiled program of a built-in metal checker: parsed from
 * builtinMetalSource on first use (thread-safe), then shared, immutable,
 * by every instance in the process — one StateMachine and one
 * CompiledSm generation. Throws std::invalid_argument for a checker
 * without metal source.
 */
const metal::MetalProgram& builtinMetalProgram(
    const std::string& checker_name);

/** The nine checker names in Table 7 (= makeAllCheckers) order. */
const std::vector<std::string>& allCheckerNames();

/** Static per-checker metadata for the Table 7 reproduction. */
struct CheckerMeta
{
    /** Our checker name (Checker::name()). */
    std::string name;
    /** Row label used in the paper's Table 7. */
    std::string paper_label;
    /** Checker size reported in Table 7 (lines of metal). */
    int paper_loc;
    /** Errors reported in Table 7. */
    int paper_errors;
    /** False positives reported in Table 7. */
    int paper_false_pos;
};

/** Table 7 rows, in the paper's order. */
const std::vector<CheckerMeta>& table7Meta();

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_REGISTRY_H
