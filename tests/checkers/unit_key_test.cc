/**
 * @file
 * Unit cache keys: a grid's per-column key prefix gives exactly
 * unitCacheKey's values for every built-in checker and option set, and
 * pinned literals catch any drift in the bytes a key hashes — a drift
 * would silently turn every existing cache directory into misses.
 */
#include "checkers/unit_executor.h"
#include "flash/protocol_spec.h"
#include "lang/program.h"
#include "support/witness.h"

#include <gtest/gtest.h>

namespace mc::checkers {
namespace {

/** Witness configuration for one scope, restored to the default after. */
struct ScopedWitness
{
    ScopedWitness(bool enabled, unsigned limit)
    {
        support::setWitnessConfig(enabled, limit);
    }
    ~ScopedWitness()
    {
        support::setWitnessConfig(false, support::kDefaultWitnessLimit);
    }
};

TEST(UnitCacheKey, GridKeysEqualUnitCacheKey)
{
    lang::Program program;
    const flash::ProtocolSpec spec;
    const std::uint64_t fps[][2] = {{0, 0}, {0x1234, 0x5678}, {~0ull, 7}};
    for (bool witness : {false, true}) {
        ScopedWitness scope(witness, witness ? 5 : 16);
        for (bool vsf : {true, false}) {
            for (metal::PruneStrategy prune :
                 {metal::PruneStrategy::Off, metal::PruneStrategy::Correlated,
                  metal::PruneStrategy::Constraints}) {
                CheckerSetOptions options;
                options.value_sensitive_frees = vsf;
                options.prune_strategy = prune;
                CheckerSet set = makeAllCheckers(options);
                const UnitGrid grid =
                    builtinGrid(program, spec, set.pointers(), options);
                ASSERT_EQ(grid.columns(), allCheckerNames().size());
                for (std::size_t c = 0; c < grid.columns(); ++c)
                    for (const auto& [spec_fp, fn_fp] : fps)
                        EXPECT_EQ(grid.key(c, spec_fp, fn_fp),
                                  unitCacheKey(grid.checkers[c]->name(),
                                               options, spec_fp, fn_fp))
                            << grid.checkers[c]->name() << " witness "
                            << witness << " vsf " << vsf << " prune "
                            << static_cast<int>(prune);
            }
        }
    }
}

TEST(UnitCacheKey, ValuesArePinned)
{
    // Recorded from the recipe as it stood when these keys were first
    // pinned. A deliberate change of the key bytes (format or tool
    // version bump, a new ingredient, an edited metal source) must
    // update them; anything else that moves them is a bug.
    EXPECT_EQ(unitCacheKey("no_float", CheckerSetOptions(), 0x1234, 0x5678),
              0x7943ca41c1761db7ull);
    EXPECT_EQ(
        unitCacheKey("msglen_check", CheckerSetOptions(), 0x1234, 0x5678),
        0xf050464a9295bca7ull);
    CheckerSetOptions options;
    options.value_sensitive_frees = false;
    options.prune_strategy = metal::PruneStrategy::Constraints;
    ScopedWitness scope(true, 7);
    EXPECT_EQ(unitCacheKey("no_float", options, 0x1234, 0x5678),
              0x27358800c6998d0eull);
}

} // namespace
} // namespace mc::checkers
