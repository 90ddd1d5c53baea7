#include "checkers/buffer_race.h"
#include "checkers/metal_sources.h"
#include "checkers/msg_length.h"
#include "checkers/registry.h"
#include "metal/transition_table.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

namespace mc::checkers {
namespace {

/** The program a built-in metal checker instance runs. */
const metal::MetalProgram&
programOf(const Checker& checker)
{
    if (const auto* m = dynamic_cast<const MsgLengthChecker*>(&checker))
        return m->program();
    return dynamic_cast<const BufferRaceChecker&>(checker).program();
}

TEST(BuiltinMetalPrograms, SharedAcrossInstances)
{
    CheckerSetOptions pruned;
    pruned.prune_strategy = metal::PruneStrategy::Constraints;
    std::unique_ptr<Checker> first = makeChecker("msglen_check");
    std::unique_ptr<Checker> second = makeChecker("msglen_check", pruned);
    CheckerSet all = makeAllCheckers();

    for (const char* name : {"msglen_check", "wait_for_db"}) {
        const metal::MetalProgram& shared = builtinMetalProgram(name);
        ASSERT_NE(shared.sm, nullptr) << name;
        EXPECT_EQ(programOf(*all.byName(name)).sm.get(), shared.sm.get())
            << name;
        EXPECT_EQ(programOf(*makeChecker(name)).sm.get(), shared.sm.get())
            << name;
    }
    const metal::StateMachine* sm = programOf(*first).sm.get();
    EXPECT_EQ(programOf(*second).sm.get(), sm);
    EXPECT_EQ(programOf(*all.byName("msglen_check")).sm.get(), sm);
    const std::uint64_t generation = sm->compiled().generation();
    EXPECT_EQ(programOf(*second).sm->compiled().generation(), generation);
    EXPECT_EQ(programOf(*all.byName("msglen_check"))
                  .sm->compiled()
                  .generation(),
              generation);
    EXPECT_NE(builtinMetalProgram("wait_for_db").sm->compiled().generation(),
              generation);
}

TEST(BuiltinMetalPrograms, SourceTableNamesTheEmbeddedSources)
{
    EXPECT_EQ(builtinMetalSource("wait_for_db"), kWaitForDbMetal);
    EXPECT_EQ(builtinMetalSource("msglen_check"), kMsgLenCheckMetal);
    EXPECT_STREQ(builtinMetalSource("lanes"), "");
    EXPECT_THROW(builtinMetalProgram("lanes"), std::invalid_argument);
}

TEST(BuiltinMetalPrograms, ConcurrentFirstUse)
{
    // Run as its own process under ctest, so this is the first use: the
    // threads race the one-time parse.
    constexpr int kThreads = 8;
    std::vector<const metal::StateMachine*> msg(kThreads);
    std::vector<const metal::StateMachine*> wait(kThreads);
    std::vector<std::uint64_t> generations(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            std::unique_ptr<Checker> m = makeChecker("msglen_check");
            std::unique_ptr<Checker> w = makeChecker("wait_for_db");
            msg[t] = programOf(*m).sm.get();
            wait[t] = programOf(*w).sm.get();
            generations[t] = msg[t]->compiled().generation();
        });
    for (std::thread& thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(msg[t], builtinMetalProgram("msglen_check").sm.get());
        EXPECT_EQ(wait[t], builtinMetalProgram("wait_for_db").sm.get());
        EXPECT_EQ(generations[t], generations[0]);
    }
}

} // namespace
} // namespace mc::checkers
