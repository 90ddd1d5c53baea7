/**
 * @file
 * The per-unit fingerprint memo on lang::Program: a unit is hashed once
 * and keeps its value until updateSource replaces it, an updated program
 * fingerprints exactly like a fresh one built from the new sources,
 * degraded units never get a fingerprint, and concurrent first users on
 * one const Program agree (the concurrency case runs under TSan in CI).
 */
#include "lang/fingerprint.h"
#include "lang/program.h"
#include "support/metrics.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace mc::lang {
namespace {

using Sources = std::vector<std::pair<std::string, std::string>>;

Sources
handlerSources(int count)
{
    Sources sources;
    for (int i = 0; i < count; ++i) {
        const std::string n = std::to_string(i);
        sources.emplace_back("h" + n + ".c",
                             "void H" + n + "(void) { x = " + n +
                                 "; }\nint helper" + n +
                                 "(void) { return " + n + "; }\n");
    }
    return sources;
}

std::unique_ptr<Program>
build(const Sources& sources)
{
    auto program = std::make_unique<Program>(/*recover=*/true);
    for (const auto& [name, text] : sources)
        program->addSource(name, text);
    return program;
}

/** Slots of `program` whose fingerprint this call had to compute. */
std::vector<std::size_t>
computedSlots(const Program& program)
{
    std::vector<std::size_t> slots;
    for (std::size_t slot = 0; slot < program.units().size(); ++slot) {
        bool computed = false;
        program.unitFingerprint(slot, &computed);
        if (computed)
            slots.push_back(slot);
    }
    return slots;
}

/** Metrics on and zeroed for one test; off and dropped after it. */
struct ScopedMetrics
{
    ScopedMetrics()
    {
        support::MetricsRegistry::global().clear();
        support::MetricsRegistry::global().setEnabled(true);
    }
    ~ScopedMetrics()
    {
        support::MetricsRegistry::global().setEnabled(false);
        support::MetricsRegistry::global().clear();
    }
    static std::uint64_t counter(const char* name)
    {
        return support::MetricsRegistry::global().counterValue(name);
    }
};

TEST(FingerprintMemo, UpdateSourceMatchesAFreshProgram)
{
    Sources sources = handlerSources(4);
    std::unique_ptr<Program> resident = build(sources);
    const auto before = fingerprintFunctions(*resident);
    ASSERT_EQ(before.size(), 8u);

    sources[2].second = "void H2(void) { x = 22; }\n"
                        "int helper2(void) { return 2; }\n";
    ASSERT_NE(resident->updateSource(sources[2].first, sources[2].second),
              nullptr);
    const auto after = fingerprintFunctions(*resident);
    EXPECT_EQ(after, fingerprintFunctions(*build(sources)));

    // The edited file's functions moved; every other function kept its
    // value.
    for (const auto& [name, fp] : before) {
        if (name == "H2" || name == "helper2")
            EXPECT_NE(after.at(name), fp) << name;
        else
            EXPECT_EQ(after.at(name), fp) << name;
    }
}

TEST(FingerprintMemo, UpdateRehashesOnlyTheReplacedUnit)
{
    Sources sources = handlerSources(5);
    std::unique_ptr<Program> program = build(sources);
    // Parsing hashes nothing; the first use hashes every unit, the
    // second none.
    EXPECT_EQ(computedSlots(*program),
              (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(computedSlots(*program).empty());

    ASSERT_NE(program->updateSource("h3.c", "void H3(void) { y = 3; }\n"),
              nullptr);
    EXPECT_EQ(computedSlots(*program), (std::vector<std::size_t>{3}));
    EXPECT_TRUE(computedSlots(*program).empty());
}

TEST(FingerprintMemo, CountsHitsAndMissesPerUnit)
{
    ScopedMetrics metrics;
    Sources sources = handlerSources(3);
    // A unit without function definitions has no key to feed and is
    // never hashed.
    sources.emplace_back("decls.h", "int shared;\n");
    std::unique_ptr<Program> program = build(sources);

    functionFingerprints(*program);
    EXPECT_EQ(ScopedMetrics::counter("lang.fingerprint_memo_misses"), 3u);
    EXPECT_EQ(ScopedMetrics::counter("lang.fingerprint_memo_hits"), 0u);

    ASSERT_NE(program->updateSource("h1.c", "void H1(void) { z = 1; }\n"),
              nullptr);
    functionFingerprints(*program);
    EXPECT_EQ(ScopedMetrics::counter("lang.fingerprint_memo_misses"), 4u);
    EXPECT_EQ(ScopedMetrics::counter("lang.fingerprint_memo_hits"), 2u);
}

TEST(FingerprintMemo, DegradedUnitGetsNoFingerprint)
{
    const std::string clean = "void Edited(void) { x = 1; }\n";
    // Edited is poisoned; Sibling parses but sits in a degraded unit.
    const std::string broken = "void Edited(void) {\n  if (x {\n  }\n}\n"
                               "void Sibling(void) { int y = 1; }\n";
    Sources sources = {{"a.c", "void Kept(void) { y = 2; }\n"},
                       {"b.c", clean}};
    std::unique_ptr<Program> program = build(sources);
    ASSERT_EQ(fingerprintFunctions(*program).size(), 2u);

    // Breaking a fingerprinted unit drops its value with the unit.
    ASSERT_NE(program->updateSource("b.c", broken), nullptr);
    ASSERT_TRUE(program->degraded());
    EXPECT_FALSE(program->unitFingerprint(1).has_value());
    const auto fps = fingerprintFunctions(*program);
    EXPECT_EQ(fps.count("Edited"), 0u);
    EXPECT_EQ(fps.count("Sibling"), 0u);
    EXPECT_EQ(fps.count("Kept"), 1u);
    for (std::size_t i = 0; i < program->functions().size(); ++i)
        EXPECT_EQ(functionFingerprints(*program)[i].has_value(),
                  program->functions()[i]->name == "Kept");

    // Fixing it fingerprints it again, as a fresh program would.
    ASSERT_NE(program->updateSource("b.c", clean), nullptr);
    EXPECT_EQ(fingerprintFunctions(*program),
              fingerprintFunctions(*build(sources)));
}

TEST(FingerprintMemo, DegradedUnitNeverBorrowsASiblingsFingerprint)
{
    // Both units define Twin; the second is degraded. Read by function
    // index, the degraded definition has no fingerprint even though a
    // clean definition of the same name does.
    std::unique_ptr<Program> program = build(
        {{"clean.c", "void Twin(void) { x = 1; }\n"},
         {"broken.c", "void Broken(void) {\n  if (x {\n  }\n}\n"
                      "void Twin(void) { int y = 1; }\n"}});
    ASSERT_TRUE(program->degraded());
    const auto fps = functionFingerprints(*program);
    ASSERT_EQ(fps.size(), program->functions().size());
    const std::int32_t clean_id = program->units()[0].file_id;
    std::size_t twins = 0;
    for (std::size_t i = 0; i < fps.size(); ++i) {
        const FunctionDecl& fn = *program->functions()[i];
        twins += fn.name == "Twin" ? 1 : 0;
        EXPECT_EQ(fps[i].has_value(), fn.loc.file_id == clean_id)
            << fn.name;
    }
    EXPECT_EQ(twins, 2u);
}

TEST(FingerprintMemo, ConcurrentFirstUseAgrees)
{
    ScopedMetrics metrics;
    const Sources sources = handlerSources(48);
    std::unique_ptr<Program> shared = build(sources);
    const auto expected = fingerprintFunctions(*build(sources));
    support::MetricsRegistry::global().clear();

    constexpr int kThreads = 8;
    std::vector<std::map<std::string, std::uint64_t>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            const Program& program = *shared;
            seen[static_cast<std::size_t>(t)] =
                fingerprintFunctions(program);
        });
    for (std::thread& thread : threads)
        thread.join();

    for (const auto& fps : seen)
        EXPECT_EQ(fps, expected);
    // Every unit was hashed exactly once, whoever got there first.
    EXPECT_EQ(ScopedMetrics::counter("lang.fingerprint_memo_misses"),
              sources.size());
    EXPECT_EQ(ScopedMetrics::counter("lang.fingerprint_memo_hits"),
              sources.size() * (kThreads - 1));
    EXPECT_TRUE(computedSlots(*shared).empty());
}

} // namespace
} // namespace mc::lang
