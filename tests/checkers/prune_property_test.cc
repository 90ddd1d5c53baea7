/**
 * @file
 * Property tests for path-feasibility pruning over the seeded corpus:
 *
 *  - Monotone shrinkage: findings(constraints) is a subset of
 *    findings(correlated), which is a subset of findings(off). Pruning
 *    may only remove infeasible-path reports, never add.
 *  - Error retention: every seeded true error of Tables 2-7 that the
 *    paper configuration reports is still reported at every strategy.
 *  - Determinism per strategy: rendered JSON is byte-identical across
 *    --jobs 1/4 and cold/warm analysis cache (the cache keys embed the
 *    strategy, so a warm cache from one strategy never leaks findings
 *    into another).
 */
#include "cache/analysis_cache.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "metal/feasibility.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace mc {
namespace {

namespace fs = std::filesystem;

/** A finding identity: dedup key the sink itself uses, plus severity. */
std::multiset<std::string>
findingKeys(const support::DiagnosticSink& sink)
{
    std::multiset<std::string> keys;
    for (const support::Diagnostic& d : sink.diagnostics()) {
        std::ostringstream key;
        key << d.loc.file_id << ':' << d.loc.line << ':' << d.loc.column
            << ':' << d.checker << ':' << d.rule << ':'
            << static_cast<int>(d.severity);
        keys.insert(key.str());
    }
    return keys;
}

struct Checked
{
    std::multiset<std::string> keys;
    std::string json;
    std::map<std::string, int> errors_found;
};

Checked
checkProtocol(const corpus::LoadedProtocol& loaded,
              metal::PruneStrategy strategy, unsigned jobs,
              cache::AnalysisCache* cache)
{
    checkers::CheckerSetOptions copts;
    copts.prune_strategy = strategy;
    auto set = checkers::makeAllCheckers(copts);
    support::DiagnosticSink sink;
    checkers::ParallelRunOptions options;
    options.jobs = jobs;
    options.cache = cache;
    options.checker_options = copts;
    checkers::runCheckersParallel(*loaded.program, loaded.gen.spec,
                                  set.pointers(), sink, options);
    Checked out;
    out.keys = findingKeys(sink);
    std::ostringstream json;
    sink.write(json, support::OutputFormat::Json,
               &loaded.program->sourceManager());
    out.json = json.str();
    for (const checkers::CheckerMeta& meta : checkers::table7Meta()) {
        corpus::Reconciliation rec =
            corpus::reconcile(loaded.gen.ledger, sink.diagnostics(),
                              loaded.file_function, meta.name);
        out.errors_found[meta.name] =
            rec.foundWithClass(corpus::SeedClass::Error);
    }
    return out;
}

bool
isSubset(const std::multiset<std::string>& inner,
         const std::multiset<std::string>& outer)
{
    return std::includes(outer.begin(), outer.end(), inner.begin(),
                         inner.end());
}

TEST(PruneProperty, FindingsShrinkMonotonicallyAndErrorsSurvive)
{
    for (const corpus::ProtocolProfile& profile :
         corpus::paperProfiles()) {
        corpus::LoadedProtocol loaded = corpus::loadProtocol(profile);
        Checked off = checkProtocol(loaded, metal::PruneStrategy::Off, 1,
                                    nullptr);
        Checked corr = checkProtocol(
            loaded, metal::PruneStrategy::Correlated, 1, nullptr);
        Checked cons = checkProtocol(
            loaded, metal::PruneStrategy::Constraints, 1, nullptr);

        EXPECT_TRUE(isSubset(corr.keys, off.keys))
            << profile.name << ": correlated added findings";
        EXPECT_TRUE(isSubset(cons.keys, corr.keys))
            << profile.name << ": constraints added findings vs "
                               "correlated";

        EXPECT_EQ(corr.errors_found, off.errors_found)
            << profile.name << ": correlated lost a seeded error";
        EXPECT_EQ(cons.errors_found, off.errors_found)
            << profile.name << ": constraints lost a seeded error";
    }
}

TEST(PruneProperty, EachStrategyIsDeterministicAcrossJobsAndCache)
{
    fs::path cache_root =
        fs::temp_directory_path() / "mccheck_prune_property_cache";
    fs::remove_all(cache_root);

    // One protocol exercising all strategies end to end keeps the test
    // fast; byte-determinism across every protocol is pinned separately
    // by the compare_prune ctest harness.
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("coma"));
    for (metal::PruneStrategy strategy :
         {metal::PruneStrategy::Off, metal::PruneStrategy::Correlated,
          metal::PruneStrategy::Constraints}) {
        const std::string label = metal::pruneStrategyName(strategy);
        // All strategies share one cache directory on purpose: the
        // strategy byte in the unit key must keep entries separate.
        cache::AnalysisCache fill(cache_root.string());
        Checked j1 = checkProtocol(loaded, strategy, 1, nullptr);
        Checked j4 = checkProtocol(loaded, strategy, 4, nullptr);
        EXPECT_EQ(j1.json, j4.json) << label << ": jobs changed bytes";
        checkProtocol(loaded, strategy, 1, &fill); // cold fill
        fill.flush();
        cache::AnalysisCache warm(cache_root.string());
        Checked cached = checkProtocol(loaded, strategy, 4, &warm);
        EXPECT_GT(warm.stats().hits, 0u) << label;
        EXPECT_EQ(j1.json, cached.json)
            << label << ": warm cache changed bytes";
    }
    fs::remove_all(cache_root);
}

} // namespace
} // namespace mc
