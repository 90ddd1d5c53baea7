/**
 * @file
 * ResidentState and memory-cache tests: overlay precedence for the
 * daemon's open/change/close documents, snapshot reuse with in-place
 * re-parse of exactly the changed files (stable file ids), LRU
 * eviction of file snapshots, protocol/metal snapshot reuse, and the
 * in-memory AnalysisCache (the same store a cache directory loads into,
 * with zero filesystem traffic).
 */
#include "server/resident.h"

#include "cache/analysis_cache.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace mc::server {
namespace {

/** A FileReader over an in-test map (no filesystem). */
class MapReader
{
  public:
    std::map<std::string, std::string> files;

    FileReader reader()
    {
        return [this](const std::string& path, std::string& contents,
                      std::string& error) {
            auto it = files.find(path);
            if (it == files.end()) {
                error = "cannot open " + path;
                return false;
            }
            contents = it->second;
            return true;
        };
    }
};

TEST(ResidentDocuments, OverlayShadowsDiskAndCloseRestoresIt)
{
    ResidentState resident;
    EXPECT_FALSE(resident.hasDocument("doc.c"));

    resident.openDocument("doc.c", "int overlay;\n");
    ASSERT_TRUE(resident.hasDocument("doc.c"));
    EXPECT_EQ(resident.documentCount(), 1u);

    std::string contents;
    std::string error;
    ASSERT_TRUE(resident.readFile("doc.c", contents, error));
    EXPECT_EQ(contents, "int overlay;\n");

    // Re-open replaces the overlay in place.
    resident.openDocument("doc.c", "int newer;\n");
    EXPECT_EQ(resident.documentCount(), 1u);
    ASSERT_TRUE(resident.readFile("doc.c", contents, error));
    EXPECT_EQ(contents, "int newer;\n");

    // Close drops the overlay; the path now resolves to disk (and this
    // one does not exist there).
    EXPECT_TRUE(resident.closeDocument("doc.c"));
    EXPECT_FALSE(resident.closeDocument("doc.c"));
    EXPECT_FALSE(resident.readFile("doc.c", contents, error));
    EXPECT_FALSE(error.empty());
}

TEST(ResidentPrograms, SameFileListReusesTheSnapshot)
{
    ResidentState resident;
    MapReader disk;
    disk.files["a.c"] = "void fa(void) { x = 1; }\n";
    disk.files["b.c"] = "void fb(void) { y = 2; }\n";
    const std::vector<std::string> files = {"a.c", "b.c"};

    PreparedProgram first = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_FALSE(first.reused);
    EXPECT_EQ(first.files_reparsed, 2u);
    ASSERT_NE(first.program, nullptr);
    ASSERT_NE(first.cfg_cache, nullptr);
    EXPECT_EQ(resident.fileSnapshotCount(), 1u);

    PreparedProgram second = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(second.ok);
    EXPECT_TRUE(second.reused);
    EXPECT_EQ(second.files_reparsed, 0u);
    // The very same resident program object serves again.
    EXPECT_EQ(second.program, first.program);
    EXPECT_EQ(resident.fileSnapshotCount(), 1u);
}

TEST(ResidentPrograms, EditedFileReparsesInPlaceOnly)
{
    ResidentState resident;
    MapReader disk;
    disk.files["a.c"] = "void fa(void) { x = 1; }\n";
    disk.files["b.c"] = "void fb(void) { y = 2; }\n";
    const std::vector<std::string> files = {"a.c", "b.c"};

    PreparedProgram first = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(first.ok) << first.error;
    const std::size_t functions_before = resident.residentFunctionCount();

    // Grow b.c by one routine: exactly one file re-parses, in place.
    disk.files["b.c"] =
        "void fb(void) { y = 2; }\nvoid fb2(void) { z = 3; }\n";
    PreparedProgram second = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.reused);
    EXPECT_EQ(second.files_reparsed, 1u);
    EXPECT_EQ(second.program, first.program);
    EXPECT_EQ(resident.residentFunctionCount(), functions_before + 1);

    // Unchanged again: free.
    PreparedProgram third = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(third.ok);
    EXPECT_EQ(third.files_reparsed, 0u);
}

TEST(ResidentPrograms, FileListedTwiceRebuildsWhenEdited)
{
    ResidentState resident;
    MapReader disk;
    disk.files["a.c"] = "void fa(void) { x = 1; }\n";
    const std::vector<std::string> files = {"a.c", "a.c"};
    ASSERT_TRUE(resident.prepareFiles(files, disk.reader()).ok);

    // Both slots were parsed from a.c, but an in-place update by name
    // reaches only one of them; the snapshot must not keep the other's
    // stale text.
    disk.files["a.c"] = "void fa(void) { x = 2; }\n";
    PreparedProgram edited = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(edited.ok) << edited.error;
    EXPECT_FALSE(edited.reused);
    for (const lang::TranslationUnit& unit : edited.program->units())
        EXPECT_EQ(edited.program->sourceManager().fileContents(unit.file_id),
                  disk.files["a.c"]);

    PreparedProgram again = resident.prepareFiles(files, disk.reader());
    EXPECT_TRUE(again.reused);
    EXPECT_EQ(again.files_reparsed, 0u);
}

TEST(ResidentPrograms, DifferentFileListBuildsASecondSnapshot)
{
    ResidentState resident;
    MapReader disk;
    disk.files["a.c"] = "void fa(void) { x = 1; }\n";
    disk.files["b.c"] = "void fb(void) { y = 2; }\n";

    PreparedProgram both =
        resident.prepareFiles({"a.c", "b.c"}, disk.reader());
    ASSERT_TRUE(both.ok);
    PreparedProgram just_a = resident.prepareFiles({"a.c"}, disk.reader());
    ASSERT_TRUE(just_a.ok);
    EXPECT_FALSE(just_a.reused);
    EXPECT_NE(just_a.program, both.program);
    EXPECT_EQ(resident.fileSnapshotCount(), 2u);
}

TEST(ResidentPrograms, SnapshotsAreLruBounded)
{
    ResidentState resident;
    MapReader disk;
    for (int i = 0; i < 6; ++i)
        disk.files["f" + std::to_string(i) + ".c"] =
            "void fn" + std::to_string(i) + "(void) { x = 1; }\n";

    for (int i = 0; i < 6; ++i) {
        PreparedProgram p = resident.prepareFiles(
            {"f" + std::to_string(i) + ".c"}, disk.reader());
        ASSERT_TRUE(p.ok);
    }
    // The resident set is bounded; the oldest snapshots were evicted.
    EXPECT_LE(resident.fileSnapshotCount(), 4u);

    // The most recent list is still resident...
    PreparedProgram recent = resident.prepareFiles({"f5.c"}, disk.reader());
    EXPECT_TRUE(recent.reused);
    // ...and the evicted one rebuilds from scratch.
    PreparedProgram evicted = resident.prepareFiles({"f0.c"}, disk.reader());
    EXPECT_FALSE(evicted.reused);
}

TEST(ResidentPrograms, MissingFileFailsWithoutPoisoningTheSnapshot)
{
    ResidentState resident;
    MapReader disk;
    disk.files["a.c"] = "void fa(void) { x = 1; }\n";
    PreparedProgram ok = resident.prepareFiles({"a.c"}, disk.reader());
    ASSERT_TRUE(ok.ok);

    PreparedProgram missing =
        resident.prepareFiles({"a.c", "ghost.c"}, disk.reader());
    EXPECT_FALSE(missing.ok);
    EXPECT_NE(missing.error.find("ghost.c"), std::string::npos);

    // The original snapshot still serves.
    PreparedProgram again = resident.prepareFiles({"a.c"}, disk.reader());
    ASSERT_TRUE(again.ok);
    EXPECT_TRUE(again.reused);
}

TEST(ResidentPrograms, ProtocolSnapshotLoadsOnceAndReuses)
{
    ResidentState resident;
    checkers::CfgCache* cfgs = nullptr;
    bool reused = true;
    corpus::LoadedProtocol& first =
        resident.protocolSnapshot("bitvector", cfgs, reused);
    EXPECT_FALSE(reused);
    ASSERT_NE(cfgs, nullptr);
    ASSERT_NE(first.program, nullptr);
    EXPECT_EQ(resident.protocolSnapshotCount(), 1u);

    checkers::CfgCache* cfgs2 = nullptr;
    corpus::LoadedProtocol& second =
        resident.protocolSnapshot("bitvector", cfgs2, reused);
    EXPECT_TRUE(reused);
    EXPECT_EQ(&second, &first);
    EXPECT_EQ(cfgs2, cfgs);

    EXPECT_THROW(resident.protocolSnapshot("no_such", cfgs, reused),
                 std::out_of_range);
}

TEST(ResidentMetal, ProgramsAreKeyedBySourceContent)
{
    ResidentState resident;
    const std::string source = "sm probe {\n"
                               "    pat assign = { x = 1 } ;\n"
                               "    first:\n"
                               "        assign ==> { err(\"assign seen\"); } ;\n"
                               "}\n";
    const metal::MetalProgram& first =
        resident.metalProgram(source, "probe.metal");
    EXPECT_EQ(resident.metalProgramCount(), 1u);
    const metal::MetalProgram& second =
        resident.metalProgram(source, "probe.metal");
    EXPECT_EQ(&second, &first);
    EXPECT_EQ(resident.metalProgramCount(), 1u);

    // Different source text compiles a second resident program.
    resident.metalProgram(source + "\n", "probe.metal");
    EXPECT_EQ(resident.metalProgramCount(), 2u);

    EXPECT_THROW(resident.metalProgram("sm broken {", "broken.metal"),
                 metal::MetalParseError);
}

TEST(MemoryCache, StoresAndReplaysWithoutAFilesystem)
{
    std::unique_ptr<cache::AnalysisCache> cache =
        cache::AnalysisCache::inMemory();
    EXPECT_TRUE(cache->dir().empty());
    EXPECT_FALSE(cache->readonly());
    EXPECT_EQ(cache->entryCount(), 0u);

    cache::CachedUnit unit;
    unit.checker = "lanes";
    unit.function = "PILocalGet";
    unit.state = "applied 1\n";
    cache::CachedDiagnostic diag;
    diag.severity = 1;
    diag.file = "a.c";
    diag.line = 3;
    diag.column = 1;
    diag.checker = "lanes";
    diag.rule = "lane-overflow";
    diag.message = "too many lanes";
    unit.diags.push_back(diag);
    cache->store(0xabcdefu, unit);

    EXPECT_EQ(cache->entryCount(), 1u);
    EXPECT_GT(cache->residentBytes(), 0u);

    cache::CachedUnit loaded;
    ASSERT_TRUE(cache->lookup(0xabcdefu, loaded));
    EXPECT_EQ(loaded.checker, unit.checker);
    EXPECT_EQ(loaded.function, unit.function);
    EXPECT_EQ(loaded.state, unit.state);
    ASSERT_EQ(loaded.diags.size(), 1u);
    EXPECT_EQ(loaded.diags[0].message, "too many lanes");

    cache::CachedUnit missing;
    EXPECT_FALSE(cache->lookup(0x1234u, missing));

    cache::CacheStats stats = cache->stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_TRUE(cache->takeWarnings().empty());
}

TEST(MemoryCache, TrimEvictsOldestStoredFirst)
{
    std::unique_ptr<cache::AnalysisCache> cache =
        cache::AnalysisCache::inMemory();
    cache::CachedUnit unit;
    unit.checker = "lanes";
    unit.state = "applied 1\n";
    for (std::uint64_t key = 1; key <= 3; ++key) {
        unit.function = "fn" + std::to_string(key);
        cache->store(key, unit);
    }
    const std::uint64_t total = cache->residentBytes();
    ASSERT_GT(total, 0u);

    // Room for roughly two entries: the first-stored key goes.
    cache->trim(total - total / 3);
    EXPECT_LT(cache->entryCount(), 3u);
    cache::CachedUnit out;
    EXPECT_FALSE(cache->lookup(1, out));
    EXPECT_TRUE(cache->lookup(3, out));
    EXPECT_GE(cache->stats().evictions, 1u);

    // trim(0) empties the store.
    cache->trim(0);
    EXPECT_EQ(cache->entryCount(), 0u);
    EXPECT_EQ(cache->residentBytes(), 0u);
}

} // namespace
} // namespace mc::server
