/**
 * @file
 * Analysis-cache tests: entry and segment round-trips, the corruption
 * contract (truncated / version-mismatched / bit-flipped entries and
 * segments fall back to cold analysis with a warning — never a crash,
 * never stale findings), publishing and compaction beside concurrent
 * runs, fingerprint sensitivity, eviction, and warm-vs-cold
 * byte-identity of the full checking pipeline.
 */
#include "cache/analysis_cache.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "corpus/profile.h"
#include "lang/fingerprint.h"
#include "support/hash.h"
#include "support/version.h"
#include "support/witness.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace mc::cache {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory per test, removed on destruction. */
class TempCacheDir
{
  public:
    explicit TempCacheDir(const std::string& tag)
        : path_(fs::path(::testing::TempDir()) /
                ("mccheck_cache_test_" + tag))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempCacheDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

CachedUnit
sampleUnit()
{
    CachedUnit unit;
    unit.checker = "lanes";
    unit.function = "PILocalGet";
    unit.state = "applied 3\nfunction PILocalGet\n  calls helper 2\n";
    CachedDiagnostic d;
    d.severity = 1;
    d.file = "sci/PILocalGet.c";
    d.line = 12;
    d.column = 5;
    d.checker = "lanes";
    d.rule = "lane-overflow";
    d.message = "message with spaces, 100% odd chars & a\ttab";
    d.trace = {"PILocalGet -> helper", "helper: SEND at line 9"};
    CachedWitnessStep step;
    step.from = "start";
    step.to = "buf checked";
    step.file = "sci/PILocalGet.c";
    step.line = 9;
    step.column = 3;
    step.note = "rule lane-overflow, addr = h->addr";
    d.wsteps.push_back(step);
    step.to = "stop";
    step.note = "rule done";
    d.wsteps.push_back(step);
    d.wblocks = {0, 2, 5};
    d.wtruncated = true;
    unit.diags.push_back(d);
    d.trace.clear();
    d.wsteps.clear();
    d.wblocks.clear();
    d.wtruncated = false;
    d.severity = 0;
    d.message = "second finding";
    unit.diags.push_back(d);
    return unit;
}

void
expectSameUnit(const CachedUnit& a, const CachedUnit& b)
{
    EXPECT_EQ(a.checker, b.checker);
    EXPECT_EQ(a.function, b.function);
    EXPECT_EQ(a.state, b.state);
    ASSERT_EQ(a.diags.size(), b.diags.size());
    for (std::size_t i = 0; i < a.diags.size(); ++i) {
        EXPECT_EQ(a.diags[i].severity, b.diags[i].severity);
        EXPECT_EQ(a.diags[i].file, b.diags[i].file);
        EXPECT_EQ(a.diags[i].line, b.diags[i].line);
        EXPECT_EQ(a.diags[i].column, b.diags[i].column);
        EXPECT_EQ(a.diags[i].checker, b.diags[i].checker);
        EXPECT_EQ(a.diags[i].rule, b.diags[i].rule);
        EXPECT_EQ(a.diags[i].message, b.diags[i].message);
        EXPECT_EQ(a.diags[i].trace, b.diags[i].trace);
        EXPECT_EQ(a.diags[i].wblocks, b.diags[i].wblocks);
        EXPECT_EQ(a.diags[i].wtruncated, b.diags[i].wtruncated);
        ASSERT_EQ(a.diags[i].wsteps.size(), b.diags[i].wsteps.size());
        for (std::size_t s = 0; s < a.diags[i].wsteps.size(); ++s) {
            const CachedWitnessStep& ws = a.diags[i].wsteps[s];
            const CachedWitnessStep& bs = b.diags[i].wsteps[s];
            EXPECT_EQ(ws.from, bs.from);
            EXPECT_EQ(ws.to, bs.to);
            EXPECT_EQ(ws.file, bs.file);
            EXPECT_EQ(ws.line, bs.line);
            EXPECT_EQ(ws.column, bs.column);
            EXPECT_EQ(ws.note, bs.note);
        }
    }
}

TEST(CacheEncoding, RoundTripsEveryField)
{
    CachedUnit unit = sampleUnit();
    std::string text = AnalysisCache::encodeUnit(unit);
    CachedUnit decoded;
    std::string error;
    ASSERT_TRUE(AnalysisCache::decodeUnit(text, decoded, error)) << error;
    expectSameUnit(unit, decoded);
}

TEST(CacheEncoding, RoundTripsEmptyUnit)
{
    CachedUnit unit;
    unit.checker = "no_float";
    unit.function = "f";
    std::string text = AnalysisCache::encodeUnit(unit);
    CachedUnit decoded;
    std::string error;
    ASSERT_TRUE(AnalysisCache::decodeUnit(text, decoded, error)) << error;
    expectSameUnit(unit, decoded);
}

TEST(CacheEncoding, RejectsEveryTruncation)
{
    std::string text = AnalysisCache::encodeUnit(sampleUnit());
    for (std::size_t len = 0; len < text.size(); ++len) {
        CachedUnit decoded;
        std::string error;
        EXPECT_FALSE(AnalysisCache::decodeUnit(text.substr(0, len),
                                               decoded, error))
            << "prefix of length " << len << " decoded successfully";
        EXPECT_FALSE(error.empty()) << "no reason for prefix " << len;
    }
}

TEST(CacheEncoding, RejectsEverySingleBitFlip)
{
    std::string text = AnalysisCache::encodeUnit(sampleUnit());
    for (std::size_t i = 0; i < text.size(); ++i) {
        std::string flipped = text;
        flipped[i] = static_cast<char>(flipped[i] ^ 0x20);
        if (flipped == text)
            continue; // the XOR was a no-op for this byte
        CachedUnit decoded;
        std::string error;
        EXPECT_FALSE(AnalysisCache::decodeUnit(flipped, decoded, error))
            << "bit flip at offset " << i << " decoded successfully";
    }
}

TEST(CacheEncoding, RejectsFormatAndToolVersionMismatch)
{
    // Re-checksum the tampered bodies so the version gate itself (not the
    // checksum) is what rejects them.
    auto reseal = [](std::string body) {
        return body + "sum " + support::hashHex(support::fnv1a(body)) +
               "\n";
    };
    std::string text = AnalysisCache::encodeUnit(sampleUnit());
    std::string body = text.substr(0, text.rfind("sum "));
    std::string header = body.substr(0, body.find('\n'));
    std::string rest = body.substr(body.find('\n'));

    CachedUnit decoded;
    std::string error;
    std::string wrong_format = reseal("mccheck-cache 999 " +
                                      std::string(support::kToolVersion) +
                                      rest);
    EXPECT_FALSE(AnalysisCache::decodeUnit(wrong_format, decoded, error));
    EXPECT_EQ(error, "cache format version mismatch");

    std::string wrong_tool =
        reseal("mccheck-cache " + std::to_string(kCacheFormatVersion) +
               " 0.0.1" + rest);
    EXPECT_FALSE(AnalysisCache::decodeUnit(wrong_tool, decoded, error));
    EXPECT_EQ(error, "tool version mismatch");
    (void)header;
}

std::string
readFile(const fs::path& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const fs::path& path, const std::string& text)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/** Every file in `dir`: the cache keeps nothing there but segments. */
std::vector<fs::path>
cacheFiles(const std::string& dir)
{
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(dir))
        out.push_back(entry.path());
    return out;
}

fs::path
onlySegment(const std::string& dir)
{
    std::vector<fs::path> files = cacheFiles(dir);
    EXPECT_EQ(files.size(), 1u);
    return files.empty() ? fs::path() : files[0];
}

TEST(CacheSegment, RoundTripsRecordsExactly)
{
    std::vector<SegmentRecord> records = {
        {1, AnalysisCache::encodeUnit(sampleUnit())},
        {0xfedcba9876543210u, ""},
        {3, "not an entry at all\n"}};
    const std::string text = AnalysisCache::encodeSegment(records);
    std::vector<SegmentRecord> decoded;
    std::string error;
    EXPECT_EQ(AnalysisCache::decodeSegment(text, decoded, error), 0u)
        << error;
    EXPECT_EQ(decoded, records);
}

TEST(CacheStore, PersistsAcrossInstances)
{
    TempCacheDir dir("persist");
    CachedUnit unit = sampleUnit();
    {
        AnalysisCache cache(dir.str());
        cache.store(42, unit);
        EXPECT_EQ(cache.stats().stores, 1u);
    } // the destructor publishes
    EXPECT_EQ(cacheFiles(dir.str()).size(), 1u);
    AnalysisCache cache(dir.str());
    CachedUnit loaded;
    ASSERT_TRUE(cache.lookup(42, loaded));
    expectSameUnit(unit, loaded);
    EXPECT_EQ(cache.stats().hits, 1u);
    // A different key is a plain miss: no warning, nothing corrupt.
    EXPECT_FALSE(cache.lookup(43, loaded));
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().corrupt, 0u);
    EXPECT_TRUE(cache.takeWarnings().empty());
}

TEST(CacheStore, TruncatedEntryFallsBackColdAndIsDeleted)
{
    TempCacheDir dir("truncated");
    AnalysisCache(dir.str()).store(7, sampleUnit());
    const fs::path path = onlySegment(dir.str());
    fs::resize_file(path, fs::file_size(path) / 2);

    AnalysisCache cache(dir.str());
    CachedUnit loaded;
    EXPECT_FALSE(cache.lookup(7, loaded));
    EXPECT_EQ(cache.stats().corrupt, 1u);
    std::vector<std::string> warnings = cache.takeWarnings();
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("unusable"), std::string::npos);
    // Read-write mode compacts the corpse away on the next publish.
    cache.flush();
    EXPECT_FALSE(fs::exists(path));
}

TEST(CacheStore, BitFlippedEntryFallsBackCold)
{
    TempCacheDir dir("bitflip");
    AnalysisCache(dir.str()).store(9, sampleUnit());
    const fs::path path = onlySegment(dir.str());
    std::string text = readFile(path);
    text[text.size() / 2] = static_cast<char>(text[text.size() / 2] ^ 1);
    writeFile(path, text);

    AnalysisCache cache(dir.str());
    CachedUnit loaded;
    EXPECT_FALSE(cache.lookup(9, loaded));
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_FALSE(cache.takeWarnings().empty());
}

TEST(CacheStore, ReadonlyDropsStoresAndKeepsCorpses)
{
    TempCacheDir dir("readonly");
    AnalysisCache(dir.str()).store(1, sampleUnit());
    const fs::path path = onlySegment(dir.str());
    const std::uintmax_t size = fs::file_size(path) / 2;
    fs::resize_file(path, size);
    {
        AnalysisCache ro(dir.str(), /*readonly=*/true);
        EXPECT_TRUE(ro.readonly());
        CachedUnit loaded;
        EXPECT_FALSE(ro.lookup(1, loaded));
        EXPECT_EQ(ro.stats().corrupt, 1u);
        ro.store(2, sampleUnit());
        EXPECT_EQ(ro.stats().stores, 0u);
        ro.flush();
    }
    // The damaged segment stays on disk for post-mortem, and nothing
    // was written beside it.
    EXPECT_EQ(cacheFiles(dir.str()), std::vector<fs::path>{path});
    EXPECT_EQ(fs::file_size(path), size);
}

TEST(CacheStore, MissingReadonlyDirectoryThrows)
{
    EXPECT_THROW(AnalysisCache("/nonexistent/mccheck/cache/dir",
                               /*readonly=*/true),
                 std::runtime_error);
}

TEST(CacheStore, TrimEvictsOldestEntriesFirst)
{
    TempCacheDir dir("trim");
    AnalysisCache cache(dir.str());
    for (std::uint64_t key = 1; key <= 3; ++key)
        cache.store(key, sampleUnit());
    const std::uint64_t one_entry = cache.residentBytes() / 3;
    cache.trim(2 * one_entry);
    EXPECT_EQ(cache.stats().evictions, 1u);
    cache.flush();
    {
        AnalysisCache reopened(dir.str(), /*readonly=*/true);
        CachedUnit loaded;
        EXPECT_FALSE(reopened.lookup(1, loaded));
        EXPECT_TRUE(reopened.lookup(2, loaded));
        EXPECT_TRUE(reopened.lookup(3, loaded));
    }

    cache.trim(0);
    EXPECT_EQ(cache.stats().evictions, 3u);
    cache.flush();
    EXPECT_TRUE(cacheFiles(dir.str()).empty());
}

TEST(CacheStore, FlushPublishesOneSegmentAndCompactsPastTheCap)
{
    TempCacheDir dir("compact");
    AnalysisCache cache(dir.str());
    cache.flush(); // nothing stored: nothing written
    EXPECT_TRUE(cacheFiles(dir.str()).empty());
    for (std::uint64_t key = 1; key <= AnalysisCache::kMaxSegments; ++key) {
        cache.store(key, sampleUnit());
        cache.flush();
        EXPECT_EQ(cacheFiles(dir.str()).size(), key);
    }
    // A warm run over a full directory leaves it alone...
    AnalysisCache(dir.str()).flush();
    EXPECT_EQ(cacheFiles(dir.str()).size(), AnalysisCache::kMaxSegments);
    // ...and one more segment would pass the cap, so the live set is
    // rewritten as one.
    cache.store(100, sampleUnit());
    cache.flush();
    EXPECT_EQ(cacheFiles(dir.str()).size(), 1u);
    AnalysisCache reopened(dir.str());
    EXPECT_EQ(reopened.entryCount(), AnalysisCache::kMaxSegments + 1);
}

TEST(CacheStore, SegmentDamageNeverServesAnotherUnit)
{
    // Every truncation and every single-bit flip of a 3-record segment:
    // each lookup returns exactly the unit stored under its key, or
    // misses with the damage counted corrupt.
    TempCacheDir dir("segment_damage");
    std::map<std::uint64_t, CachedUnit> units;
    for (std::uint64_t key : {11u, 22u, 33u}) {
        units[key] = sampleUnit();
        units[key].function = "fn" + std::to_string(key);
    }
    {
        AnalysisCache cache(dir.str());
        for (const auto& [key, unit] : units)
            cache.store(key, unit);
    }
    const fs::path path = onlySegment(dir.str());
    const std::string text = readFile(path);

    auto check = [&](const std::string& damaged, const std::string& what) {
        writeFile(path, damaged);
        AnalysisCache cache(dir.str(), /*readonly=*/true);
        for (const auto& [key, unit] : units) {
            CachedUnit loaded;
            if (cache.lookup(key, loaded))
                EXPECT_EQ(AnalysisCache::encodeUnit(loaded),
                          AnalysisCache::encodeUnit(unit))
                    << what;
            else
                EXPECT_GT(cache.stats().corrupt, 0u) << what;
        }
    };
    for (std::size_t len = 0; len < text.size(); ++len)
        check(text.substr(0, len), "prefix " + std::to_string(len));
    for (std::size_t i = 0; i < text.size(); ++i)
        for (int bit = 0; bit < 8; ++bit) {
            std::string flipped = text;
            flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
            check(flipped, "flip byte " + std::to_string(i) + " bit " +
                               std::to_string(bit));
        }
}

/** Store `keys`, flushing every `batch` stores. */
void
publishKeys(const std::string& dir, std::uint64_t first, std::uint64_t n,
            std::uint64_t batch)
{
    AnalysisCache cache(dir);
    for (std::uint64_t key = first; key < first + n; ++key) {
        cache.store(key, sampleUnit());
        if ((key - first) % batch == batch - 1)
            cache.flush();
    }
}

TEST(CacheStore, ConcurrentPublishersKeepEveryEntry)
{
    // Two runs on one directory, each compacting its own segments past
    // the cap: neither may remove what the other published.
    TempCacheDir dir("concurrent");
    std::thread a(publishKeys, dir.str(), 1000, 60, 3);
    std::thread b(publishKeys, dir.str(), 2000, 60, 2);
    a.join();
    b.join();

    AnalysisCache cache(dir.str());
    CachedUnit loaded;
    for (std::uint64_t first : {1000u, 2000u})
        for (std::uint64_t key = first; key < first + 60; ++key)
            EXPECT_TRUE(cache.lookup(key, loaded)) << key;
    EXPECT_EQ(cache.stats().corrupt, 0u);
}

TEST(CacheStore, TrimBesideConcurrentPublishersNeverThrows)
{
    TempCacheDir dir("trim_race");
    std::atomic<bool> done{false};
    std::thread trimmer([&] {
        while (!done.load()) {
            try {
                AnalysisCache cache(dir.str());
                cache.trim(1); // evict everything it loaded
                cache.flush();
            } catch (const std::exception& e) {
                ADD_FAILURE() << "trim threw: " << e.what();
            }
        }
    });
    std::thread a(publishKeys, dir.str(), 1000, 120, 1);
    std::thread b(publishKeys, dir.str(), 2000, 120, 2);
    a.join();
    b.join();
    done.store(true);
    trimmer.join();

    // Segments are published by rename: every survivor is whole, and
    // every record in it decodes.
    for (const fs::path& path : cacheFiles(dir.str())) {
        std::vector<SegmentRecord> records;
        std::string error;
        EXPECT_EQ(AnalysisCache::decodeSegment(readFile(path), records,
                                               error),
                  0u)
            << path << ": " << error;
        for (const SegmentRecord& record : records) {
            CachedUnit unit;
            EXPECT_TRUE(AnalysisCache::decodeUnit(record.entry, unit, error))
                << path << ": " << error;
        }
    }
}

// ---- fingerprint sensitivity ------------------------------------------

std::uint64_t
fingerprintOf(const std::string& source)
{
    lang::Program program;
    program.addSource("fp.c", source);
    auto fps = lang::fingerprintFunctions(program);
    EXPECT_EQ(fps.size(), 1u);
    return fps.begin()->second;
}

TEST(Fingerprint, StableAcrossRuns)
{
    const std::string src = "void H(void) { x = y + 1; }";
    EXPECT_EQ(fingerprintOf(src), fingerprintOf(src));
}

TEST(Fingerprint, ChangesWhenTokensChange)
{
    EXPECT_NE(fingerprintOf("void H(void) { x = y + 1; }"),
              fingerprintOf("void H(void) { x = y + 2; }"));
}

TEST(Fingerprint, ChangesWhenLinesShift)
{
    // Diagnostics carry line numbers, so a shifted body — identical
    // token text — must still invalidate.
    EXPECT_NE(fingerprintOf("void H(void) { x = y + 1; }"),
              fingerprintOf("\nvoid H(void) { x = y + 1; }"));
}

TEST(Fingerprint, IgnoresTrailingComment)
{
    // A comment after the last token moves no token and no line: replay
    // stays valid, so the fingerprint may (and does) stay put.
    EXPECT_EQ(fingerprintOf("void H(void) { x = y + 1; }"),
              fingerprintOf("void H(void) { x = y + 1; } /* note */"));
}

TEST(Fingerprint, DistinguishesFunctionsWithinAUnit)
{
    lang::Program program;
    program.addSource("two.c",
                      "void A(void) { x = 1; }\nvoid B(void) { x = 1; }");
    auto fps = lang::fingerprintFunctions(program);
    ASSERT_EQ(fps.size(), 2u);
    EXPECT_NE(fps.at("A"), fps.at("B"));
}

// ---- end-to-end: warm replay is byte-identical to cold ----------------

struct PipelineResult
{
    std::string text;
    std::string json;
    std::string sarif;
};

PipelineResult
runPipeline(const corpus::LoadedProtocol& loaded, AnalysisCache* cache,
            unsigned jobs)
{
    auto set = checkers::makeAllCheckers();
    support::DiagnosticSink sink;
    checkers::ParallelRunOptions options;
    options.jobs = jobs;
    options.cache = cache;
    checkers::runCheckersParallel(*loaded.program, loaded.gen.spec,
                                  set.pointers(), sink, options);
    const support::SourceManager& sm = loaded.program->sourceManager();
    PipelineResult out;
    std::ostringstream text, json, sarif;
    sink.print(text, &sm);
    sink.printJson(json, &sm);
    sink.printSarif(sarif, &sm);
    out.text = text.str();
    out.json = json.str();
    out.sarif = sarif.str();
    return out;
}

TEST(CachePipeline, WarmRunReplaysByteIdentical)
{
    TempCacheDir dir("pipeline");
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("bitvector"));

    PipelineResult uncached = runPipeline(loaded, nullptr, 2);
    ASSERT_FALSE(uncached.text.empty());

    AnalysisCache cold_cache(dir.str());
    PipelineResult cold = runPipeline(loaded, &cold_cache, 2);
    EXPECT_GT(cold_cache.stats().stores, 0u);
    EXPECT_EQ(cold_cache.stats().hits, 0u);
    cold_cache.flush();

    AnalysisCache warm_cache(dir.str());
    PipelineResult warm = runPipeline(loaded, &warm_cache, 2);
    EXPECT_GT(warm_cache.stats().hits, 0u);
    EXPECT_EQ(warm_cache.stats().misses, 0u);

    EXPECT_EQ(uncached.text, cold.text);
    EXPECT_EQ(cold.text, warm.text);
    EXPECT_EQ(cold.json, warm.json);
    EXPECT_EQ(cold.sarif, warm.sarif);

    // jobs=1 with a cache still replays, and still matches.
    AnalysisCache warm1_cache(dir.str());
    PipelineResult warm1 = runPipeline(loaded, &warm1_cache, 1);
    EXPECT_GT(warm1_cache.stats().hits, 0u);
    EXPECT_EQ(cold.json, warm1.json);
}

TEST(CachePipeline, WitnessSurvivesWarmReplayByteIdentical)
{
    // Witnesses ride the cache: a warm run must replay the same witness
    // bytes a cold run captured, and witness-on entries must not collide
    // with the witness-off entries other tests stored (the config is part
    // of the unit key).
    TempCacheDir dir("pipeline_witness");
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("bitvector"));

    support::setWitnessConfig(true, support::kDefaultWitnessLimit);
    AnalysisCache cold_cache(dir.str());
    PipelineResult cold = runPipeline(loaded, &cold_cache, 2);
    EXPECT_GT(cold_cache.stats().stores, 0u);
    cold_cache.flush();

    AnalysisCache warm_cache(dir.str());
    PipelineResult warm = runPipeline(loaded, &warm_cache, 2);
    support::setWitnessConfig(false, 0);

    EXPECT_GT(warm_cache.stats().hits, 0u);
    EXPECT_EQ(warm_cache.stats().misses, 0u);
    EXPECT_EQ(cold.text, warm.text);
    EXPECT_EQ(cold.json, warm.json);
    EXPECT_EQ(cold.sarif, warm.sarif);
    // The witness actually made it into the replayed output.
    EXPECT_NE(warm.json.find("\"witness\""), std::string::npos);
}

TEST(CachePipeline, CorruptedEntriesReanalyzeNotReplay)
{
    TempCacheDir dir("pipeline_corrupt");
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("bitvector"));

    AnalysisCache cold_cache(dir.str());
    PipelineResult cold = runPipeline(loaded, &cold_cache, 2);
    cold_cache.flush();

    // Corrupt every third record of the segment, inside its entry bytes;
    // the warm run must notice each one, re-analyze those units, and
    // still produce identical bytes.
    const fs::path path = onlySegment(dir.str());
    std::string text = readFile(path);
    std::vector<SegmentRecord> records;
    std::string error;
    ASSERT_EQ(AnalysisCache::decodeSegment(text, records, error), 0u);
    std::size_t mangled = 0;
    for (std::size_t i = 0; i < records.size(); i += 3) {
        const std::size_t at = text.find(records[i].entry);
        ASSERT_NE(at, std::string::npos);
        char& c = text[at + records[i].entry.size() / 2];
        c = static_cast<char>(c ^ 1);
        ++mangled;
    }
    ASSERT_GT(mangled, 0u);
    writeFile(path, text);

    AnalysisCache warm_cache(dir.str());
    PipelineResult warm = runPipeline(loaded, &warm_cache, 2);
    EXPECT_EQ(warm_cache.stats().corrupt, mangled);
    EXPECT_EQ(warm_cache.stats().misses, mangled);
    EXPECT_GT(warm_cache.stats().hits, 0u);
    EXPECT_EQ(cold.text, warm.text);
    EXPECT_EQ(cold.json, warm.json);
}

} // namespace
} // namespace mc::cache
