/**
 * @file
 * Fingerprint memo counters on the two paths that fingerprint: a daemon
 * re-check after a one-file edit hashes only the edited file, and a
 * batch protocol run with a cache hashes every unit that has functions
 * exactly once.
 */
#include "server/check_request.h"
#include "server/daemon.h"

#include "corpus/generator.h"
#include "corpus/profile.h"
#include "support/metrics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <unistd.h>

namespace mc::server {
namespace {

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

/** Send one request line; it must succeed. */
void
call(Daemon& daemon, const std::string& line)
{
    const std::string out = daemon.handleRequestLine(line);
    EXPECT_EQ(out.find("\"error\""), std::string::npos) << out;
}

std::string
handler(const std::string& name, int value)
{
    return "void " + name + "(void) { x = " + std::to_string(value) +
           "; }\\n";
}

TEST(FingerprintMemoCounters, DaemonEditRecheckHashesOneFile)
{
    ScopedMetrics metrics;
    Daemon daemon({});
    for (const char* name : {"a", "b", "c"})
        call(daemon, std::string(R"({"id": 1, "method": "open", )") +
                         R"("params": {"path": ")" + name +
                         R"(.c", "text": ")" + handler(name, 1) + "\"}}");
    const std::string check =
        R"({"id": 2, "method": "check", "params": )"
        R"({"files": ["a.c", "b.c", "c.c"], "format": "json", "jobs": 1}})";
    call(daemon, check);
    EXPECT_EQ(ScopedMetrics::counter("lang.fingerprint_memo_misses"), 3u);
    EXPECT_EQ(ScopedMetrics::counter("lang.fingerprint_memo_hits"), 0u);

    support::MetricsRegistry::global().reset();
    call(daemon, R"({"id": 3, "method": "change", "params": )"
                 R"({"path": "b.c", "text": ")" +
                     handler("b", 2) + "\"}}");
    call(daemon, check);
    EXPECT_EQ(ScopedMetrics::counter("lang.fingerprint_memo_misses"), 1u);
    EXPECT_EQ(ScopedMetrics::counter("lang.fingerprint_memo_hits"), 2u);
    EXPECT_EQ(ScopedMetrics::counter("server.files_reparsed"), 1u);
}

TEST(FingerprintMemoCounters, BatchCachedRunHashesEachUnitOnce)
{
    ScopedMetrics metrics;
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("mccheck_fpmemo_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);

    CheckRequest request;
    request.mode = CheckRequest::Mode::Protocol;
    request.protocol = "sci";
    request.format = support::OutputFormat::Json;
    request.jobs = 2;
    std::ostringstream out;
    std::ostringstream err;
    {
        cache::AnalysisCache cache(dir.string());
        runCheckRequest(request, &cache, nullptr, out, err);
    }
    std::filesystem::remove_all(dir);
    EXPECT_EQ(err.str(), "");

    // The units a cached run must fingerprint: every clean unit that
    // defines a function.
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("sci"));
    std::uint64_t fingerprinted = 0;
    for (const lang::TranslationUnit& unit : loaded.program->units())
        if (unit.issues.empty() && !unit.functionDefinitions().empty())
            ++fingerprinted;
    ASSERT_GT(fingerprinted, 0u);
    EXPECT_EQ(ScopedMetrics::counter("lang.fingerprint_memo_misses"),
              fingerprinted);
    EXPECT_EQ(ScopedMetrics::counter("lang.fingerprint_memo_hits"), 0u);
}

} // namespace
} // namespace mc::server
