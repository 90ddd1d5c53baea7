/**
 * @file
 * End-to-end benchmark of the checking pipeline behind mccheck/mccheckd.
 *
 * One client in a closed loop: the next request is sent only after the
 * previous one returned, as for a developer or a CI job waiting on a
 * verdict. Three workloads drive the pipeline through its public entry
 * points:
 *
 *   shards2            server::runCheckRequest, Protocol mode, fresh state
 *                      per request, no cache, through `--shards 2` workers
 *                      (the built `mccheck --shard-worker`);
 *   protocol_cache_j2  the same stream in process at jobs 2 with an
 *                      on-disk AnalysisCache: each protocol visit fills a
 *                      fresh directory with one untimed request, then
 *                      times warm ones;
 *   daemon_edit        one server::Daemon holding dyn_ptr as overlay
 *                      documents; each request is a `change` of one file
 *                      plus a `check` of the file list.
 *
 * Before each request the benchmark moves onto the next of its CPUs
 * (two for the two-process workloads) so that a run averages every core's
 * speed; see CpuRotation.
 *
 * Every response is checked. Protocol responses must equal, byte for
 * byte, a reference rendered before set-up by the decomposed pipeline
 * (loadProtocol, makeAllCheckers, runCheckers, DiagnosticSink::write)
 * after that reference reconciled against the generator's seeding ledger
 * with the paper's per-checker 34 / 69 split. daemon_edit responses must
 * equal the unedited response, whose per-checker counts are pinned in an
 * expected file.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs the same loop
 * with the program's metrics registry and trace recorder on, drives each
 * layer's public functions from outside under the benchmark's own spans,
 * and prints the per-layer metrics, a self-time table and a Chrome trace.
 * The last stdout line is one JSON object: correct, attempted, failed,
 * metrics.
 */
#include "bench/bench_util.h"

#include "cache/analysis_cache.h"
#include "cfg/cfg.h"
#include "cfg/flat_cfg.h"
#include "checkers/checker.h"
#include "checkers/metal_sources.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "corpus/ledger.h"
#include "corpus/profile.h"
#include "flash/protocol_spec.h"
#include "lang/fingerprint.h"
#include "lang/program.h"
#include "metal/engine.h"
#include "metal/metal_parser.h"
#include "server/check_request.h"
#include "server/check_units.h"
#include "server/daemon.h"
#include "server/json.h"
#include "support/diagnostics.h"
#include "support/metrics.h"
#include "support/text.h"
#include "support/trace.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#ifndef MC_E2E_BUILD_TYPE
#define MC_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mc;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

const std::vector<std::string> kProtocols = {"bitvector", "dyn_ptr", "sci",
                                             "coma", "rac"};
const char* const kDaemonProtocol = "dyn_ptr";
/**
 * Setup rounds per run; setup_s is their median. A fixed count: each
 * round leaves the engine's per-thread transition-table memo (cleared
 * wholesale at 8192 entries) a few MiB fuller, so the number of rounds
 * shows in peak_rss_mb.
 */
constexpr int kSetupRounds = 5;
/**
 * Timed warm requests per protocol_cache_j2 visit, after its untimed cold
 * fill. The fill is not timed because its cost is one file created per
 * unit, and on a shared disk that cost changes eightfold with the
 * filesystem's state (0.03 to 0.3 ms per file, within an hour on one host).
 * Eight keeps p90 over 100 samples in a 33 s run when fills are slow.
 */
constexpr std::size_t kWarmPerFill = 8;
/** Requests in the peak-RSS window; every full-length run reaches it. */
constexpr std::size_t kRssRequests = 64;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string mccheck;
    std::string workdir;
    std::string expected;
    bool corrupt_reference = false;
};

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** User+system CPU of this process plus its reaped children, in ms. */
double
cpuMsNow()
{
    auto ms = [](const rusage& ru) {
        return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
               (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
    };
    rusage self{};
    rusage kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return ms(self) + ms(kids);
}

/** Linear-interpolated quantile (q in [0,1]); 0 for no samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

double
sum(const std::vector<double>& v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

std::string
fmt(double v)
{
    std::ostringstream os;
    os << std::setprecision(10) << v;
    return os.str();
}

/** Fisher-Yates with the benchmark's own generator (portable order). */
template <typename T>
void
seededShuffle(std::vector<T>& v, std::mt19937_64& rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng() % i]);
}

// ---- references --------------------------------------------------------

/** Expected JSON bytes per protocol, from the decomposed pipeline. */
using References = std::map<std::string, std::string>;

/**
 * Check all six paper profiles (the five protocols plus common code)
 * with loadProtocol + makeAllCheckers + runCheckers, reconcile every
 * checker against the seeding ledger, and require the paper's Table 7
 * split. Throws on any missed site, unexpected error or count mismatch. Renders the five protocols' JSON as the request references.
 */
References
buildReferences(bool corrupt)
{
    References refs;
    std::map<std::string, int> errors;
    std::map<std::string, int> fps;
    for (const corpus::ProtocolProfile& profile : corpus::paperProfiles()) {
        corpus::LoadedProtocol loaded = corpus::loadProtocol(profile);
        checkers::CheckerSet set = checkers::makeAllCheckers();
        support::DiagnosticSink sink;
        for (const lang::TranslationUnit& unit : loaded.program->units())
            for (const lang::ParseIssue& issue : unit.issues)
                sink.error(issue.loc, "frontend", issue.rule,
                           issue.message);
        checkers::runCheckers(*loaded.program, loaded.gen.spec,
                              set.pointers(), sink);
        for (const std::string& name : checkers::allCheckerNames()) {
            corpus::Reconciliation rec =
                corpus::reconcile(loaded.gen.ledger, sink.diagnostics(),
                                  loaded.file_function, name);
            // Unseeded warnings are by-design side effects (deprecated
            // macros and the like); an unseeded error is a wrong verdict.
            std::size_t unexpected_errors = 0;
            for (const support::Diagnostic* d : rec.unexpected)
                if (d->severity == support::Severity::Error)
                    ++unexpected_errors;
            if (!rec.missed.empty() || unexpected_errors != 0)
                throw std::runtime_error(
                    "reference " + profile.name + "/" + name + ": " +
                    std::to_string(rec.missed.size()) +
                    " seeded sites missed, " +
                    std::to_string(unexpected_errors) +
                    " unexpected errors");
            errors[name] += rec.foundWithClass(corpus::SeedClass::Error);
            fps[name] +=
                rec.foundWithClass(corpus::SeedClass::FalsePositive);
            // Table 7 folds useless annotations into the FP column.
            if (name == "buffer_mgmt")
                fps[name] += loaded.gen.ledger.count(
                    name, corpus::SeedClass::UselessAnnotation);
        }
        if (std::find(kProtocols.begin(), kProtocols.end(), profile.name) ==
            kProtocols.end())
            continue;
        std::ostringstream os;
        sink.write(os, support::OutputFormat::Json,
                   &loaded.program->sourceManager());
        refs[profile.name] = os.str();
    }
    int total_errors = 0;
    int total_fps = 0;
    for (const checkers::CheckerMeta& meta : checkers::table7Meta()) {
        if (errors[meta.name] != meta.paper_errors ||
            fps[meta.name] != meta.paper_false_pos)
            throw std::runtime_error(
                "reference split for " + meta.name + ": " +
                std::to_string(errors[meta.name]) + "/" +
                std::to_string(fps[meta.name]) + " vs paper " +
                std::to_string(meta.paper_errors) + "/" +
                std::to_string(meta.paper_false_pos));
        total_errors += errors[meta.name];
        total_fps += fps[meta.name];
    }
    if (total_errors != 34 || total_fps != 69)
        throw std::runtime_error("reference totals " +
                                 std::to_string(total_errors) + "/" +
                                 std::to_string(total_fps) +
                                 " vs paper 34/69");
    if (corrupt)
        for (auto& [name, bytes] : refs)
            bytes.back() = bytes.back() == ' ' ? '\t' : ' ';
    return refs;
}

// ---- the benchmark's own spans ------------------------------------------

/**
 * A benchmark span: a support::TraceSpan in the "bench" category on the
 * global recorder. Its args carry its own id and its parent's, the bench
 * span open on entry (bench spans nest on one thread; 0 = root), plus any
 * counts the per-layer figures divide by.
 */
class BenchSpan
{
  public:
    explicit BenchSpan(std::string name)
        : span_(&support::TraceRecorder::global(), std::move(name), "bench"),
          id_(++next_id_)
    {
        span_.arg("id", std::to_string(id_));
        span_.arg("parent",
                  std::to_string(open_.empty() ? 0 : open_.back()));
        open_.push_back(id_);
    }
    ~BenchSpan() { open_.pop_back(); }

    BenchSpan(const BenchSpan&) = delete;
    BenchSpan& operator=(const BenchSpan&) = delete;

    void arg(std::string key, double v) { span_.arg(std::move(key), fmt(v)); }

  private:
    support::TraceSpan span_;
    std::uint64_t id_;
    static inline std::uint64_t next_id_ = 0;
    static inline std::vector<std::uint64_t> open_;
};

/** A numeric arg of a trace event; 0 when it has none by that key. */
double
argOf(const support::TraceEvent& e, const std::string& key)
{
    for (const auto& [k, v] : e.args)
        if (k == key)
            return std::stod(v);
    return 0;
}

double
endUs(const support::TraceEvent& e)
{
    return static_cast<double>(e.ts_us + e.dur_us);
}

double
durMs(const support::TraceEvent& e)
{
    return static_cast<double>(e.dur_us) / 1e3;
}

/** Length of the union of [a, b) intervals (any units). */
double
unionLength(std::vector<std::pair<double, double>> iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0;
    double cur_a = 0, cur_b = -1;
    bool open = false;
    for (const auto& [a, b] : iv) {
        if (!open || a > cur_b) {
            if (open)
                total += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        } else {
            cur_b = std::max(cur_b, b);
        }
    }
    if (open)
        total += cur_b - cur_a;
    return total;
}

/** A checker's per-unit span (not its whole-program pass). */
bool
isUnitEvent(const support::TraceEvent& e)
{
    return e.category == "checker" &&
           (e.name.size() < 8 ||
            e.name.compare(e.name.size() - 8, 8, ".program") != 0);
}

/**
 * Intervals, in us, of the program events in `events` that `keep`
 * accepts and that lie in [a, b].
 */
std::vector<std::pair<double, double>>
within(const std::vector<support::TraceEvent>& events, double a, double b,
       const std::function<bool(const support::TraceEvent&)>& keep)
{
    std::vector<std::pair<double, double>> out;
    for (const support::TraceEvent& e : events)
        if (e.category != "bench" && keep(e) &&
            static_cast<double>(e.ts_us) >= a && endUs(e) <= b)
            out.emplace_back(static_cast<double>(e.ts_us), endUs(e));
    return out;
}

// ---- requests ------------------------------------------------------------

/** One timed request's outcome. */
struct Sample
{
    double wall_ms = 0;
    double cpu_ms = 0;
    bool ok = false;
    std::uint64_t units = 0;
    std::uint64_t files_reparsed = 0;
    std::uint64_t units_reused = 0;
    double change_ms = 0;
    std::string protocol;
    /** protocol_cache_j2: the first request after its visit's fill. */
    bool after_fill = false;
    std::string detail;
};

/** Per-layer accumulators filled by the traced run. */
struct LayerData
{
    std::map<std::string, std::vector<double>> series;
    std::map<std::string, double> totals;
    void add(const std::string& key, double v) { series[key].push_back(v); }
    void addTotal(const std::string& key, double v) { totals[key] += v; }
    double med(const std::string& key) const
    {
        auto it = series.find(key);
        return it == series.end() ? 0.0 : median(it->second);
    }
    double total(const std::string& key) const
    {
        auto it = totals.find(key);
        return it == totals.end() ? 0.0 : it->second;
    }
};

/**
 * The layers under the checkers: CFG build and lowering of `fns`, metal
 * parse, the walk of both paper state machines over those CFGs, and the
 * construction of one instance of each checker, each under its own span.
 */
void
probeAnalysisLayers(LayerData& layers,
                    const std::vector<const lang::FunctionDecl*>& fns)
{
    std::vector<cfg::Cfg> cfgs;
    {
        BenchSpan s("cfg.build");
        for (const lang::FunctionDecl* fn : fns)
            cfgs.push_back(cfg::CfgBuilder::build(*fn));
    }
    double blocks = 0;
    for (const cfg::Cfg& c : cfgs)
        blocks += static_cast<double>(c.blocks().size());
    layers.add("cfg.blocks", blocks);
    {
        BenchSpan s("cfg.lower");
        for (const cfg::Cfg& c : cfgs)
            cfg::flatCfg(c);
    }
    metal::MetalProgram wait;
    metal::MetalProgram msg;
    {
        BenchSpan s("metal.parse");
        wait = metal::parseMetal(checkers::kWaitForDbMetal);
        msg = metal::parseMetal(checkers::kMsgLenCheckMetal);
    }
    {
        BenchSpan s("metal.walk");
        double visits = 0, firings = 0;
        for (const cfg::Cfg& c : cfgs) {
            support::DiagnosticSink scratch;
            for (metal::StateMachine* sm : {wait.sm.get(), msg.sm.get()}) {
                metal::SmRunResult r =
                    metal::runStateMachine(*sm, c, scratch);
                visits += static_cast<double>(r.visits);
                for (const auto& [rule, n] : r.firings)
                    firings += n;
            }
        }
        layers.add("metal.visits", visits);
        layers.add("metal.rule_firings", firings);
        s.arg("visits", visits);
    }
    {
        BenchSpan s("checkers.construct");
        for (const std::string& checker : checkers::allCheckerNames())
            checkers::makeChecker(checker);
        s.arg("checkers",
              static_cast<double>(checkers::allCheckerNames().size()));
    }
}

/**
 * Drive the layers under a request over `program` the way the request
 * runs them, each under its own span: fingerprinting; with a cache, a
 * lookup of every (function, checker) unit; the analysis layers for the
 * functions with a missing unit (every function without a cache); the
 * checker run, through `cache`; rendering; and, with a cache, a store of
 * each found unit into `fresh`. Returns the rendered bytes.
 */
std::string
probePipeline(LayerData& layers, const lang::Program& program,
              const flash::ProtocolSpec& spec, unsigned jobs,
              cache::AnalysisCache* cache, cache::AnalysisCache* fresh)
{
    std::map<std::string, std::uint64_t> fps;
    {
        BenchSpan s("lang.fingerprint");
        fps = lang::fingerprintFunctions(program);
    }
    std::vector<const lang::FunctionDecl*> misses;
    std::vector<std::pair<std::uint64_t, cache::CachedUnit>> found;
    if (!cache) {
        misses = program.functions();
    } else {
        // (function, key) per unit, computed outside the timed lookups.
        std::uint64_t spec_fp = flash::specFingerprint(spec);
        std::vector<std::pair<const lang::FunctionDecl*, std::uint64_t>>
            keys;
        for (const lang::FunctionDecl* fn : program.functions()) {
            auto fp = fps.find(fn->name);
            if (fp != fps.end())
                for (const std::string& checker : checkers::allCheckerNames())
                    keys.emplace_back(fn, checkers::unitCacheKey(
                                              checker,
                                              checkers::CheckerSetOptions(),
                                              spec_fp, fp->second));
        }
        BenchSpan s("cache.lookup");
        for (const auto& [fn, key] : keys) {
            cache::CachedUnit unit;
            if (cache->lookup(key, unit))
                found.emplace_back(key, std::move(unit));
            else if (misses.empty() || misses.back() != fn)
                misses.push_back(fn);
        }
        s.arg("units", static_cast<double>(keys.size()));
    }
    probeAnalysisLayers(layers, misses);

    checkers::CheckerSet set = checkers::makeAllCheckers();
    support::DiagnosticSink sink;
    {
        BenchSpan s("checkers.run");
        checkers::ParallelRunOptions options;
        options.jobs = jobs;
        options.cache = cache;
        checkers::runCheckersParallel(program, spec, set.pointers(), sink,
                                      options);
    }
    std::ostringstream out;
    {
        BenchSpan s("support.render");
        sink.write(out, support::OutputFormat::Json, &program.sourceManager());
    }
    if (cache && fresh) {
        BenchSpan s("cache.store");
        for (const auto& [key, unit] : found)
            fresh->store(key, unit);
        s.arg("units", static_cast<double>(found.size()));
    }
    return out.str();
}

/** generateProtocol and Program::addSource, each under its own span. */
void
probeFrontEnd(const std::string& protocol, corpus::GeneratedProtocol& gen,
              lang::Program& program)
{
    {
        BenchSpan s("corpus.generate");
        gen = corpus::generateProtocol(corpus::profileByName(protocol));
    }
    BenchSpan s("lang.parse");
    for (const corpus::GeneratedFile& file : gen.files)
        program.addSource(file.name, file.source);
}

/** A workload: set-up state plus one closed-loop request at a time. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Requests per round; runs stop on a round boundary. */
    virtual std::size_t roundSize() const = 0;
    /** Untimed work ahead of request `i`; a failed sample if it failed. */
    virtual std::optional<Sample> prepare(std::size_t) { return {}; }
    virtual Sample request(std::size_t i) = 0;
    /** Traced run only: layer probe for request `i`, after it ran. */
    virtual bool probe(std::size_t i, LayerData& layers) = 0;
    /** Summed statistics of the analysis caches the requests used. */
    virtual cache::CacheStats cacheStats() const { return {}; }
    /** Entry files in the disk cache the last cold fill wrote. */
    virtual std::uint64_t cacheFiles() const { return 0; }
};

/** protocol_cache_j2 and shards2. */
class ProtocolWorkload : public Workload
{
  public:
    enum class Kind
    {
        CacheJ2,
        Shards2
    };

    ProtocolWorkload(Kind kind, const Args& args, const References& refs)
        : kind_(kind), args_(args), refs_(refs),
          order_(kProtocols)
    {
        std::mt19937_64 rng(args.seed);
        seededShuffle(order_, rng);
        cache_root_ = fs::path(args.workdir) /
                      ("cache." + std::to_string(::getpid()));
        // Warm-up: one untimed request per protocol.
        for (const std::string& p : order_) {
            Sample s = run(p, nullptr);
            if (!s.ok)
                throw std::runtime_error("warm-up request failed: " + p +
                                         " " + s.detail);
        }
    }

    ~ProtocolWorkload() override
    {
        std::error_code ec;
        fs::remove_all(cache_root_, ec);
    }

    std::size_t
    roundSize() const override
    {
        return kind_ == Kind::CacheJ2 ? kWarmPerFill * order_.size()
                                      : order_.size();
    }

    const std::string&
    protocolAt(std::size_t i) const
    {
        std::size_t visit = kind_ == Kind::CacheJ2 ? i / kWarmPerFill : i;
        return order_[visit % order_.size()];
    }

    /** protocol_cache_j2: each visit's cold fill of a fresh directory. */
    std::optional<Sample>
    prepare(std::size_t i) override
    {
        if (kind_ != Kind::CacheJ2 || i % kWarmPerFill != 0)
            return {};
        std::error_code ec;
        fs::remove_all(cache_root_, ec);
        cache_dir_ = (cache_root_ / std::to_string(i)).string();
        Sample cold = run(protocolAt(i), &cache_dir_);
        if (cold.ok)
            return {};
        cold.detail = "cold fill: " + cold.detail;
        return cold;
    }

    Sample
    request(std::size_t i) override
    {
        const std::string& p = protocolAt(i);
        if (kind_ != Kind::CacheJ2)
            return run(p, nullptr);
        Sample s = run(p, &cache_dir_);
        s.after_fill = i % kWarmPerFill == 0;
        return s;
    }

    bool
    probe(std::size_t i, LayerData& layers) override
    {
        const std::string& p = protocolAt(i);
        BenchSpan root("probe");
        corpus::GeneratedProtocol gen;
        lang::Program program;
        probeFrontEnd(p, gen, program);
        if (kind_ != Kind::CacheJ2)
            return probePipeline(layers, program, gen.spec, 1, nullptr,
                                 nullptr) == refs_.at(p);
        // The warm replay the requests' p50 is made of: a handle of the
        // probe's own on the directory the cold fill wrote (so its
        // lookups stay out of the requests' statistics). Once per visit,
        // as often as the fill, the probe also stores into a fresh
        // directory: on a slow disk that costs as much as the fill, so
        // doing it after every request would stretch a traced run past
        // its time limit.
        cache::AnalysisCache warm(cache_dir_);
        if (i % kWarmPerFill != 0)
            return probePipeline(layers, program, gen.spec, 2, &warm,
                                 nullptr) == refs_.at(p);
        fs::path scratch = cache_root_ / "probe";
        std::error_code ec;
        fs::remove_all(scratch, ec);
        bool ok;
        {
            cache::AnalysisCache fresh(scratch.string());
            ok = probePipeline(layers, program, gen.spec, 2, &warm,
                               &fresh) == refs_.at(p);
        }
        fs::remove_all(scratch, ec);
        return ok;
    }

    cache::CacheStats cacheStats() const override { return stats_; }
    std::uint64_t
    cacheFiles() const override
    {
        std::uint64_t n = 0;
        std::error_code ec;
        for (auto it = fs::recursive_directory_iterator(cache_dir_, ec);
             !ec && it != fs::recursive_directory_iterator(); ++it)
            if (it->is_regular_file())
                ++n;
        return n;
    }
  private:
    Sample
    run(const std::string& protocol, const std::string* cache_dir)
    {
        server::CheckRequest req;
        req.mode = server::CheckRequest::Mode::Protocol;
        req.protocol = protocol;
        req.format = support::OutputFormat::Json;
        req.jobs = kind_ == Kind::CacheJ2 ? 2 : 1;
        if (kind_ == Kind::Shards2) {
            req.shards = 2;
            req.shard_worker_argv = {args_.mccheck, "--shard-worker"};
        }
        Sample s;
        s.protocol = protocol;
        std::ostringstream out;
        std::ostringstream err;
        std::unique_ptr<cache::AnalysisCache> cache;
        double cpu0 = cpuMsNow();
        Clock::time_point t0 = Clock::now();
        try {
            // Opening the cache is part of the request, as in mccheck.
            if (cache_dir)
                cache = std::make_unique<cache::AnalysisCache>(*cache_dir);
            server::CheckOutcome outcome = server::runCheckRequest(
                req, cache.get(), nullptr, out, err);
            s.wall_ms = msSince(t0);
            s.cpu_ms = cpuMsNow() - cpu0;
            if (cache) {
                cache::CacheStats c = cache->stats();
                stats_.hits += c.hits;
                stats_.misses += c.misses;
                stats_.stores += c.stores;
                stats_.bytes_written += c.bytes_written;
            }
            s.units = outcome.units_total;
            s.files_reparsed = outcome.files_reparsed;
            s.units_reused = outcome.units_reused;
            s.ok = outcome.exit_code == 1 &&
                   out.str() == refs_.at(protocol);
            if (!s.ok)
                s.detail = "exit " + std::to_string(outcome.exit_code) +
                           (out.str() == refs_.at(protocol)
                                ? ""
                                : ", bytes differ from reference") +
                           (err.str().empty() ? "" : ": " + err.str());
        } catch (const std::exception& e) {
            s.wall_ms = msSince(t0);
            s.cpu_ms = cpuMsNow() - cpu0;
            s.detail = std::string("threw: ") + e.what();
        }
        return s;
    }

    Kind kind_;
    const Args& args_;
    const References& refs_;
    std::vector<std::string> order_;
    fs::path cache_root_;
    std::string cache_dir_;
    /** Summed statistics of every cache the requests opened. */
    cache::CacheStats stats_;
};

// ---- daemon_edit ---------------------------------------------------------

server::JsonValue
daemonCall(server::Daemon& daemon, const std::string& method,
           server::JsonValue params)
{
    server::JsonValue request = server::JsonValue::object();
    request.set("method", server::JsonValue::string(method));
    request.set("params", std::move(params));
    std::string line = daemon.handleRequestLine(request.dump());
    server::JsonValue response;
    std::string error;
    if (!server::JsonValue::parse(line, response, error))
        throw std::runtime_error("unparseable daemon response: " + error);
    if (const server::JsonValue* e = response.get("error"))
        throw std::runtime_error(method + " failed: " + e->dump());
    const server::JsonValue* result = response.get("result");
    if (!result)
        throw std::runtime_error(method + ": response has no result");
    return *result;
}

/** `obj[key]`, or a thrown error naming the key. */
const server::JsonValue&
field(const server::JsonValue& obj, const std::string& key)
{
    const server::JsonValue* v = obj.get(key);
    if (!v)
        throw std::runtime_error("daemon response lacks \"" + key + "\"");
    return *v;
}

server::JsonValue
documentParams(const std::string& path, const std::string& text)
{
    server::JsonValue params = server::JsonValue::object();
    params.set("path", server::JsonValue::string(path));
    params.set("text", server::JsonValue::string(text));
    return params;
}

/** Per-checker (errors, warnings) of a JSON diagnostics document. */
std::map<std::string, std::pair<int, int>>
countsByChecker(const std::string& json)
{
    server::JsonValue doc;
    std::string error;
    if (!server::JsonValue::parse(json, doc, error))
        throw std::runtime_error("unparseable check output: " + error);
    std::map<std::string, std::pair<int, int>> counts;
    const server::JsonValue* diags = doc.get("diagnostics");
    if (!diags)
        throw std::runtime_error("check output has no diagnostics");
    for (const server::JsonValue& d : diags->items()) {
        const server::JsonValue* checker = d.get("checker");
        const server::JsonValue* severity = d.get("severity");
        if (!checker || !severity)
            continue;
        auto& c = counts[checker->asString()];
        if (severity->asString() == "error")
            ++c.first;
        else if (severity->asString() == "warning")
            ++c.second;
    }
    return counts;
}

/**
 * daemon_edit: one Daemon (in-memory cache, jobs 1) holding dyn_ptr as
 * overlay documents. Each request replaces one seeded file with its
 * generated text plus a declaration appended after the handler — new
 * text every time, so the file's units miss the cache, while no finding
 * moves — and then checks the whole file list.
 */
class DaemonWorkload : public Workload
{
  public:
    DaemonWorkload(const Args& args, bool traced)
        : rng_(args.seed ^ 0x9e3779b97f4a7c15ull)
    {
        gen_ = corpus::generateProtocol(corpus::profileByName(kDaemonProtocol));
        server::DaemonOptions options;
        options.default_jobs = 1;
        daemon_ = std::make_unique<server::Daemon>(options);
        for (const corpus::GeneratedFile& file : gen_.files) {
            daemonCall(*daemon_, "open",
                       documentParams(file.name, file.source));
            files_.push_back(file.name);
        }
        server::JsonValue result = daemonCall(*daemon_, "check", checkParams());
        reference_ = field(result, "output").asString();
        if (field(result, "exit_code").asInt() != 1)
            throw std::runtime_error("daemon first check: exit " +
                                     field(result, "exit_code").dump());
        checkExpected(args.expected, args.corrupt_reference);
        if (traced) {
            for (const corpus::GeneratedFile& file : gen_.files)
                probe_program_.addSource(file.name, file.source);
            probe_cache_ = cache::AnalysisCache::inMemory();
            checkers::CheckerSet set = checkers::makeAllCheckers();
            support::DiagnosticSink sink;
            checkers::ParallelRunOptions options;
            options.jobs = 1;
            options.cache = probe_cache_.get();
            checkers::runCheckersParallel(probe_program_, probeSpec(),
                                          set.pointers(), sink, options);
        }
    }

    std::size_t roundSize() const override { return 1; }

    Sample
    request(std::size_t i) override
    {
        last_file_ = rng_() % gen_.files.size();
        const corpus::GeneratedFile& file = gen_.files[last_file_];
        last_text_ = file.source + "int mc_bench_edit_" + std::to_string(i) +
                     "_" + std::to_string(rng_() % 1000000) + ";\n";
        Sample s;
        s.protocol = kDaemonProtocol;
        double cpu0 = cpuMsNow();
        Clock::time_point t0 = Clock::now();
        try {
            daemonCall(*daemon_, "change",
                       documentParams(file.name, last_text_));
            s.change_ms = msSince(t0);
            server::JsonValue result =
                daemonCall(*daemon_, "check", checkParams());
            s.wall_ms = msSince(t0);
            s.cpu_ms = cpuMsNow() - cpu0;
            const server::JsonValue& stats = field(result, "stats");
            s.units = static_cast<std::uint64_t>(
                field(stats, "units_total").asInt());
            s.units_reused = static_cast<std::uint64_t>(
                field(stats, "units_reused").asInt());
            s.files_reparsed = static_cast<std::uint64_t>(
                field(stats, "files_reparsed").asInt());
            bool same = field(result, "output").asString() == reference_;
            std::int64_t code = field(result, "exit_code").asInt();
            // A true miss: the edited file's units cannot replay.
            bool missed = s.units_reused < s.units;
            s.ok = same && code == 1 && missed;
            if (!s.ok)
                s.detail = "exit " + std::to_string(code) +
                           (same ? "" : ", bytes differ from unedited") +
                           (missed ? "" : ", edit replayed from cache");
        } catch (const std::exception& e) {
            s.wall_ms = msSince(t0);
            s.cpu_ms = cpuMsNow() - cpu0;
            s.detail = std::string("threw: ") + e.what();
        }
        return s;
    }

    bool
    probe(std::size_t, LayerData& layers) override
    {
        BenchSpan root("probe");
        {
            // The generation set-up paid for the overlays; timed here
            // because the traced run records spans only around requests.
            BenchSpan s("corpus.generate");
            corpus::generateProtocol(corpus::profileByName(kDaemonProtocol));
        }
        const corpus::GeneratedFile& file = gen_.files[last_file_];
        lang::TranslationUnit* unit = nullptr;
        {
            BenchSpan s("lang.parse");
            unit = probe_program_.updateSource(file.name, last_text_);
        }
        if (!unit)
            return false;
        std::unique_ptr<cache::AnalysisCache> fresh =
            cache::AnalysisCache::inMemory();
        return probePipeline(layers, probe_program_, probeSpec(), 1,
                             probe_cache_.get(), fresh.get()) == reference_;
    }

    cache::CacheStats
    cacheStats() const override
    {
        return daemon_->cache().stats();
    }

  private:
    /** The spec files-mode checks derive from the program, as the daemon
     *  does, so the probe renders the daemon's bytes. */
    flash::ProtocolSpec probeSpec() const
    {
        return server::cliFilesSpec(probe_program_);
    }

    server::JsonValue
    checkParams() const
    {
        server::JsonValue params = server::JsonValue::object();
        server::JsonValue list = server::JsonValue::array();
        for (const std::string& f : files_)
            list.push(server::JsonValue::string(f));
        params.set("files", std::move(list));
        params.set("format", server::JsonValue::string("json"));
        params.set("jobs", server::JsonValue::number(std::int64_t{1}));
        return params;
    }

    /** Compare the unedited response with the pinned per-checker counts. */
    void
    checkExpected(const std::string& path, bool corrupt) const
    {
        std::ifstream in(path);
        if (!in)
            throw std::runtime_error("cannot read expected file " + path);
        std::stringstream text;
        text << in.rdbuf();
        server::JsonValue doc;
        std::string error;
        if (!server::JsonValue::parse(text.str(), doc, error))
            throw std::runtime_error(path + ": " + error);
        const server::JsonValue* pinned = doc.get("checkers");
        if (!pinned || !pinned->isObject())
            throw std::runtime_error(path + ": no \"checkers\" object");
        std::map<std::string, std::pair<int, int>> got =
            countsByChecker(reference_);
        std::map<std::string, std::pair<int, int>> want;
        for (const auto& [name, v] : pinned->members())
            want[name] = {static_cast<int>(field(v, "errors").asInt()),
                          static_cast<int>(field(v, "warnings").asInt())};
        if (corrupt && !want.empty())
            ++want.begin()->second.first;
        if (got != want) {
            std::ostringstream msg;
            msg << "daemon_edit: unedited per-checker counts differ from "
                << path << "; observed:";
            for (const auto& [name, c] : got)
                msg << ' ' << name << '=' << c.first << '/' << c.second;
            throw std::runtime_error(msg.str());
        }
    }

    std::mt19937_64 rng_;
    corpus::GeneratedProtocol gen_;
    std::unique_ptr<server::Daemon> daemon_;
    std::vector<std::string> files_;
    std::string reference_;
    std::size_t last_file_ = 0;
    std::string last_text_;
    lang::Program probe_program_;
    std::unique_ptr<cache::AnalysisCache> probe_cache_;
};

// ---- driving a run -------------------------------------------------------

/**
 * The workload's own set-up and warm-up: everything between the
 * ledger-checked references, built once before, and the first timed
 * request. `traced` also prepares what the traced run's probes need.
 */
std::unique_ptr<Workload>
setUp(const Args& args, const References& refs, bool traced)
{
    const std::string& w = args.workload;
    if (w == "daemon_edit")
        return std::make_unique<DaemonWorkload>(args, traced);
    static const std::map<std::string, ProtocolWorkload::Kind> kinds = {
        {"protocol_cache_j2", ProtocolWorkload::Kind::CacheJ2},
        {"shards2", ProtocolWorkload::Kind::Shards2},
    };
    auto kind = kinds.find(w);
    if (kind != kinds.end())
        return std::make_unique<ProtocolWorkload>(kind->second, args, refs);
    throw std::invalid_argument("unknown workload: " + w);
}

/** Threads or worker processes one request of `workload` keeps busy. */
std::size_t
busyThreads(const std::string& workload)
{
    return workload == "daemon_edit" ? 1 : 2;
}

/**
 * Moves the calling thread, before each request, onto the next `width`
 * CPUs it may run on, in turn, and restores its CPU set when destroyed.
 * Threads and worker processes a request starts inherit that set. On a
 * shared host each core's speed drifts on its own at a scale of seconds;
 * a request stream left on the same cores measures their drift, one
 * moved over every core measures the average.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(std::size_t width) : width_(width)
    {
        CPU_ZERO(&saved_);
        if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &saved_))
                cpus_.push_back(cpu);
    }

    ~CpuRotation()
    {
        if (cpus_.size() > width_)
            sched_setaffinity(0, sizeof saved_, &saved_);
    }

    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void
    next()
    {
        if (cpus_.size() <= width_)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        for (std::size_t k = 0; k < width_; ++k)
            CPU_SET(cpus_[(turn_ + k) % cpus_.size()], &set);
        ++turn_;
        sched_setaffinity(0, sizeof set, &set);
    }

  private:
    std::size_t width_;
    cpu_set_t saved_;
    std::vector<int> cpus_;
    std::size_t turn_ = 0;
};

/**
 * Run requests from index `next` until `seconds` have passed, finishing
 * the current round so every protocol is sampled equally. `before` runs
 * ahead of each request, after the workload's untimed preparation;
 * `after` sees each sample right after it is taken; either may be empty.
 */
std::vector<Sample>
closedLoop(Workload& w, std::size_t width, std::size_t& next,
           double seconds, const std::function<void()>& before,
           const std::function<void(std::size_t, const Sample&)>& after)
{
    std::vector<Sample> samples;
    CpuRotation rotation(width);
    Clock::time_point t0 = Clock::now();
    while (msSince(t0) < seconds * 1e3 || next % w.roundSize() != 0) {
        rotation.next();
        std::optional<Sample> failed = w.prepare(next);
        if (before)
            before();
        Sample s = failed ? std::move(*failed) : w.request(next);
        if (after)
            after(next, s);
        samples.push_back(std::move(s));
        ++next;
    }
    return samples;
}

/**
 * Start the peak-RSS window: hand the heap the reference build freed back
 * to the system and reset this process's high-water mark to its current
 * RSS, so peak_rss_mb measures the workload, not the benchmark's oracle.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/**
 * Peak RSS in MiB: this process's high-water mark since resetPeakRss
 * plus, with workers, the largest reaped child's.
 */
double
peakRssMb(bool with_workers)
{
    double kb = 0;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            kb = std::stod(line.substr(6));
    if (kb == 0) {
        rusage self{};
        getrusage(RUSAGE_SELF, &self);
        kb = static_cast<double>(self.ru_maxrss);
    }
    if (with_workers) {
        rusage kids{};
        getrusage(RUSAGE_CHILDREN, &kids);
        kb += static_cast<double>(kids.ru_maxrss);
    }
    return kb / 1024.0;
}

/** One reported metric: value, unit and the samples behind it. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
};

void
printContext(const Args& args, const std::vector<Metric>& metrics,
             std::size_t attempted)
{
    bench::HostInfo host = bench::hostInfo();
    std::cout << "{\"context\": {\"workload\": \""
              << support::jsonEscape(args.workload) << "\", \"seed\": "
              << args.seed << ", \"seconds\": " << fmt(args.seconds)
              << ", \"trace\": " << (args.trace ? 1 : 0)
              << ", \"build_type\": \"" << MC_E2E_BUILD_TYPE
              << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
              << ", \"host\": {\"cpu_model\": \""
              << support::jsonEscape(host.cpu_model)
              << "\", \"cores\": " << host.cores << ", \"governor\": \""
              << support::jsonEscape(host.governor)
              << "\"}, \"requests\": " << attempted << ", \"samples\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << '"' << metrics[i].name
                  << "\": " << metrics[i].samples;
    std::cout << "}}}\n";
}

void
printTable(const std::string& title, const std::vector<Metric>& metrics)
{
    std::vector<std::vector<std::string>> rows;
    for (const Metric& m : metrics)
        rows.push_back({m.name, fmt(m.value), m.unit,
                        std::to_string(m.samples)});
    std::cout << title << '\n'
              << support::formatTable({"metric", "value", "unit", "samples"},
                                      rows)
              << '\n';
}

/** The final line: correct, attempted, failed and the metrics. */
void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric>& metrics)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << '"' << metrics[i].name
                  << "\": {\"value\": " << fmt(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    std::cout << "}}" << std::endl;
}

std::size_t
reportFailures(const std::vector<Sample>& samples)
{
    std::size_t failed = 0;
    for (std::size_t i = 0; i < samples.size(); ++i)
        if (!samples[i].ok) {
            if (failed < 5)
                std::cerr << "e2e_bench: request " << i << " ("
                          << samples[i].protocol
                          << ") failed: " << samples[i].detail << '\n';
            ++failed;
        }
    return failed;
}

int
runEndToEnd(const Args& args)
{
    bool shards = args.workload == "shards2";
    References refs = buildReferences(args.corrupt_reference);
    resetPeakRss();
    std::vector<double> setup_s;
    std::unique_ptr<Workload> workload;
    std::size_t width = busyThreads(args.workload);
    {
        CpuRotation rotation(width);
        for (int round = 0; round < kSetupRounds; ++round) {
            workload.reset();
            rotation.next();
            Clock::time_point t0 = Clock::now();
            workload = setUp(args, refs, false);
            setup_s.push_back(msSince(t0) / 1e3);
        }
    }
    // Peak RSS over set-up and a fixed number of requests: daemon_edit's
    // in-memory cache grows with every edit, so a window that ended with
    // the run would rise with throughput.
    double peak_rss_mb = 0;
    std::size_t next = 0;
    std::vector<Sample> samples = closedLoop(
        *workload, width, next, args.seconds, nullptr,
        [&](std::size_t i, const Sample&) {
            if (i + 1 == kRssRequests)
                peak_rss_mb = peakRssMb(shards);
        });
    if (samples.size() < kRssRequests)
        peak_rss_mb = peakRssMb(shards);

    std::vector<double> wall, cpu;
    double units = 0;
    for (const Sample& s : samples) {
        wall.push_back(s.wall_ms);
        cpu.push_back(s.cpu_ms);
        units += static_cast<double>(s.units);
    }
    std::size_t failed = reportFailures(samples);
    std::size_t n = samples.size();
    double ok_ratio = static_cast<double>(n - failed) / static_cast<double>(n);
    std::vector<Metric> metrics = {
        {"setup_s", median(setup_s), "s", setup_s.size()},
        {"request_ms_p50", median(wall), "ms", n},
        {"request_ms_p90", quantile(wall, 0.9), "ms", n},
        {"units_per_s", units / (sum(wall) / 1e3), "1/s", n},
        {"cpu_ms_per_request", median(cpu), "ms", n},
        {"peak_rss_mb", peak_rss_mb, "MiB",
         std::min(samples.size(), kRssRequests)},
        {"ok_ratio", ok_ratio, "ratio", n},
    };
    printContext(args, metrics, n);
    std::vector<Metric> table = metrics;
    table.push_back({"failed_ratio", 1.0 - ok_ratio, "ratio", n});
    printTable("end-to-end, workload " + args.workload, table);
    printResult(failed == 0, n, failed, metrics);
    return failed == 0 ? 0 : 1;
}

// ---- traced run ----------------------------------------------------------

/**
 * Self time per bench span name: duration minus the union of its
 * children's, found through the spans' parent args.
 */
void
writeLayerTable(std::ostream& os,
                const std::vector<support::TraceEvent>& spans,
                double uncovered_request_ms, double request_ms)
{
    std::map<double, std::vector<std::pair<double, double>>> kids;
    for (const support::TraceEvent& s : spans)
        if (double parent = argOf(s, "parent"))
            kids[parent].emplace_back(static_cast<double>(s.ts_us),
                                      endUs(s));
    struct Row
    {
        std::size_t count = 0;
        double total = 0;
        double self = 0;
    };
    std::map<std::string, Row> rows;
    double root_total = 0;
    for (const support::TraceEvent& s : spans) {
        Row& r = rows[s.name];
        ++r.count;
        r.total += durMs(s);
        auto it = kids.find(argOf(s, "id"));
        double covered =
            it == kids.end() ? 0 : unionLength(it->second) / 1e3;
        r.self += durMs(s) - covered;
        if (argOf(s, "parent") == 0)
            root_total += durMs(s);
    }
    std::vector<std::vector<std::string>> table;
    for (const auto& [name, r] : rows)
        table.push_back({name, std::to_string(r.count), fmt(r.total),
                         fmt(r.self),
                         fmt(root_total > 0 ? r.self / root_total : 0)});
    table.push_back({"request (not covered by program spans)", "-",
                     fmt(request_ms), fmt(uncovered_request_ms),
                     fmt(request_ms > 0 ? uncovered_request_ms / request_ms
                                        : 0)});
    os << support::formatTable(
              {"span", "count", "total_ms", "self_ms", "self_share"}, table)
       << '\n';
}

/**
 * Accounting for one traced iteration (a request, then its probe), from
 * the events the recorder holds for it: the program's own spans and the
 * bench spans, on the recorder's one timeline.
 */
struct TracedAccounts
{
    explicit TracedAccounts(LayerData& ly) : layers(ly) {}

    LayerData& layers;
    unsigned jobs = 1;
    /** Every bench span of the traced half, in recording order. */
    std::vector<support::TraceEvent> bench_spans;
    /** Where the current iteration's spans start in bench_spans. */
    std::size_t iteration_begin = 0;
    /** Recorder clock just before the current request was sent. */
    std::uint64_t request_start_us = 0;
    std::vector<double> wall;
    std::vector<double> cold_files;
    double busy_us = 0;
    double capacity_us = 0;
    double uncovered_ms = 0;
    double request_ms = 0;
    bool probes_ok = true;

    void
    iteration(std::size_t i, const Sample& s, Workload& w)
    {
        support::TraceRecorder& recorder = support::TraceRecorder::global();
        // The request span is recorded after the fact, so it costs the
        // request nothing; the request's own events lie between the
        // clock reading before it and now.
        support::TraceEvent req;
        req.name = "request";
        req.category = "bench";
        req.ts_us = request_start_us;
        req.dur_us = static_cast<std::uint64_t>(s.wall_ms * 1e3);
        req.args = {{"id", "0"}, {"parent", "0"}};
        recorder.addEvent(req);
        const double req_a = static_cast<double>(request_start_us);
        const double req_b = static_cast<double>(recorder.nowUs());

        probes_ok = w.probe(i, layers) && probes_ok;

        std::vector<support::TraceEvent> events = recorder.events();
        iteration_begin = bench_spans.size();
        for (const support::TraceEvent& e : events)
            if (e.category == "bench")
                bench_spans.push_back(e);
        requestAccounts(s, w, events, req_a, req_b);
        probeAccounts(events);
    }

    void
    requestAccounts(const Sample& s, Workload& w,
                    const std::vector<support::TraceEvent>& events,
                    double req_a, double req_b)
    {
        auto all = [](const support::TraceEvent&) { return true; };
        wall.push_back(s.wall_ms);
        uncovered_ms +=
            s.wall_ms - unionLength(within(events, req_a, req_b, all)) / 1e3;
        request_ms += s.wall_ms;
        capacity_us += jobs * s.wall_ms * 1e3;

        double lanes = 0, supervise_end = 0, request_end = 0;
        for (const support::TraceEvent& e : events) {
            if (e.category == "bench" ||
                static_cast<double>(e.ts_us) > req_b)
                continue;
            if (isUnitEvent(e))
                busy_us += static_cast<double>(e.dur_us);
            if (e.name == "lanes.program")
                lanes += durMs(e);
            if (e.name == "shard.supervise") {
                layers.add("shard.supervise_ms", durMs(e));
                supervise_end = endUs(e);
            }
            if (e.category == "driver")
                request_end = endUs(e);
        }
        // Shard merge: coordinator time after supervision, less the
        // program-level checker passes that follow it.
        if (supervise_end > 0 && request_end > supervise_end) {
            double passes = 0;
            for (const support::TraceEvent& e : events)
                if (e.category == "checker" &&
                    static_cast<double>(e.ts_us) >= supervise_end &&
                    endUs(e) <= request_end)
                    passes += static_cast<double>(e.dur_us);
            layers.add("shard.merge_ms",
                       (request_end - supervise_end - passes) / 1e3);
        }
        layers.add("global.lanes_ms", lanes);
        layers.add("lang.files_parsed",
                   static_cast<double>(s.files_reparsed));
        layers.add("checkers.units", static_cast<double>(s.units));
        if (s.change_ms > 0) {
            layers.add("server.change_ms", s.change_ms);
            layers.add("server.files_reparsed",
                       static_cast<double>(s.files_reparsed));
            layers.addTotal("server.units_reused",
                            static_cast<double>(s.units_reused));
            layers.addTotal("server.units_total",
                            static_cast<double>(s.units));
        }
        if (s.after_fill)
            cold_files.push_back(static_cast<double>(w.cacheFiles()));
    }

    /** Checker-unit spans inside each of the probe's checker runs. */
    void
    probeAccounts(const std::vector<support::TraceEvent>& events)
    {
        for (std::size_t k = iteration_begin; k < bench_spans.size(); ++k) {
            const support::TraceEvent& sp = bench_spans[k];
            if (sp.name != "checkers.run")
                continue;
            std::vector<std::pair<double, double>> units = within(
                events, static_cast<double>(sp.ts_us), endUs(sp),
                isUnitEvent);
            for (const auto& [a, b] : units)
                layers.add("checkers.unit_ms", (b - a) / 1e3);
            layers.add("checkers.unattributed_ms",
                       durMs(sp) - unionLength(units) / 1e3);
        }
    }
};

int
runTraced(const Args& args)
{
    LayerData layers;
    support::TraceRecorder& recorder = support::TraceRecorder::global();
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    recorder.setEnabled(false);
    References refs = buildReferences(args.corrupt_reference);
    std::unique_ptr<Workload> workload = setUp(args, refs, true);
    Workload& w = *workload;
    bool shards = args.workload == "shards2";
    std::size_t width = busyThreads(args.workload);

    // Untraced half: the baseline for trace.overhead_ratio.
    std::size_t next = 0;
    std::vector<Sample> untraced =
        closedLoop(w, width, next, args.seconds / 2, nullptr, nullptr);

    // Traced half: program recorders on, bench spans around each call.
    // The recorder is cleared ahead of each request, so it holds one
    // iteration at a time; when the run ends it holds the last one, with
    // the program's spans on their threads' lanes, for the Chrome trace.
    metrics.reset();
    metrics.setEnabled(true);
    recorder.clear();
    recorder.setEnabled(true);
    TracedAccounts acc(layers);
    acc.jobs = args.workload == "protocol_cache_j2" ? 2 : 1;
    const cache::CacheStats cache0 = w.cacheStats();
    std::vector<Sample> traced = closedLoop(
        w, width, next, args.seconds / 2,
        [&] {
            recorder.clear();
            acc.request_start_us = recorder.nowUs();
        },
        [&](std::size_t i, const Sample& s) { acc.iteration(i, s, w); });
    recorder.setEnabled(false);
    metrics.setEnabled(false);
    const cache::CacheStats cache1 = w.cacheStats();

    // Fold the bench spans into per-layer series.
    std::map<double, std::vector<std::pair<double, double>>> kids;
    for (const support::TraceEvent& s : acc.bench_spans)
        if (double parent = argOf(s, "parent"))
            kids[parent].emplace_back(static_cast<double>(s.ts_us),
                                      endUs(s));
    for (const support::TraceEvent& s : acc.bench_spans) {
        if (s.name == "request")
            continue;
        if (s.name == "probe") {
            layers.add("trace.probe_uncovered_ms",
                       durMs(s) - unionLength(kids[argOf(s, "id")]) / 1e3);
            continue;
        }
        layers.add(s.name, durMs(s));
        if (s.name == "metal.walk") {
            layers.addTotal("metal.walk_ns", durMs(s) * 1e6);
            layers.addTotal("metal.walk_visits", argOf(s, "visits"));
        } else if (s.name == "checkers.construct") {
            layers.add("checkers.construct_us",
                       durMs(s) * 1e3 / argOf(s, "checkers"));
        } else if (s.name == "cache.lookup" || s.name == "cache.store") {
            if (double units = argOf(s, "units"))
                layers.add(s.name + "_us", durMs(s) * 1e3 / units);
        }
    }

    std::size_t n = traced.size();
    std::size_t failed = reportFailures(untraced) + reportFailures(traced);
    double hits = static_cast<double>(cache1.hits - cache0.hits);
    double misses = static_cast<double>(cache1.misses - cache0.misses);
    double per_req = n ? 1.0 / static_cast<double>(n) : 0.0;
    std::vector<double> unit_ms = layers.series["checkers.unit_ms"];
    std::vector<double> untraced_wall;
    for (const Sample& s : untraced)
        untraced_wall.push_back(s.wall_ms);
    double walk_visits = layers.total("metal.walk_visits");
    double reuse_total = layers.total("server.units_total");
    std::size_t probes = layers.series["checkers.run"].size();

    std::vector<Metric> out = {
        {"corpus.generate_ms", layers.med("corpus.generate"), "ms",
         layers.series["corpus.generate"].size()},
        {"lang.parse_ms", layers.med("lang.parse"), "ms", probes},
        {"lang.fingerprint_ms", layers.med("lang.fingerprint"), "ms", probes},
        {"lang.files_parsed", layers.med("lang.files_parsed"), "count", n},
        {"cfg.build_ms", layers.med("cfg.build"), "ms", probes},
        {"cfg.lower_ms", layers.med("cfg.lower"), "ms", probes},
        {"cfg.blocks", layers.med("cfg.blocks"), "count", probes},
        {"metal.parse_us", layers.med("metal.parse") * 1e3, "us", probes},
        {"metal.walk_ns_per_visit",
         walk_visits > 0 ? layers.total("metal.walk_ns") / walk_visits : 0,
         "ns", probes},
        {"metal.visits", layers.med("metal.visits"), "count", probes},
        {"metal.rule_firings", layers.med("metal.rule_firings"), "count",
         probes},
        {"checkers.construct_us", layers.med("checkers.construct_us"), "us",
         probes},
        {"checkers.run_ms", layers.med("checkers.run"), "ms", probes},
        {"checkers.units", layers.med("checkers.units"), "count", n},
        {"checkers.unit_ms_p50", quantile(unit_ms, 0.5), "ms",
         unit_ms.size()},
        {"checkers.unit_ms_p90", quantile(unit_ms, 0.9), "ms",
         unit_ms.size()},
        {"checkers.unattributed_ms", layers.med("checkers.unattributed_ms"),
         "ms", probes},
        {"global.lanes_ms", layers.med("global.lanes_ms"), "ms", n},
        {"cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
         "ratio", n},
        {"cache.stores",
         static_cast<double>(cache1.stores - cache0.stores) * per_req,
         "count", n},
        {"cache.files", median(acc.cold_files), "count",
         acc.cold_files.size()},
        {"cache.bytes_written",
         static_cast<double>(cache1.bytes_written - cache0.bytes_written) *
             per_req,
         "bytes", n},
        {"cache.lookup_us", layers.med("cache.lookup_us"), "us",
         layers.series["cache.lookup_us"].size()},
        {"cache.store_us", layers.med("cache.store_us"), "us",
         layers.series["cache.store_us"].size()},
        {"server.change_ms", layers.med("server.change_ms"), "ms",
         layers.series["server.change_ms"].size()},
        {"server.files_reparsed", layers.med("server.files_reparsed"),
         "count", layers.series["server.files_reparsed"].size()},
        {"server.units_reused_ratio",
         reuse_total > 0 ? layers.total("server.units_reused") / reuse_total
                         : 0,
         "ratio", layers.series["server.change_ms"].size()},
        {"shard.spawns",
         static_cast<double>(metrics.counterValue("shard.spawns")) * per_req,
         "count", shards ? n : 0},
        {"shard.dispatches",
         static_cast<double>(metrics.counterValue("shard.dispatches")) *
             per_req,
         "count", shards ? n : 0},
        {"shard.supervise_ms", layers.med("shard.supervise_ms"), "ms",
         layers.series["shard.supervise_ms"].size()},
        {"shard.merge_ms", layers.med("shard.merge_ms"), "ms",
         layers.series["shard.merge_ms"].size()},
        {"pool.busy_ratio",
         acc.capacity_us > 0 ? acc.busy_us / acc.capacity_us : 0, "ratio",
         n},
        {"support.render_ms", layers.med("support.render"), "ms", probes},
        {"trace.overhead_ratio",
         median(untraced_wall) > 0
             ? median(acc.wall) / median(untraced_wall)
             : 0,
         "ratio", n},
        {"trace.probe_uncovered_ms", layers.med("trace.probe_uncovered_ms"),
         "ms", probes},
        {"trace.request_uncovered_ratio",
         acc.request_ms > 0 ? acc.uncovered_ms / acc.request_ms : 0,
         "ratio", n},
    };

    fs::create_directories(args.workdir);
    std::string trace_path =
        (fs::path(args.workdir) / ("trace." + args.workload + ".json"))
            .string();
    // The recorder holds the last iteration; add the earlier bench spans,
    // so the trace has every bench span and one iteration's program spans.
    for (std::size_t k = 0; k < acc.iteration_begin; ++k)
        recorder.addEvent(acc.bench_spans[k]);
    {
        std::ofstream os(trace_path);
        recorder.writeJson(os);
    }
    recorder.clear();

    std::ostringstream table;
    writeLayerTable(table, acc.bench_spans, acc.uncovered_ms,
                    acc.request_ms);
    std::string table_path =
        (fs::path(args.workdir) / ("layers." + args.workload + ".txt"))
            .string();
    std::ofstream(table_path) << table.str();

    std::size_t attempted = untraced.size() + n;
    printContext(args, out, attempted);
    std::cout << "self time by span, workload " << args.workload << " ("
              << probes << " probes, " << n << " traced requests)\n"
              << table.str() << "trace: " << trace_path << '\n';
    printTable("per-layer, workload " + args.workload, out);
    bool correct = failed == 0 && acc.probes_ok;
    if (!acc.probes_ok)
        std::cerr << "e2e_bench: a layer probe rendered bytes that differ "
                     "from the reference\n";
    printResult(correct, attempted, failed, out);
    return correct ? 0 : 1;
}

void
usage()
{
    std::cerr
        << "usage: e2e_bench --workload <protocol_cache_j2|daemon_edit|"
           "shards2> --seed <n> --seconds <s> --trace <0|1>\n"
           "                 --mccheck <path> --workdir <dir> --expected "
           "<file> [--corrupt-reference]\n";
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        try {
            if (a == "--workload")
                args.workload = value();
            else if (a == "--seed")
                args.seed = std::stoull(value());
            else if (a == "--seconds")
                args.seconds = std::stod(value());
            else if (a == "--trace")
                args.trace = value() != "0";
            else if (a == "--mccheck")
                args.mccheck = value();
            else if (a == "--workdir")
                args.workdir = value();
            else if (a == "--expected")
                args.expected = value();
            else if (a == "--corrupt-reference")
                args.corrupt_reference = true;
            else {
                usage();
                return 2;
            }
        } catch (const std::exception&) {
            usage();
            return 2;
        }
    }
    if (args.workload.empty() || args.mccheck.empty() ||
        args.workdir.empty() || args.expected.empty() ||
        args.seconds <= 0) {
        usage();
        return 2;
    }
    try {
        fs::create_directories(args.workdir);
        return args.trace ? runTraced(args) : runEndToEnd(args);
    } catch (const std::exception& e) {
        std::cerr << "e2e_bench: " << e.what() << '\n';
        return 2;
    }
}
