#include "cache/analysis_cache.h"

#include "support/fault_injection.h"
#include "support/hash.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "support/version.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <climits>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace fs = std::filesystem;

namespace mc::cache {

namespace {

/**
 * Percent-encode `s` so it fits in one space-separated field: anything
 * outside a conservative identifier/punctuation set (including '%', ' ',
 * and newlines) becomes %XX. Empty strings encode as "%" so every field
 * stays non-empty for the line parser.
 */
std::string
encodeField(std::string_view s)
{
    if (s.empty())
        return "%";
    static const char* hex = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        const char plain = static_cast<char>(c);
        if (std::isalnum(c) ||
            std::string_view("_.,:/-").find(plain) != std::string_view::npos) {
            out.push_back(plain);
        } else {
            out.push_back('%');
            out.push_back(hex[c >> 4]);
            out.push_back(hex[c & 0xf]);
        }
    }
    return out;
}

/** A lowercase hex digit's value, or -1. */
int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    return c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1;
}

std::vector<std::string_view>
splitFields(std::string_view line)
{
    std::vector<std::string_view> out;
    std::size_t i = 0;
    while (i < line.size()) {
        std::size_t j = line.find(' ', i);
        if (j == std::string_view::npos)
            j = line.size();
        if (j > i)
            out.push_back(line.substr(i, j - i));
        i = j + 1;
    }
    return out;
}

/**
 * Pulls '\n'-terminated lines of space-separated fields off `text`.
 * Once a line or field fails to parse, `ok` stays false and every
 * accessor returns a zero value.
 */
struct FieldReader
{
    explicit FieldReader(std::string_view t) : text(t) {}

    std::string_view text;
    std::size_t pos = 0;
    /** The last line read, without its '\n'. */
    std::string_view raw;
    std::vector<std::string_view> fields;
    std::size_t next = 1;
    bool ok = true;

    /** The next line must be `tag` followed by exactly `n` fields. */
    bool
    line(std::string_view tag, std::size_t n)
    {
        const std::size_t nl = text.find('\n', pos);
        ok = ok && nl != std::string_view::npos;
        if (ok) {
            raw = text.substr(pos, nl - pos);
            pos = nl + 1;
            fields = splitFields(raw);
            ok = fields.size() == n + 1 && fields[0] == tag;
        }
        next = 1;
        return ok;
    }

    long long
    num(long long lo = LLONG_MIN, long long hi = LLONG_MAX)
    {
        long long v = 0;
        if (ok) {
            const std::string_view f = fields[next++];
            const auto [end, ec] =
                std::from_chars(f.data(), f.data() + f.size(), v);
            ok = ec == std::errc() && end == f.data() + f.size() &&
                 v >= lo && v <= hi;
        }
        return ok ? v : 0;
    }

    /** A percent-encoded field (see encodeField). */
    std::string
    str()
    {
        std::string v;
        const std::string_view f = ok ? fields[next++] : "%";
        for (std::size_t i = 0; ok && f != "%" && i < f.size(); ++i) {
            if (f[i] != '%') {
                v.push_back(f[i]);
                continue;
            }
            const int hi = i + 2 < f.size() ? hexDigit(f[i + 1]) : -1;
            const int lo = hi < 0 ? -1 : hexDigit(f[i + 2]);
            ok = lo >= 0;
            v.push_back(static_cast<char>(hi * 16 + lo));
            i += 2;
        }
        return v;
    }

    /** Hex digits; callers compare the line against its rendering. */
    std::uint64_t
    hex()
    {
        std::uint64_t v = 0;
        for (char c : ok ? fields[next++] : std::string_view())
            v = v << 4 | static_cast<std::uint64_t>(hexDigit(c));
        return v;
    }
};

constexpr const char* kSegmentExtension = ".mcseg";

/** Add `n` to a stats atomic and to its `cache.*` metric. */
void
bump(std::atomic<std::uint64_t>& stat, const char* metric,
     std::uint64_t n = 1)
{
    stat.fetch_add(n, std::memory_order_relaxed);
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (metrics.enabled())
        metrics.counter(metric).add(n);
}

/** Pre-register every cache.* counter so a metrics report always
 *  carries the full set — a warm run's "cache.misses": 0 is a
 *  statement, not an omission. */
void
registerMetrics()
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (metrics.enabled())
        for (const char* name :
             {"cache.hits", "cache.misses", "cache.stores", "cache.corrupt",
              "cache.evictions", "cache.bytes_read", "cache.bytes_written",
              "cache.files_created"})
            metrics.counter(name).add(0);
}

std::string
segmentHeader(std::size_t count)
{
    return "mccheck-segment " + std::to_string(kCacheFormatVersion) + ' ' +
           std::to_string(count) + '\n';
}

/** Covers the key, the entry's size (length prefix) and its bytes. */
std::uint64_t
recordSum(std::uint64_t key, std::string_view entry)
{
    return support::Fnv1a().u64(key).str(entry).value();
}

std::string
frameLine(std::uint64_t key, std::size_t size, std::uint64_t sum)
{
    return "record " + support::hashHex(key) + ' ' + std::to_string(size) +
           ' ' + support::hashHex(sum);
}

void
appendRecord(std::string& out, std::uint64_t key, std::string_view entry)
{
    out += frameLine(key, entry.size(), recordSum(key, entry));
    out += '\n';
    out += entry;
}

/**
 * Where `text`'s final "sum " line starts, or npos when it has none. The
 * line itself is not checked.
 */
std::size_t
sumLineStart(const std::string& text)
{
    const std::size_t sum_pos = text.empty()
                                    ? std::string::npos
                                    : text.rfind("sum ", text.size() - 1);
    if (sum_pos != std::string::npos && sum_pos != 0 &&
        text[sum_pos - 1] != '\n')
        return std::string::npos;
    return sum_pos;
}

/** Parse the fields of an entry's `body` (the text before its sum line). */
bool
parseUnitBody(std::string_view body, CachedUnit& out, std::string& error)
{
    FieldReader r{body};
    r.line("mccheck-cache", 2);
    const long long format = r.num();
    if (r.ok && format != kCacheFormatVersion) {
        error = "cache format version mismatch";
        return false;
    }
    if (r.ok && r.fields[2] != support::kToolVersion) {
        error = "tool version mismatch";
        return false;
    }

    out = CachedUnit();
    r.line("checker", 1);
    out.checker = r.str();
    r.line("function", 1);
    out.function = r.str();
    r.line("state", 1);
    const auto state_size = static_cast<std::size_t>(
        r.num(0, static_cast<long long>(r.text.size() - r.pos) - 1));
    if (r.ok) {
        out.state = r.text.substr(r.pos, state_size);
        r.pos += state_size;
        r.ok = r.text[r.pos++] == '\n';
    }
    r.line("diags", 1);
    const long long ndiags = r.num(0);
    for (long long i = 0; r.ok && i < ndiags; ++i) {
        CachedDiagnostic d;
        r.line("diag", 11);
        d.severity = static_cast<int>(r.num(0, 2));
        d.line = static_cast<int>(r.num());
        d.column = static_cast<int>(r.num());
        const long long ntrace = r.num(0);
        const long long nsteps = r.num(0);
        const long long nblocks = r.num(0);
        d.wtruncated = r.num(0, 1) != 0;
        d.file = r.str();
        d.checker = r.str();
        d.rule = r.str();
        d.message = r.str();
        for (long long t = 0; r.ok && t < ntrace; ++t) {
            r.line("trace", 1);
            d.trace.push_back(r.str());
        }
        for (long long k = 0; r.ok && k < nsteps; ++k) {
            CachedWitnessStep step;
            r.line("wstep", 6);
            step.line = static_cast<int>(r.num());
            step.column = static_cast<int>(r.num());
            step.from = r.str();
            step.to = r.str();
            step.file = r.str();
            step.note = r.str();
            d.wsteps.push_back(std::move(step));
        }
        for (long long b = 0; r.ok && b < nblocks; ++b) {
            r.line("wblock", 1);
            d.wblocks.push_back(static_cast<int>(r.num()));
        }
        out.diags.push_back(std::move(d));
    }
    if (!r.ok || r.pos != r.text.size()) {
        error = "malformed entry";
        return false;
    }
    return true;
}

} // namespace

AnalysisCache::AnalysisCache(std::string dir, bool readonly)
    : dir_(std::move(dir)), readonly_(readonly)
{
    std::error_code ec;
    if (!readonly_)
        fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_, ec))
        throw std::runtime_error("cannot open cache directory '" + dir_ +
                                 "'" + (ec ? ": " + ec.message() : ""));
    registerMetrics();
    load();
}

AnalysisCache::~AnalysisCache()
{
    try {
        flush();
    } catch (...) {
        // A cache that cannot publish only costs the next run a
        // re-analysis.
    }
}

std::unique_ptr<AnalysisCache>
AnalysisCache::inMemory()
{
    registerMetrics();
    return std::unique_ptr<AnalysisCache>(new AnalysisCache());
}

void
AnalysisCache::load()
{
    std::vector<fs::path> paths;
    std::error_code ec;
    for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
         it.increment(ec))
        if (it->path().extension() == kSegmentExtension)
            paths.push_back(it->path());
    // Segment names start with their creation time, so name order is
    // store order across runs.
    std::sort(paths.begin(), paths.end());
    for (const fs::path& path : paths) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            continue; // removed by a concurrent compaction
        std::ostringstream buffer;
        buffer << in.rdbuf();
        std::vector<SegmentRecord> records;
        std::string error;
        const std::size_t damaged =
            decodeSegment(buffer.str(), records, error);
        for (SegmentRecord& record : records)
            put(record.key, std::move(record.entry));
        segments_.push_back(path.string());
        if (damaged == 0)
            continue;
        bump(corrupt_, "cache.corrupt", damaged);
        warn("cache segment " + path.string() + ": " +
             std::to_string(damaged) + " record(s) unusable (" + error +
             "); re-analyzing");
        compact_ = true;
    }
    published_seq_ = next_seq_;
}

void
AnalysisCache::put(std::uint64_t key, std::string text)
{
    Entry& entry = entries_[key];
    bytes_ += text.size();
    bytes_ -= entry.text ? entry.text->size() : 0;
    entry = Entry{next_seq_++,
                  std::make_shared<const std::string>(std::move(text))};
}

std::uint64_t
AnalysisCache::entryCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

std::uint64_t
AnalysisCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

void
AnalysisCache::warn(std::string message)
{
    std::lock_guard<std::mutex> lock(warnings_mu_);
    warnings_.push_back(std::move(message));
}

bool
AnalysisCache::corruptMiss(std::uint64_t key, const std::string& reason)
{
    // A bad entry would fail every future lookup too; drop it so the
    // next store replaces it, and compact so the next flush drops it
    // from disk. Readonly mode preserves the evidence.
    if (!readonly_) {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            bytes_ -= it->second.text->size();
            entries_.erase(it);
        }
        compact_ = true;
    }
    bump(misses_, "cache.misses");
    bump(corrupt_, "cache.corrupt");
    warn("cache entry " + support::hashHex(key) + " is unusable (" +
         reason + "); re-analyzing");
    return false;
}

bool
AnalysisCache::lookup(std::uint64_t key, CachedUnit& out)
{
    // Faults are contained right here: an injected lookup failure is
    // exactly a corrupt-entry miss, so the caller re-analyzes and the
    // run's output is unaffected.
    try {
        support::fault::probe("cache.lookup", support::hashHex(key));
    } catch (const support::InjectedFault& f) {
        return corruptMiss(key, f.what());
    }
    // The entry's text is immutable and shared: the lock covers only
    // taking a reference, and the parse below reads the stored bytes in
    // place while concurrent lookups, stores and evictions proceed.
    std::shared_ptr<const std::string> text;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end())
            text = it->second.text;
    }
    if (!text) {
        bump(misses_, "cache.misses");
        return false;
    }
    // Parse only: every stored entry was encoded by this process or
    // passed its segment record's checksum at load, which covers the
    // same bytes the entry's own sum line does.
    std::string error;
    const std::size_t sum_pos = sumLineStart(*text);
    if (sum_pos == std::string::npos)
        return corruptMiss(key, "truncated entry");
    if (!parseUnitBody(std::string_view(*text).substr(0, sum_pos), out,
                       error))
        return corruptMiss(key, error);
    bump(hits_, "cache.hits");
    bump(bytes_read_, "cache.bytes_read", text->size());
    return true;
}

void
AnalysisCache::store(std::uint64_t key, const CachedUnit& unit)
{
    if (readonly_)
        return;
    // A failed store only costs the next run a re-analysis; contain it
    // here so checking continues undisturbed.
    try {
        support::fault::probe("cache.store", support::hashHex(key));
    } catch (const support::InjectedFault& f) {
        warn("cache entry " + support::hashHex(key) + " not stored (" +
             f.what() + ")");
        return;
    }
    std::string text = encodeUnit(unit);
    const std::uint64_t size = text.size();
    {
        std::lock_guard<std::mutex> lock(mu_);
        put(key, std::move(text));
    }
    bump(stores_, "cache.stores");
    bump(bytes_written_, "cache.bytes_written", size);
}

void
AnalysisCache::trim(std::uint64_t max_bytes)
{
    if (readonly_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    if (bytes_ <= max_bytes)
        return;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> order; // seq, key
    order.reserve(entries_.size());
    for (const auto& [key, entry] : entries_)
        order.emplace_back(entry.seq, key);
    std::sort(order.begin(), order.end());
    for (const auto& [seq, key] : order) {
        if (bytes_ <= max_bytes)
            break;
        auto it = entries_.find(key);
        bytes_ -= it->second.text->size();
        entries_.erase(it);
        bump(evictions_, "cache.evictions");
    }
    compact_ = true;
}

bool
AnalysisCache::writeSegment(const std::string& text, std::string& path)
{
    // Creation time first, so name order is age order; pid and a
    // process-wide sequence keep concurrent writers' names distinct.
    static std::atomic<std::uint64_t> sequence{0};
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    path = dir_ + "/" +
           support::hashHex(static_cast<std::uint64_t>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(now)
                   .count())) +
           "-" + std::to_string(::getpid()) + "-" +
           std::to_string(sequence.fetch_add(1)) + kSegmentExtension;
    // Rename-into-place keeps concurrent readers (and interrupted runs)
    // from ever observing a partially written segment.
    const std::string tmp = path + ".tmp";
    const bool written = static_cast<bool>(
        std::ofstream(tmp, std::ios::binary) << text << std::flush);
    std::error_code ec;
    if (written)
        fs::rename(tmp, path, ec);
    if (written && !ec)
        return true;
    warn("cannot publish cache segment " + path +
         (ec ? ": " + ec.message() : ""));
    fs::remove(tmp, ec);
    return false;
}

void
AnalysisCache::flush()
{
    if (dir_.empty() || readonly_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    const bool pending = next_seq_ > published_seq_;
    const bool compact =
        compact_ || segments_.size() + (pending ? 1 : 0) > kMaxSegments;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> order; // seq, key
    for (const auto& [key, entry] : entries_)
        if (compact || entry.seq >= published_seq_)
            order.emplace_back(entry.seq, key);
    if (!compact && order.empty())
        return;

    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    support::ScopedTimer timer(
        metrics.enabled() ? &metrics.timer("cache.publish") : nullptr);
    support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                            "cache.publish", "cache");
    std::sort(order.begin(), order.end());
    std::string text = segmentHeader(order.size());
    for (const auto& [seq, key] : order)
        appendRecord(text, key, *entries_.at(key).text);
    std::string path;
    if (!order.empty()) {
        if (!writeSegment(text, path))
            return;
        if (metrics.enabled())
            metrics.counter("cache.files_created").add();
    }
    if (compact) {
        std::error_code ec;
        for (const std::string& old : segments_)
            fs::remove(old, ec); // another compaction may have won
        segments_.clear();
        compact_ = false;
    }
    if (!path.empty())
        segments_.push_back(std::move(path));
    published_seq_ = next_seq_;
    span.arg("records", std::to_string(order.size()));
}

CacheStats
AnalysisCache::stats() const
{
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stores = stores_.load(std::memory_order_relaxed);
    s.corrupt = corrupt_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    return s;
}

std::vector<std::string>
AnalysisCache::takeWarnings()
{
    std::lock_guard<std::mutex> lock(warnings_mu_);
    std::vector<std::string> out = std::move(warnings_);
    warnings_.clear();
    return out;
}

std::string
AnalysisCache::encodeSegment(const std::vector<SegmentRecord>& records)
{
    std::string text = segmentHeader(records.size());
    for (const SegmentRecord& record : records)
        appendRecord(text, record.key, record.entry);
    return text;
}

std::size_t
AnalysisCache::decodeSegment(std::string_view text,
                             std::vector<SegmentRecord>& out,
                             std::string& error)
{
    // Header and frames must be exactly what encodeSegment renders, so
    // a bit flip in them is a damaged frame rather than a misread.
    FieldReader r{text};
    r.line("mccheck-segment", 2);
    r.num();
    const long long count = r.num(0);
    if (!r.ok || std::string(r.raw) + '\n' !=
                     segmentHeader(static_cast<std::size_t>(count))) {
        error = "bad segment header";
        return 1;
    }
    std::size_t damaged = 0;
    for (long long i = 0; i < count; ++i) {
        r.line("record", 3);
        const std::uint64_t key = r.hex();
        const auto size = static_cast<std::size_t>(
            r.num(0, static_cast<long long>(text.size() - r.pos)));
        const std::uint64_t sum = r.hex();
        if (!r.ok || r.raw != frameLine(key, size, sum)) {
            error = "damaged or truncated record frame";
            return damaged + 1;
        }
        const std::string_view entry = text.substr(r.pos, size);
        r.pos += size;
        if (recordSum(key, entry) != sum) {
            error = "record checksum mismatch";
            ++damaged;
            continue;
        }
        out.push_back(SegmentRecord{key, std::string(entry)});
    }
    if (r.pos != text.size()) {
        error = "trailing data after the last record";
        ++damaged;
    }
    return damaged;
}

std::string
AnalysisCache::encodeUnit(const CachedUnit& unit)
{
    std::ostringstream os;
    os << "mccheck-cache " << kCacheFormatVersion << ' '
       << support::kToolVersion << '\n';
    os << "checker " << encodeField(unit.checker) << '\n';
    os << "function " << encodeField(unit.function) << '\n';
    os << "state " << unit.state.size() << '\n';
    os << unit.state << '\n';
    os << "diags " << unit.diags.size() << '\n';
    for (const CachedDiagnostic& d : unit.diags) {
        os << "diag " << d.severity << ' ' << d.line << ' ' << d.column
           << ' ' << d.trace.size() << ' ' << d.wsteps.size() << ' '
           << d.wblocks.size() << ' ' << (d.wtruncated ? 1 : 0) << ' '
           << encodeField(d.file) << ' ' << encodeField(d.checker) << ' '
           << encodeField(d.rule) << ' ' << encodeField(d.message)
           << '\n';
        for (const std::string& frame : d.trace)
            os << "trace " << encodeField(frame) << '\n';
        for (const CachedWitnessStep& s : d.wsteps)
            os << "wstep " << s.line << ' ' << s.column << ' '
               << encodeField(s.from) << ' ' << encodeField(s.to) << ' '
               << encodeField(s.file) << ' ' << encodeField(s.note)
               << '\n';
        for (int block : d.wblocks)
            os << "wblock " << block << '\n';
    }
    std::string body = os.str();
    return body + "sum " + support::hashHex(support::fnv1a(body)) + "\n";
}

bool
AnalysisCache::decodeUnit(const std::string& text, CachedUnit& out,
                          std::string& error)
{
    // Verify the checksum over everything before the final "sum " line
    // first: it catches truncation and bit flips in one test and lets the
    // field parser assume structurally intact input.
    const std::size_t sum_pos = sumLineStart(text);
    if (sum_pos == std::string::npos ||
        text.compare(sum_pos, std::string::npos,
                     "sum " +
                         support::hashHex(support::fnv1a(
                             std::string_view(text).substr(0, sum_pos))) +
                         "\n") != 0) {
        error = "truncated entry or checksum mismatch";
        return false;
    }
    return parseUnitBody(std::string_view(text).substr(0, sum_pos), out,
                         error);
}

CachedDiagnostic
AnalysisCache::toCached(const support::Diagnostic& diag,
                        const support::SourceManager& sm)
{
    CachedDiagnostic out{static_cast<int>(diag.severity),
                         sm.fileName(diag.loc.file_id),
                         diag.loc.line,
                         diag.loc.column,
                         diag.checker,
                         diag.rule,
                         diag.message,
                         diag.trace,
                         {},
                         diag.witness.blocks,
                         diag.witness.truncated};
    for (const support::WitnessStep& step : diag.witness.steps)
        out.wsteps.push_back({step.from_state, step.to_state,
                              sm.fileName(step.loc.file_id), step.loc.line,
                              step.loc.column, step.note});
    return out;
}

bool
AnalysisCache::fromCached(
    const CachedDiagnostic& cached,
    const std::map<std::string, std::int32_t>& file_ids,
    support::Diagnostic& out)
{
    auto it = file_ids.find(cached.file);
    if (it == file_ids.end())
        return false;
    // Resolve every witness-step file before mutating `out`: one
    // unresolvable name misses the whole unit rather than replaying a
    // finding with a mangled witness.
    support::Witness witness;
    witness.truncated = cached.wtruncated;
    witness.blocks = cached.wblocks;
    for (const CachedWitnessStep& cs : cached.wsteps) {
        auto sit = file_ids.find(cs.file);
        if (sit == file_ids.end())
            return false;
        witness.steps.push_back(
            {cs.from, cs.to, {sit->second, cs.line, cs.column}, cs.note});
    }
    out.severity = static_cast<support::Severity>(cached.severity);
    out.loc = support::SourceLoc{it->second, cached.line, cached.column};
    out.checker = cached.checker;
    out.rule = cached.rule;
    out.message = cached.message;
    out.trace = cached.trace;
    out.witness = std::move(witness);
    return true;
}

std::map<std::string, std::int32_t>
AnalysisCache::fileIdsByName(const support::SourceManager& sm)
{
    std::map<std::string, std::int32_t> out;
    // Id 0 is the "<unknown>" synthesized-location sentinel; real files
    // are 1..fileCount(). First registration wins on duplicate names,
    // matching how names render in diagnostics.
    for (std::int32_t id = 0; id <= sm.fileCount(); ++id)
        out.emplace(sm.fileName(id), id);
    return out;
}

} // namespace mc::cache
