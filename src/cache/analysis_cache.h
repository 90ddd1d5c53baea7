#ifndef MCHECK_CACHE_ANALYSIS_CACHE_H
#define MCHECK_CACHE_ANALYSIS_CACHE_H

#include "support/diagnostics.h"
#include "support/source_manager.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mc::cache {

/**
 * Bump when the entry or segment layout changes. Folded into every
 * cache key *and* written in each entry and segment header, so a new
 * binary never reads an old layout (key miss) and a tampered header is
 * rejected (load error).
 */
inline constexpr int kCacheFormatVersion = 2;

/** One witness step as stored; its location travels like a
 *  CachedDiagnostic's, by file name. */
struct CachedWitnessStep
{
    std::string from;
    std::string to;
    std::string file;
    int line = 0;
    int column = 0;
    std::string note;
};

/**
 * One diagnostic as stored. Locations are carried by file *name*, not
 * the run-local numeric file id (ids depend on registration order, names
 * are stable across runs); replay re-resolves them against the current
 * run's SourceManager, so warm output is byte-identical to cold.
 */
struct CachedDiagnostic
{
    int severity = 0; // support::Severity as int
    std::string file; // "<unknown>" for synthesized locations
    int line = 0;
    int column = 0;
    std::string checker;
    std::string rule;
    std::string message;
    std::vector<std::string> trace;
    /** Witness payload (empty unless the run captured provenance). */
    std::vector<CachedWitnessStep> wsteps;
    std::vector<int> wblocks;
    bool wtruncated = false;
};

/**
 * Everything one (function, checker) work unit produced: the diagnostics
 * its private sink collected (in emission order) and the checker's
 * serialized per-function state (Checker::saveState), replayed through
 * Checker::loadState + absorb on a hit so warm runs are byte-identical
 * to cold ones.
 */
struct CachedUnit
{
    std::string checker;
    std::string function;
    /** Opaque Checker::saveState blob (applied count + summaries). */
    std::string state;
    std::vector<CachedDiagnostic> diags;
};

/** Monotonic tallies for one cache's lifetime (always on, lock-free). */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
};

/** One record of a segment file: an encoded entry under its key. */
struct SegmentRecord
{
    std::uint64_t key = 0;
    std::string entry;
    bool operator==(const SegmentRecord&) const = default;
};

/**
 * Content-addressed store of per-(function, checker) analysis results.
 *
 * Keys are 64-bit content hashes (engine version, checker identity +
 * options + metal source, protocol-spec fingerprint, function
 * token-stream fingerprint — derived by the caller). The store is one
 * mutex-guarded map of key -> encoded entry (encodeUnit bytes) in store
 * order, whatever backs it. Every lookup decodes and validates its
 * entry; one that fails counts as corrupt, records a warning and
 * misses, so the caller falls back to cold analysis, never to stale
 * findings. Stats are atomics; the parallel runner's workers may share
 * one instance.
 *
 * A directory-backed cache loads the directory's segment files at open,
 * and `flush` publishes the entries stored since the last flush as one
 * new segment (temp file + rename). A segment is a header naming its
 * record count, then records framed as `record <key> <size> <sum>` +
 * entry bytes, where the checksum covers key, size and entry: a damaged
 * record is dropped (counted corrupt), never served under another key,
 * and a damaged frame ends that segment's load. A flush compacts —
 * writes the live set as one segment and removes the segments this
 * instance loaded or published — after a trim evicted, after a load
 * dropped damage, or past kMaxSegments segments; other runs' segments
 * are never removed, so concurrent runs accumulate. Readonly mode drops
 * stores and writes nothing, so damaged segments stay for post-mortem.
 */
class AnalysisCache
{
  public:
    /** A directory holding more segments than this is compacted. */
    static constexpr std::size_t kMaxSegments = 8;

    /** Opens (unless readonly, creates) `dir` and loads its segments;
     *  throws std::runtime_error if the directory is not usable. */
    explicit AnalysisCache(std::string dir, bool readonly = false);

    /** Flushes whatever is still unpublished (errors are swallowed). */
    ~AnalysisCache();

    AnalysisCache(const AnalysisCache&) = delete;
    AnalysisCache& operator=(const AnalysisCache&) = delete;

    /** The same store with no directory (no filesystem traffic). */
    static std::unique_ptr<AnalysisCache> inMemory();

    /** The backing directory; empty for an in-memory cache. */
    const std::string& dir() const { return dir_; }
    bool readonly() const { return readonly_; }

    /** Live entries, and their total encoded bytes. */
    std::uint64_t entryCount() const;
    std::uint64_t residentBytes() const;

    /** Load the entry for `key` into `out`; false (a miss) if there is
     *  none or it fails validation. */
    bool lookup(std::uint64_t key, CachedUnit& out);

    /** Insert the entry for `key`; no-op in readonly mode. */
    void store(std::uint64_t key, const CachedUnit& unit);

    /** Evict oldest-stored entries until the live entries' encodings
     *  total at most `max_bytes`; 0 evicts everything. */
    void trim(std::uint64_t max_bytes);

    /** Publish the entries stored since the last flush as one segment,
     *  or compact. No-op without a directory or in readonly mode; after
     *  a failed write (a warning) the entries stay pending. */
    void flush();

    /** Point-in-time copy of the tallies. */
    CacheStats stats() const;

    /** Drain accumulated warnings (corrupt entries, I/O failures). */
    std::vector<std::string> takeWarnings();

    // ---- serialization (public for tests, the fuzzers and the bench) --

    /** Render `unit` in the entry format, checksum line included. */
    static std::string encodeUnit(const CachedUnit& unit);

    /**
     * Parse an encoded entry. Returns false with a reason in `error` for
     * anything malformed: bad checksum, wrong format/tool version,
     * truncation, field corruption. For bytes from outside the store
     * (the shard wire, the fuzzer); `lookup` skips the checksum, which
     * the segment record checksum already covered.
     */
    static bool decodeUnit(const std::string& text, CachedUnit& out,
                           std::string& error);

    /** Render `records` as one segment file. */
    static std::string
    encodeSegment(const std::vector<SegmentRecord>& records);

    /** Append segment `text`'s intact records to `out`, in file order;
     *  returns how many damaged records or frames it dropped, with the
     *  last reason in `error`. */
    static std::size_t decodeSegment(std::string_view text,
                                     std::vector<SegmentRecord>& out,
                                     std::string& error);

    /** Strip a Diagnostic down to its storable form. */
    static CachedDiagnostic
    toCached(const support::Diagnostic& diag,
             const support::SourceManager& sm);

    /**
     * Rebuild a Diagnostic, resolving the stored file name through
     * `file_ids` (name -> current file id; "<unknown>" maps to id 0).
     * Returns false if the file name is not registered this run — the
     * caller should treat the whole unit as a miss.
     */
    static bool
    fromCached(const CachedDiagnostic& cached,
               const std::map<std::string, std::int32_t>& file_ids,
               support::Diagnostic& out);

    /** name -> id map over every file registered with `sm`. */
    static std::map<std::string, std::int32_t>
    fileIdsByName(const support::SourceManager& sm);

  private:
    struct Entry
    {
        /** Store order: loaded segments first, oldest first. */
        std::uint64_t seq = 0;
        std::string text;
    };

    AnalysisCache() = default;
    void load();
    void put(std::uint64_t key, std::string text);
    bool corruptMiss(std::uint64_t key, const std::string& reason);
    bool writeSegment(const std::string& text, std::string& path);
    void warn(std::string message);

    std::string dir_;
    bool readonly_ = false;

    /** Guards everything below. */
    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t, Entry> entries_;
    std::uint64_t bytes_ = 0;
    std::uint64_t next_seq_ = 0;
    /** Entries with seq >= this are not yet in any segment. */
    std::uint64_t published_seq_ = 0;
    /** Segments this instance loaded or published: compaction's to remove. */
    std::vector<std::string> segments_;
    bool compact_ = false;

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stores_{0};
    std::atomic<std::uint64_t> corrupt_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> bytes_read_{0};
    std::atomic<std::uint64_t> bytes_written_{0};

    std::mutex warnings_mu_;
    std::vector<std::string> warnings_;
};

} // namespace mc::cache

#endif // MCHECK_CACHE_ANALYSIS_CACHE_H
