#ifndef MCHECK_SERVER_RESIDENT_H
#define MCHECK_SERVER_RESIDENT_H

#include "checkers/parallel.h"
#include "corpus/generator.h"
#include "lang/program.h"
#include "metal/metal_parser.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mc::server {

/** Source reader: (path, contents-out, error-out) -> ok. */
using FileReader =
    std::function<bool(const std::string&, std::string&, std::string&)>;

/** Read `path` from disk. The reader every batch run uses. */
bool readDiskFile(const std::string& path, std::string& contents,
                  std::string& error);

struct PreparedProgram;

/**
 * Build a program for `files` with no resident state: read through
 * `reader`, parse fresh, hand ownership to the caller. The batch
 * driver's path; also the daemon's when it has no snapshot to reuse.
 */
PreparedProgram
buildProgramOneShot(const std::vector<std::string>& files,
                    const FileReader& reader);

/**
 * A program ready to check, plus where it came from. When `reused` the
 * program (and its CFG cache) belong to the ResidentState that served
 * it; otherwise `owned` carries a freshly built program the caller
 * drops after the run.
 */
struct PreparedProgram
{
    lang::Program* program = nullptr;
    std::unique_ptr<lang::Program> owned;
    /** Resident CFGs for this program; null for one-shot runs. */
    checkers::CfgCache* cfg_cache = nullptr;
    /** Files lexed+parsed to satisfy this request. */
    std::uint64_t files_reparsed = 0;
    /** A resident snapshot matched (even if some files re-parsed). */
    bool reused = false;
    bool ok = false;
    /** "cannot open <path>" (first failing file, in request order). */
    std::string error;
};

/**
 * Everything the checking daemon keeps warm between requests.
 *
 * Three tiers, cheapest reuse first:
 *
 *  1. Process globals (symbol interner, compiled SM transition tables,
 *     registered metric nodes) are resident for free — they live for
 *     the process regardless.
 *  2. Per-unit analysis results live in the daemon's one AnalysisCache
 *     (directory-backed with --cache, in-memory without), keyed by
 *     token-stream fingerprints: an edited file invalidates exactly its
 *     own functions' entries.
 *  3. Parsed programs + their CFGs live in snapshots keyed by the
 *     *ordered file list*. A request over the same file set reuses the
 *     snapshot; files whose bytes differ from the text their unit was
 *     parsed from re-parse in place (Program::updateSource — file ids
 *     stay stable, so diagnostic emission order matches a cold batch
 *     run); a different file set rebuilds from scratch.
 *
 * Byte-parity invariant: nothing here may change output bytes. Reuse
 * either reproduces exactly what a fresh build would produce (stable
 * file ids + slot-ordered function index) or replays through the same
 * fingerprint-keyed cache path a warm batch run takes.
 *
 * Not internally synchronized: the daemon serializes every access under
 * its request-execution mutex (which the protocol needs anyway — witness
 * configuration and match strategy are process globals set per request).
 */
class ResidentState
{
  public:
    // ---- document overlays (open/change/close) ------------------------

    /** Insert or replace the overlay for `path`. */
    void openDocument(const std::string& path, std::string text);
    /** Drop the overlay; false if none existed. */
    bool closeDocument(const std::string& path);
    bool hasDocument(const std::string& path) const;
    std::size_t documentCount() const { return documents_.size(); }

    /** Overlay-first reader (falls back to disk). */
    bool readFile(const std::string& path, std::string& contents,
                  std::string& error) const;

    // ---- program snapshots --------------------------------------------

    /**
     * Program for `files` read through `reader`: reuse + in-place
     * re-parse when a snapshot matches, full (re)build otherwise. The
     * result is published as this state's snapshot for that file list.
     */
    PreparedProgram prepareFiles(const std::vector<std::string>& files,
                                 const FileReader& reader);

    /**
     * Generated-protocol program for `protocol`, loaded once and reused
     * verbatim afterwards (generation is deterministic, so the resident
     * program equals a fresh load). Throws std::out_of_range for names
     * profileByName does not know. `reused` reports whether a resident
     * snapshot served the request.
     */
    corpus::LoadedProtocol& protocolSnapshot(const std::string& protocol,
                                             checkers::CfgCache*& cfgs,
                                             bool& reused);

    /**
     * Parse-or-reuse a metal checker by its *source text* (keyed by
     * content, so an edited .metal re-compiles and an untouched one is
     * free). `origin` names the source in parse errors, matching what a
     * batch loadMetalFile run reports. Throws metal::MetalParseError on
     * malformed source.
     */
    const metal::MetalProgram& metalProgram(const std::string& source,
                                            const std::string& origin);

    // ---- introspection for the `status` method ------------------------

    std::size_t fileSnapshotCount() const { return snapshots_.size(); }
    std::size_t protocolSnapshotCount() const { return protocols_.size(); }
    std::size_t metalProgramCount() const { return metal_.size(); }
    /** Functions resident across all program snapshots. */
    std::size_t residentFunctionCount() const;
    /** CFGs resident across all snapshot caches. */
    std::size_t residentCfgCount() const;
    /** Arena bytes wasted by in-place re-parses (rebuild pressure). */
    std::size_t arenaWasteBytes() const;

  private:
    struct FileSnapshot
    {
        std::vector<std::string> files;
        std::unique_ptr<lang::Program> program;
        std::unique_ptr<checkers::CfgCache> cfg_cache;
        std::uint64_t last_used = 0;
    };

    struct ProtocolSnapshot
    {
        corpus::LoadedProtocol loaded;
        std::unique_ptr<checkers::CfgCache> cfg_cache;
    };

    FileSnapshot* findSnapshot(const std::vector<std::string>& files);

    std::map<std::string, std::string> documents_;
    std::vector<FileSnapshot> snapshots_;
    std::map<std::string, ProtocolSnapshot> protocols_;
    std::map<std::uint64_t, metal::MetalProgram> metal_;
    std::uint64_t use_seq_ = 0;
};

} // namespace mc::server

#endif // MCHECK_SERVER_RESIDENT_H
