#ifndef MCHECK_LANG_FINGERPRINT_H
#define MCHECK_LANG_FINGERPRINT_H

#include "lang/program.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mc::lang {

/**
 * Stable content fingerprints for the analysis cache (frontend half of
 * the cache key: "has this function changed since the last run?").
 *
 * A translation unit's fingerprint hashes its file name, its
 * preprocessor directives, and its full token stream *with positions*
 * (kind, spelling, line, column per token). Positions are included
 * deliberately: diagnostics carry line/column numbers, so an edit that
 * only shifts code (added blank line, re-indent) must invalidate cached
 * findings even though the token values are unchanged. Conversely a
 * trailing comment adds no tokens and shifts nothing, so it correctly
 * leaves the fingerprint alone.
 *
 * A function's fingerprint is its unit's fingerprint combined with the
 * function name. Hashing the whole unit rather than carving out the
 * function's own token range is a correctness choice: any edit to a file
 * invalidates every function it defines, which can never replay stale
 * results (the corpus and FLASH layout keep one handler per file, so in
 * practice this is per-function granularity anyway).
 *
 * Each parsed unit is fingerprinted at most once: the value is computed
 * on first use and lives as long as the parsed unit does (see
 * Program::unitFingerprint). Program::updateSource drops the replaced
 * unit's value, so a resident program re-hashes only the edited files.
 * Parsing never fingerprints; runs without a cache never pay for it.
 */

/** Fingerprint of one registered file's token stream. Stable across runs. */
std::uint64_t unitFingerprint(const support::SourceManager& sm,
                              std::int32_t file_id);

/**
 * Fingerprint of every function in program.functions() order; nullopt
 * for the functions of a unit that needed frontend recovery (they are
 * re-analyzed every run until the unit is fixed). Counts the unit memo's
 * hits and misses in lang.fingerprint_memo_{hits,misses}.
 */
std::vector<std::optional<std::uint64_t>>
functionFingerprints(const Program& program);

/**
 * The same fingerprints keyed by function name; when two units define
 * one name, the later unit's value wins.
 */
std::map<std::string, std::uint64_t>
fingerprintFunctions(const Program& program);

} // namespace mc::lang

#endif // MCHECK_LANG_FINGERPRINT_H
