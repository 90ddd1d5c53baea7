/**
 * @file
 * Fuzz target: the analysis cache's entry and segment decoders. Every
 * input goes through both.
 *
 * Properties:
 *  - decodeUnit never throws or crashes on arbitrary bytes — it returns
 *    false with a reason — and anything it does accept survives an
 *    encode/decode round trip bit-for-bit (the checksum line pins the
 *    encoding, so a lossy field would show up as a second-decode
 *    failure or a field mismatch);
 *  - decodeSegment never crashes; every record it accepts either
 *    decodes as an entry or is rejected by decodeUnit (which a lookup
 *    counts as a corrupt miss); re-encoding the accepted records gives
 *    a whole segment with the same records, and a segment decoded with
 *    no damage re-encodes to the input bytes exactly.
 */
#include "cache/analysis_cache.h"

#include <cstdint>
#include <string>
#include <vector>

namespace {

using mc::cache::AnalysisCache;

void
checkEntry(const std::string& text)
{
    mc::cache::CachedUnit unit;
    std::string error;
    if (!AnalysisCache::decodeUnit(text, unit, error))
        return;
    const std::string encoded = AnalysisCache::encodeUnit(unit);
    mc::cache::CachedUnit again;
    std::string error2;
    if (!AnalysisCache::decodeUnit(encoded, again, error2))
        __builtin_trap();
    if (again.checker != unit.checker || again.function != unit.function ||
        again.state != unit.state ||
        again.diags.size() != unit.diags.size())
        __builtin_trap();
}

void
checkSegment(const std::string& text)
{
    std::vector<mc::cache::SegmentRecord> records;
    std::string error;
    const std::size_t damaged =
        AnalysisCache::decodeSegment(text, records, error);
    for (const mc::cache::SegmentRecord& record : records)
        checkEntry(record.entry);
    const std::string encoded = AnalysisCache::encodeSegment(records);
    if (damaged == 0 && encoded != text)
        __builtin_trap();
    std::vector<mc::cache::SegmentRecord> again;
    if (AnalysisCache::decodeSegment(encoded, again, error) != 0 ||
        again != records)
        __builtin_trap();
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    const std::string text(reinterpret_cast<const char*>(data), size);
    checkEntry(text);
    checkSegment(text);
    return 0;
}

#include "replay_main.h"
