#include "lang/fingerprint.h"

#include "lang/lexer.h"
#include "support/hash.h"
#include "support/metrics.h"

namespace mc::lang {

std::uint64_t
unitFingerprint(const support::SourceManager& sm, std::int32_t file_id)
{
    support::Fnv1a h;
    h.str(sm.fileName(file_id));
    Lexer lexer(sm, file_id);
    // Units reaching the cache already parsed once, so lexAll cannot
    // throw here; a LexError would simply propagate to the caller.
    for (const Token& tok : lexer.lexAll()) {
        // The End marker carries no diagnostic position — hashing its
        // location would make a trailing comment invalidate the unit.
        if (tok.kind == TokKind::End)
            break;
        h.u8(static_cast<std::uint8_t>(tok.kind));
        h.str(tok.text);
        h.i64(tok.loc.line);
        h.i64(tok.loc.column);
    }
    for (const std::string& directive : lexer.directives())
        h.str(directive);
    return h.value();
}

std::vector<std::optional<std::uint64_t>>
functionFingerprints(const Program& program)
{
    std::vector<std::optional<std::uint64_t>> out;
    out.reserve(program.functions().size());
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    // Slot order is the order of program.functions().
    for (std::size_t slot = 0; slot < program.units().size(); ++slot) {
        const std::vector<const FunctionDecl*> fns =
            program.units()[slot].functionDefinitions();
        if (fns.empty())
            continue;
        bool computed = false;
        const std::optional<std::uint64_t> unit_fp =
            program.unitFingerprint(slot, &computed);
        if (unit_fp)
            ++(computed ? misses : hits);
        for (const FunctionDecl* fn : fns) {
            std::optional<std::uint64_t>& fn_fp = out.emplace_back();
            if (unit_fp)
                fn_fp = support::Fnv1a().u64(*unit_fp).str(fn->name).value();
        }
    }
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.counter("lang.fingerprint_memo_hits").add(hits);
        metrics.counter("lang.fingerprint_memo_misses").add(misses);
    }
    return out;
}

std::map<std::string, std::uint64_t>
fingerprintFunctions(const Program& program)
{
    const std::vector<std::optional<std::uint64_t>> fps =
        functionFingerprints(program);
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = 0; i < fps.size(); ++i)
        if (fps[i])
            out[program.functions()[i]->name] = *fps[i];
    return out;
}

} // namespace mc::lang
