#include "checkers/buffer_race.h"

#include "checkers/registry.h"
#include "flash/macros.h"
#include "metal/engine.h"

namespace mc::checkers {

BufferRaceChecker::BufferRaceChecker(metal::PruneStrategy prune_strategy)
    : program_(builtinMetalProgram("wait_for_db")),
      prune_strategy_(prune_strategy)
{}

void
BufferRaceChecker::checkFunction(const lang::FunctionDecl& fn,
                                 const cfg::Cfg& cfg, CheckContext& ctx)
{
    (void)fn;
    mc::metal::SmRunOptions options;
    options.prune_strategy = prune_strategy_;
    mc::metal::runStateMachine(*program_.sm, cfg, ctx.sink, options);

    // "Applied" = data-buffer reads encountered (Table 2).
    for (const cfg::BasicBlock& bb : cfg.blocks()) {
        for (const lang::Stmt* stmt : bb.stmts) {
            lang::forEachTopLevelExpr(*stmt, [&](const lang::Expr& top) {
                lang::forEachSubExpr(top, [&](const lang::Expr& e) {
                    flash::MacroKind kind = flash::classifyCall(e);
                    if (kind == flash::MacroKind::ReadDb ||
                        kind == flash::MacroKind::ReadDbDeprecated)
                        ++applied_;
                });
            });
        }
    }
}

} // namespace mc::checkers
