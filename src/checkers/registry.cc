#include "checkers/registry.h"

#include "checkers/buffer_alloc.h"
#include "checkers/buffer_mgmt.h"
#include "checkers/buffer_race.h"
#include "checkers/directory.h"
#include "checkers/exec_restrict.h"
#include "checkers/lanes.h"
#include "checkers/metal_sources.h"
#include "checkers/msg_length.h"
#include "checkers/no_float.h"
#include "checkers/send_wait.h"
#include "metal/metal_parser.h"
#include "support/metrics.h"

#include <iterator>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace mc::checkers {

namespace {

/** The one checker name -> embedded metal source table. */
const std::pair<const char*, const char* const*> kBuiltinMetal[] = {
    {"wait_for_db", &kWaitForDbMetal},
    {"msglen_check", &kMsgLenCheckMetal},
};
constexpr std::size_t kBuiltinMetalRows = std::size(kBuiltinMetal);

/** The row of `checker_name`, or kBuiltinMetalRows when it has none. */
std::size_t
builtinMetalRow(const std::string& checker_name)
{
    std::size_t row = 0;
    while (row < kBuiltinMetalRows &&
           checker_name != kBuiltinMetal[row].first)
        ++row;
    return row;
}

} // namespace

const char*
builtinMetalSource(const std::string& checker_name)
{
    const std::size_t row = builtinMetalRow(checker_name);
    return row < kBuiltinMetalRows ? *kBuiltinMetal[row].second : "";
}

const metal::MetalProgram&
builtinMetalProgram(const std::string& checker_name)
{
    static std::once_flag parsed[kBuiltinMetalRows];
    static metal::MetalProgram programs[kBuiltinMetalRows];
    const std::size_t row = builtinMetalRow(checker_name);
    if (row == kBuiltinMetalRows)
        throw std::invalid_argument("checker '" + checker_name +
                                    "' has no built-in metal program");
    std::call_once(parsed[row], [&] {
        programs[row] = metal::parseMetal(*kBuiltinMetal[row].second,
                                          checker_name + ".metal");
    });
    return programs[row];
}

Checker*
CheckerSet::byName(const std::string& name) const
{
    for (const auto& c : owned)
        if (c->name() == name)
            return c.get();
    return nullptr;
}

std::unique_ptr<Checker>
makeChecker(const std::string& name, const CheckerSetOptions& options)
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (metrics.enabled())
        metrics.counter("checker.instances_built").add();
    if (name == "buffer_mgmt") {
        BufferMgmtChecker::Options bm;
        bm.value_sensitive_frees = options.value_sensitive_frees;
        bm.prune_strategy = options.prune_strategy;
        return std::make_unique<BufferMgmtChecker>(bm);
    }
    if (name == "msglen_check")
        return std::make_unique<MsgLengthChecker>(options.prune_strategy);
    if (name == "lanes")
        return std::make_unique<LanesChecker>();
    if (name == "wait_for_db")
        return std::make_unique<BufferRaceChecker>(options.prune_strategy);
    if (name == "alloc_check")
        return std::make_unique<BufferAllocChecker>(
            options.prune_strategy);
    if (name == "dir_check")
        return std::make_unique<DirectoryChecker>(options.prune_strategy);
    if (name == "send_wait")
        return std::make_unique<SendWaitChecker>(options.prune_strategy);
    if (name == "exec_restrict")
        return std::make_unique<ExecRestrictChecker>();
    if (name == "no_float")
        return std::make_unique<NoFloatChecker>();
    return nullptr;
}

const std::vector<std::string>&
allCheckerNames()
{
    static const std::vector<std::string> names = {
        "buffer_mgmt", "msglen_check", "lanes",
        "wait_for_db", "alloc_check",  "dir_check",
        "send_wait",   "exec_restrict", "no_float",
    };
    return names;
}

CheckerSet
makeAllCheckers(const CheckerSetOptions& options)
{
    CheckerSet set;
    for (const std::string& name : allCheckerNames())
        set.owned.push_back(makeChecker(name, options));
    return set;
}

const std::vector<CheckerMeta>&
table7Meta()
{
    static const std::vector<CheckerMeta> meta = {
        {"buffer_mgmt", "Buffer management", 94, 9, 25},
        {"msglen_check", "Message length", 29, 18, 2},
        {"lanes", "Lanes", 220, 2, 0},
        {"wait_for_db", "Buffer race", 12, 4, 1},
        {"alloc_check", "Buffer allocation", 16, 0, 2},
        {"dir_check", "Directory management", 51, 1, 31},
        {"send_wait", "Send-wait", 40, 0, 8},
        {"exec_restrict", "Execution-restriction", 84, 0, 0},
        {"no_float", "No-float", 7, 0, 0},
    };
    return meta;
}

} // namespace mc::checkers
