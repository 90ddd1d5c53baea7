/**
 * @file
 * The check_units wire format: a worker entry encoded by
 * encodeUnitEntry decodes back to the same outcome, and the coordinator
 * rejects malformed responses — an unknown budget_stop spelling, an
 * entry without its `data` payload, units out of batch order — instead
 * of merging them.
 */
#include "server/check_units.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace mc::server {
namespace {

/** A two-unit worker response for batch {3, 5}. */
JsonValue
response()
{
    cache::CachedUnit payload;
    payload.checker = "no_float";
    payload.function = "PILocalGet";
    payload.state = "applied 1\n";
    checkers::UnitResult truncated;
    truncated.budget_stop = support::BudgetStop::Steps;
    truncated.stats.visits = 12;
    checkers::UnitResult failed;
    failed.failed = true;
    failed.error = "boom";

    JsonValue units = JsonValue::array();
    units.push(encodeUnitEntry(3, truncated, payload));
    units.push(encodeUnitEntry(5, failed, payload));
    JsonValue result = JsonValue::object();
    result.set("units", std::move(units));
    JsonValue line = JsonValue::object();
    line.set("id", JsonValue::number(std::uint64_t{1}));
    line.set("result", std::move(result));
    return line;
}

/** The response with one field of entry `i` replaced (or removed). */
std::string
tampered(std::size_t i, const std::string& key, const JsonValue* value)
{
    JsonValue line = response();
    JsonValue units = JsonValue::array();
    const JsonValue& entries = *line.get("result")->get("units");
    for (std::size_t k = 0; k < entries.items().size(); ++k) {
        JsonValue entry = JsonValue::object();
        for (const auto& [name, field] : entries.items()[k].members())
            if (k != i || name != key)
                entry.set(name, field);
        if (k == i && value)
            entry.set(key, *value);
        units.push(std::move(entry));
    }
    JsonValue result = JsonValue::object();
    result.set("units", std::move(units));
    line.set("result", std::move(result));
    return line.dump();
}

const std::vector<std::uint64_t> kBatch = {3, 5};

TEST(ShardWire, EntryRoundTrips)
{
    std::vector<WireUnit> units =
        decodeCheckUnitsResponse(kBatch, response().dump());
    ASSERT_EQ(units.size(), 2u);
    EXPECT_EQ(units[0].unit, 3u);
    EXPECT_EQ(units[0].result.budget_stop, support::BudgetStop::Steps);
    EXPECT_EQ(units[0].result.stats.visits, 12u);
    EXPECT_FALSE(units[0].result.failed);
    EXPECT_EQ(units[0].payload.function, "PILocalGet");
    EXPECT_EQ(units[0].payload.state, "applied 1\n");
    EXPECT_EQ(units[1].unit, 5u);
    EXPECT_TRUE(units[1].result.failed);
    EXPECT_EQ(units[1].result.error, "boom");
}

TEST(ShardWire, RejectsUnknownBudgetStop)
{
    const JsonValue bogus = JsonValue::string("forever");
    try {
        decodeCheckUnitsResponse(kBatch, tampered(1, "budget_stop", &bogus));
        FAIL() << "a bogus budget_stop decoded";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("'forever'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardWire, RejectsMissingData)
{
    EXPECT_THROW(
        decodeCheckUnitsResponse(kBatch, tampered(0, "data", nullptr)),
        std::runtime_error);
}

TEST(ShardWire, RejectsOutOfOrderUnits)
{
    const JsonValue swapped = JsonValue::number(std::uint64_t{5});
    try {
        decodeCheckUnitsResponse(kBatch, tampered(0, "unit", &swapped));
        FAIL() << "an out-of-order unit id decoded";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("out of order"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace mc::server
