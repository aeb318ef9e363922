/**
 * @file
 * Tests for the trace subsystem and its integration with the
 * simulator: record filtering, ring capacity, and the exact event
 * sequence of an uncontended processor cycle.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "desim/trace.hh"
#include "util/flatjson.hh"

namespace sbn {
namespace {

TEST(TraceSink, RecordsInOrder)
{
    TraceSink sink;
    sink.record(1, "a", "first");
    sink.record(2, "b", "second");
    ASSERT_EQ(sink.records().size(), 2u);
    EXPECT_EQ(sink.records()[0].tick, 1u);
    EXPECT_EQ(sink.records()[0].message, "first");
    EXPECT_EQ(sink.records()[1].category, "b");
    EXPECT_EQ(sink.emitted(), 2u);
}

TEST(TraceSink, CategoryFilter)
{
    TraceSink sink;
    sink.enableOnly({"bus"});
    EXPECT_TRUE(sink.wants("bus"));
    EXPECT_FALSE(sink.wants("mem"));
    sink.record(0, "mem", "dropped");
    sink.record(0, "bus", "kept");
    ASSERT_EQ(sink.records().size(), 1u);
    EXPECT_EQ(sink.records()[0].message, "kept");

    sink.enableAll();
    sink.record(1, "mem", "now kept");
    EXPECT_EQ(sink.records().size(), 2u);
}

TEST(TraceSink, RingCapacity)
{
    TraceSink sink(nullptr, 3);
    for (int i = 0; i < 10; ++i)
        sink.record(static_cast<Tick>(i), "c", std::to_string(i));
    ASSERT_EQ(sink.records().size(), 3u);
    EXPECT_EQ(sink.records().front().message, "7");
    EXPECT_EQ(sink.records().back().message, "9");
    EXPECT_EQ(sink.emitted(), 10u);
}

TEST(TraceSink, StreamsToOstream)
{
    std::ostringstream os;
    TraceSink sink(&os);
    sink.record(42, "bus", "grant request proc 0 -> module 3");
    EXPECT_EQ(os.str(), "42: [bus] grant request proc 0 -> module 3\n");
}

TEST(TraceSink, JsonlStreamFormat)
{
    std::ostringstream os;
    TraceSink sink(&os, 65536, TraceFormat::Jsonl);
    sink.record(42, "bus", "grant request proc 0 -> module 3");
    EXPECT_EQ(os.str(),
              "{\"tick\":42,\"category\":\"bus\",\"message\":\"grant "
              "request proc 0 -> module 3\"}\n");
}

TEST(TraceSink, JsonlEscapesAndRoundTrips)
{
    // Hostile message bytes must come back intact through the strict
    // flat-JSON parser the rest of the codebase uses.
    std::ostringstream os;
    TraceSink sink(&os, 65536, TraceFormat::Jsonl);
    const std::string nasty = "quote \" slash \\ tab \t newline \n";
    sink.record(7, "mem", nasty);

    std::string line = os.str();
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.back(), '\n');
    line.pop_back();
    // The line itself must be exactly one line (escapes worked).
    EXPECT_EQ(line.find('\n'), std::string::npos);

    FlatObject fields;
    std::string error;
    ASSERT_TRUE(parseFlatObject(line, fields, error)) << error;
    EXPECT_EQ(std::stod(fields.at("tick").text), 7.0);
    EXPECT_EQ(fields.at("category").text, "mem");
    EXPECT_EQ(fields.at("message").text, nasty);
}

TEST(TraceSink, JsonlStreamingKeepsRingSemantics)
{
    // The stream sees every emitted record; the ring still only
    // retains the newest `capacity`.
    std::ostringstream os;
    TraceSink sink(&os, 2, TraceFormat::Jsonl);
    for (int i = 0; i < 5; ++i)
        sink.record(static_cast<Tick>(i), "c", std::to_string(i));
    EXPECT_EQ(sink.emitted(), 5u);
    ASSERT_EQ(sink.records().size(), 2u);
    EXPECT_EQ(sink.records().front().message, "3");
    EXPECT_EQ(sink.records().back().message, "4");

    std::istringstream in(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        FlatObject fields;
        std::string error;
        ASSERT_TRUE(parseFlatObject(line, fields, error)) << error;
        ++lines;
    }
    EXPECT_EQ(lines, 5u);
}

TEST(TraceSink, EvictionAtExactCapacityBoundary)
{
    TraceSink sink(nullptr, 3);
    sink.record(0, "c", "0");
    sink.record(1, "c", "1");
    sink.record(2, "c", "2");
    // Exactly at capacity: nothing evicted yet.
    ASSERT_EQ(sink.records().size(), 3u);
    EXPECT_EQ(sink.records().front().message, "0");
    // One past capacity evicts exactly the oldest.
    sink.record(3, "c", "3");
    ASSERT_EQ(sink.records().size(), 3u);
    EXPECT_EQ(sink.records().front().message, "1");
    EXPECT_EQ(sink.records().back().message, "3");
}

TEST(TraceSink, ZeroCapacityRetainsNothingButCountsAndStreams)
{
    std::ostringstream os;
    TraceSink sink(&os, 0);
    sink.record(0, "c", "gone");
    EXPECT_TRUE(sink.records().empty());
    EXPECT_EQ(sink.emitted(), 1u);
    EXPECT_EQ(os.str(), "0: [c] gone\n");
}

TEST(TraceSink, CategoryToggleEdgeCases)
{
    TraceSink sink;
    // enableOnly({}) is "nothing", not "everything".
    sink.enableOnly({});
    EXPECT_FALSE(sink.wants("bus"));
    sink.record(0, "bus", "dropped");
    EXPECT_EQ(sink.emitted(), 0u);

    // Narrow -> renarrow replaces the set, it does not union.
    sink.enableOnly({"bus"});
    sink.enableOnly({"mem"});
    EXPECT_FALSE(sink.wants("bus"));
    EXPECT_TRUE(sink.wants("mem"));

    // enableAll clears the filter AND the remembered set: a later
    // enableOnly starts from scratch.
    sink.enableAll();
    EXPECT_TRUE(sink.wants("bus"));
    sink.enableOnly({"proc"});
    EXPECT_FALSE(sink.wants("mem"));
    EXPECT_TRUE(sink.wants("proc"));

    // Toggling does not disturb already-retained records.
    sink.record(1, "proc", "kept");
    sink.enableOnly({"bus"});
    ASSERT_EQ(sink.records().size(), 1u);
    EXPECT_EQ(sink.records()[0].message, "kept");
}

TEST(TraceSink, WildcardPrefixFilter)
{
    TraceSink sink;
    // A trailing '*' enables every category with that prefix,
    // including the bare stem itself.
    sink.enableOnly({"bus*"});
    EXPECT_TRUE(sink.wants("bus"));
    EXPECT_TRUE(sink.wants("bus.arb"));
    EXPECT_TRUE(sink.wants("busload"));
    EXPECT_FALSE(sink.wants("mem"));
    EXPECT_FALSE(sink.wants("bu"));

    sink.record(0, "bus.arb", "grant");
    sink.record(1, "mem", "dropped");
    ASSERT_EQ(sink.records().size(), 1u);
    EXPECT_EQ(sink.records()[0].category, "bus.arb");

    // Exact patterns and wildcards mix; the exact one does not
    // become a prefix.
    sink.enableOnly({"mem", "proc*"});
    EXPECT_TRUE(sink.wants("mem"));
    EXPECT_FALSE(sink.wants("mem.ctl"));
    EXPECT_TRUE(sink.wants("proc"));
    EXPECT_TRUE(sink.wants("proc3"));

    // '*' anywhere but the end is not special.
    sink.enableOnly({"b*s"});
    EXPECT_FALSE(sink.wants("bus"));
    EXPECT_TRUE(sink.wants("b*s"));
}

TEST(TraceSink, WildcardStarAloneAndReset)
{
    TraceSink sink;
    // A bare "*" matches everything (empty prefix) while keeping
    // the filter active - distinct from enableAll only in intent.
    sink.enableOnly({"*"});
    EXPECT_TRUE(sink.wants("bus"));
    EXPECT_TRUE(sink.wants("anything"));

    // Re-narrowing replaces wildcards too, and enableAll clears
    // remembered prefixes so a later enableOnly starts from scratch.
    sink.enableOnly({"mem"});
    EXPECT_FALSE(sink.wants("bus.arb"));
    sink.enableOnly({"bus*"});
    sink.enableAll();
    sink.enableOnly({"mem"});
    EXPECT_FALSE(sink.wants("bus.arb"));
    EXPECT_TRUE(sink.wants("mem"));
}

TEST(TraceIntegration, UncontendedCycleSequence)
{
    // n = 1, m = 1, r = 3: the first processor cycle is fully
    // deterministic: issue@0, grant@0, access 1..4, response grant@4,
    // delivery@5, next issue@5.
    TraceSink sink;
    SystemConfig cfg;
    cfg.numProcessors = 1;
    cfg.numModules = 1;
    cfg.memoryRatio = 3;
    cfg.warmupCycles = 0;
    cfg.measureCycles = 20;
    cfg.trace = &sink;
    (void)runOnce(cfg);

    const auto &recs = sink.records();
    ASSERT_GE(recs.size(), 7u);
    EXPECT_EQ(recs[0].tick, 0u);
    EXPECT_EQ(recs[0].message, "proc 0 issues to module 0");
    EXPECT_EQ(recs[1].tick, 0u);
    EXPECT_EQ(recs[1].message, "grant request proc 0 -> module 0");
    EXPECT_EQ(recs[2].tick, 1u);
    EXPECT_EQ(recs[2].message, "module 0 starts access for proc 0");
    EXPECT_EQ(recs[3].tick, 4u);
    EXPECT_EQ(recs[3].message, "module 0 completes access for proc 0");
    EXPECT_EQ(recs[4].tick, 4u);
    EXPECT_EQ(recs[4].message, "grant response module 0 -> proc 0");
    EXPECT_EQ(recs[5].tick, 5u);
    EXPECT_EQ(recs[5].message, "proc 0 receives response from module 0");
    EXPECT_EQ(recs[6].tick, 5u);
    EXPECT_EQ(recs[6].message, "proc 0 issues to module 0");
}

TEST(TraceIntegration, BusOnlyFilter)
{
    TraceSink sink;
    sink.enableOnly({"bus"});
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.numModules = 2;
    cfg.memoryRatio = 2;
    cfg.warmupCycles = 0;
    cfg.measureCycles = 100;
    cfg.trace = &sink;
    const Metrics m = runOnce(cfg);

    for (const auto &rec : sink.records())
        EXPECT_EQ(rec.category, "bus");
    // Every bus-busy cycle produced exactly one grant record.
    EXPECT_EQ(sink.emitted(), m.busBusyCycles);
}

TEST(TraceIntegration, TracingDoesNotPerturbResults)
{
    SystemConfig cfg;
    cfg.numProcessors = 4;
    cfg.numModules = 4;
    cfg.memoryRatio = 4;
    cfg.warmupCycles = 100;
    cfg.measureCycles = 5000;
    const Metrics plain = runOnce(cfg);

    TraceSink sink;
    cfg.trace = &sink;
    const Metrics traced = runOnce(cfg);
    EXPECT_EQ(plain.completedRequests, traced.completedRequests);
    EXPECT_EQ(plain.busBusyCycles, traced.busBusyCycles);
    EXPECT_GT(sink.emitted(), 0u);
}

} // namespace
} // namespace sbn
