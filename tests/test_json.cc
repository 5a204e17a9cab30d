/**
 * @file
 * Tests for the JSON writer and flat reader (src/report/json.hh): the
 * layouts and escapes the benches and tools publish, the committed
 * artifacts read back, and malformed input reported as an error.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "report/json.hh"

namespace pimdsm
{
namespace
{

JsonDoc
parseCommitted(const std::string &relPath)
{
    const auto text = readFile(std::string(PIMDSM_SOURCE_DIR) + "/" + relPath);
    EXPECT_TRUE(text.has_value()) << relPath;
    JsonDoc doc = parseJson(text.value_or(""));
    EXPECT_TRUE(doc.ok()) << relPath << ": " << doc.error;
    return doc;
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters)
{
    EXPECT_EQ(JsonWriter::escape("plain"), "plain");
    EXPECT_EQ(JsonWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(JsonWriter::escape("x\ny\tz"), "x\\ny\\tz");
    EXPECT_EQ(JsonWriter::escape(std::string("\x01\x1f\r", 3)),
              "\\u0001\\u001f\\u000d");
}

TEST(JsonWriter, BlockAndInlineNesting)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject()
        .field("ok", true)
        .field("name", "a\"b")
        .key("archs")
        .beginObject()
        .key("agg")
        .beginObject(JsonLayout::Inline)
        .field("states", std::uint64_t{12})
        .field("truncated", false)
        .end()
        .key("numa")
        .beginObject()
        .key("violations")
        .beginArray()
        .end()
        .key("rows")
        .beginArray()
        .beginObject(JsonLayout::Inline)
        .key("stuck")
        .beginArray(JsonLayout::Inline)
        .end()
        .end()
        .end()
        .end()
        .end()
        .end();
    EXPECT_EQ(os.str(), "{\n"
                        "  \"ok\": true,\n"
                        "  \"name\": \"a\\\"b\",\n"
                        "  \"archs\": {\n"
                        "    \"agg\": {\"states\": 12, \"truncated\": false},\n"
                        "    \"numa\": {\n"
                        "      \"violations\": [],\n"
                        "      \"rows\": [\n"
                        "        {\"stuck\": []}\n"
                        "      ]\n"
                        "    }\n"
                        "  }\n"
                        "}\n");
}

TEST(JsonWriter, TopLevelBlockArrayOfInlineObjects)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray();
    for (int i = 0; i < 2; ++i) {
        w.beginObject(JsonLayout::Inline).field("i", i).key("xs");
        w.beginArray(JsonLayout::Inline).value(1).value("two").end();
        w.end();
    }
    w.end();
    EXPECT_EQ(os.str(), "[\n"
                        "  {\"i\": 0, \"xs\": [1, \"two\"]},\n"
                        "  {\"i\": 1, \"xs\": [1, \"two\"]}\n"
                        "]\n");
}

TEST(JsonWriter, DoublesPrintAsOstreamDoes)
{
    for (double d : {0.0, 1.0, 1.30629, 3.301334, 2.19003e+07, 1e-05,
                     0.1 + 0.2, 123456789.0, -3.5, 8.92467e+06}) {
        std::ostringstream want;
        want << "[" << d << "]\n";
        std::ostringstream got;
        JsonWriter(got).beginArray(JsonLayout::Inline).value(d).end();
        EXPECT_EQ(got.str(), want.str());
    }
}

TEST(JsonReader, RoundTripsTheWriter)
{
    std::ostringstream os;
    JsonWriter w(os);
    const std::string tricky = std::string("q\"b\\n\nt\t\x02", 9);
    w.beginObject()
        .field("s", tricky)
        .field("d", 2.5)
        .field("neg", -7)
        .field("big", std::uint64_t{18446744073709551615ull})
        .key("a")
        .beginArray(JsonLayout::Inline)
        .value(true)
        .beginObject(JsonLayout::Inline)
        .field("k", "v")
        .end()
        .end()
        .end();
    const JsonDoc doc = parseJson(os.str());
    ASSERT_TRUE(doc.ok()) << doc.error;
    EXPECT_EQ(doc.string("s"), tricky);
    EXPECT_EQ(doc.number<double>("d"), 2.5);
    EXPECT_EQ(doc.number<int>("neg"), -7);
    EXPECT_EQ(doc.number<std::uint64_t>("big"), 18446744073709551615ull);
    EXPECT_EQ(doc.boolean("a.0"), true);
    EXPECT_EQ(doc.string("a.1.k"), "v");
    EXPECT_EQ(doc.values.size(), 6u);
}

TEST(JsonReader, TakesOnlyTheWritersEscapes)
{
    const JsonDoc doc = parseJson(R"({"u": "\u0041\u001f\"\\"})");
    ASSERT_TRUE(doc.ok()) << doc.error;
    EXPECT_EQ(doc.string("u"), "A\x1f\"\\");
    for (const char *other : {R"(["\u00e9"])", R"(["\/"])", R"(["\r"])"})
        EXPECT_FALSE(parseJson(other).ok()) << other;
}

TEST(JsonReader, TypedLookupsMissOnTheWrongKind)
{
    const JsonDoc doc = parseJson(R"({"n": 1, "s": "1", "b": false})");
    ASSERT_TRUE(doc.ok());
    EXPECT_FALSE(doc.string("n"));
    EXPECT_FALSE(doc.number<int>("s"));
    EXPECT_FALSE(doc.number<int>("b"));
    EXPECT_EQ(doc.boolean("b"), false);
    EXPECT_FALSE(doc.boolean("missing"));
    // A fraction is a number, but not an integer.
    EXPECT_FALSE(parseJson(R"({"f": 1.5})").number<int>("f"));
}

TEST(JsonReader, ReadsTheCommittedArtifacts)
{
    const JsonDoc spec =
        parseCommitted("tests/model_check/speccheck_baseline.json");
    EXPECT_EQ(spec.number<int>("nodes"), 3);
    EXPECT_EQ(spec.number<std::uint64_t>("archs.numa.states"), 560087u);
    EXPECT_EQ(spec.number<std::uint64_t>("archs.agg.states"), 1089335u);
    EXPECT_EQ(spec.boolean("archs.coma.truncated"), false);

    const JsonDoc quick = parseCommitted("BENCH_selfperf_quick.json");
    EXPECT_EQ(quick.boolean("quick"), true);
    EXPECT_EQ(quick.string("rows.2.workload"), "fig6");
    EXPECT_GT(quick.number<double>("rows.1.events_per_sec").value_or(0),
              0.0);

    const JsonDoc full = parseCommitted("BENCH_selfperf.json");
    EXPECT_EQ(full.boolean("quick"), false);
    EXPECT_EQ(full.string("bench"), "selfperf");
    EXPECT_EQ(full.string("rows.0.workload"), "stress");

    const JsonDoc faults = parseCommitted("BENCH_faults.json");
    EXPECT_EQ(faults.string("0.app"), "fft");
    EXPECT_EQ(faults.string("0.scenario"), "clean");
    EXPECT_EQ(faults.number<std::uint64_t>("0.total_ticks"), 2157822u);
    EXPECT_EQ(faults.number<double>("1.slowdown"), 1.30629);
    EXPECT_EQ(faults.string("49.scenario"), "wedge");
    EXPECT_EQ(faults.boolean("49.completed"), false);
    EXPECT_EQ(faults.string("49.stuck.0.state"), "abandoned");
    EXPECT_EQ(faults.number<int>("49.stuck.0.acks_expected"), -1);
    EXPECT_FALSE(faults.string("50.app"));
}

TEST(JsonReader, MalformedInputIsAnErrorNotAThrow)
{
    for (const char *bad : {
             "",
             "{\"a\": [1, 2",          // truncated
             "{\"a\": 1} x",           // trailing garbage
             "{\"a\": 1.2.3}",         // bad number
             "{\"a\": -}",             // bad number
             "{\"a\": 01}",            // leading zero
             "{\"a\": .5}",            // no integer part
             "{\"a\": \"abc",          // unterminated string
             "{\"a\": \"a\\qb\"}",     // unknown escape
             "{\"a\": \"\\u12\"}",     // short \u escape
             "{\"a\": null}",          // null is not supported
             "{\"a\" 1}",              // missing colon
             "{\"a\": 1,}",            // trailing comma
             "{\"a\": 1, \"a\": 2}",   // duplicate key
             "[1 2]",                  // missing comma
             "{a: 1}",                 // unquoted key
         }) {
        const JsonDoc doc = parseJson(bad);
        EXPECT_FALSE(doc.ok()) << "accepted: " << bad;
        EXPECT_TRUE(doc.values.empty()) << bad;
    }
    // A control character inside a string must be escaped.
    EXPECT_FALSE(parseJson(std::string("[\"a\nb\"]")).ok());
    // Deep nesting is rejected, not recursed into until the stack ends.
    EXPECT_FALSE(parseJson(std::string(100000, '[')).ok());
}

TEST(JsonNumber, StrictWholeTokenParse)
{
    EXPECT_EQ(parseNumber<int>("12"), 12);
    EXPECT_EQ(parseNumber<int>("-3"), -3);
    EXPECT_EQ(parseNumber<double>("0.25"), 0.25);
    EXPECT_EQ(parseNumber<double>("9e12"), 9e12);
    EXPECT_EQ(parseNumber<double>("1e-05"), 1e-05);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615"),
              18446744073709551615ull);
    for (const char *bad :
         {"", "x", "1x", "x1", " 1", "1 ", "+1", "1.5", "1e3", "-1"})
        EXPECT_FALSE(parseNumber<std::uint64_t>(bad)) << bad;
    for (const char *bad : {"", ".5", "5.", "inf", "nan", "0x10", "1e",
                            "--1", "1e999"})
        EXPECT_FALSE(parseNumber<double>(bad)) << bad;
    EXPECT_FALSE(parseNumber<int>("99999999999"));
}

TEST(JsonFiles, WriteThenReadBack)
{
    const std::string path = testing::TempDir() + "/json_files_test.json";
    ASSERT_TRUE(writeFile(path, "{\"k\": 1}\n"));
    EXPECT_EQ(readFile(path), "{\"k\": 1}\n");
    EXPECT_FALSE(readFile(path + ".missing"));
    EXPECT_FALSE(writeFile(testing::TempDir() + "/no/such/dir/x.json", ""));
}

} // namespace
} // namespace pimdsm
