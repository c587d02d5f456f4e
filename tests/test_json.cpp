// The tree's one JSON reader (src/common/json.*):
//  * the strict grammar: finite RFC 8259 numbers only (no '+', no leading
//    zeros, no 1e999), exactly four hex digits after \u, no raw control
//    characters, no trailing commas, nesting bounded at 64;
//  * json_escape output reads back byte for byte;
//  * the checked count conversion (a non-negative integer <= 2^53);
//  * a seeded mutation fuzz over three document kinds — a committed run
//    report, a streamer-written snapshot stream and the committed lint
//    baseline. Truncations, byte flips, 20 K-deep '[', 1e999999 and bad
//    \u escapes must each either parse or fail with a byte offset, and
//    the consumers (parse_report, parse_snapshot_stream, load_baseline)
//    must return cleanly. The asan-ubsan preset runs this as the
//    reader's memory/UB check.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "lint/lint.hpp"
#include "obs/analysis.hpp"
#include "obs/profiler.hpp"
#include "obs/report_diff.hpp"
#include "obs/snapshot.hpp"

namespace mac3d {
namespace {

/// Parse `text`; returns the error ("" on success).
std::string parse_error(std::string_view text) {
  JsonValue value;
  std::string error;
  if (parse_json(text, value, error)) return "";
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(JsonReader, ReadsEveryKind) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(
      R"( {"a": [0, -2.5e3, 1E+2, true, false, null, "x\n\u0041\/"],
           "b": {}} )",
      doc, error))
      << error;
  const JsonValue* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 7u);
  EXPECT_EQ(a->items[0].number, 0.0);
  EXPECT_EQ(a->items[1].number, -2500.0);
  EXPECT_EQ(a->items[2].number, 100.0);
  EXPECT_TRUE(a->items[3].boolean);
  EXPECT_EQ(a->items[4].kind, JsonValue::Kind::kBool);
  EXPECT_FALSE(a->items[4].boolean);
  EXPECT_EQ(a->items[5].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(a->items[6].string, "x\nA/");
  EXPECT_EQ(doc.find("b")->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonReader, RejectsNumbersThatAreNotStrictFiniteJson) {
  for (const char* text : {"+5", "1e999", "-1e999", "1e999999", "01", "-01",
                           "1.", ".5", "1e", "1e+", "-", "--1", "0x10",
                           "nan", "inf", "1.5.2", "- 1"}) {
    const std::string error = parse_error(text);
    EXPECT_NE(error.find("at byte"), std::string::npos) << text;
  }
  for (const char* text : {"0", "-0", "1e-5", "1E+5", "123.456", "-7"}) {
    EXPECT_EQ(parse_error(text), "") << text;
  }
}

TEST(JsonReader, UnicodeEscapesTakeExactlyFourHexDigits) {
  JsonValue value;
  std::string error;
  ASSERT_TRUE(parse_json(R"("\u0041\u007F\u00e9\uD83D")", value, error));
  EXPECT_EQ(value.string, "A\x7f??");  // >= 0x80 folds to '?'
  for (const char* text : {R"("\u12")", R"("\u12G4")", R"("\u-123")",
                           R"("\u+123")", R"("\u 123")", R"("\u")",
                           R"("\x41")"}) {
    EXPECT_NE(parse_error(text).find("at byte"), std::string::npos) << text;
  }
}

TEST(JsonReader, EscaperOutputReadsBackByteForByte) {
  std::string every_byte;
  for (int c = 1; c < 256; ++c) every_byte += static_cast<char>(c);
  every_byte += '\0';
  JsonValue value;
  std::string error;
  ASSERT_TRUE(parse_json(json_quote(every_byte), value, error)) << error;
  EXPECT_EQ(value.string, every_byte);
}

TEST(JsonReader, RejectsStructuralErrors) {
  for (const char* text :
       {"", "   ", "{\"a\":1,}", "[1,]", "{a:1}", "{\"a\" 1}", "[1] x",
        "tru", "\"tab\there\"", "\"open", "{\"a\":1", "[", "]", "{,}",
        "\"\\", "\v1"}) {
    EXPECT_NE(parse_error(text).find("at byte"), std::string::npos)
        << '[' << text << ']';
  }
}

TEST(JsonReader, NestingIsBoundedAt64) {
  EXPECT_EQ(parse_error(std::string(64, '[') + std::string(64, ']')), "");
  EXPECT_NE(parse_error(std::string(65, '[') + std::string(65, ']'))
                .find("nesting too deep"),
            std::string::npos);
  EXPECT_NE(parse_error(std::string(20000, '[')).find("nesting too deep"),
            std::string::npos);
}

TEST(JsonReader, DuplicateKeyReadsItsLastOccurrence) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(R"({"a": 1, "b": "x", "a": 2})", doc, error));
  EXPECT_EQ(doc.find("a")->number, 2.0);
  EXPECT_EQ(doc.string_or("b"), "x");
  EXPECT_EQ(doc.string_or("a", "fallback"), "fallback");
}

TEST(JsonReader, CheckedCountConversion) {
  const auto count = [](const char* text) {
    JsonValue value;
    std::string error;
    EXPECT_TRUE(parse_json(text, value, error)) << text << ": " << error;
    return value.as_u64();
  };
  EXPECT_EQ(count("0"), 0u);
  EXPECT_EQ(count("42"), 42u);
  EXPECT_EQ(count("4.2e1"), 42u);
  EXPECT_EQ(count("9007199254740992"), 9007199254740992u);  // 2^53
  for (const char* text : {"-1", "1.5", "9007199254740994", "1e300",
                           "true", "null", "\"3\"", "[1]"}) {
    EXPECT_FALSE(count(text).has_value()) << text;
  }
}

// ---- Seeded mutation fuzz --------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Two runs through a SnapshotStreamer: delta-encoded counters, a gauge,
/// census rows, a fired watchdog and a label that needs escaping.
std::string snapshot_stream() {
  SnapshotStreamer snapshot(16);
  for (const std::string label : {"mac", "we\"ird\tlabel"}) {
    std::uint64_t injected = 0;
    std::uint64_t completions = 0;
    Cycle arq_work = 0;
    ActivityCensus census;
    census.add_stamp("node0.arq", arq_work);
    StallWatchdog watchdog(2);
    snapshot.begin_run(label);
    snapshot.add_counter(SnapshotStreamer::kInjectedCounter,
                         [&] { return injected; });
    snapshot.add_counter(SnapshotStreamer::kCompletionsCounter,
                         [&] { return completions; });
    snapshot.add_gauge("depth", [&] {
      return static_cast<double>(injected - completions) / 3.0;
    });
    snapshot.attach_census(&census);
    snapshot.attach_watchdog(&watchdog);
    for (Cycle now = 1; now <= 160; ++now) {
      injected += now % 3 == 0 ? 1 : 0;
      if (now < 100 && completions + 2 < injected) ++completions;
      if (now % 2 == 0) arq_work = now;
      census.observe(now);
      snapshot.advance_to(now);
    }
    census.seal();
    snapshot.end_run(160);
  }
  return snapshot.str();
}

/// One mutated copy of `seed`.
std::string mutate(const std::string& seed, Xoshiro256& rng) {
  std::string text = seed;
  const auto at = [&] {
    return static_cast<std::size_t>(rng.below(text.size() + 1));
  };
  switch (rng.below(7)) {
    case 0:  // truncation
      text.resize(at());
      break;
    case 1:  // byte flips
      for (std::uint64_t i = 0, n = 1 + rng.below(4); i < n && !text.empty();
           ++i) {
        const auto pos = static_cast<std::size_t>(rng.below(text.size()));
        text[pos] = static_cast<char>(text[pos] ^ (1 + rng.below(255)));
      }
      break;
    case 2:  // 20 K-deep '['
      text.insert(at(), std::string(20000, '['));
      break;
    case 3: {  // an overflowing number over the next digit
      const std::size_t digit = text.find_first_of("0123456789", at());
      text.insert(digit == std::string::npos ? at() : digit, "1e999999");
      break;
    }
    case 4: {  // a bad \u escape just inside the next string
      static const char* kBad[] = {"\\u12", "\\uZZZZ", "\\u", "\\u-123",
                                   "\\u12\"", "\\ud83d"};
      const std::size_t quote = text.find('"', at());
      text.insert(quote == std::string::npos ? at() : quote + 1,
                  kBad[rng.below(6)]);
      break;
    }
    case 5:  // one arbitrary byte
      text.insert(at(), 1, static_cast<char>(rng.below(256)));
      break;
    default: {  // a deleted span
      const std::size_t pos = at();
      text.erase(pos, static_cast<std::size_t>(rng.below(16)));
      break;
    }
  }
  return text;
}

/// `text` (each line of it, for JSONL) must parse or name a byte offset.
void expect_parse_or_offset(const std::string& text, bool jsonl) {
  std::istringstream in(text);
  std::string doc = text;
  while (!jsonl || std::getline(in, doc)) {
    const std::string error = parse_error(doc);
    EXPECT_TRUE(error.empty() || error.find(" at byte ") != std::string::npos)
        << error;
    if (!jsonl) break;
  }
}

void fuzz(const std::string& seed, std::uint64_t rng_seed, bool jsonl,
          const std::function<void(const std::string&)>& consume) {
  ASSERT_FALSE(seed.empty());
  Xoshiro256 rng(rng_seed);
  for (int i = 0; i < 300; ++i) {
    const std::string text = mutate(seed, rng);
    expect_parse_or_offset(text, jsonl);
    consume(text);  // must return, whatever it decides
  }
}

TEST(JsonFuzz, RunReportMutations) {
  const std::string seed =
      read_file(std::string(MAC3D_SOURCE_DIR) +
                "/bench/baselines/perf_smoke_system.json");
  FlatReport unmutated;
  std::string error;
  ASSERT_TRUE(parse_report(seed, unmutated, error)) << error;
  fuzz(seed, 20261019, false, [](const std::string& text) {
    FlatReport flat;
    std::string why;
    if (!parse_report(text, flat, why)) {
      EXPECT_FALSE(why.empty());
    }
  });
}

TEST(JsonFuzz, SnapshotStreamMutations) {
  const std::string seed = snapshot_stream();
  SnapshotStream unmutated;
  std::string error;
  ASSERT_TRUE(parse_snapshot_stream(seed, unmutated, error)) << error;
  ASSERT_EQ(unmutated.runs.size(), 2u);
  EXPECT_EQ(unmutated.runs[1].label, "we\"ird\tlabel");
  EXPECT_TRUE(unmutated.runs[0].watchdog_fired);
  fuzz(seed, 7, true, [](const std::string& text) {
    SnapshotStream stream;
    std::string why;
    if (parse_snapshot_stream(text, stream, why)) {
      analysis_json(analyze_stream(FlatReport{}, stream, AnalysisOptions{}),
                    AnalysisOptions{});
    } else {
      EXPECT_NE(why.find("snapshot"), std::string::npos) << why;
    }
  });
}

TEST(JsonFuzz, LintBaselineMutations) {
  const std::string seed =
      read_file(std::string(MAC3D_SOURCE_DIR) + "/tools/lint_baseline.json");
  const std::string path = ::testing::TempDir() + "json_fuzz_baseline.json";
  fuzz(seed, 99, false, [&path](const std::string& text) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    lint::Baseline baseline;
    std::string why;
    if (!lint::load_baseline(path, baseline, why)) {
      EXPECT_NE(why.find(path), std::string::npos) << why;
    }
  });
}

}  // namespace
}  // namespace mac3d
