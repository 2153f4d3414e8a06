#include "data/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace crh {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/crh_csv_" + name;
  }

  Dataset MakeSample() {
    Schema schema;
    EXPECT_TRUE(schema.AddContinuous("temp").ok());
    EXPECT_TRUE(schema.AddCategorical("cond").ok());
    Dataset data(schema, {"nyc_d1", "nyc_d2"}, {"siteA", "siteB"});
    data.SetObservation(0, 0, 0, Value::Continuous(71.5));
    data.SetObservation(0, 0, 1, data.InternCategorical(1, "sunny"));
    data.SetObservation(1, 0, 0, Value::Continuous(69));
    data.SetObservation(1, 1, 1, data.InternCategorical(1, "rain"));
    ValueTable truth(2, 2);
    truth.Set(0, 0, Value::Continuous(70));
    truth.Set(0, 1, data.InternCategorical(1, "sunny"));
    data.set_ground_truth(std::move(truth));
    return data;
  }
};

TEST_F(CsvTest, WriterRejectsQuarantinedClaims) {
  // A quarantined claim carries the invalid-category sentinel, which names
  // no dictionary label. The writer must reject it with a typed error —
  // the chunk_codec fuzzer originally caught an out-of-bounds dictionary
  // read on exactly this input.
  Dataset data = MakeSample();
  data.SetObservation(1, 1, 1, Value::Categorical(kInvalidCategory));
  std::ostringstream out;
  const Status status = WriteObservationsCsv(data, out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, RoundTripObservations) {
  Dataset data = MakeSample();
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteObservationsCsv(data, path).ok());

  auto loaded = ReadObservationsCsv(data.schema(), path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_objects(), 2u);
  EXPECT_EQ(loaded->num_sources(), 2u);
  EXPECT_EQ(loaded->num_observations(), data.num_observations());

  // Object/source order follows first appearance in the file; look up by id.
  int o1 = -1, o2 = -1;
  for (size_t i = 0; i < loaded->num_objects(); ++i) {
    if (loaded->object_id(i) == "nyc_d1") o1 = static_cast<int>(i);
    if (loaded->object_id(i) == "nyc_d2") o2 = static_cast<int>(i);
  }
  ASSERT_GE(o1, 0);
  ASSERT_GE(o2, 0);
  int sa = loaded->source_id(0) == "siteA" ? 0 : 1;
  EXPECT_DOUBLE_EQ(loaded->observations(static_cast<size_t>(sa))
                       .Get(static_cast<size_t>(o1), 0)
                       .continuous(),
                   71.5);
  const Value cond = loaded->observations(static_cast<size_t>(1 - sa))
                         .Get(static_cast<size_t>(o2), 1);
  ASSERT_TRUE(cond.is_categorical());
  EXPECT_EQ(loaded->dict(1).label(cond.category()), "rain");
  std::remove(path.c_str());
}

TEST_F(CsvTest, RoundTripGroundTruth) {
  Dataset data = MakeSample();
  const std::string obs_path = TempPath("obs.csv");
  const std::string truth_path = TempPath("truth.csv");
  ASSERT_TRUE(WriteObservationsCsv(data, obs_path).ok());
  ASSERT_TRUE(WriteGroundTruthCsv(data, truth_path).ok());

  auto loaded = ReadObservationsCsv(data.schema(), obs_path);
  ASSERT_TRUE(loaded.ok());
  Dataset dataset = std::move(loaded).ValueOrDie();
  ASSERT_TRUE(ReadGroundTruthCsv(truth_path, &dataset).ok());
  ASSERT_TRUE(dataset.has_ground_truth());
  EXPECT_EQ(dataset.num_ground_truths(), 2u);
  std::remove(obs_path.c_str());
  std::remove(truth_path.c_str());
}

TEST_F(CsvTest, WriteGroundTruthRequiresGroundTruth) {
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  Dataset data(schema, {"o"}, {"s"});
  EXPECT_EQ(WriteGroundTruthCsv(data, TempPath("none.csv")).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CsvTest, ReadRejectsMissingFile) {
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  EXPECT_EQ(ReadObservationsCsv(schema, "/nonexistent/nope.csv").status().code(),
            StatusCode::kIOError);
}

TEST_F(CsvTest, ReadRejectsUnknownProperty) {
  const std::string path = TempPath("unknown_prop.csv");
  std::ofstream(path) << "object_id,property,source_id,value\no,bogus,s,1\n";
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  auto r = ReadObservationsCsv(schema, path);
  // Content errors are kInvalidArgument; kIOError is filesystem-only.
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(CsvTest, ReadRejectsMalformedRow) {
  const std::string path = TempPath("malformed.csv");
  std::ofstream(path) << "object_id,property,source_id,value\no,x,s\n";
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  EXPECT_FALSE(ReadObservationsCsv(schema, path).ok());
  std::remove(path.c_str());
}

TEST_F(CsvTest, ReadRejectsUnparsableContinuousValue) {
  const std::string path = TempPath("badvalue.csv");
  std::ofstream(path) << "object_id,property,source_id,value\no,x,s,notanumber\n";
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  EXPECT_FALSE(ReadObservationsCsv(schema, path).ok());
  std::remove(path.c_str());
}

TEST_F(CsvTest, GroundTruthRejectsUnknownObject) {
  const std::string path = TempPath("badobj.csv");
  std::ofstream(path) << "object_id,property,value\nghost,x,1\n";
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  Dataset data(schema, {"o"}, {"s"});
  EXPECT_FALSE(ReadGroundTruthCsv(path, &data).ok());
  std::remove(path.c_str());
}

TEST_F(CsvTest, StreamOverloadsRoundTrip) {
  Dataset data = MakeSample();
  std::stringstream obs, truth;
  ASSERT_TRUE(WriteObservationsCsv(data, obs).ok());
  ASSERT_TRUE(WriteGroundTruthCsv(data, truth).ok());
  auto loaded = ReadObservationsCsv(data.schema(), obs);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_observations(), data.num_observations());
  Dataset dataset = std::move(loaded).ValueOrDie();
  ASSERT_TRUE(ReadGroundTruthCsv(truth, &dataset).ok());
  EXPECT_EQ(dataset.num_ground_truths(), 2u);
}

TEST_F(CsvTest, QuotedFieldsRoundTrip) {
  Schema schema;
  ASSERT_TRUE(schema.AddCategorical("cond").ok());
  // Ids and labels exercising every RFC 4180 special: commas, embedded
  // quotes, and a quote-at-start label.
  Dataset data(schema, {"nyc, ny"}, {"site \"A\""});
  data.SetObservation(0, 0, 0, data.InternCategorical(0, "\"partly\" cloudy, windy"));
  std::stringstream out;
  ASSERT_TRUE(WriteObservationsCsv(data, out).ok());
  auto loaded = ReadObservationsCsv(schema, out);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_objects(), 1u);
  EXPECT_EQ(loaded->object_id(0), "nyc, ny");
  EXPECT_EQ(loaded->source_id(0), "site \"A\"");
  const Value v = loaded->observations(0).Get(0, 0);
  ASSERT_TRUE(v.is_categorical());
  EXPECT_EQ(loaded->dict(0).label(v.category()), "\"partly\" cloudy, windy");
}

TEST_F(CsvTest, QuotedFieldMayContainComma) {
  std::istringstream in(
      "object_id,property,source_id,value\n\"o,1\",cond,s,\"a,b\"\n");
  Schema schema;
  ASSERT_TRUE(schema.AddCategorical("cond").ok());
  auto loaded = ReadObservationsCsv(schema, in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->object_id(0), "o,1");
  EXPECT_EQ(loaded->dict(0).label(loaded->observations(0).Get(0, 0).category()), "a,b");
}

TEST_F(CsvTest, RejectsUnterminatedQuote) {
  std::istringstream in("object_id,property,source_id,value\n\"o,x,s,1\n");
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  auto r = ReadObservationsCsv(schema, in);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, RejectsTextAfterClosingQuote) {
  std::istringstream in("object_id,property,source_id,value\n\"o\"x,x,s,1\n");
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  EXPECT_EQ(ReadObservationsCsv(schema, in).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, StripsCarriageReturns) {
  std::istringstream in("object_id,property,source_id,value\r\no,x,s,1.5\r\n");
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  auto loaded = ReadObservationsCsv(schema, in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->observations(0).Get(0, 0).continuous(), 1.5);
}

TEST_F(CsvTest, RejectsOverlongLine) {
  std::string csv = "object_id,property,source_id,value\no,x,s,";
  csv.append((1 << 20) + 1, '1');
  csv.push_back('\n');
  std::istringstream in(csv);
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  EXPECT_EQ(ReadObservationsCsv(schema, in).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, RejectsNonNumericTailsAndNonFiniteValues) {
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  for (const char* bad : {"1.5abc", "nan", "inf", "-inf", "1e999", "", " 1",
                          "1 ", "0x10"}) {
    std::istringstream in(std::string("object_id,property,source_id,value\no,x,s,") +
                          bad + "\n");
    auto r = ReadObservationsCsv(schema, in);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << "value '" << bad << "' should be rejected, got: " << r.status().ToString();
  }
}

TEST_F(CsvTest, RejectsEmptyInput) {
  std::istringstream in("");
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  EXPECT_EQ(ReadObservationsCsv(schema, in).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, SubnormalValuesRoundTripButOverflowIsRejected) {
  // Found by value_fuzz: strtod flags subnormals with ERANGE even though it
  // returns the right value, so an errno check turned the writer's own
  // output into a parse error. Subnormals must round-trip; true overflow
  // (which strtod returns as +-inf) must still be rejected.
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  Dataset data(schema, {"o"}, {"s"});
  const double denorm = 4.9406564584124654e-324;  // smallest positive double
  data.SetObservation(0, 0, 0, Value::Continuous(denorm));
  std::stringstream out;
  ASSERT_TRUE(WriteObservationsCsv(data, out).ok());
  auto loaded = ReadObservationsCsv(schema, out);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->observations(0).Get(0, 0).continuous(), denorm);

  std::stringstream overflow("object_id,property,source_id,value\no,x,s,1e309\n");
  EXPECT_FALSE(ReadObservationsCsv(schema, overflow).ok());
}

TEST_F(CsvTest, ContinuousValuesPreservedExactly) {
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  Dataset data(schema, {"o"}, {"s"});
  const double value = 1234.5678901234567;
  data.SetObservation(0, 0, 0, Value::Continuous(value));
  const std::string path = TempPath("precision.csv");
  ASSERT_TRUE(WriteObservationsCsv(data, path).ok());
  auto loaded = ReadObservationsCsv(schema, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->observations(0).Get(0, 0).continuous(), value);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ParseContinuousCell: from_chars fast path, strtod for the rest
// ---------------------------------------------------------------------------

/// The strict strtod rule continuous cells were parsed with before the
/// from_chars fast path existed: whole field, finite, no leading
/// whitespace, no hex. ParseContinuousCell must agree with it exactly.
bool StrictStrtod(const std::string& text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front())) ||
      text.find_first_of("xX") != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || end == text.c_str() || !std::isfinite(parsed)) {
    return false;
  }
  *out = parsed;
  return true;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Both parsers accept or both reject `text`; accepted values are
/// bit-identical.
void ExpectSameAsStrtod(const std::string& text) {
  double expected = 0, got = 0;
  const bool expected_ok = StrictStrtod(text, &expected);
  const bool got_ok = ParseContinuousCell(text, &got);
  ASSERT_EQ(got_ok, expected_ok) << "'" << text << "'";
  if (expected_ok) {
    EXPECT_EQ(Bits(got), Bits(expected)) << "'" << text << "'";
  }
}

TEST(ParseContinuousCellTest, MatchesStrictStrtodOnEdgeCases) {
  // "1e-400" underflows to 0.0; 4.94...e-324 is the smallest subnormal.
  for (const char* text : {"+1.5", "-0", ".5", "5.", "1E5", "00012", "1e-400", "-1e-400",
                           "4.9406564584124654e-324", "2.2250738585072011e-308",
                           "1.7976931348623157e308"}) {
    double v = 0;
    EXPECT_TRUE(ParseContinuousCell(text, &v)) << text;
    ExpectSameAsStrtod(text);
  }
  for (const char* text :
       {"+-1", "1e", "1e309", "0x10", "nan", "inf", " 1", "1 ", "", "-", "1.5abc"}) {
    double v = 0;
    EXPECT_FALSE(ParseContinuousCell(text, &v)) << text;
    ExpectSameAsStrtod(text);
  }
  double v = 1;
  ASSERT_TRUE(ParseContinuousCell("-0", &v));
  EXPECT_TRUE(std::signbit(v));
  ASSERT_TRUE(ParseContinuousCell("1e-400", &v));
  EXPECT_EQ(Bits(v), Bits(0.0));
  ASSERT_TRUE(ParseContinuousCell("4.9406564584124654e-324", &v));
  EXPECT_EQ(v, std::numeric_limits<double>::denorm_min());
  // A field is a view: bytes past its end are not part of the number.
  EXPECT_TRUE(ParseContinuousCell(std::string_view("12,5").substr(0, 2), &v));
  EXPECT_EQ(v, 12.0);
}

TEST(ParseContinuousCellTest, RandomDoublesRoundTripBitIdentically) {
  std::mt19937_64 rng(20140622);
  char buffer[64];
  int checked = 0;
  while (checked < 100000) {
    // Uniform bit patterns cover every exponent (subnormals included) and
    // both signs; every fourth draw is a small-magnitude subnormal.
    uint64_t bits = rng();
    if (checked % 4 == 0) bits &= 0x800fffffffffffffull;
    double value = 0;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) continue;
    ++checked;
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    double parsed = 0;
    ASSERT_TRUE(ParseContinuousCell(buffer, &parsed)) << buffer;
    ASSERT_EQ(Bits(parsed), bits) << buffer;
    ExpectSameAsStrtod(buffer);
    // Shorter spellings round; both parsers must round them identically.
    std::snprintf(buffer, sizeof(buffer), "%.*g", static_cast<int>(rng() % 16) + 1, value);
    ExpectSameAsStrtod(buffer);
  }
}

// ---------------------------------------------------------------------------
// CsvTokenizer and the one-pass readers
// ---------------------------------------------------------------------------

std::vector<std::vector<std::string>> Tokenize(CsvTokenizer* tokenizer) {
  std::vector<std::vector<std::string>> rows;
  EXPECT_TRUE(tokenizer->ReadHeader().ok());
  while (true) {
    auto more = tokenizer->NextRow();
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    std::vector<std::string> row;
    for (size_t f = 0; f < tokenizer->num_fields(); ++f) {
      row.emplace_back(tokenizer->field(f));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(CsvTokenizerTest, SplitsQuotedFieldsCrlfAndBlankLines) {
  const std::string csv =
      "h\r\n\"a,b\",\"say \"\"hi\"\"\",c\"d,\r\n\r\n\n\"\"\"\",,x\nlast";
  const std::vector<std::vector<std::string>> expected = {
      {"a,b", "say \"hi\"", "c\"d", ""}, {"\"", "", "x"}, {"last"}};
  CsvTokenizer in_memory(csv);
  EXPECT_EQ(Tokenize(&in_memory), expected);
  std::istringstream stream(csv);
  CsvTokenizer streamed(stream);
  EXPECT_EQ(Tokenize(&streamed), expected);
}

TEST(CsvTokenizerTest, LinesLongerThanOneReadBlock) {
  // Stream input is read in 64 KiB blocks: rows straddle block edges, and
  // one row is longer than a whole block.
  Schema schema;
  ASSERT_TRUE(schema.AddCategorical("cond").ok());
  std::vector<std::string> objects;
  for (int i = 0; i < 4000; ++i) objects.push_back("object \"" + std::to_string(i) + "\", x");
  Dataset data(schema, objects, {"s0", "s1"});
  const std::string long_label(100000, 'L');
  for (size_t i = 0; i < objects.size(); ++i) {
    const std::string label = i == 1234 ? long_label : "l" + std::to_string(i % 7);
    data.SetObservation(i % 2, i, 0, data.InternCategorical(0, label));
  }
  std::stringstream out;
  ASSERT_TRUE(WriteObservationsCsv(data, out).ok());
  ASSERT_GT(out.str().size(), size_t{3} << 16);
  auto loaded = ReadObservationsCsv(schema, out);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_objects(), objects.size());
  ASSERT_EQ(loaded->num_observations(), data.num_observations());
  for (size_t i = 0; i < loaded->num_objects(); ++i) {
    const size_t original = std::stoul(loaded->object_id(i).substr(8));
    ASSERT_EQ(loaded->object_id(i), objects[original]);
    const size_t k = loaded->source_id(0) == data.source_id(original % 2) ? 0 : 1;
    const Value v = loaded->observations(k).Get(i, 0);
    ASSERT_TRUE(v.is_categorical());
    EXPECT_EQ(loaded->dict(0).label(v.category()),
              data.dict(0).label(data.observations(original % 2).Get(original, 0).category()));
  }
}

TEST(CsvTokenizerTest, OverlongLastLineWithoutNewlineIsRejected) {
  std::string csv = "object_id,property,source_id,value\no,x,s,";
  csv.append((1 << 20) + 1, '1');
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  std::istringstream in(csv);
  const Status status = ReadObservationsCsv(schema, in).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("line 2"), std::string::npos) << status.ToString();
}

TEST(CsvTokenizerTest, ReportsTheFirstBadLine) {
  // One pass: a bad number on line 2 is reported ahead of the malformed
  // row on line 3.
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  std::istringstream in("object_id,property,source_id,value\no,x,s,oops\no,x\n");
  const Status status = ReadObservationsCsv(schema, in).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("line 2"), std::string::npos) << status.ToString();
}

TEST(CsvTokenizerTest, RepeatedClaimKeepsItsLastValueAndLabelsInternInOrder) {
  Schema schema;
  ASSERT_TRUE(schema.AddCategorical("c").ok());
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  std::istringstream in(
      "object_id,property,source_id,value\n"
      "o2,c,s,zeta\no1,c,s,alpha\no2,x,s,1\no2,x,s,+2.5\no2,c,s,alpha\n");
  auto loaded = ReadObservationsCsv(schema, in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->object_id(0), "o2");
  EXPECT_EQ(loaded->object_id(1), "o1");
  EXPECT_EQ(loaded->dict(0).label(0), "zeta");
  EXPECT_EQ(loaded->dict(0).label(1), "alpha");
  EXPECT_EQ(loaded->observations(0).Get(0, 0), Value::Categorical(1));
  EXPECT_EQ(loaded->observations(0).Get(0, 1), Value::Continuous(2.5));
}

}  // namespace
}  // namespace crh
