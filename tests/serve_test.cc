#include "serve/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "data/csv.h"
#include "datagen/noise.h"
#include "serve/admission.h"
#include "serve/chunk_codec.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "stream/chunks.h"
#include "stream/checkpoint.h"
#include "stream/stream_engine.h"

namespace crh {
namespace {

// ---------------------------------------------------------------------------
// Protocol: flat JSON parse / write
// ---------------------------------------------------------------------------

constexpr size_t kMax = 1u << 20;

TEST(ProtocolTest, ParsesFlatObject) {
  auto obj = ParseJsonObject(
      R"({"cmd":"ingest","seq":3,"rate":-1.5,"on":true,"off":false,"nil":null})", kMax);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(*obj->GetString("cmd"), "ingest");
  EXPECT_EQ(*obj->GetInt("seq"), 3);
  EXPECT_EQ(*obj->GetUint("seq"), 3u);
  EXPECT_EQ(*obj->GetDouble("rate"), -1.5);
  EXPECT_TRUE(obj->Find("on")->bool_value);
  EXPECT_FALSE(obj->Find("off")->bool_value);
  EXPECT_EQ(obj->Find("nil")->kind, JsonValue::Kind::kNull);
}

TEST(ProtocolTest, TypedGettersRejectMismatches) {
  auto obj = ParseJsonObject(R"({"n":1.5,"s":"x","neg":-2})", kMax);
  ASSERT_TRUE(obj.ok());
  EXPECT_FALSE(obj->GetInt("n").ok());      // kDouble is not an exact int
  EXPECT_TRUE(obj->GetDouble("n").ok());
  EXPECT_FALSE(obj->GetString("n").ok());
  EXPECT_FALSE(obj->GetUint("neg").ok());   // negative
  EXPECT_FALSE(obj->GetString("missing").ok());
}

TEST(ProtocolTest, StringEscapes) {
  auto obj = ParseJsonObject(R"({"s":"a\"b\\c\nd\teAé"})", kMax);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(*obj->GetString("s"), "a\"b\\c\nd\teA\xc3\xa9");
}

TEST(ProtocolTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJsonObject("", kMax).ok());
  EXPECT_FALSE(ParseJsonObject("[1,2]", kMax).ok());
  EXPECT_FALSE(ParseJsonObject(R"({"a":{}})", kMax).ok());       // nested object
  EXPECT_FALSE(ParseJsonObject(R"({"a":[[1]]})", kMax).ok());    // array of arrays
  EXPECT_FALSE(ParseJsonObject(R"({"a":[{}]})", kMax).ok());     // object in array
  EXPECT_FALSE(ParseJsonObject(R"({"a":[1)", kMax).ok());        // unterminated array
  EXPECT_FALSE(ParseJsonObject(R"({"a":1,"a":2})", kMax).ok());  // duplicate key
  EXPECT_FALSE(ParseJsonObject(R"({"a":1} x)", kMax).ok());      // trailing bytes
  EXPECT_FALSE(ParseJsonObject(R"({"a":)", kMax).ok());          // truncated
  EXPECT_FALSE(ParseJsonObject(R"({"a":nul})", kMax).ok());      // bad literal
  EXPECT_FALSE(ParseJsonObject(R"({"s":"\ud800"})", kMax).ok()); // lone surrogate
  EXPECT_FALSE(ParseJsonObject(R"({"a":1e999})", kMax).ok());    // non-finite
}

TEST(ProtocolTest, ParsesFlatArrays) {
  auto obj = ParseJsonObject(R"({"w":[1,2.5,-3],"s":["a","b"],"e":[]})", kMax);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(*obj->GetDoubleArray("w"), (std::vector<double>{1.0, 2.5, -3.0}));
  EXPECT_EQ(*obj->GetStringArray("s"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(obj->GetDoubleArray("e")->empty());
  EXPECT_FALSE(obj->GetDoubleArray("s").ok());  // strings are not numbers
}

TEST(ProtocolTest, EnforcesSizeLimitBeforeParsing) {
  const std::string big = R"({"s":")" + std::string(100, 'x') + "\"}";
  EXPECT_FALSE(ParseJsonObject(big, 16).ok());
  EXPECT_TRUE(ParseJsonObject(big, big.size()).ok());
}

// The structural caps are typed kOutOfRange (distinct from the
// kInvalidArgument malformed-syntax errors), asserted exactly at and one
// past each limit.

TEST(ProtocolTest, FieldCountBoundary) {
  const auto build = [](size_t fields) {
    std::string text = "{";
    for (size_t i = 0; i < fields; ++i) {
      if (i > 0) text.push_back(',');
      text += "\"k" + std::to_string(i) + "\":1";
    }
    text.push_back('}');
    return text;
  };
  EXPECT_TRUE(ParseJsonObject(build(kMaxProtocolFields), kMax).ok());
  auto over = ParseJsonObject(build(kMaxProtocolFields + 1), kMax);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
}

TEST(ProtocolTest, ArrayItemCountBoundary) {
  const auto build = [](size_t items) {
    std::string text = "{\"a\":[";
    for (size_t i = 0; i < items; ++i) {
      if (i > 0) text.push_back(',');
      text.push_back('1');
    }
    text += "]}";
    return text;
  };
  const std::string at_limit = build(kMaxProtocolArrayItems);
  auto parsed = ParseJsonObject(at_limit, at_limit.size());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetDoubleArray("a")->size(), kMaxProtocolArrayItems);
  const std::string over_limit = build(kMaxProtocolArrayItems + 1);
  auto over = ParseJsonObject(over_limit, over_limit.size());
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
}

TEST(ProtocolTest, StringByteBoundary) {
  const auto build = [](size_t bytes) {
    return "{\"s\":\"" + std::string(bytes, 'x') + "\"}";
  };
  const std::string at_limit = build(kMaxProtocolStringBytes);
  auto parsed = ParseJsonObject(at_limit, at_limit.size());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString("s")->size(), kMaxProtocolStringBytes);
  const std::string over_limit = build(kMaxProtocolStringBytes + 1);
  auto over = ParseJsonObject(over_limit, over_limit.size());
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
}

TEST(ProtocolTest, WriterRoundTripsExactDoubles) {
  const double value = 0.1 + 0.2;  // not representable prettily
  JsonWriter writer;
  writer.AddDouble("v", value);
  writer.AddInt("i", -7);
  writer.AddBool("b", true);
  writer.AddString("s", "line\nbreak\"quote");
  const std::string line = std::move(writer).Finish();
  auto parsed = ParseJsonObject(line, kMax);
  ASSERT_TRUE(parsed.ok()) << line;
  // Bitwise: %.17g guarantees the exact double comes back.
  EXPECT_EQ(*parsed->GetDouble("v"), value);
  EXPECT_EQ(*parsed->GetInt("i"), -7);
  EXPECT_EQ(*parsed->GetString("s"), "line\nbreak\"quote");
}

TEST(ProtocolTest, NegativeZeroKeepsItsSignBit) {
  JsonWriter writer;
  writer.AddDouble("v", -0.0);
  auto parsed = ParseJsonObject(std::move(writer).Finish(), kMax);
  ASSERT_TRUE(parsed.ok());
  const double v = *parsed->GetDouble("v");
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(std::signbit(v)) << "-0 must not collapse to +0 on the wire";
}

TEST(ProtocolTest, NonFiniteDoublesBecomeNull) {
  JsonWriter writer;
  writer.AddDouble("v", std::numeric_limits<double>::quiet_NaN());
  const std::string line = std::move(writer).Finish();
  auto parsed = ParseJsonObject(line, kMax);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("v")->kind, JsonValue::Kind::kNull);
}

// ---------------------------------------------------------------------------
// Admission queue
// ---------------------------------------------------------------------------

PendingChunk MakePending(uint64_t seq) {
  PendingChunk p;
  p.seq = seq;
  return p;
}

TEST(IngestQueueTest, ShedsWhenFull) {
  IngestQueue queue(2);
  EXPECT_TRUE(queue.TryPush(MakePending(0)));
  EXPECT_TRUE(queue.TryPush(MakePending(1)));
  EXPECT_FALSE(queue.TryPush(MakePending(2)));
  EXPECT_FALSE(queue.TryPush(MakePending(2)));
  EXPECT_EQ(queue.shed_count(), 2u);
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(IngestQueueTest, CloseDrainsRemainingInOrderEvenWhenPaused) {
  IngestQueue queue(4);
  EXPECT_TRUE(queue.TryPush(MakePending(0)));
  EXPECT_TRUE(queue.TryPush(MakePending(1)));
  queue.SetPaused(true);
  queue.Close();
  EXPECT_FALSE(queue.TryPush(MakePending(2)));  // closed sheds
  auto a = queue.PopBlocking();
  auto b = queue.PopBlocking();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->seq, 0u);
  EXPECT_EQ(b->seq, 1u);
  EXPECT_FALSE(queue.PopBlocking().has_value());  // closed and empty
}

TEST(IngestQueueTest, PauseHoldsConsumerUntilResumed) {
  IngestQueue queue(4);
  queue.SetPaused(true);
  EXPECT_TRUE(queue.TryPush(MakePending(7)));
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    auto item = queue.PopBlocking();
    EXPECT_TRUE(item.has_value());
    EXPECT_EQ(item->seq, 7u);
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(popped.load());  // paused: the item must not flow
  queue.SetPaused(false);
  consumer.join();
  EXPECT_TRUE(popped.load());
}

// ---------------------------------------------------------------------------
// Shared fixtures: a small timestamped universe
// ---------------------------------------------------------------------------

Dataset MakeServeTruth(int days, int per_day, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddContinuous("x", 0.0).ok());
  EXPECT_TRUE(schema.AddCategorical("y").ok());
  std::vector<std::string> objects;
  std::vector<int64_t> timestamps;
  for (int d = 0; d < days; ++d) {
    for (int j = 0; j < per_day; ++j) {
      objects.push_back("d" + std::to_string(d) + "_o" + std::to_string(j));
      timestamps.push_back(d);
    }
  }
  Dataset data(std::move(schema), std::move(objects), {});
  for (const char* l : {"a", "b", "c", "d"}) data.mutable_dict(1).GetOrAdd(l);
  Rng rng(seed);
  ValueTable truth(data.num_objects(), 2);
  for (size_t i = 0; i < data.num_objects(); ++i) {
    truth.Set(i, 0, Value::Continuous(std::round(rng.Uniform(0, 100))));
    truth.Set(i, 1, Value::Categorical(static_cast<CategoryId>(rng.UniformInt(0, 3))));
  }
  data.set_ground_truth(std::move(truth));
  EXPECT_TRUE(data.set_timestamps(timestamps).ok());
  return data;
}

Dataset MakeServeDataset(int days = 6, int per_day = 8, uint64_t seed = 99) {
  NoiseOptions noise;
  noise.gammas = {0.4, 0.8, 1.3, 1.8};
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(MakeServeTruth(days, per_day, seed), noise);
  EXPECT_TRUE(noisy.ok());
  return std::move(noisy).ValueOrDie();
}

std::string ChunkCsv(const DataChunk& chunk) {
  std::ostringstream out;
  EXPECT_TRUE(WriteObservationsCsv(chunk.data, out).ok());
  return out.str();
}

std::string IngestLine(uint64_t seq, const DataChunk& chunk) {
  JsonWriter writer;
  writer.AddString("cmd", "ingest");
  writer.AddUint("seq", seq);
  writer.AddInt("window_start", chunk.window_start);
  writer.AddString("csv", ChunkCsv(chunk));
  return std::move(writer).Finish();
}

JsonObject Reply(CrhServer* server, const std::string& line) {
  auto parsed = ParseJsonObject(server->HandleRequestLine(line), 8u << 20);
  EXPECT_TRUE(parsed.ok());
  return parsed.ok() ? *parsed : JsonObject{};
}

/// Polls status until the server has solved `chunks` chunks (the ingest
/// thread runs asynchronously behind the admission queue).
void AwaitChunksSolved(CrhServer* server, uint64_t chunks) {
  for (int i = 0; i < 2000; ++i) {
    auto status = Reply(server, R"({"cmd":"status"})");
    auto solved = status.GetUint("chunks_solved");
    if (solved.ok() && *solved >= chunks) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FAIL() << "server never reached " << chunks << " solved chunks";
}

std::string UniqueSocketPath(const char* tag) {
  return testing::TempDir() + "crh_" + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

// ---------------------------------------------------------------------------
// ChunkCodec: decoded chunks match SplitByWindow's shape exactly
// ---------------------------------------------------------------------------

TEST(ChunkCodecTest, RoundTripsSplitByWindowChunks) {
  const Dataset data = MakeServeDataset();
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());
  const ChunkCodec codec(data);
  for (const DataChunk& expected : *chunks) {
    auto decoded = codec.Decode(ChunkCsv(expected), expected.window_start,
                                /*quarantine_bad_claims=*/false);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->window_start, expected.window_start);
    ASSERT_EQ(decoded->parent_object, expected.parent_object);
    ASSERT_EQ(decoded->data.num_objects(), expected.data.num_objects());
    ASSERT_EQ(decoded->data.num_sources(), expected.data.num_sources());
    for (size_t k = 0; k < expected.data.num_sources(); ++k) {
      EXPECT_EQ(decoded->data.source_id(k), expected.data.source_id(k));
      for (size_t i = 0; i < expected.data.num_objects(); ++i) {
        for (size_t m = 0; m < expected.data.schema().num_properties(); ++m) {
          EXPECT_EQ(decoded->data.observations(k).Get(i, m),
                    expected.data.observations(k).Get(i, m))
              << "cell (" << k << ", " << i << ", " << m << ")";
        }
      }
    }
  }
}

TEST(ChunkCodecTest, RejectsUnknownEntities) {
  const Dataset data = MakeServeDataset();
  const ChunkCodec codec(data);
  EXPECT_FALSE(
      codec.Decode("object_id,property,source_id,value\nghost,x,src0,1\n", 0, false)
          .ok());
  EXPECT_FALSE(
      codec.Decode("object_id,property,source_id,value\nd0_o0,x,ghost,1\n", 0, false)
          .ok());
}

TEST(ChunkCodecTest, UnknownLabelQuarantinesOrFails) {
  const Dataset data = MakeServeDataset();
  const ChunkCodec codec(data);
  const std::string csv = "object_id,property,source_id,value\nd0_o0,y," +
                          data.source_id(0) + ",zzz\n";
  EXPECT_FALSE(codec.Decode(csv, 0, /*quarantine_bad_claims=*/false).ok());
  auto quarantined = codec.Decode(csv, 0, /*quarantine_bad_claims=*/true);
  ASSERT_TRUE(quarantined.ok());
  const Value v = quarantined->data.observations(0).Get(0, 1);
  ASSERT_TRUE(v.is_categorical());
  EXPECT_EQ(v.category(), kInvalidCategory);
}

TEST(ChunkCodecTest, CsvSizeBoundary) {
  const Dataset data = MakeServeDataset();
  const ChunkCodec codec(data);
  // At the limit: a valid one-claim chunk padded with blank lines (which
  // the CSV reader skips) to exactly kMaxChunkCsvBytes still decodes.
  std::string csv = "object_id,property,source_id,value\nd0_o0,x," +
                    data.source_id(0) + ",1\n";
  csv.resize(kMaxChunkCsvBytes, '\n');
  EXPECT_TRUE(codec.Decode(csv, 0, /*quarantine_bad_claims=*/false).ok());
  // One byte over is rejected with kOutOfRange before any parsing work.
  csv.push_back('\n');
  auto over = codec.Decode(csv, 0, /*quarantine_bad_claims=*/false);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
}

TEST(ChunkCodecTest, RejectsChunksBiggerThanTheUniverse) {
  const Dataset data = MakeServeDataset();
  const ChunkCodec codec(data);
  std::string csv = "object_id,property,source_id,value\n";
  for (size_t i = 0; i < data.num_objects(); ++i) {
    csv += data.object_id(i) + ",x," + data.source_id(0) + ",1\n";
  }
  // Naming every universe object is exactly at the limit.
  EXPECT_TRUE(codec.Decode(csv, 0, /*quarantine_bad_claims=*/false).ok());
  // One extra distinct object pushes the parsed counts past the universe:
  // kOutOfRange from the bounds check, before any per-entity lookup runs.
  csv += "one_object_too_many,x," + data.source_id(0) + ",1\n";
  auto over = codec.Decode(csv, 0, /*quarantine_bad_claims=*/false);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// ChunkCodec property: written cells decode bit for bit, whatever the framing
// ---------------------------------------------------------------------------

/// A timestamped universe whose object ids, source ids, property names and
/// labels all need RFC 4180 quoting (commas, embedded quotes).
Dataset MakeQuotingUniverse(uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddContinuous("x, \"reading\"", 0.0).ok());
  EXPECT_TRUE(schema.AddCategorical("y,label").ok());
  std::vector<std::string> objects;
  std::vector<int64_t> timestamps;
  for (int d = 0; d < 5; ++d) {
    for (int j = 0; j < 7; ++j) {
      objects.push_back("d" + std::to_string(d) + ", \"o" + std::to_string(j) + "\"");
      timestamps.push_back(d);
    }
  }
  Dataset truth_data(schema, objects, {});
  for (const char* l : {"a,1", "b \"2\"", "\"c\"", "d"}) truth_data.mutable_dict(1).GetOrAdd(l);
  Rng rng(seed);
  ValueTable truth(truth_data.num_objects(), 2);
  for (size_t i = 0; i < truth_data.num_objects(); ++i) {
    truth.Set(i, 0, Value::Continuous(rng.Uniform(-50, 50)));
    truth.Set(i, 1, Value::Categorical(static_cast<CategoryId>(rng.UniformInt(0, 3))));
  }
  truth_data.set_ground_truth(std::move(truth));
  EXPECT_TRUE(truth_data.set_timestamps(timestamps).ok());
  NoiseOptions noise;
  noise.gammas = {0.3, 0.9, 1.6};
  noise.missing_rate = 0.2;
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(truth_data, noise);
  EXPECT_TRUE(noisy.ok());
  // Rename the generated sources so their ids need quoting too.
  std::vector<std::string> sources;
  for (size_t k = 0; k < noisy->num_sources(); ++k) {
    sources.push_back("src \"" + std::to_string(k) + "\", eu");
  }
  Dataset universe(schema, objects, sources);
  for (size_t m = 0; m < schema.num_properties(); ++m) {
    universe.mutable_dict(m) = noisy->dict(m);
  }
  for (size_t k = 0; k < sources.size(); ++k) {
    universe.mutable_observations(k) = noisy->observations(k);
  }
  EXPECT_TRUE(universe.set_timestamps(timestamps).ok());
  return universe;
}

/// The rows (header dropped) WriteObservationsCsv emits for `data`.
std::vector<std::string> CsvRows(const Dataset& data) {
  std::istringstream in(ChunkCsv(DataChunk{data, {}, 0}));
  std::vector<std::string> rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) rows.push_back(line);
  return rows;
}

/// A different value for every present cell, same type and dictionary.
Dataset Decoys(const Dataset& data) {
  Dataset decoys = data;
  for (size_t k = 0; k < data.num_sources(); ++k) {
    for (size_t i = 0; i < data.num_objects(); ++i) {
      for (size_t m = 0; m < data.num_properties(); ++m) {
        const Value v = data.observations(k).Get(i, m);
        if (v.is_missing()) continue;
        const Value decoy =
            v.is_continuous()
                ? Value::Continuous(v.continuous() + 1.25)
                : Value::Categorical(static_cast<CategoryId>(
                      (static_cast<size_t>(v.category()) + 1) % data.dict(m).size()));
        decoys.SetObservation(k, i, m, decoy);
      }
    }
  }
  return decoys;
}

/// The chunk's claims as CSV with its rows shuffled, some claims preceded
/// by a decoy claim for the same cell (the later row must win), blank
/// lines sprinkled in, and a mix of LF and CRLF line ends.
std::string ScrambledChunkCsv(const DataChunk& chunk, std::mt19937_64* rng) {
  const std::vector<std::string> rows = CsvRows(chunk.data);
  const std::vector<std::string> decoys = CsvRows(Decoys(chunk.data));
  EXPECT_EQ(rows.size(), decoys.size());  // same cells, same order
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::pair<double, const std::string*>> keyed;
  for (size_t r = 0; r < rows.size(); ++r) {
    const double key = unit(*rng);
    keyed.emplace_back(key, &rows[r]);
    if (unit(*rng) < 0.3) keyed.emplace_back(key * unit(*rng), &decoys[r]);
  }
  std::sort(keyed.begin(), keyed.end());
  std::string csv = "object_id,property,source_id,value\r\n";
  for (const auto& [key, row] : keyed) {
    (void)key;
    if (unit(*rng) < 0.1) csv += unit(*rng) < 0.5 ? "\n" : "\r\n";
    csv += *row;
    csv += unit(*rng) < 0.5 ? "\n" : "\r\n";
  }
  return csv;
}

uint64_t CellBits(const Value& v) {
  if (v.is_missing()) return 0;
  if (v.is_categorical()) return static_cast<uint64_t>(static_cast<uint32_t>(v.category()));
  uint64_t bits = 0;
  const double d = v.continuous();
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// (object, property, source, kind, value bits or label) for every claim.
using ClaimTuple = std::tuple<std::string, size_t, std::string, int, uint64_t, std::string>;

std::vector<ClaimTuple> Claims(const Dataset& data) {
  std::vector<ClaimTuple> claims;
  for (size_t k = 0; k < data.num_sources(); ++k) {
    for (size_t i = 0; i < data.num_objects(); ++i) {
      for (size_t m = 0; m < data.num_properties(); ++m) {
        const Value v = data.observations(k).Get(i, m);
        if (v.is_missing()) continue;
        claims.emplace_back(data.object_id(i), m, data.source_id(k),
                            v.is_continuous() ? 0 : 1, v.is_continuous() ? CellBits(v) : 0,
                            v.is_continuous() ? "" : data.dict(m).label(v.category()));
      }
    }
  }
  std::sort(claims.begin(), claims.end());
  return claims;
}

TEST(ChunkCodecTest, DecodesWrittenCellsBitForBitUnderAnyFraming) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    const Dataset universe = MakeQuotingUniverse(seed);
    auto chunks = SplitByWindow(universe, 1);
    ASSERT_TRUE(chunks.ok());
    const ChunkCodec codec(universe);
    std::mt19937_64 rng(seed);
    for (const DataChunk& expected : *chunks) {
      const std::string csv = ScrambledChunkCsv(expected, &rng);
      for (const bool quarantine : {false, true}) {
        auto decoded = codec.Decode(csv, expected.window_start, quarantine);
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        // Objects in ascending universe order, the full source roster.
        ASSERT_EQ(decoded->parent_object, expected.parent_object);
        ASSERT_EQ(decoded->data.source_ids(), universe.source_ids());
        for (size_t k = 0; k < expected.data.num_sources(); ++k) {
          for (size_t i = 0; i < expected.data.num_objects(); ++i) {
            for (size_t m = 0; m < expected.data.num_properties(); ++m) {
              const Value want = expected.data.observations(k).Get(i, m);
              const Value got = decoded->data.observations(k).Get(i, m);
              ASSERT_EQ(got.is_missing(), want.is_missing());
              ASSERT_EQ(got.is_continuous(), want.is_continuous());
              ASSERT_EQ(CellBits(got), CellBits(want))
                  << "cell (" << k << ", " << i << ", " << m << ")";
            }
          }
        }
      }
      // The batch reader sees the same claims in the same bytes.
      std::istringstream in(csv);
      auto read = ReadObservationsCsv(universe.schema(), in);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      auto decoded = codec.Decode(csv, expected.window_start, false);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(Claims(*read), Claims(decoded->data));
    }
  }
}

TEST(ChunkCodecTest, ReportsTheFirstBadLineUnlessTheChunkIsTooBig) {
  const Dataset data = MakeServeDataset();
  const ChunkCodec codec(data);
  const std::string header = "object_id,property,source_id,value\n";
  const std::string good = "d0_o0,x," + data.source_id(0) + ",1\n";
  // An unknown object on line 3 is reported ahead of a bad number on line 4.
  auto unknown = codec.Decode(header + good + "ghost,x," + data.source_id(0) + ",1\n" +
                                  "d0_o1,x," + data.source_id(0) + ",oops\n",
                              0, false);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("line 3"), std::string::npos)
      << unknown.status().ToString();
  // More distinct sources than the universe holds is kOutOfRange, although
  // the first unknown source comes first.
  std::string too_many = header;
  for (size_t k = 0; k <= data.num_sources(); ++k) {
    too_many += "d0_o0,x,ghost" + std::to_string(k) + ",1\n";
  }
  auto over = codec.Decode(too_many, 0, false);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
  // A quoted unknown label on a CRLF line fails without quarantine only.
  const std::string label = header + "d0_o0,y," + data.source_id(0) + ",\"z,\"\"z\"\r\n";
  EXPECT_EQ(codec.Decode(label, 0, false).status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(codec.Decode(label, 0, true).ok());
}

// ---------------------------------------------------------------------------
// CrhServer request handling (no sockets: HandleRequestLine is the protocol
// surface; the socket path adds only framing)
// ---------------------------------------------------------------------------

class ServeHandlerTest : public testing::Test {
 protected:
  void SetUp() override { FailPoints::Instance().ClearAll(); }
  void TearDown() override { FailPoints::Instance().ClearAll(); }

  /// Starts an in-process server over the given universe.
  std::unique_ptr<CrhServer> StartServer(const Dataset& universe,
                                         ServeOptions serve,
                                         IncrementalCrhOptions options = {}) {
    if (serve.socket_path.empty()) {
      serve.socket_path = UniqueSocketPath("handler");
    }
    auto server = std::make_unique<CrhServer>(universe, options,
                                              StreamResilienceOptions{}, serve);
    EXPECT_TRUE(server->Start().ok());
    return server;
  }

  void DrainAndWait(CrhServer* server) {
    server->RequestDrain();
    EXPECT_TRUE(server->Wait().ok());
  }
};

TEST_F(ServeHandlerTest, PingAndErrors) {
  const Dataset data = MakeServeDataset();
  auto server = StartServer(data, {});
  EXPECT_TRUE(Reply(server.get(), R"({"cmd":"ping"})").Find("ok")->bool_value);
  EXPECT_EQ(*Reply(server.get(), R"({"cmd":"warp"})").GetString("error"),
            "unknown_command");
  EXPECT_EQ(*Reply(server.get(), "not json").GetString("error"), "bad_request");
  EXPECT_EQ(*Reply(server.get(), R"({"seq":1})").GetString("error"), "bad_request");
  DrainAndWait(server.get());
}

TEST_F(ServeHandlerTest, ServesEpochZeroBeforeAnyIngest) {
  const Dataset data = MakeServeDataset();
  auto server = StartServer(data, {});
  auto status = Reply(server.get(), R"({"cmd":"status"})");
  EXPECT_TRUE(status.Find("ok")->bool_value);
  EXPECT_EQ(*status.GetUint("epoch"), 0u);
  EXPECT_EQ(*status.GetUint("chunks_solved"), 0u);
  auto truth =
      Reply(server.get(), R"({"cmd":"truth","object":"d0_o0","property":"x"})");
  EXPECT_TRUE(truth.Find("ok")->bool_value);
  EXPECT_EQ(truth.Find("value")->kind, JsonValue::Kind::kNull);  // nothing solved
  EXPECT_EQ(*Reply(server.get(),
                   R"({"cmd":"truth","object":"ghost","property":"x"})")
                 .GetString("error"),
            "not_found");
  EXPECT_EQ(*Reply(server.get(),
                   R"({"cmd":"truth","object":"d0_o0","property":"ghost"})")
                 .GetString("error"),
            "not_found");
  DrainAndWait(server.get());
}

TEST_F(ServeHandlerTest, IngestedStreamMatchesBatchDriverBitwise) {
  const Dataset data = MakeServeDataset();
  IncrementalCrhOptions options;
  options.delta_solve = DeltaSolveMode::kFull;

  auto reference = RunIncrementalCrhResilient(data, options, {});
  ASSERT_TRUE(reference.ok());

  auto chunks = SplitByWindow(data, options.window_size);
  ASSERT_TRUE(chunks.ok());
  auto server = StartServer(data, {}, options);
  for (size_t c = 0; c < chunks->size(); ++c) {
    auto reply = Reply(server.get(), IngestLine(c, (*chunks)[c]));
    EXPECT_TRUE(reply.Find("ok")->bool_value) << server->HandleRequestLine(
        IngestLine(c, (*chunks)[c]));
  }
  AwaitChunksSolved(server.get(), chunks->size());

  // The published snapshot equals the batch run bit for bit.
  const auto snapshot = server->publisher().Current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->source_weights, reference->source_weights);
  EXPECT_EQ(snapshot->accumulated_deviations, reference->accumulated_deviations);
  ASSERT_EQ(snapshot->truths.num_objects(), reference->truths.num_objects());
  for (size_t i = 0; i < reference->truths.num_objects(); ++i) {
    for (size_t m = 0; m < reference->truths.num_properties(); ++m) {
      EXPECT_EQ(snapshot->truths.Get(i, m), reference->truths.Get(i, m));
    }
  }

  // And the protocol's %.17g rendering of a continuous truth round-trips to
  // the exact same double.
  auto truth =
      Reply(server.get(), R"({"cmd":"truth","object":"d0_o0","property":"x"})");
  ASSERT_TRUE(truth.Find("ok")->bool_value);
  ASSERT_FALSE(reference->truths.Get(0, 0).is_missing());
  EXPECT_EQ(*truth.GetDouble("value"), reference->truths.Get(0, 0).continuous());
  DrainAndWait(server.get());
}

TEST_F(ServeHandlerTest, SequenceContract) {
  const Dataset data = MakeServeDataset();
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());
  auto server = StartServer(data, {});

  // Future sequence: rejected with the expected number.
  auto ahead = Reply(server.get(), IngestLine(3, (*chunks)[0]));
  EXPECT_FALSE(ahead.Find("ok")->bool_value);
  EXPECT_EQ(*ahead.GetString("error"), "out_of_order");
  EXPECT_EQ(*ahead.GetUint("expected"), 0u);

  EXPECT_TRUE(Reply(server.get(), IngestLine(0, (*chunks)[0])).Find("ok")->bool_value);
  // Re-sending an admitted sequence is acknowledged as a duplicate, not
  // re-applied (at-least-once delivery converges).
  auto dup = Reply(server.get(), IngestLine(0, (*chunks)[0]));
  EXPECT_TRUE(dup.Find("ok")->bool_value);
  EXPECT_TRUE(dup.Find("duplicate")->bool_value);
  AwaitChunksSolved(server.get(), 1);
  DrainAndWait(server.get());
}

TEST_F(ServeHandlerTest, OverloadShedsIngestWhileQueriesKeepAnswering) {
  const Dataset data = MakeServeDataset();
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());
  ASSERT_GE(chunks->size(), 4u);
  ServeOptions serve;
  serve.ingest_queue_capacity = 2;
  serve.shed_retry_after_ms = 75;
  auto server = StartServer(data, serve);

  // Pause the consumer: deterministic overload, no timing races.
  EXPECT_TRUE(Reply(server.get(), R"({"cmd":"pause_ingest"})").Find("ok")->bool_value);
  EXPECT_TRUE(Reply(server.get(), IngestLine(0, (*chunks)[0])).Find("ok")->bool_value);
  EXPECT_TRUE(Reply(server.get(), IngestLine(1, (*chunks)[1])).Find("ok")->bool_value);
  auto shed = Reply(server.get(), IngestLine(2, (*chunks)[2]));
  EXPECT_FALSE(shed.Find("ok")->bool_value);
  EXPECT_EQ(*shed.GetString("error"), "overloaded");
  EXPECT_EQ(*shed.GetUint("retry_after_ms"), 75u);

  // Queries are untouched by ingest pressure: they answer from the last
  // published epoch.
  auto truth =
      Reply(server.get(), R"({"cmd":"truth","object":"d0_o0","property":"x"})");
  EXPECT_TRUE(truth.Find("ok")->bool_value);
  EXPECT_EQ(*truth.GetUint("epoch"), 0u);
  auto status = Reply(server.get(), R"({"cmd":"status"})");
  EXPECT_EQ(*status.GetUint("shed"), 1u);
  EXPECT_EQ(*status.GetUint("queue_depth"), 2u);
  EXPECT_TRUE(status.Find("ingest_paused")->bool_value);

  // The shed sequence was not consumed: after resuming, the retried chunk
  // is admitted as the next in line.
  EXPECT_TRUE(Reply(server.get(), R"({"cmd":"resume_ingest"})").Find("ok")->bool_value);
  AwaitChunksSolved(server.get(), 2);
  auto retry = Reply(server.get(), IngestLine(2, (*chunks)[2]));
  EXPECT_TRUE(retry.Find("ok")->bool_value);
  AwaitChunksSolved(server.get(), 3);
  DrainAndWait(server.get());
}

TEST_F(ServeHandlerTest, DrainRejectsFurtherIngest) {
  const Dataset data = MakeServeDataset();
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());
  auto server = StartServer(data, {});
  auto drain = Reply(server.get(), R"({"cmd":"drain"})");
  EXPECT_TRUE(drain.Find("ok")->bool_value);
  EXPECT_TRUE(drain.Find("draining")->bool_value);
  EXPECT_EQ(*Reply(server.get(), IngestLine(0, (*chunks)[0])).GetString("error"),
            "draining");
  EXPECT_TRUE(server->Wait().ok());
}

TEST_F(ServeHandlerTest, SourceConfidenceIsNormalizedWeight) {
  const Dataset data = MakeServeDataset();
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());
  auto server = StartServer(data, {});
  EXPECT_TRUE(Reply(server.get(), IngestLine(0, (*chunks)[0])).Find("ok")->bool_value);
  AwaitChunksSolved(server.get(), 1);
  auto weights = Reply(server.get(), R"({"cmd":"weights"})");
  ASSERT_TRUE(weights.Find("ok")->bool_value);
  auto source = Reply(server.get(),
                      R"({"cmd":"source","source":")" + data.source_id(0) + "\"}");
  ASSERT_TRUE(source.Find("ok")->bool_value);
  const auto snapshot = server->publisher().Current();
  ASSERT_NE(snapshot, nullptr);
  double total = 0;
  for (double w : snapshot->source_weights) total += w;
  EXPECT_EQ(*source.GetDouble("weight"), snapshot->source_weights[0]);
  EXPECT_EQ(*source.GetDouble("confidence"), snapshot->source_weights[0] / total);
  DrainAndWait(server.get());
}

// ---------------------------------------------------------------------------
// The socket path: framing of requests over a real connection
// ---------------------------------------------------------------------------

/// A blocking client connection with a receive timeout, so a server that
/// never answers fails the test instead of hanging it.
class TestClient {
 public:
  explicit TestClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd_, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    EXPECT_EQ(::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)), 0);
    struct timeval timeout;
    timeout.tv_sec = 10;
    timeout.tv_usec = 0;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~TestClient() { ::close(fd_); }

  void Send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      bytes.remove_prefix(static_cast<size_t>(n));
    }
  }

  /// The next reply line, parsed.
  JsonObject ReadReply() {
    size_t newline;
    while ((newline = pending_.find('\n')) == std::string::npos) {
      char buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed before a full reply";
        return JsonObject{};
      }
      pending_.append(buffer, static_cast<size_t>(n));
    }
    auto parsed = ParseJsonObject(std::string_view(pending_).substr(0, newline), 8u << 20);
    pending_.erase(0, newline + 1);
    EXPECT_TRUE(parsed.ok());
    return parsed.ok() ? *parsed : JsonObject{};
  }

 private:
  int fd_ = -1;
  std::string pending_;
};

TEST_F(ServeHandlerTest, IngestLineSplitOverManySmallWrites) {
  const Dataset data = MakeServeDataset(6, 40, 5);
  auto chunks = SplitByWindow(data, 3);
  ASSERT_TRUE(chunks.ok());
  ServeOptions serve;
  serve.socket_path = UniqueSocketPath("split");
  auto server = StartServer(data, serve);
  TestClient client(serve.socket_path);
  for (size_t c = 0; c < 2; ++c) {
    const std::string line = IngestLine(c, (*chunks)[c]) + "\r\n";
    ASSERT_GT(line.size(), 2u * 4096);  // spans several receives
    // Uneven pieces, with pauses, so the line arrives over many receives
    // and the terminating CR and LF land in different writes.
    const std::string_view body = std::string_view(line).substr(0, line.size() - 1);
    size_t offset = 0;
    for (size_t piece = 1; offset < body.size(); ++piece) {
      const size_t size = std::min(body.size() - offset, 97 + (piece * 389) % 1500);
      client.Send(body.substr(offset, size));
      offset += size;
      if (piece % 8 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client.Send("\n");
    const JsonObject reply = client.ReadReply();
    ASSERT_NE(reply.Find("ok"), nullptr);
    EXPECT_TRUE(reply.Find("ok")->bool_value);
    EXPECT_EQ(*reply.GetUint("seq"), c);
  }
  AwaitChunksSolved(server.get(), 2);
  DrainAndWait(server.get());
}

TEST_F(ServeHandlerTest, TwoRequestsInOneWrite) {
  const Dataset data = MakeServeDataset();
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());
  ServeOptions serve;
  serve.socket_path = UniqueSocketPath("pipelined");
  auto server = StartServer(data, serve);
  TestClient client(serve.socket_path);
  // Two requests, then an ingest with the start of a ping behind it: every
  // complete line is answered in order, the partial one once it completes.
  client.Send(R"({"cmd":"ping"})" "\n" R"({"cmd":"status"})" "\r\n");
  EXPECT_TRUE(client.ReadReply().Find("ok")->bool_value);
  const JsonObject status = client.ReadReply();
  ASSERT_NE(status.Find("epoch"), nullptr);
  EXPECT_EQ(*status.GetUint("epoch"), 0u);
  client.Send(IngestLine(0, (*chunks)[0]) + "\n" + R"({"cmd":)");
  EXPECT_EQ(*client.ReadReply().GetUint("seq"), 0u);
  client.Send(R"("ping"})" "\n");
  const JsonObject ping = client.ReadReply();
  EXPECT_TRUE(ping.Find("ok")->bool_value);
  EXPECT_EQ(ping.Find("epoch"), nullptr);  // the ping reply, not a status
  DrainAndWait(server.get());
}

// ---------------------------------------------------------------------------
// Paged snapshots: copy-on-write truth pages
// ---------------------------------------------------------------------------

void ExpectPagedEquals(const PagedValueTable& paged, const ValueTable& table,
                       const std::string& where) {
  ASSERT_EQ(paged.num_objects(), table.num_objects()) << where;
  ASSERT_EQ(paged.num_properties(), table.num_properties()) << where;
  for (size_t i = 0; i < table.num_objects(); ++i) {
    for (size_t m = 0; m < table.num_properties(); ++m) {
      ASSERT_TRUE(paged.Get(i, m) == table.Get(i, m))
          << where << ": cell (" << i << ", " << m << ")";
    }
  }
}

TEST(PagedSnapshotTest, EveryEpochEqualsAFromScratchSnapshot) {
  // 16 chunks of 40 consecutive objects over 640 rows (10 pages): each
  // epoch re-copies the pages its chunk wrote and shares the rest. Every
  // published epoch must equal the engine's whole table (what a
  // from-scratch snapshot copies) cell by cell,
  // and must still equal it after all later epochs were published (no
  // write reached a shared page). Variants: the cumulative re-solve, a
  // row record spanning three chunks, skipped publishes, and a resumed
  // engine that publishes while it replays.
  const Dataset data = MakeServeDataset(16, 40);
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());
  struct Variant {
    const char* name;
    DeltaSolveMode mode;
    uint64_t checkpoint_every;  // 0: no checkpoints
    uint64_t publish_every;
    size_t resume_after;  // 0: cold start
  };
  for (const Variant& v : {Variant{"off", DeltaSolveMode::kOff, 0, 1, 0},
                           Variant{"off_every3", DeltaSolveMode::kOff, 3, 1, 0},
                           Variant{"off_skip", DeltaSolveMode::kOff, 0, 2, 0},
                           Variant{"full", DeltaSolveMode::kFull, 0, 1, 0},
                           Variant{"off_resume", DeltaSolveMode::kOff, 1, 1, 6}}) {
    SCOPED_TRACE(v.name);
    IncrementalCrhOptions options;
    options.delta_solve = v.mode;
    StreamResilienceOptions resilience;
    if (v.checkpoint_every > 0) {
      resilience.checkpoint_dir = testing::TempDir() + "crh_paged_" + v.name;
      std::filesystem::remove_all(resilience.checkpoint_dir);
      resilience.checkpoint_every = v.checkpoint_every;
    }
    if (v.resume_after > 0) {
      auto first = StreamEngine::Open(data, options, resilience);
      ASSERT_TRUE(first.ok());
      for (size_t c = 0; c < v.resume_after; ++c) {
        ASSERT_TRUE((*first)->ApplyChunk((*chunks)[c], false).ok());
      }
      resilience.resume = true;
    }
    auto engine = StreamEngine::Open(data, options, resilience);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    EXPECT_EQ((*engine)->chunks_resumed(), v.resume_after);
    std::vector<std::pair<std::shared_ptr<const ServeSnapshot>, ValueTable>> epochs;
    for (size_t c = 0; c < chunks->size(); ++c) {
      ASSERT_TRUE((*engine)->ApplyChunk((*chunks)[c], false).ok());
      if (c % v.publish_every != v.publish_every - 1) continue;
      auto snapshot =
          std::make_shared<const ServeSnapshot>(SnapshotFromEngine(**engine, epochs.size()));
      ExpectPagedEquals(snapshot->truths, (*engine)->truths(),
                        "epoch " + std::to_string(epochs.size()));
      epochs.emplace_back(std::move(snapshot), (*engine)->truths());
    }
    for (size_t e = 0; e < epochs.size(); ++e) {
      ExpectPagedEquals(epochs[e].first->truths, epochs[e].second,
                        "epoch " + std::to_string(e) + " after the stream");
    }
    if (!resilience.checkpoint_dir.empty()) std::filesystem::remove_all(resilience.checkpoint_dir);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: readers racing epoch swaps (tsan-labeled binary)
// ---------------------------------------------------------------------------

TEST(SnapshotRaceTest, ReadersAlwaysSeeOneConsistentEpoch) {
  // The writer publishes snapshots whose every field is a pure function of
  // the epoch; readers assert the invariant, so any torn publish (a reader
  // observing fields from two epochs) fails.
  constexpr uint64_t kEpochs = 2000;
  constexpr int kReaders = 4;
  SnapshotPublisher publisher;
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&publisher, &done] {
      uint64_t last_seen = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto snapshot = publisher.Current();
        if (snapshot == nullptr) continue;
        ASSERT_EQ(snapshot->chunks_solved, snapshot->epoch + 1);
        ASSERT_EQ(snapshot->source_weights.size(), 3u);
        for (const double w : snapshot->source_weights) {
          ASSERT_EQ(w, static_cast<double>(snapshot->epoch));
        }
        // Epochs are monotone for any single reader.
        ASSERT_GE(snapshot->epoch, last_seen);
        last_seen = snapshot->epoch;
      }
    });
  }
  for (uint64_t e = 0; e < kEpochs; ++e) {
    auto snapshot = std::make_shared<ServeSnapshot>();
    snapshot->epoch = e;
    snapshot->chunks_solved = e + 1;
    snapshot->source_weights.assign(3, static_cast<double>(e));
    publisher.Publish(std::move(snapshot));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  const auto last = publisher.Current();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->epoch, kEpochs - 1);
}

TEST(SnapshotRaceTest, QueriesRaceLiveIngestWithoutTearing) {
  // Four query threads hammer the full request path while the ingest thread
  // applies chunks and publishes epochs. Under tsan this proves the
  // publish/read pair is race-free end to end; everywhere it proves no
  // reader ever blocks on or observes a half-applied solve.
  const Dataset data = MakeServeDataset(8, 6, 7);
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());
  ServeOptions serve;
  serve.socket_path = UniqueSocketPath("race");
  CrhServer server(data, {}, StreamResilienceOptions{}, serve);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&server, &done, &data] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto status = ParseJsonObject(
            server.HandleRequestLine(R"({"cmd":"status"})"), 1u << 20);
        ASSERT_TRUE(status.ok());
        const uint64_t epoch = *status->GetUint("epoch");
        ASSERT_GE(epoch, last_epoch);
        last_epoch = epoch;
        auto truth = ParseJsonObject(
            server.HandleRequestLine(
                R"({"cmd":"truth","object":"d0_o0","property":"x"})"),
            1u << 20);
        ASSERT_TRUE(truth.ok());
        ASSERT_TRUE(truth->Find("ok")->bool_value);
        auto weights = ParseJsonObject(
            server.HandleRequestLine(R"({"cmd":"weights"})"), 1u << 20);
        ASSERT_TRUE(weights.ok());
        ASSERT_EQ(weights->Find("weights")->kind, JsonValue::Kind::kArray);
        ASSERT_EQ(weights->Find("weights")->items.size(), data.num_sources());
      }
    });
  }
  for (size_t c = 0; c < chunks->size(); ++c) {
    auto reply = ParseJsonObject(
        server.HandleRequestLine(IngestLine(c, (*chunks)[c])), 8u << 20);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply->Find("ok")->bool_value);
  }
  AwaitChunksSolved(&server, chunks->size());
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  server.RequestDrain();
  EXPECT_TRUE(server.Wait().ok());
}

}  // namespace
}  // namespace crh
