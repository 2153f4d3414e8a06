#include "stream/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "datagen/noise.h"
#include "stream/stream_engine.h"

namespace crh {
namespace {

/// Clears the fail-point registry around every test and hands out a fresh
/// per-test scratch directory (ctest runs test binaries in parallel, so the
/// path must be unique per test, not per binary).
class CheckpointTest : public testing::Test {
 protected:
  void SetUp() override { FailPoints::Instance().ClearAll(); }
  void TearDown() override { FailPoints::Instance().ClearAll(); }

  std::string FreshDir(const std::string& suffix = "") {
    const std::string dir =
        testing::TempDir() + "crh_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() + suffix;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }
};

/// A representative processor-only snapshot.
CheckpointState MakeProcessorState() {
  CheckpointState state;
  state.fingerprint = 0x1234abcd5678ef01u;
  state.processor.weights = {1.5, 0.25, 3.75};
  state.processor.accumulated = {10.0, 20.5, 0.0};
  state.processor.chunks_processed = 4;
  state.processor.quarantined_per_source = {0, 7, 2};
  return state;
}

/// A snapshot with the driver section: partial truths, history, starts.
CheckpointState MakeDriverState() {
  CheckpointState state = MakeProcessorState();
  state.has_driver_state = true;
  state.truths = ValueTable(3, 2);
  state.truths.Set(0, 0, Value::Continuous(2.5));
  state.truths.Set(0, 1, Value::Categorical(1));
  state.truths.Set(2, 1, Value::Categorical(0));  // (1, *) stays missing
  state.weight_history = {{1.0, 1.0, 1.0},
                          {1.5, 0.5, 1.0},
                          {1.5, 0.25, 2.0},
                          {1.5, 0.25, 3.75}};
  state.chunk_starts = {-2, 0, 1, 5};
  return state;
}

/// MakeDriverState() one chunk later: a new history row and start, new
/// weights, and truth row 1 written.
CheckpointState NextDriverState(CheckpointState state) {
  state.processor.chunks_processed += 1;
  state.processor.weights = {2.0, 0.5, 1.25};
  state.processor.accumulated = {11.0, 19.5, 4.0};
  state.processor.quarantined_per_source[1] += 1;
  state.weight_history.push_back(state.processor.weights);
  state.chunk_starts.push_back(9);
  state.truths.Set(1, 0, Value::Continuous(-7.5));
  state.truths.Set(1, 1, Value::Categorical(3));
  return state;
}

void ExpectStatesEqual(const CheckpointState& a, const CheckpointState& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.processor.weights, b.processor.weights);
  EXPECT_EQ(a.processor.accumulated, b.processor.accumulated);
  EXPECT_EQ(a.processor.chunks_processed, b.processor.chunks_processed);
  EXPECT_EQ(a.processor.quarantined_per_source, b.processor.quarantined_per_source);
  ASSERT_EQ(a.has_driver_state, b.has_driver_state);
  if (a.has_driver_state) {
    ASSERT_EQ(a.truths.num_objects(), b.truths.num_objects());
    ASSERT_EQ(a.truths.num_properties(), b.truths.num_properties());
    for (size_t i = 0; i < a.truths.num_objects(); ++i) {
      for (size_t m = 0; m < a.truths.num_properties(); ++m) {
        EXPECT_TRUE(a.truths.Get(i, m) == b.truths.Get(i, m));
      }
    }
    EXPECT_EQ(a.weight_history, b.weight_history);
    EXPECT_EQ(a.chunk_starts, b.chunk_starts);
  }
}

/// Flips one bit of the byte at `pos` of a checkpoint file on disk (from
/// the end when negative).
void FlipByte(const std::string& path, int64_t pos) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 0u);
  const size_t at = static_cast<size_t>(pos < 0 ? static_cast<int64_t>(bytes.size()) + pos : pos);
  bytes[at] = static_cast<char>(bytes[at] ^ 0x10);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Timestamped mixed-type dataset: `days` chunks under window_size 1.
Dataset MakeStreamData(int days, int per_day, uint64_t seed = 91) {
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
  Dataset truth(std::move(schema), std::move(objects), {});
  for (const char* l : {"a", "b", "c", "d"}) truth.mutable_dict(1).GetOrAdd(l);
  Rng rng(seed);
  ValueTable table(truth.num_objects(), 2);
  for (size_t i = 0; i < truth.num_objects(); ++i) {
    table.Set(i, 0, Value::Continuous(std::round(rng.Uniform(0, 100))));
    table.Set(i, 1, Value::Categorical(static_cast<CategoryId>(rng.UniformInt(0, 3))));
  }
  truth.set_ground_truth(std::move(table));
  EXPECT_TRUE(truth.set_timestamps(timestamps).ok());
  NoiseOptions noise;
  noise.gammas = {0.4, 0.8, 1.3, 1.8, 1.8};
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(truth, noise);
  EXPECT_TRUE(noisy.ok());
  return std::move(noisy).ValueOrDie();
}

/// Retry policy that neither sleeps nor absorbs injected failures.
RetryPolicy NoRetry() {
  RetryPolicy retry;
  retry.max_attempts = 1;
  retry.base_backoff_ms = 0.0;
  return retry;
}

void ExpectResultsEqual(const IncrementalCrhResult& a, const IncrementalCrhResult& b) {
  EXPECT_EQ(a.source_weights, b.source_weights);
  EXPECT_EQ(a.accumulated_deviations, b.accumulated_deviations);
  EXPECT_EQ(a.weight_history, b.weight_history);
  EXPECT_EQ(a.chunk_starts, b.chunk_starts);
  EXPECT_EQ(a.quarantined_per_source, b.quarantined_per_source);
  ASSERT_EQ(a.truths.num_objects(), b.truths.num_objects());
  ASSERT_EQ(a.truths.num_properties(), b.truths.num_properties());
  for (size_t i = 0; i < a.truths.num_objects(); ++i) {
    for (size_t m = 0; m < a.truths.num_properties(); ++m) {
      EXPECT_TRUE(a.truths.Get(i, m) == b.truths.Get(i, m))
          << "truth mismatch at (" << i << ", " << m << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownAnswer) {
  EXPECT_EQ(Crc32(std::string_view("123456789")), 0xCBF43926u);  // zlib's check value
  EXPECT_EQ(Crc32(std::string_view("")), 0u);
  EXPECT_EQ(Crc32(std::string_view("a")), 0xE8B7BE43u);
}

TEST(Crc32Test, SplitUpdatesEqualOneWholeUpdate) {
  // Lengths around the 8-byte step and odd start offsets exercise the
  // slice-by-8 loop, its bytewise tail and unaligned loads.
  std::string bytes(300, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<char>(i * 37 + 11);
  // Every prefix against the bit-at-a-time definition.
  uint32_t reference = 0xFFFFFFFFu;
  for (size_t len = 1; len <= bytes.size(); ++len) {
    reference ^= static_cast<unsigned char>(bytes[len - 1]);
    for (int bit = 0; bit < 8; ++bit) {
      reference = (reference & 1u) ? (0xEDB88320u ^ (reference >> 1)) : (reference >> 1);
    }
    ASSERT_EQ(Crc32(bytes.data(), len), reference ^ 0xFFFFFFFFu) << "length " << len;
  }
  for (const size_t offset : std::vector<size_t>{0, 1, 3, 7}) {
    for (const size_t len : std::vector<size_t>{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255}) {
      const char* data = bytes.data() + offset;
      const uint32_t whole = Crc32Update(0, data, len);
      for (size_t cut : {size_t{0}, len / 3, len / 2, len}) {
        const uint32_t split = Crc32Update(Crc32Update(0, data, cut), data + cut, len - cut);
        EXPECT_EQ(split, whole) << "offset " << offset << " len " << len << " cut " << cut;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Encode / decode
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, RoundTripProcessorOnly) {
  const CheckpointState state = MakeProcessorState();
  auto decoded = DecodeCheckpoint(EncodeCheckpoint(state));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  ExpectStatesEqual(state, *decoded);
}

TEST_F(CheckpointTest, RoundTripWithDriverSection) {
  const CheckpointState state = MakeDriverState();
  auto decoded = DecodeCheckpoint(EncodeCheckpoint(state));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  ExpectStatesEqual(state, *decoded);
}

TEST_F(CheckpointTest, DecodeRejectsEveryTruncation) {
  const std::string bytes = EncodeCheckpoint(MakeDriverState());
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeCheckpoint(std::string_view(bytes).substr(0, len)).ok())
        << "prefix of length " << len << " decoded";
  }
}

TEST_F(CheckpointTest, DecodeRejectsEveryBitFlip) {
  const std::string bytes = EncodeCheckpoint(MakeDriverState());
  // One flipped bit per byte position: the CRC must catch every one.
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ (1 << (pos % 8)));
    EXPECT_FALSE(DecodeCheckpoint(corrupted).ok()) << "flip at byte " << pos;
  }
}

TEST_F(CheckpointTest, DecodeRejectsTrailingBytes) {
  std::string bytes = EncodeCheckpoint(MakeProcessorState());
  bytes += '\0';
  EXPECT_FALSE(DecodeCheckpoint(bytes).ok());
}

TEST_F(CheckpointTest, DecodeRejectsArbitraryGarbage) {
  EXPECT_FALSE(DecodeCheckpoint("").ok());
  EXPECT_FALSE(DecodeCheckpoint("x").ok());
  EXPECT_FALSE(DecodeCheckpoint("CRHCKPT1").ok());
  EXPECT_FALSE(DecodeCheckpoint(std::string(1000, '\xff')).ok());
  Rng rng(3);
  std::string random(512, '\0');
  for (char& c : random) c = static_cast<char>(rng.UniformInt(0, 255));
  EXPECT_FALSE(DecodeCheckpoint(random).ok());
}

TEST_F(CheckpointTest, DecodeRejectsUnknownVersionEvenWithValidCrc) {
  std::string bytes = EncodeCheckpoint(MakeProcessorState());
  bytes[8] = 2;  // u32 version lives at offset 8, little-endian
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  for (size_t i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  Status status = DecodeCheckpoint(bytes).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST_F(CheckpointTest, DecodeRejectsOversizedCountsWithoutAllocating) {
  // A huge source count with a re-checksummed header must be rejected by
  // the remaining-bytes guard, not by an allocation attempt.
  std::string bytes = EncodeCheckpoint(MakeProcessorState());
  for (size_t i = 0; i < 8; ++i) {
    bytes[28 + i] = '\xff';  // u64 K at offset 28
  }
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  for (size_t i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  EXPECT_FALSE(DecodeCheckpoint(bytes).ok());
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, FingerprintSensitivity) {
  IncrementalCrhOptions options;
  const Dataset data = MakeStreamData(3, 8);
  const uint64_t base = CheckpointFingerprint(options, 5, &data);
  EXPECT_EQ(base, CheckpointFingerprint(options, 5, &data));

  IncrementalCrhOptions changed = options;
  changed.decay = 0.9;
  EXPECT_NE(base, CheckpointFingerprint(changed, 5, &data));
  changed = options;
  changed.window_size = 2;
  EXPECT_NE(base, CheckpointFingerprint(changed, 5, &data));
  changed = options;
  changed.quarantine_bad_claims = true;
  EXPECT_NE(base, CheckpointFingerprint(changed, 5, &data));
  changed = options;
  changed.base.weight_scheme.kind = WeightSchemeKind::kLogSum;
  EXPECT_NE(base, CheckpointFingerprint(changed, 5, &data));

  EXPECT_NE(base, CheckpointFingerprint(options, 4, &data));
  EXPECT_NE(base, CheckpointFingerprint(options, 5, nullptr));
  const Dataset other = MakeStreamData(4, 8);
  EXPECT_NE(base, CheckpointFingerprint(options, 5, &other));

  // Thread count is excluded: results are bit-identical at any count.
  changed = options;
  changed.base.num_threads = 7;
  EXPECT_EQ(base, CheckpointFingerprint(changed, 5, &data));
}

// ---------------------------------------------------------------------------
// CheckpointManager
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, ManagerSaveLoadRoundTrip) {
  CheckpointManagerOptions options;
  options.dir = FreshDir();
  CheckpointManager manager(options);
  CheckpointState first = MakeProcessorState();
  ASSERT_TRUE(manager.Save(first).ok());
  CheckpointState second = MakeDriverState();
  second.processor.weights[0] = 9.0;
  ASSERT_TRUE(manager.Save(second).ok());

  auto generations = manager.ListGenerations();
  ASSERT_TRUE(generations.ok());
  EXPECT_EQ(*generations, (std::vector<uint64_t>{0, 1}));

  CheckpointLoadReport report;
  auto loaded = manager.LoadLatest(second.fingerprint, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ExpectStatesEqual(second, *loaded);
  EXPECT_EQ(report.generation, 1u);
  EXPECT_FALSE(report.fell_back);
  EXPECT_TRUE(report.rejected.empty());
}

TEST_F(CheckpointTest, ManagerPrunesButNumberingContinues) {
  CheckpointManagerOptions options;
  options.dir = FreshDir();
  options.keep_generations = 2;
  CheckpointManager manager(options);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(manager.Save(MakeProcessorState()).ok());
  auto generations = manager.ListGenerations();
  ASSERT_TRUE(generations.ok());
  EXPECT_EQ(*generations, (std::vector<uint64_t>{1, 2}));

  // A new manager over the same directory continues the numbering; the
  // files being restored from are never overwritten.
  CheckpointManager fresh(options);
  ASSERT_TRUE(fresh.Save(MakeProcessorState()).ok());
  generations = fresh.ListGenerations();
  ASSERT_TRUE(generations.ok());
  EXPECT_EQ(*generations, (std::vector<uint64_t>{2, 3}));
}

TEST_F(CheckpointTest, ManagerFallsBackPastCorruptNewest) {
  CheckpointManagerOptions options;
  options.dir = FreshDir();
  CheckpointManager manager(options);
  CheckpointState old_state = MakeProcessorState();
  ASSERT_TRUE(manager.Save(old_state).ok());
  CheckpointState new_state = MakeProcessorState();
  new_state.processor.weights[0] = 42.0;
  ASSERT_TRUE(manager.Save(new_state).ok());
  const std::string newest = options.dir + "/ckpt-00000000000000000001.crhckpt";
  FlipByte(newest, static_cast<int64_t>(std::filesystem::file_size(newest) / 2));

  CheckpointLoadReport report;
  auto loaded = manager.LoadLatest(old_state.fingerprint, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ExpectStatesEqual(old_state, *loaded);
  EXPECT_EQ(report.generation, 0u);
  EXPECT_TRUE(report.fell_back);
  ASSERT_EQ(report.rejected.size(), 1u);
}

TEST_F(CheckpointTest, ManagerRejectsFingerprintMismatch) {
  CheckpointManagerOptions options;
  options.dir = FreshDir();
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Save(MakeProcessorState()).ok());
  auto loaded = manager.LoadLatest(999u);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_NE(loaded.status().message().find("fingerprint"), std::string::npos);
}

TEST_F(CheckpointTest, ManagerEmptyDirectoryIsNotFound) {
  CheckpointManagerOptions options;
  options.dir = FreshDir();
  CheckpointManager manager(options);
  EXPECT_EQ(manager.LoadLatest(0).status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Fault-injection sweeps
// ---------------------------------------------------------------------------

/// Seeds `dir` with two saves under the given retention policy and returns
/// the state the sweep will try to save/load. keep_generations=1 leaves one
/// file (so the next save prunes); keep_generations=2 leaves both.
CheckpointState SeedTwoGenerations(const std::string& dir, int keep_generations) {
  CheckpointManagerOptions options;
  options.dir = dir;
  options.keep_generations = keep_generations;
  CheckpointManager manager(options);
  CheckpointState state = MakeDriverState();
  EXPECT_TRUE(manager.Save(state).ok());
  EXPECT_TRUE(manager.Save(state).ok());
  return state;
}

bool DirHasTempFiles(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") return true;
  }
  return false;
}

TEST_F(CheckpointTest, SaveFaultSweepNeverLosesState) {
  // Discover how many times each fail-point site fires during one Save
  // (fresh manager, so the directory scan is included), then force a
  // failure at every one of those hits in turn.
  const std::string probe_dir = FreshDir("_probe");
  const CheckpointState state = SeedTwoGenerations(probe_dir, /*keep_generations=*/1);
  CheckpointManagerOptions sweep_options;
  sweep_options.keep_generations = 1;
  sweep_options.retry = NoRetry();
  {
    sweep_options.dir = probe_dir;
    CheckpointManager probe(sweep_options);
    FailPoints::Instance().SetRecording(true);
    ASSERT_TRUE(probe.Save(state).ok());
  }
  const auto recorded = FailPoints::Instance().RecordedHits();
  FailPoints::Instance().ClearAll();
  ASSERT_FALSE(recorded.empty());

  size_t cases = 0;
  for (const auto& [site, hits] : recorded) {
    for (uint64_t hit = 1; hit <= hits; ++hit) {
      const std::string dir = FreshDir("_" + site + "_" + std::to_string(hit));
      SeedTwoGenerations(dir, /*keep_generations=*/1);
      sweep_options.dir = dir;
      CheckpointManager manager(sweep_options);
      FailPoints::Instance().FailOnHit(site, hit);
      const Status status = manager.Save(state);
      FailPoints::Instance().ClearAll();
      ++cases;

      EXPECT_FALSE(status.ok()) << site << " hit " << hit;
      EXPECT_EQ(status.code(), StatusCode::kIOError) << site << " hit " << hit;
      // No torn artifacts, and the last good generation still loads.
      EXPECT_FALSE(DirHasTempFiles(dir)) << site << " hit " << hit;
      CheckpointManager reader(sweep_options);
      auto loaded = reader.LoadLatest(state.fingerprint);
      EXPECT_TRUE(loaded.ok()) << site << " hit " << hit << ": "
                               << loaded.status().message();
    }
  }
  // The sweep must have covered the whole write path: directory scan,
  // open, write, flush, close, rename, and at least one prune remove.
  EXPECT_GE(cases, 7u);
}

TEST_F(CheckpointTest, LoadFaultSweepFallsBackOrFailsCleanly) {
  const std::string dir = FreshDir();
  const CheckpointState state = SeedTwoGenerations(dir, /*keep_generations=*/2);
  CheckpointManagerOptions options;
  options.dir = dir;
  options.retry = NoRetry();

  // A read failure on the newest generation falls back to the older one.
  for (const std::string site : {"checkpoint.open_read", "checkpoint.fread"}) {
    CheckpointManager manager(options);
    FailPoints::Instance().FailOnHit(site, 1);
    CheckpointLoadReport report;
    auto loaded = manager.LoadLatest(state.fingerprint, &report);
    FailPoints::Instance().ClearAll();
    ASSERT_TRUE(loaded.ok()) << site << ": " << loaded.status().message();
    EXPECT_TRUE(report.fell_back) << site;
    ExpectStatesEqual(state, *loaded);
  }

  // Persistent read failure on every generation: a clean NotFound naming
  // each rejected file, never a crash.
  for (const std::string site : {"checkpoint.open_read", "checkpoint.fread"}) {
    CheckpointManager manager(options);
    FailPoints::Instance().FailNext(site, 1000);
    CheckpointLoadReport report;
    auto loaded = manager.LoadLatest(state.fingerprint, &report);
    FailPoints::Instance().ClearAll();
    EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound) << site;
    EXPECT_EQ(report.rejected.size(), 2u) << site;
  }

  // Directory listing failure surfaces as IOError.
  CheckpointManager manager(options);
  FailPoints::Instance().FailNext("checkpoint.list");
  EXPECT_EQ(manager.LoadLatest(state.fingerprint).status().code(), StatusCode::kIOError);
}

TEST_F(CheckpointTest, RetryAbsorbsTransientWriteFailures) {
  CheckpointManagerOptions options;
  options.dir = FreshDir();
  options.retry.max_attempts = 3;
  options.retry.base_backoff_ms = 0.0;
  CheckpointManager manager(options);
  // Two transient fwrite failures, then success on the third attempt.
  FailPoints::Instance().FailNext("checkpoint.fwrite", 2);
  EXPECT_TRUE(manager.Save(MakeProcessorState()).ok());
  EXPECT_FALSE(DirHasTempFiles(options.dir));

  // Three in a row exhaust the budget.
  FailPoints::Instance().FailNext("checkpoint.rename", 3);
  const Status status = manager.Save(MakeProcessorState());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("checkpoint save"), std::string::npos);
  FailPoints::Instance().ClearAll();
  EXPECT_FALSE(DirHasTempFiles(options.dir));
}

TEST_F(CheckpointTest, FailPointSiteListIsComplete) {
  // Every site the sweep can discover is declared, so CI sweeps that
  // iterate CheckpointFailPointSites() cannot silently lose coverage.
  const std::string dir = FreshDir();
  const CheckpointState state = SeedTwoGenerations(dir, /*keep_generations=*/1);
  CheckpointManagerOptions options;
  options.dir = dir;
  options.keep_generations = 1;
  FailPoints::Instance().SetRecording(true);
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Save(state).ok());
  const std::vector<size_t> rows = {0};
  ASSERT_TRUE(manager.Checkpoint(ViewOf(NextDriverState(state)), &rows).ok());  // a record
  ASSERT_TRUE(manager.LoadLatest(state.fingerprint).ok());
  const auto recorded = FailPoints::Instance().RecordedHits();
  FailPoints::Instance().ClearAll();
  const std::vector<std::string> declared = CheckpointFailPointSites();
  for (const auto& [site, hits] : recorded) {
    EXPECT_NE(std::find(declared.begin(), declared.end(), site), declared.end())
        << "undeclared fail-point site " << site;
  }
}

TEST_F(CheckpointTest, CreateDirFailPointPropagates) {
  // The directory-creation step of the lazy scan is fail-point
  // instrumented (checkpoint.create_dir): a fault there surfaces as a
  // clean Status from Save, and the scan retries once the fault clears.
  // Regression test for the crh_analyzer fail-point dominance finding on
  // CheckpointManager::EnsureScanned.
  CheckpointManagerOptions options;
  options.dir = FreshDir() + "/nested";
  CheckpointManager manager(options);
  FailPoints::Instance().FailNext("checkpoint.create_dir", 1);
  const Status failed = manager.Save(MakeProcessorState());
  FailPoints::Instance().ClearAll();
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(manager.Save(MakeProcessorState()).ok());
}

TEST_F(CheckpointTest, StreamFailPointSiteListIsComplete) {
  // Every stream.* site the resilient driver hits is declared in
  // StreamFailPointSites(), so sweeps driven by the registry cannot lose
  // the chunk boundary. Regression test for the unregistered
  // stream.process_chunk site crh_analyzer found.
  const Dataset data = MakeStreamData(4, 8);
  IncrementalCrhOptions options;
  StreamResilienceOptions resilience;
  resilience.checkpoint_dir = FreshDir();
  FailPoints::Instance().SetRecording(true);
  ASSERT_TRUE(RunIncrementalCrhResilient(data, options, resilience).ok());
  const auto recorded = FailPoints::Instance().RecordedHits();
  FailPoints::Instance().ClearAll();
  const std::vector<std::string> declared = StreamFailPointSites();
  bool saw_process_chunk = false;
  for (const auto& [site, hits] : recorded) {
    if (site.rfind("stream.", 0) != 0) continue;
    if (site == "stream.process_chunk") saw_process_chunk = true;
    EXPECT_NE(std::find(declared.begin(), declared.end(), site), declared.end())
        << "undeclared streaming fail-point site " << site;
  }
  EXPECT_TRUE(saw_process_chunk);
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// A small mixed-type universe of `objects` objects claimed by `sources`
/// sources, and chunks that revisit it: chunk c holds `per_chunk`
/// consecutive objects (mod N) from (c * per_chunk) mod N, each claimed by
/// every source with chunk-dependent noise.
Dataset MakeUniverse(size_t objects, size_t sources) {
  Schema schema;
  EXPECT_TRUE(schema.AddContinuous("x", 0.0).ok());
  EXPECT_TRUE(schema.AddCategorical("y").ok());
  std::vector<std::string> object_ids;
  for (size_t i = 0; i < objects; ++i) object_ids.push_back("o" + std::to_string(i));
  std::vector<std::string> source_ids;
  for (size_t k = 0; k < sources; ++k) source_ids.push_back("s" + std::to_string(k));
  Dataset universe(std::move(schema), std::move(object_ids), std::move(source_ids));
  for (const char* l : {"a", "b", "c", "d"}) universe.mutable_dict(1).GetOrAdd(l);
  return universe;
}

DataChunk MakeRevisitingChunk(const Dataset& universe, uint64_t c, size_t per_chunk) {
  DataChunk chunk;
  chunk.window_start = static_cast<int64_t>(c);
  std::vector<std::string> ids;
  for (size_t j = 0; j < per_chunk; ++j) {
    const size_t parent = (c * per_chunk + j) % universe.num_objects();
    chunk.parent_object.push_back(parent);
    ids.push_back(universe.object_id(parent));
  }
  chunk.data = Dataset(universe.schema(), std::move(ids), universe.source_ids());
  for (const char* l : {"a", "b", "c", "d"}) chunk.data.mutable_dict(1).GetOrAdd(l);
  for (size_t k = 0; k < universe.num_sources(); ++k) {
    for (size_t j = 0; j < per_chunk; ++j) {
      const uint64_t noise = Mix64(c * 131 + k * 17 + j);
      const double x = static_cast<double>(chunk.parent_object[j]) +
                       static_cast<double>(noise % 64) * 0.125 * static_cast<double>(k);
      chunk.data.SetObservation(k, j, 0, Value::Continuous(x));
      chunk.data.SetObservation(
          k, j, 1, Value::Categorical(static_cast<CategoryId>((noise >> 8) % (k + 1) % 4)));
    }
  }
  return chunk;
}

/// The engine's full driver state, as a checkpoint image would hold it.
CheckpointState FullState(const StreamEngine& engine, uint64_t fingerprint) {
  CheckpointState state;
  state.fingerprint = fingerprint;
  state.processor.weights = engine.source_weights();
  state.processor.accumulated = engine.accumulated_deviations();
  state.processor.quarantined_per_source = engine.quarantined_per_source();
  state.processor.chunks_processed = engine.weight_history().size();
  state.has_driver_state = true;
  state.truths = engine.truths();
  state.weight_history = engine.weight_history();
  state.chunk_starts = engine.chunk_starts();
  return state;
}

std::string GenerationPath(const std::string& dir, uint64_t generation,
                           const char* suffix = ".crhckpt") {
  const std::string digits = std::to_string(generation);
  return dir + "/ckpt-" + std::string(20 - digits.size(), '0') + digits + suffix;
}

std::string JournalPath(const std::string& dir, uint64_t generation) {
  return GenerationPath(dir, generation, ".crhjrnl");
}

TEST_F(CheckpointTest, JournalReplayEqualsTheFullImageAfterEveryChunk) {
  // The oracle: after every chunk, resume (a fresh manager's LoadLatest:
  // newest image plus its journal) yields exactly the bytes a full image of
  // the state at the last checkpoint point would — under both truth
  // maintenance modes and with records spanning one or three chunks. The
  // kOff stream revisits its objects; the cumulative index of kFull takes
  // each (entry, source) claim once, so its stream never does.
  for (const DeltaSolveMode mode : {DeltaSolveMode::kOff, DeltaSolveMode::kFull}) {
    const Dataset universe = MakeUniverse(mode == DeltaSolveMode::kOff ? 150 : 480, 4);
    for (const uint64_t every : {uint64_t{1}, uint64_t{3}}) {
      const std::string tag = std::string(mode == DeltaSolveMode::kOff ? "off" : "full") +
                              "_every" + std::to_string(every);
      SCOPED_TRACE(tag);
      IncrementalCrhOptions options;
      options.decay = 0.5;
      options.delta_solve = mode;
      StreamResilienceOptions resilience;
      resilience.checkpoint_dir = FreshDir("_" + tag);
      resilience.checkpoint_every = every;
      auto engine = StreamEngine::Open(universe, options, resilience);
      ASSERT_TRUE(engine.ok()) << engine.status().message();
      const uint64_t fingerprint =
          CheckpointFingerprint(options, universe.num_sources(), &universe);
      CheckpointManagerOptions reader_options;
      reader_options.dir = resilience.checkpoint_dir;
      std::string expected;
      bool saw_journal = false;
      for (uint64_t c = 0; c < 40; ++c) {
        ASSERT_TRUE((*engine)->ApplyChunk(MakeRevisitingChunk(universe, c, 12), false).ok());
        if ((*engine)->last_checkpoint_chunks() == c + 1) {
          auto decoded = DecodeCheckpoint(EncodeCheckpoint(FullState(**engine, fingerprint)));
          ASSERT_TRUE(decoded.ok());
          expected = EncodeCheckpoint(*decoded);
        }
        CheckpointManager reader(reader_options);
        CheckpointLoadReport report;
        auto loaded = reader.LoadLatest(fingerprint, &report);
        if (expected.empty()) {
          EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound) << "chunk " << c;
          continue;
        }
        ASSERT_TRUE(loaded.ok()) << "chunk " << c << ": " << loaded.status().message();
        EXPECT_FALSE(report.fell_back) << "chunk " << c;
        saw_journal = saw_journal || std::filesystem::exists(
                                         JournalPath(resilience.checkpoint_dir, report.generation));
        EXPECT_TRUE(EncodeCheckpoint(*loaded) == expected) << "chunk " << c;
      }
      // Both paths ran: records were appended, and compaction started new
      // generations.
      EXPECT_TRUE(saw_journal);
      CheckpointManager reader(reader_options);
      auto generations = reader.ListGenerations();
      ASSERT_TRUE(generations.ok());
      EXPECT_GE(generations->back(), 2u);
    }
  }
}

TEST_F(CheckpointTest, JournalBytesPerChunkStayFlat) {
  // A deterministic 5k-chunk soak over 48 objects. Each chunk appends one
  // record of the same size from the first chunk to the last, although the
  // weight history (and with it every image) grows all along; and counting
  // compaction images too, a chunk costs at most two records' bytes. The
  // cold-start image of chunk 1 is a one-off, not a per-chunk cost, and
  // is left out of the amortized count. Bytes only: nothing here is timed.
  const Dataset universe = MakeUniverse(48, 4);
  constexpr uint64_t kChunks = 5000;
  constexpr uint64_t kHeaderBytes = 12;
  IncrementalCrhOptions options;
  StreamResilienceOptions resilience;
  resilience.checkpoint_dir = FreshDir();
  auto engine = StreamEngine::Open(universe, options, resilience);
  ASSERT_TRUE(engine.ok());
  CheckpointManagerOptions lister_options;
  lister_options.dir = resilience.checkpoint_dir;
  const CheckpointManager lister(lister_options);

  std::vector<uint64_t> record_bytes;  // per appending chunk, header excluded
  std::vector<uint64_t> record_chunk;
  uint64_t written_after_first = 0;
  uint64_t images = 0;
  uint64_t generation = 0;
  uint64_t journal_bytes = 0;
  for (uint64_t c = 0; c < kChunks; ++c) {
    ASSERT_TRUE((*engine)->ApplyChunk(MakeRevisitingChunk(universe, c, 4), false).ok());
    auto generations = lister.ListGenerations();
    ASSERT_TRUE(generations.ok());
    const std::string journal = JournalPath(resilience.checkpoint_dir, generations->back());
    const uint64_t now = std::filesystem::exists(journal) ? std::filesystem::file_size(journal) : 0;
    if (c == 0 || generations->back() != generation) {
      ++images;
      ASSERT_EQ(now, 0u);
      if (c > 0) {
        written_after_first += std::filesystem::file_size(
            GenerationPath(resilience.checkpoint_dir, generations->back()));
      }
    } else {
      const uint64_t appended = now - journal_bytes;
      written_after_first += appended;
      record_bytes.push_back(appended - (journal_bytes == 0 ? kHeaderBytes : 0));
      record_chunk.push_back(c);
    }
    generation = generations->back();
    journal_bytes = now;
  }
  ASSERT_FALSE(record_bytes.empty());
  const uint64_t record = record_bytes.front();
  for (size_t r = 0; r < record_bytes.size(); ++r) {
    const bool first_tenth = record_chunk[r] < kChunks / 10;
    const bool last_tenth = record_chunk[r] >= kChunks - kChunks / 10;
    if (first_tenth || last_tenth) {
      EXPECT_EQ(record_bytes[r], record) << "record of chunk " << record_chunk[r];
    }
  }
  EXPECT_GT(images, 2u);
  EXPECT_LE(written_after_first, 2 * record * (kChunks - 1))
      << images << " images, one record " << record << " bytes";
}

TEST_F(CheckpointTest, ImageOnlyDirectoryStillResumes) {
  // A directory an older build wrote holds images and no journal; resume
  // restores the newest image alone.
  const Dataset data = MakeStreamData(6, 12);
  IncrementalCrhOptions options;
  auto baseline = RunIncrementalCrh(data, options);
  ASSERT_TRUE(baseline.ok());
  auto chunks = SplitByWindow(data, options.window_size);
  ASSERT_TRUE(chunks.ok());
  auto engine = StreamEngine::Open(data, options, StreamResilienceOptions{});
  ASSERT_TRUE(engine.ok());
  for (size_t c = 0; c < 3; ++c) ASSERT_TRUE((*engine)->ApplyChunk((*chunks)[c], false).ok());

  StreamResilienceOptions resilience;
  resilience.checkpoint_dir = FreshDir();
  CheckpointManagerOptions manager_options;
  manager_options.dir = resilience.checkpoint_dir;
  CheckpointManager manager(manager_options);
  ASSERT_TRUE(
      manager
          .Save(FullState(**engine, CheckpointFingerprint(options, data.num_sources(), &data)))
          .ok());
  ASSERT_FALSE(std::filesystem::exists(JournalPath(resilience.checkpoint_dir, 0)));

  resilience.resume = true;
  auto resumed = RunIncrementalCrhResilient(data, options, resilience);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->chunks_resumed, 3u);
  EXPECT_FALSE(resumed->resumed_from_fallback);
  ExpectResultsEqual(*baseline, *resumed);
}

TEST_F(CheckpointTest, JournalAppendFaultSweepNeverLosesState) {
  // Every fail-point hit of one journal append, failed in turn: the
  // checkpoint either lands (the failed append fell back to a new image)
  // or reports an IOError, and resume yields exactly the new state or the
  // previous one — never a mix, never a temp file. (A failed flush or
  // close may still have put the whole record on disk; resuming the new
  // state then is right.)
  const CheckpointState first = MakeDriverState();
  const CheckpointState second = NextDriverState(first);
  const std::vector<size_t> rows = {1};
  CheckpointManagerOptions options;
  options.retry = NoRetry();
  auto seed = [&](const std::string& dir) {
    options.dir = dir;
    auto manager = std::make_unique<CheckpointManager>(options);
    EXPECT_TRUE(manager->Checkpoint(ViewOf(first), &rows).ok());  // the image
    return manager;
  };
  {
    auto probe = seed(FreshDir("_probe"));
    FailPoints::Instance().SetRecording(true);
    ASSERT_TRUE(probe->Checkpoint(ViewOf(second), &rows).ok());
    EXPECT_TRUE(std::filesystem::exists(JournalPath(options.dir, 0)));
  }
  const auto recorded = FailPoints::Instance().RecordedHits();
  FailPoints::Instance().ClearAll();
  ASSERT_TRUE(std::any_of(recorded.begin(), recorded.end(),
                          [](const auto& hit) { return hit.first == "checkpoint.journal_open"; }));
  const std::string first_bytes = EncodeCheckpoint(first);
  const std::string second_bytes = EncodeCheckpoint(second);
  size_t cases = 0;
  for (const auto& [site, hits] : recorded) {
    for (uint64_t hit = 1; hit <= hits; ++hit) {
      const std::string where = site + " hit " + std::to_string(hit);
      // Fail this hit of the append, and the image fallback's writes too,
      // so the IOError path is reached as well as the fallback.
      for (const bool fail_fallback : {false, true}) {
        auto writer = seed(FreshDir("_" + site + "_" + std::to_string(hit) +
                                    (fail_fallback ? "_nofallback" : "")));
        FailPoints::Instance().FailOnHit(site, hit);
        if (fail_fallback) FailPoints::Instance().FailNext("checkpoint.open_write", 1000);
        const Status status = writer->Checkpoint(ViewOf(second), &rows);
        FailPoints::Instance().ClearAll();
        ++cases;
        if (!status.ok()) {
          EXPECT_EQ(status.code(), StatusCode::kIOError) << where;
        }
        EXPECT_FALSE(DirHasTempFiles(options.dir)) << where;
        CheckpointManager reader(options);
        auto loaded = reader.LoadLatest(first.fingerprint);
        ASSERT_TRUE(loaded.ok()) << where << ": " << loaded.status().message();
        const std::string got = EncodeCheckpoint(*loaded);
        EXPECT_TRUE(got == second_bytes || (!status.ok() && got == first_bytes)) << where;
      }
    }
  }
  EXPECT_GE(cases, 8u);  // open, write, flush, close — with and without fallback
}

TEST_F(CheckpointTest, SilentShortJournalAppendIsDetectedAndRepaired) {
  // A silent short write on an append: only 7 bytes of the record reach the
  // disk while every return code reports success. Resume falls back to the
  // image; the next checkpoint notices the journal does not end where the
  // append left it and starts a new generation instead of writing a record
  // no replay would reach.
  const CheckpointState first = MakeDriverState();
  const CheckpointState second = NextDriverState(first);
  CheckpointState third = NextDriverState(second);
  third.truths.Set(2, 0, Value::Continuous(0.25));
  const std::vector<size_t> rows = {1, 2};
  CheckpointManagerOptions options;
  options.dir = FreshDir();
  options.retry = NoRetry();
  CheckpointManager writer(options);
  ASSERT_TRUE(writer.Checkpoint(ViewOf(first), &rows).ok());
  FailPoints::Instance().ShortWriteOnHit("checkpoint.fwrite", 1, 7);
  ASSERT_TRUE(writer.Checkpoint(ViewOf(second), &rows).ok());
  FailPoints::Instance().ClearAll();

  CheckpointManager reader(options);
  CheckpointLoadReport report;
  auto loaded = reader.LoadLatest(first.fingerprint, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(report.fell_back);
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_NE(report.rejected[0].find("torn"), std::string::npos) << report.rejected[0];
  EXPECT_TRUE(EncodeCheckpoint(*loaded) == EncodeCheckpoint(first));

  ASSERT_TRUE(writer.Checkpoint(ViewOf(third), &rows).ok());
  auto generations = writer.ListGenerations();
  ASSERT_TRUE(generations.ok());
  EXPECT_EQ(generations->back(), 1u);
  loaded = reader.LoadLatest(first.fingerprint, &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(report.fell_back);
  EXPECT_TRUE(EncodeCheckpoint(*loaded) == EncodeCheckpoint(third));
}

TEST_F(CheckpointTest, JournalRejectsHostileRecordsWithoutAllocating) {
  CheckpointState image = MakeDriverState();
  const std::string image_bytes = EncodeCheckpoint(image);
  const uint32_t crc = Crc32(image_bytes.data(), image_bytes.size() - 4);
  const CheckpointState next = NextDriverState(image);
  const std::vector<size_t> rows = {1};
  const std::string header = EncodeJournalHeader(crc);
  const std::string record =
      EncodeJournalRecord(ViewOf(next), image.processor.chunks_processed, &rows);

  CheckpointState state = image;
  JournalReplay replay = ApplyJournal(header + record, crc, &state);
  EXPECT_TRUE(replay.stopped.ok()) << replay.stopped.message();
  EXPECT_EQ(replay.records, 1u);
  EXPECT_TRUE(EncodeCheckpoint(state) == EncodeCheckpoint(next));

  // Every truncation of the record applies nothing and names it torn.
  for (size_t len = 0; len < record.size(); ++len) {
    state = image;
    replay = ApplyJournal(header + record.substr(0, len), crc, &state);
    EXPECT_EQ(replay.records, 0u);
    EXPECT_EQ(replay.stopped.ok(), len == 0) << "prefix " << len;
    EXPECT_TRUE(EncodeCheckpoint(state) == image_bytes);
  }
  // A flipped bit anywhere, a huge length header, or another image's CRC.
  for (size_t pos = 0; pos < record.size(); ++pos) {
    std::string bad = record;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x04);
    state = image;
    EXPECT_FALSE(ApplyJournal(header + bad, crc, &state).stopped.ok()) << "flip at " << pos;
  }
  std::string huge = record;
  for (size_t i = 0; i < 4; ++i) huge[i] = '\xff';
  state = image;
  EXPECT_FALSE(ApplyJournal(header + huge, crc, &state).stopped.ok());
  EXPECT_FALSE(ApplyJournal(header + record, crc ^ 1, &state).stopped.ok());
  EXPECT_TRUE(EncodeCheckpoint(state) == image_bytes);
}

TEST_F(CheckpointTest, EncodedCheckpointBytesMatchesTheEncoding) {
  for (const CheckpointState& state : {MakeProcessorState(), MakeDriverState()}) {
    EXPECT_EQ(EncodedCheckpointBytes(ViewOf(state)), EncodeCheckpoint(state).size());
  }
}

// ---------------------------------------------------------------------------
// Resilient streaming driver
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, ResilientMatchesPlainRunBitForBit) {
  const Dataset data = MakeStreamData(6, 16);
  IncrementalCrhOptions options;
  options.decay = 0.4;
  auto plain = RunIncrementalCrh(data, options);
  ASSERT_TRUE(plain.ok());

  StreamResilienceOptions resilience;
  resilience.checkpoint_dir = FreshDir();
  resilience.checkpoint_every = 2;
  auto resilient = RunIncrementalCrhResilient(data, options, resilience);
  ASSERT_TRUE(resilient.ok()) << resilient.status().message();
  ExpectResultsEqual(*plain, *resilient);
  EXPECT_EQ(resilient->checkpoints_written, 3u);  // after chunks 2, 4 and 6
  EXPECT_EQ(resilient->chunks_resumed, 0u);
}

TEST_F(CheckpointTest, KillAndResumeIsBitIdentical) {
  const Dataset data = MakeStreamData(7, 14);
  for (int threads : {1, 3}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    IncrementalCrhOptions options;
    options.decay = 0.6;
    options.base.num_threads = threads;
    auto baseline = RunIncrementalCrh(data, options);
    ASSERT_TRUE(baseline.ok());

    StreamResilienceOptions resilience;
    resilience.checkpoint_dir = FreshDir("_t" + std::to_string(threads));

    // Kill the stream at the boundary of chunk 4 (three chunks done).
    FailPoints::Instance().FailOnHit("stream.process_chunk", 4);
    auto killed = RunIncrementalCrhResilient(data, options, resilience);
    FailPoints::Instance().ClearAll();
    ASSERT_FALSE(killed.ok());

    resilience.resume = true;
    auto resumed = RunIncrementalCrhResilient(data, options, resilience);
    ASSERT_TRUE(resumed.ok()) << resumed.status().message();
    EXPECT_EQ(resumed->chunks_resumed, 3u);
    EXPECT_FALSE(resumed->resumed_from_fallback);
    ExpectResultsEqual(*baseline, *resumed);
  }
}

TEST_F(CheckpointTest, ResumeFallsBackPastCorruptNewestCheckpoint) {
  const Dataset data = MakeStreamData(6, 12);
  IncrementalCrhOptions options;
  auto baseline = RunIncrementalCrh(data, options);
  ASSERT_TRUE(baseline.ok());

  StreamResilienceOptions resilience;
  resilience.checkpoint_dir = FreshDir();
  FailPoints::Instance().FailOnHit("stream.process_chunk", 4);
  ASSERT_FALSE(RunIncrementalCrhResilient(data, options, resilience).ok());
  FailPoints::Instance().ClearAll();

  // Chunk 1 wrote the image of generation 0, chunks 2 and 3 appended one
  // journal record each; corrupting the newest record (its last byte
  // belongs to its CRC) forces resume back to the state after chunk 2.
  FlipByte(resilience.checkpoint_dir + "/ckpt-00000000000000000000.crhjrnl", -1);
  resilience.resume = true;
  auto resumed = RunIncrementalCrhResilient(data, options, resilience);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->chunks_resumed, 2u);
  EXPECT_TRUE(resumed->resumed_from_fallback);
  ExpectResultsEqual(*baseline, *resumed);
}

TEST_F(CheckpointTest, ResumeFallsBackPastSilentlyTruncatedNewestCheckpoint) {
  // The torn-tail case: an ENOSPC-style short write persists only a 7-byte
  // prefix of the newest generation while every return code — fwrite,
  // fflush, fclose, rename — reports success. The writing run finishes
  // cleanly, so nothing could have surfaced the loss; only the CRC at load
  // time can detect it, and resume must fall back newest-first to the
  // previous intact generation instead of failing or starting cold.
  const Dataset data = MakeStreamData(6, 12);
  IncrementalCrhOptions options;
  auto baseline = RunIncrementalCrh(data, options);
  ASSERT_TRUE(baseline.ok());

  StreamResilienceOptions resilience;
  resilience.checkpoint_dir = FreshDir();
  resilience.checkpoint_every = 2;  // generations land after chunks 2, 4, 6
  FailPoints::Instance().ShortWriteOnHit("checkpoint.fwrite", 3, 7);
  auto first = RunIncrementalCrhResilient(data, options, resilience);
  FailPoints::Instance().ClearAll();
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_EQ(first->checkpoints_written, 3u);  // the loss was silent

  resilience.resume = true;
  auto resumed = RunIncrementalCrhResilient(data, options, resilience);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->chunks_resumed, 4u);  // fell back to the chunk-4 generation
  EXPECT_TRUE(resumed->resumed_from_fallback);
  ExpectResultsEqual(*baseline, *resumed);
}

TEST_F(CheckpointTest, ResumeWithEmptyDirectoryIsAColdStart) {
  const Dataset data = MakeStreamData(4, 10);
  IncrementalCrhOptions options;
  auto baseline = RunIncrementalCrh(data, options);
  ASSERT_TRUE(baseline.ok());

  StreamResilienceOptions resilience;
  resilience.checkpoint_dir = FreshDir();
  resilience.resume = true;
  auto resumed = RunIncrementalCrhResilient(data, options, resilience);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->chunks_resumed, 0u);
  ExpectResultsEqual(*baseline, *resumed);
}

TEST_F(CheckpointTest, ResumeIgnoresCheckpointsFromDifferentOptions) {
  // A checkpoint written under different options has a different
  // fingerprint; resume must not restore it, and instead start cold.
  const Dataset data = MakeStreamData(4, 10);
  IncrementalCrhOptions options;
  options.decay = 0.3;
  StreamResilienceOptions resilience;
  resilience.checkpoint_dir = FreshDir();
  ASSERT_TRUE(RunIncrementalCrhResilient(data, options, resilience).ok());

  IncrementalCrhOptions other = options;
  other.decay = 0.8;
  auto baseline = RunIncrementalCrh(data, other);
  ASSERT_TRUE(baseline.ok());
  resilience.resume = true;
  auto resumed = RunIncrementalCrhResilient(data, other, resilience);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->chunks_resumed, 0u);
  ExpectResultsEqual(*baseline, *resumed);
}

TEST_F(CheckpointTest, ResilientValidatesItsOptions) {
  const Dataset data = MakeStreamData(2, 4);
  IncrementalCrhOptions options;
  StreamResilienceOptions resilience;
  resilience.checkpoint_every = 0;
  EXPECT_FALSE(RunIncrementalCrhResilient(data, options, resilience).ok());
  resilience = {};
  resilience.resume = true;  // without a checkpoint_dir
  EXPECT_FALSE(RunIncrementalCrhResilient(data, options, resilience).ok());
  resilience = {};
  resilience.checkpoint_dir = FreshDir();
  resilience.retry.max_attempts = 0;
  EXPECT_FALSE(RunIncrementalCrhResilient(data, options, resilience).ok());
}

TEST_F(CheckpointTest, QuarantineCountsSurviveKillAndResume) {
  // Quarantine counters are part of the persisted state: a resumed dirty
  // stream reports the same per-source totals as an uninterrupted one.
  Dataset data = MakeStreamData(6, 12, 13);
  data.SetObservation(0, 0, 0, Value::Continuous(std::nan("")));
  data.SetObservation(2, 1, 1, Value::Categorical(99));
  IncrementalCrhOptions options;
  options.quarantine_bad_claims = true;
  auto baseline = RunIncrementalCrh(data, options);
  ASSERT_TRUE(baseline.ok());

  StreamResilienceOptions resilience;
  resilience.checkpoint_dir = FreshDir();
  FailPoints::Instance().FailOnHit("stream.process_chunk", 3);
  ASSERT_FALSE(RunIncrementalCrhResilient(data, options, resilience).ok());
  FailPoints::Instance().ClearAll();
  resilience.resume = true;
  auto resumed = RunIncrementalCrhResilient(data, options, resilience);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  ExpectResultsEqual(*baseline, *resumed);
  EXPECT_EQ(resumed->quarantined_per_source[0], 1u);
  EXPECT_EQ(resumed->quarantined_per_source[2], 1u);
}

}  // namespace
}  // namespace crh
