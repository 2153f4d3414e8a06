#include "tools/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/fault_injection.h"
#include "data/csv.h"
#include "datagen/noise.h"
#include "datagen/uci_like.h"
#include "common/rng.h"

namespace crh::cli {
namespace {

// ---------------------------------------------------------------------------
// Argument parsing
// ---------------------------------------------------------------------------

TEST(CliParseTest, RequiredFlags) {
  EXPECT_FALSE(ParseCliArgs({}).ok());
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--input", "a.csv"}).ok());
  auto ok = ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv"});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->schema_spec, "x:continuous");
  EXPECT_EQ(ok->input_path, "a.csv");
  EXPECT_EQ(ok->algorithm, "crh");
}

TEST(CliParseTest, AllFlags) {
  auto options = ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv", "--truth",
                               "t.csv", "--output", "o.csv", "--algorithm", "ICRH",
                               "--weights", "sum", "--window", "3", "--decay", "0.2",
                               "--reducers", "7"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->truth_path, "t.csv");
  EXPECT_EQ(options->output_path, "o.csv");
  EXPECT_EQ(options->algorithm, "icrh");  // lowercased
  EXPECT_EQ(options->weights, "sum");
  EXPECT_EQ(options->window, 3);
  EXPECT_DOUBLE_EQ(options->decay, 0.2);
  EXPECT_EQ(options->reducers, 7);
}

TEST(CliParseTest, RejectsBadValues) {
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a", "--weights",
                             "median"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a", "--window", "0"})
                   .ok());
  EXPECT_FALSE(
      ParseCliArgs({"--schema", "x:continuous", "--input", "a", "--decay", "1.5"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--bogus"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--schema"}).ok());  // missing value
}

TEST(CliParseTest, CheckpointFlags) {
  auto options = ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                               "--algorithm", "icrh", "--checkpoint-dir", "/tmp/ckpt",
                               "--checkpoint-every", "3", "--resume", "--quarantine"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->checkpoint_dir, "/tmp/ckpt");
  EXPECT_EQ(options->checkpoint_every, 3);
  EXPECT_TRUE(options->resume);
  EXPECT_TRUE(options->quarantine);
}

TEST(CliParseTest, CheckpointFlagValidation) {
  // --resume needs somewhere to resume from.
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                             "--algorithm", "icrh", "--resume"}).ok());
  // checkpoint-every must be positive.
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                             "--algorithm", "icrh", "--checkpoint-dir", "d",
                             "--checkpoint-every", "0"}).ok());
  // The robustness flags are icrh-only.
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                             "--checkpoint-dir", "d"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                             "--quarantine"}).ok());
}

TEST(CliParseTest, DeltaSolveAcceptsOffAndFull) {
  for (const std::string mode : {"off", "full"}) {
    auto options = ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                                 "--algorithm", "icrh", "--delta-solve", mode});
    ASSERT_TRUE(options.ok()) << mode << ": " << options.status().message();
    EXPECT_EQ(options->delta_solve, mode);
  }
  // The retired dirty-set modes are rejected, naming the valid values.
  for (const std::string mode : {"on", "verify", "delta"}) {
    auto options = ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                                 "--algorithm", "icrh", "--delta-solve", mode});
    ASSERT_FALSE(options.ok()) << mode;
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument) << mode;
    EXPECT_NE(options.status().message().find("off or full"), std::string::npos)
        << options.status().message();
  }
  // Like the other stream flags, it applies to icrh only.
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                             "--delta-solve", "full"}).ok());
}

// ---------------------------------------------------------------------------
// Schema spec parsing
// ---------------------------------------------------------------------------

TEST(SchemaSpecTest, ParsesAllTypes) {
  auto schema = ParseSchemaSpec("temp:continuous:0.5,cond:categorical,name:text");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_properties(), 3u);
  EXPECT_TRUE(schema->is_continuous(0));
  EXPECT_DOUBLE_EQ(schema->property(0).rounding_unit, 0.5);
  EXPECT_TRUE(schema->is_categorical(1));
  EXPECT_EQ(schema->property(2).type, PropertyType::kText);
}

TEST(SchemaSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseSchemaSpec("").ok());
  EXPECT_FALSE(ParseSchemaSpec("justaname").ok());
  EXPECT_FALSE(ParseSchemaSpec("x:integer").ok());
  EXPECT_FALSE(ParseSchemaSpec("x:categorical:2").ok());   // unit on categorical
  EXPECT_FALSE(ParseSchemaSpec("x:text:1").ok());          // unit on text
  EXPECT_FALSE(ParseSchemaSpec(":continuous").ok());       // empty name
  EXPECT_FALSE(ParseSchemaSpec("x:continuous,x:text").ok());  // duplicate
}

// ---------------------------------------------------------------------------
// End to end through temporary CSV files
// ---------------------------------------------------------------------------

class CliEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs every discovered test as its own process, in parallel, so
    // the fixture files must be unique per test or concurrent tests clobber
    // each other's CSVs mid-read.
    const std::string unique =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    obs_path_ = testing::TempDir() + "/cli_obs_" + unique + ".csv";
    truth_path_ = testing::TempDir() + "/cli_truth_" + unique + ".csv";
    out_path_ = testing::TempDir() + "/cli_out_" + unique + ".csv";

    // Small Adult-style simulation, exported through the library's own CSV
    // writer with object ids carrying a _t<day> suffix for icrh.
    UciLikeOptions uci;
    uci.num_records = 120;
    Dataset truth_data = MakeAdultGroundTruth(uci);
    NoiseOptions noise;
    noise.gammas = {0.1, 0.7, 1.4, 2.0};
    auto noisy = MakeNoisyDataset(truth_data, noise);
    ASSERT_TRUE(noisy.ok());

    // Rebuild with timestamped object names.
    schema_spec_ = "";
    for (size_t m = 0; m < noisy->num_properties(); ++m) {
      const Property& property = noisy->schema().property(m);
      if (m > 0) schema_spec_ += ",";
      schema_spec_ += property.name + ":" +
                      (property.type == PropertyType::kContinuous ? "continuous"
                                                                  : "categorical");
    }
    std::vector<std::string> objects, sources;
    for (size_t i = 0; i < noisy->num_objects(); ++i) {
      objects.push_back("rec" + std::to_string(i) + "_t" + std::to_string(i % 5));
    }
    for (size_t k = 0; k < noisy->num_sources(); ++k) {
      sources.push_back(noisy->source_id(k));
    }
    Dataset renamed(noisy->schema(), objects, sources);
    for (size_t m = 0; m < noisy->num_properties(); ++m) {
      renamed.mutable_dict(m) = noisy->dict(m);
    }
    for (size_t k = 0; k < noisy->num_sources(); ++k) {
      for (size_t i = 0; i < noisy->num_objects(); ++i) {
        for (size_t m = 0; m < noisy->num_properties(); ++m) {
          renamed.SetObservation(k, i, m, noisy->observations(k).Get(i, m));
        }
      }
    }
    renamed.set_ground_truth(noisy->ground_truth());
    ASSERT_TRUE(WriteObservationsCsv(renamed, obs_path_).ok());
    ASSERT_TRUE(WriteGroundTruthCsv(renamed, truth_path_).ok());
  }

  void TearDown() override {
    std::remove(obs_path_.c_str());
    std::remove(truth_path_.c_str());
    std::remove(out_path_.c_str());
  }

  std::string obs_path_, truth_path_, out_path_, schema_spec_;
};

TEST_F(CliEndToEnd, CrhWithMetricsAndOutput) {
  CliOptions options;
  options.schema_spec = schema_spec_;
  options.input_path = obs_path_;
  options.truth_path = truth_path_;
  options.output_path = out_path_;
  std::ostringstream out;
  ASSERT_TRUE(RunCli(options, out).ok()) << out.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("source scores"), std::string::npos);
  EXPECT_NE(text.find("error rate"), std::string::npos);
  EXPECT_NE(text.find("MNAD"), std::string::npos);
  EXPECT_NE(text.find("wrote fused truths"), std::string::npos);
  // The output file must be readable and cover every entry.
  std::ifstream fused(out_path_);
  ASSERT_TRUE(fused.good());
  size_t lines = 0;
  std::string line;
  while (std::getline(fused, line)) ++lines;
  EXPECT_EQ(lines, 1u + 120u * 14u);  // header + N*M
}

TEST_F(CliEndToEnd, EveryAlgorithmRuns) {
  for (const char* algorithm :
       {"crh", "icrh", "parallel", "catd", "dep-aware", "mean", "median", "voting", "gtm",
        "investment", "pooledinvestment", "2-estimates", "3-estimates", "truthfinder",
        "accusim"}) {
    CliOptions options;
    options.schema_spec = schema_spec_;
    options.input_path = obs_path_;
    options.truth_path = truth_path_;
    options.algorithm = algorithm;
    std::ostringstream out;
    EXPECT_TRUE(RunCli(options, out).ok()) << algorithm << ": " << out.str();
  }
}

TEST_F(CliEndToEnd, UnknownAlgorithmFails) {
  CliOptions options;
  options.schema_spec = schema_spec_;
  options.input_path = obs_path_;
  options.algorithm = "magic";
  std::ostringstream out;
  EXPECT_FALSE(RunCli(options, out).ok());
}

TEST_F(CliEndToEnd, MissingInputFileFails) {
  CliOptions options;
  options.schema_spec = schema_spec_;
  options.input_path = "/nonexistent/claims.csv";
  std::ostringstream out;
  EXPECT_EQ(RunCli(options, out).code(), StatusCode::kIOError);
}

TEST_F(CliEndToEnd, IcrhRequiresTimestampSuffix) {
  // Rewrite the observations with ids lacking _t suffixes.
  const std::string bad_path = testing::TempDir() + "/cli_bad_obs.csv";
  std::ifstream in(obs_path_);
  std::ofstream bad(bad_path);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (!first) {
      const size_t pos = line.find("_t");
      if (pos != std::string::npos) {
        const size_t comma = line.find(',', pos);
        line = line.substr(0, pos) + line.substr(comma);
      }
    }
    bad << line << "\n";
    first = false;
  }
  bad.close();
  CliOptions options;
  options.schema_spec = schema_spec_;
  options.input_path = bad_path;
  options.algorithm = "icrh";
  std::ostringstream out;
  EXPECT_FALSE(RunCli(options, out).ok());
  std::remove(bad_path.c_str());
}

// ---------------------------------------------------------------------------
// Crash recovery through the CLI
// ---------------------------------------------------------------------------

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST_F(CliEndToEnd, IcrhKillAndResumeWritesIdenticalOutput) {
  const std::string ckpt_dir = testing::TempDir() + "/cli_ckpt_kill_resume";
  std::filesystem::remove_all(ckpt_dir);
  FailPoints::Instance().ClearAll();

  CliOptions options;
  options.schema_spec = schema_spec_;
  options.input_path = obs_path_;
  options.output_path = out_path_;
  options.algorithm = "icrh";

  // Uninterrupted run, no checkpointing: the reference fused output.
  std::ostringstream baseline_out;
  ASSERT_TRUE(RunCli(options, baseline_out).ok()) << baseline_out.str();
  const std::string baseline_csv = ReadWholeFile(out_path_);

  // Crash after two of the five chunks.
  options.checkpoint_dir = ckpt_dir;
  FailPoints::Instance().FailOnHit("stream.process_chunk", 3);
  std::ostringstream crashed_out;
  EXPECT_FALSE(RunCli(options, crashed_out).ok());
  FailPoints::Instance().ClearAll();

  // Resume: same fused CSV, byte for byte, plus the resume note.
  std::remove(out_path_.c_str());
  options.resume = true;
  std::ostringstream resumed_out;
  ASSERT_TRUE(RunCli(options, resumed_out).ok()) << resumed_out.str();
  EXPECT_EQ(ReadWholeFile(out_path_), baseline_csv);
  EXPECT_NE(resumed_out.str().find("resumed from checkpoint: 2 chunk(s) restored"),
            std::string::npos)
      << resumed_out.str();
  EXPECT_NE(resumed_out.str().find("checkpoint(s) to " + ckpt_dir), std::string::npos);
  std::filesystem::remove_all(ckpt_dir);
}

TEST_F(CliEndToEnd, IcrhQuarantineReportsCounts) {
  // The strict CSV reader already rejects non-finite numbers and interns
  // every label, so a CSV-fed stream is clean: the note must report zero.
  CliOptions options;
  options.schema_spec = schema_spec_;
  options.input_path = obs_path_;
  options.algorithm = "icrh";
  options.quarantine = true;
  std::ostringstream out;
  ASSERT_TRUE(RunCli(options, out).ok()) << out.str();
  EXPECT_NE(out.str().find("quarantined 0 malformed claim(s)"), std::string::npos)
      << out.str();
}

TEST_F(CliEndToEnd, CsvRetryAbsorbsTransientReadFailure) {
  // The claims CSV load is wrapped in RetryWithBackoff: one transient
  // open failure must not fail the run.
  FailPoints::Instance().ClearAll();
  FailPoints::Instance().FailNext("csv.open_read", 1);
  CliOptions options;
  options.schema_spec = schema_spec_;
  options.input_path = obs_path_;
  std::ostringstream out;
  EXPECT_TRUE(RunCli(options, out).ok()) << out.str();
  FailPoints::Instance().ClearAll();
}

}  // namespace
}  // namespace crh::cli
