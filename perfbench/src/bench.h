#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/// \file bench.h
/// One benchmark run: its inputs, the end-to-end runs of the two
/// shipped programs, the traced in-process run and the correctness checks.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client.h"
#include "data/dataset.h"
#include "stream/stream_engine.h"
#include "workload.h"

namespace perfbench {

/// Where the run finds the programs and writes its files. Paths inside
/// the work directory are relative: the load generator runs with it as cwd, which
/// keeps socket paths short whatever the checkout's location.
struct RunContext {
  std::string bin_dir;  ///< holds crh_cli and crh_serve
  std::string trace_path;  ///< where the traced run writes its spans
  uint64_t seed = 0;
  double seconds = 10;
};

/// The generated inputs of one run, written to the work directory.
struct RunInputs {
  RunInputs(const WorkloadSpec& spec, uint64_t seed) : gen(spec, seed) {}
  Generator gen;
  /// Serve: the universe CSV. Batch: the batch claims CSV, which is also
  /// the universe its chunk stream is decoded against in the traced run.
  std::string universe_path;
  /// Serve: the chunks one session ingests. Batch: the chunks the batch
  /// input is made of (one cycle, every object once).
  std::vector<std::string> chunk_csvs;
  std::vector<uint64_t> chunk_claims;
  /// The claims the core and mapreduce layers solve in the traced run:
  /// the batch input, or for serve the stream's first cycle.
  std::string batch_path;
  uint64_t batch_claims = 0;
  std::string truth_path;
  /// Serve: the objects whose served truths are compared byte for byte
  /// with the in-process engine's (the objects of the last 20 chunks).
  std::vector<size_t> sample_objects;
};

std::unique_ptr<RunInputs> PrepareInputs(const WorkloadSpec& spec, uint64_t seed);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a run reports; `problems` non-empty means correct=false.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// The answers one daemon session served at its end.
struct ServedAnswers {
  std::string weights;              ///< raw JSON array of the `weights` reply
  std::vector<std::string> values;  ///< raw "value" per sample entry
};

struct ServeResult {
  std::vector<double> setup_s;
  std::vector<double> visible_ms;
  std::vector<double> visible_first_tenth_ms;
  std::vector<double> visible_last_tenth_ms;
  std::vector<double> query_us;
  std::vector<double> query_late_us;
  std::vector<double> query_window_p99_us;  ///< p99 of each 1 s window
  std::vector<double> peak_rss_mb;
  double ingest_seconds = 0;  ///< wall time
  StealMeter ingest_steal;
  StealMeter setup_steal;
  /// Claims published per second of guest time over each window of
  /// consecutive chunks of each session.
  std::vector<double> window_claims_per_s;
  uint64_t claims = 0;
  uint64_t chunks = 0;
  uint64_t status_polls = 0;
  uint64_t shed = 0;
  uint64_t io_errors = 0;
  std::vector<ServedAnswers> sessions;
};

struct BatchResult {
  std::vector<double> wall_s;
  std::vector<double> guest_s;  ///< wall_s less the share stolen in each run
  StealMeter run_steal;
  std::vector<double> setup_s;
  StealMeter setup_steal;
  std::vector<double> query_us;
  std::vector<double> peak_rss_mb;
  std::string fused_csv;  ///< the first run's output
};

/// Drives crh_serve sessions for at least ctx.seconds (at least one).
ServeResult RunServe(const RunInputs& in, const RunContext& ctx, Report* report);
/// Drives crh_cli runs for at least ctx.seconds (at least three).
BatchResult RunBatch(const RunInputs& in, const RunContext& ctx, Report* report);

void AddServeMetrics(const ServeResult& result, Report* report);
void AddBatchMetrics(const RunInputs& in, const BatchResult& result, Report* report);

/// Error rate and MNAD (eval/metrics.h) summed over groups of entries.
struct Score {
  size_t categorical = 0;
  size_t errors = 0;
  size_t continuous = 0;
  double distance = 0;
  /// Scores `estimate` (rows aligned with `claims`' objects) against the
  /// ground truth attached to `claims`.
  void Add(const crh::Dataset& claims, const crh::ValueTable& estimate);
  /// Scores the truths a stream engine holds for `chunk`'s objects right
  /// after applying it, against the generator's ground truth.
  void AddChunk(const Generator& gen, crh::DataChunk* chunk, const crh::ValueTable& truths);
  double mnad() const;
  double error_rate() const;
};

/// The fused truths StreamEngine computes in-process over the run's chunks,
/// decoded exactly as the daemon decodes them; scores each chunk's truths
/// as they are published into `score`.
std::unique_ptr<crh::StreamEngine> ReferenceEngine(const crh::Dataset& universe,
                                                   const RunInputs& in, Score* score);
crh::Dataset ReadClaims(const std::string& path);
/// The CLI's solver run in-process, as the fused CSV crh_cli would write.
std::string ReferenceFusedCsv(const crh::Dataset& batch, const std::string& algorithm);

/// Served answers must equal the reference engine byte for byte.
void CheckServe(const RunInputs& in, const ServeResult& result,
                const crh::StreamEngine& reference, const crh::Dataset& universe,
                Report* report);
/// The CLI's fused CSV must equal the in-process solver's; scores it.
void CheckBatch(const RunInputs& in, const BatchResult& result, const std::string& expected,
                Report* report, Score* score);
/// Fails the run if the fused truths are far from the ground truth.
void CheckQuality(const Score& score, Report* report);

/// The traced run: every layer's public calls in-process on the run's
/// inputs, a span around each. Adds the per-layer metrics to `report`,
/// and the correctness checks against the e2e results.
void RunTraced(const RunInputs& in, const RunContext& ctx, const ServeResult* serve,
               const BatchResult* batch, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
