#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

/// \file workload.h
/// The benchmark's workloads and the seeded generator of their inputs.
///
/// Every input is a pure function of (workload, seed): the universe CSV
/// the daemon starts from, each chunk's claim CSV, the batch claims CSV
/// and the ground truth. The programs under test receive only those
/// bytes; the ground truth stays with the benchmark.
///
/// Claims follow the claim model of the truth-discovery survey: (object,
/// property, source, value) tuples from sources of unequal reliability.
/// The schema is weather-like (two continuous temperatures and one
/// categorical condition), there are 32 sources whose noise comes from the
/// paper's simulation gammas, and source coverage is skewed 1/(k+1) as in
/// bench/bench_throughput.cc, so a few sources cover almost every entry and
/// a long tail covers few. The gammas are tiled in descending order, so the
/// widest-covering sources are the noisiest: the fused truths then depend
/// on the estimated weights, where with the most reliable sources covering
/// everything a plain vote would already be right.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

namespace perfbench {

inline constexpr size_t kNumSources = 32;
inline constexpr size_t kObjectsPerChunk = 100;
/// Mean claims per object: 3 properties x about 12.7 of 32 sources.
inline constexpr double kClaimsPerObject = 38.0;
/// The schema as crh_cli and crh_serve take it on the command line.
inline constexpr const char* kSchemaSpec =
    "high_temp:continuous:0.1,low_temp:continuous:0.1,condition:categorical";

enum class WorkloadKind { kServe, kBatch };

struct WorkloadSpec {
  const char* name;
  WorkloadKind kind;
  /// Objects in the universe (serve) or in the batch input (batch).
  size_t objects;
  /// Serve: chunks ingested by one daemon session (a fixed count, because
  /// per-chunk checkpoint cost grows with stream age). Unused for batch.
  size_t session_chunks;
  /// Batch: the crh_cli --algorithm value. Unused for serve.
  const char* algorithm;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The weather-like schema of every workload.
crh::Schema WeatherSchema();

/// splitmix64 finalizer: derives independent seeds from (seed, index).
uint64_t Mix(uint64_t x);

/// TPC-C 2.1.6 non-uniform random key chooser:
///   NURand(A, x, y) = (((random(0, A) | random(x, y)) + C) % (y - x + 1)) + x
/// with the run constant C drawn once from [0, A].
class NuRand {
 public:
  NuRand(uint64_t seed, int64_t a);
  int64_t Next(int64_t x, int64_t y);
  int64_t c() const { return c_; }

 private:
  crh::Rng rng_;
  int64_t a_;
  int64_t c_;
};

/// The A constant for keys in [0, n): the largest 2^k - 1 not above n / 2,
/// in the range TPC-C uses (A = 1023 for 3,000 customers).
int64_t NuRandConstantFor(size_t n);

/// The query stream of the serve workloads: about 90% `truth` (object by
/// NURand, property uniform), 9% `source` (uniform) and 1% `weights`.
class QueryMix {
 public:
  QueryMix(uint64_t seed, size_t num_objects);
  /// The next request line.
  std::string Next();

 private:
  crh::Rng rng_;
  NuRand objects_;
  size_t num_objects_;
};

/// Concatenates the first `count` claim CSVs (headers dropped but one).
std::string ConcatClaimsCsv(const std::vector<std::string>& csvs, size_t count);

/// The `ingest` request line carrying chunk `seq`'s claims CSV.
std::string IngestLine(uint64_t seq, const std::string& csv);

/// Deterministic generator of one workload's inputs.
class Generator {
 public:
  Generator(const WorkloadSpec& spec, uint64_t seed);

  const WorkloadSpec& spec() const { return *spec_; }
  /// Ground truth over every object (no sources, truth table attached).
  const crh::Dataset& truth() const { return truth_; }
  size_t num_objects() const { return truth_.num_objects(); }
  /// Objects are dealt round-robin: chunk c holds the objects i with
  /// i % chunks_per_cycle() == c % chunks_per_cycle(), so the stream
  /// cycles through the universe every chunks_per_cycle() chunks.
  size_t chunks_per_cycle() const { return chunks_per_cycle_; }
  std::vector<size_t> ChunkObjects(uint64_t chunk) const;
  /// The noisy, coverage-thinned claims of chunk `chunk`, with the chunk
  /// objects' ground truth attached. Fresh noise for every chunk index.
  crh::Dataset ChunkClaims(uint64_t chunk) const;
  /// ChunkClaims as observation CSV (header included).
  std::string ChunkCsv(uint64_t chunk) const;
  /// The daemon's universe: one claim per object, every source and every
  /// condition label, so objects, sources and dictionaries are all known.
  std::string UniverseCsv() const;
  /// Every object's ground truth as object_id,property,value CSV.
  std::string TruthCsv() const;
  /// Per-source coverage (probability a source claims an entry).
  const std::vector<double>& coverage() const { return coverage_; }

 private:
  const WorkloadSpec* spec_;
  uint64_t seed_;
  crh::Dataset truth_;
  size_t chunks_per_cycle_;
  std::vector<double> coverage_;
  std::vector<double> gammas_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
