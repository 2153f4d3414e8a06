/// \file bench_throughput.cc
/// Sustained-throughput driver for the streaming (I-CRH) pipeline.
///
/// Runs the chunk loop — StreamEngine::ApplyChunk: ProcessChunk plus
/// fused-truth maintenance — for a fixed wall-clock budget per
/// DeltaSolveMode, restarting the stream from scratch whenever it is
/// exhausted, and reports:
///
///  * claims/sec and ns/claim sustained over the whole budget;
///  * per-chunk-step latency percentiles (p50/p90/p99/max), the metric a
///    latency-sensitive ingest pipeline actually feels;
///  * a calibration constant (ns per op of a fixed scalar loop) so the
///    regression gate (scripts/bench_gate.py) can normalize ns/claim
///    across machines of different speeds.
///
/// The timed modes are off (legacy per-chunk scatter) and full (cumulative
/// full re-solve per chunk). Results go to machine-readable JSON
/// (BENCH_crh_throughput.json, committed as the regression baseline).
///
///   bench_throughput [output.json]
///     CRH_TP_SECONDS=2.0  wall-clock budget per timed mode
///     CRH_TP_CHUNKS=8     time windows the stream is cut into
///     CRH_SCALE=1.0       size multiplier (objects)
///     CRH_SOURCES=32      source count (paper gammas, tiled)
///     CRH_DENSITY=0.10    mean claim density across sources
///     CRH_SKEW=1.0        source-coverage skew: source k keeps claims in
///                         proportion to 1/(k+1)^skew (0 = uniform), the
///                         stock/flight regime where a few aggregators
///                         cover most entries and a long tail covers few
///     CRH_SEED=42         noise seed
///     CRH_THREADS=1       worker threads for the passes
///     CRH_TP_WEIGHTS=log_max  weight scheme: log_max (paper default) or
///                         top_j (selection weights)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "datagen/noise.h"
#include "datagen/uci_like.h"
#include "stream/chunks.h"
#include "stream/incremental_crh.h"
#include "stream/stream_engine.h"

namespace crh::bench {
namespace {

/// splitmix64: deterministic per-cell hash for the coverage thinning.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// ns per op of a fixed integer/FP loop — a machine-speed yardstick the
/// gate divides ns/claim by, so a slower CI runner does not read as a code
/// regression.
double CalibrationNsPerOp() {
  constexpr int kIters = 1 << 24;
  uint64_t s = 0x9e3779b97f4a7c15ull;
  double x = 1.0;
  Stopwatch watch;
  for (int i = 0; i < kIters; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    x += static_cast<double>(s >> 40) * 1e-12;
  }
  const double seconds = watch.ElapsedSeconds();
  // Defeat dead-code elimination without volatile traffic in the loop.
  if (x == 0.0) std::printf("unreachable\n");
  return seconds * 1e9 / kIters;
}

struct LatencyStats {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

LatencyStats Percentiles(std::vector<double> latencies_seconds) {
  LatencyStats stats;
  if (latencies_seconds.empty()) return stats;
  std::sort(latencies_seconds.begin(), latencies_seconds.end());
  const auto at = [&](double p) {
    const size_t n = latencies_seconds.size();
    size_t idx = static_cast<size_t>(p * static_cast<double>(n));
    if (idx >= n) idx = n - 1;
    return latencies_seconds[idx] * 1e3;
  };
  stats.p50_ms = at(0.50);
  stats.p90_ms = at(0.90);
  stats.p99_ms = at(0.99);
  stats.max_ms = latencies_seconds.back() * 1e3;
  return stats;
}

struct ModeResult {
  std::string name;
  uint64_t streams = 0;
  uint64_t chunks = 0;
  uint64_t claims = 0;
  double elapsed_seconds = 0.0;
  LatencyStats latency;
};

/// Drives StreamEngine chunk by chunk — the library's drivers are
/// deterministic by design (no timing inside src/stream), so the per-chunk
/// stopwatch lives here. One iteration = one ApplyChunk: ProcessChunk plus
/// the fused-table maintenance of the given mode.
ModeResult RunMode(const std::string& name, DeltaSolveMode mode, const Dataset& parent,
                   const std::vector<DataChunk>& chunks,
                   const std::vector<uint64_t>& chunk_claims, IncrementalCrhOptions options,
                   double seconds_budget, uint64_t max_chunks) {
  ModeResult result;
  result.name = name;
  options.delta_solve = mode;
  std::vector<double> latencies;
  Stopwatch total;
  bool out_of_budget = false;
  while (!out_of_budget) {
    auto engine = StreamEngine::Open(parent, options, StreamResilienceOptions{});
    CRH_CHECK(engine.ok());
    for (size_t c = 0; c < chunks.size(); ++c) {
      Stopwatch step;
      const Status applied = (*engine)->ApplyChunk(chunks[c], /*force_checkpoint=*/false);
      latencies.push_back(step.ElapsedSeconds());
      CRH_CHECK(applied.ok());
      result.claims += chunk_claims[c];
      ++result.chunks;
      // The first stream always completes, whatever the budget, so every
      // mode covers each chunk of the workload at least once.
      const bool budget_spent =
          total.ElapsedSeconds() >= seconds_budget || result.chunks >= max_chunks;
      if (budget_spent && result.streams > 0) {
        out_of_budget = true;
        break;
      }
    }
    ++result.streams;
    if (total.ElapsedSeconds() >= seconds_budget) out_of_budget = true;
  }
  result.elapsed_seconds = total.ElapsedSeconds();
  result.latency = Percentiles(std::move(latencies));
  return result;
}

int Main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_crh_throughput.json";
  const double seconds_budget = EnvDouble("CRH_TP_SECONDS", 2.0);
  const size_t num_chunks = static_cast<size_t>(EnvInt("CRH_TP_CHUNKS", 8));
  const double scale = EnvDouble("CRH_SCALE", 1.0);
  const size_t num_sources = static_cast<size_t>(EnvInt("CRH_SOURCES", 32));
  const double density = EnvDouble("CRH_DENSITY", 0.10);
  const double skew = EnvDouble("CRH_SKEW", 1.0);
  const uint64_t seed = static_cast<uint64_t>(EnvInt("CRH_SEED", 42));
  const int threads = static_cast<int>(EnvInt("CRH_THREADS", 1));
  // Backstop so a pathologically fast machine cannot loop forever when the
  // budget is tiny (CI smoke runs with CRH_TP_SECONDS well under 1).
  const uint64_t max_chunks = static_cast<uint64_t>(EnvInt("CRH_TP_MAX_CHUNKS", 1 << 20));

  // --- Workload: Adult-schema truths, skew-thinned multi-source claims,
  // objects dealt round-robin into time windows.
  UciLikeOptions truth_options;
  truth_options.num_records = static_cast<size_t>(2000 * scale);
  truth_options.seed = 7;
  const Dataset truth = MakeAdultGroundTruth(truth_options);
  NoiseOptions noise;
  const std::vector<double> paper_gammas = PaperSimulationGammas();
  for (size_t k = 0; k < num_sources; ++k) {
    noise.gammas.push_back(paper_gammas[k % paper_gammas.size()]);
  }
  noise.missing_rate = 0.0;  // thinned per source below
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(truth, noise);
  CRH_CHECK(noisy.ok());
  Dataset data = std::move(*noisy);

  // Per-source coverage: density_k proportional to 1/(k+1)^skew, scaled so
  // the mean across sources is the requested density.
  std::vector<double> density_per_source(num_sources);
  double skew_sum = 0.0;
  for (size_t k = 0; k < num_sources; ++k) {
    density_per_source[k] = 1.0 / std::pow(static_cast<double>(k + 1), skew);
    skew_sum += density_per_source[k];
  }
  for (size_t k = 0; k < num_sources; ++k) {
    density_per_source[k] =
        std::min(1.0, density * static_cast<double>(num_sources) * density_per_source[k] /
                          skew_sum);
  }
  for (size_t k = 0; k < num_sources; ++k) {
    ValueTable& table = data.mutable_observations(k);
    for (size_t i = 0; i < data.num_objects(); ++i) {
      for (size_t m = 0; m < data.num_properties(); ++m) {
        const uint64_t h = Mix(seed ^ (static_cast<uint64_t>(k) << 42) ^
                               (static_cast<uint64_t>(i) << 10) ^ m);
        const double u =
            static_cast<double>(h >> 11) / static_cast<double>(1ull << 53);
        if (u >= density_per_source[k]) table.Clear(i, m);
      }
    }
  }

  // Deal objects round-robin into num_chunks windows of one timestamp each.
  std::vector<int64_t> timestamps(data.num_objects());
  for (size_t i = 0; i < data.num_objects(); ++i) {
    timestamps[i] = static_cast<int64_t>(i % num_chunks);
  }
  CRH_CHECK(data.set_timestamps(std::move(timestamps)).ok());

  IncrementalCrhOptions options;
  options.window_size = 1;
  options.base.num_threads = threads;
  const std::string scheme = EnvString("CRH_TP_WEIGHTS", "log_max");
  if (scheme == "top_j") {
    options.base.weight_scheme.kind = WeightSchemeKind::kTopJ;
    options.base.weight_scheme.top_j =
        std::max<int>(1, static_cast<int>(num_sources) / 4);
  } else {
    CRH_CHECK(scheme == "log_max");
  }
  auto chunks = SplitByWindow(data, options.window_size);
  CRH_CHECK(chunks.ok());
  std::vector<uint64_t> chunk_claims(chunks->size(), 0);
  uint64_t claims_per_stream = 0;
  for (size_t c = 0; c < chunks->size(); ++c) {
    const Dataset& chunk = (*chunks)[c].data;
    for (size_t k = 0; k < chunk.num_sources(); ++k) {
      for (size_t i = 0; i < chunk.num_objects(); ++i) {
        for (size_t m = 0; m < chunk.num_properties(); ++m) {
          if (!chunk.observations(k).Get(i, m).is_missing()) ++chunk_claims[c];
        }
      }
    }
    claims_per_stream += chunk_claims[c];
  }
  std::printf("workload: %zu objects x %zu properties x %zu sources, %llu claims in %zu "
              "chunks (mean density %.3f, skew %.2f)\n",
              data.num_objects(), data.num_properties(), data.num_sources(),
              static_cast<unsigned long long>(claims_per_stream), chunks->size(), density,
              skew);

  const double calibration_ns = CalibrationNsPerOp();

  // --- Timed modes.
  const struct {
    const char* name;
    DeltaSolveMode mode;
  } timed_modes[] = {
      {"off", DeltaSolveMode::kOff},
      {"full", DeltaSolveMode::kFull},
  };
  std::vector<ModeResult> results;
  for (const auto& timed : timed_modes) {
    results.push_back(RunMode(timed.name, timed.mode, data, *chunks, chunk_claims, options,
                              seconds_budget, max_chunks));
    const ModeResult& r = results.back();
    const double ns_per_claim =
        r.elapsed_seconds * 1e9 / static_cast<double>(r.claims > 0 ? r.claims : 1);
    std::printf("mode %-6s %6llu chunks (%llu streams)  %10.0f claims/s  %8.1f ns/claim  "
                "latency ms p50 %.3f p90 %.3f p99 %.3f max %.3f\n",
                r.name.c_str(), static_cast<unsigned long long>(r.chunks),
                static_cast<unsigned long long>(r.streams),
                static_cast<double>(r.claims) / r.elapsed_seconds, ns_per_claim,
                r.latency.p50_ms, r.latency.p90_ms, r.latency.p99_ms, r.latency.max_ms);
  }

  // --- JSON report.
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  CRH_CHECK(out != nullptr);
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema_version\": 1,\n");
  std::fprintf(out,
               "  \"workload\": {\"objects\": %zu, \"properties\": %zu, \"sources\": %zu, "
               "\"chunks\": %zu, \"claims_per_stream\": %llu, \"density\": %.4f, "
               "\"skew\": %.2f, \"scale\": %.3f, \"seed\": %llu, \"threads\": %d, "
               "\"weight_scheme\": \"%s\"},\n",
               data.num_objects(), data.num_properties(), data.num_sources(), chunks->size(),
               static_cast<unsigned long long>(claims_per_stream), density, skew, scale,
               static_cast<unsigned long long>(seed), threads, scheme.c_str());
  std::fprintf(out, "  \"target_seconds_per_mode\": %.3f,\n", seconds_budget);
  std::fprintf(out, "  \"calibration_ns_per_op\": %.4f,\n", calibration_ns);
  std::fprintf(out, "  \"modes\": [\n");
  for (size_t idx = 0; idx < results.size(); ++idx) {
    const ModeResult& r = results[idx];
    const double ns_per_claim =
        r.elapsed_seconds * 1e9 / static_cast<double>(r.claims > 0 ? r.claims : 1);
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"streams\": %llu, \"chunks\": %llu, "
                 "\"claims\": %llu, \"elapsed_seconds\": %.4f, \"claims_per_sec\": %.0f, "
                 "\"ns_per_claim\": %.1f, \"latency_ms\": {\"p50\": %.4f, \"p90\": %.4f, "
                 "\"p99\": %.4f, \"max\": %.4f}}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.streams),
                 static_cast<unsigned long long>(r.chunks),
                 static_cast<unsigned long long>(r.claims), r.elapsed_seconds,
                 static_cast<double>(r.claims) / r.elapsed_seconds, ns_per_claim,
                 r.latency.p50_ms, r.latency.p90_ms, r.latency.p99_ms, r.latency.max_ms,
                 idx + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "error: failed to close %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace crh::bench

int main(int argc, char** argv) { return crh::bench::Main(argc, argv); }
