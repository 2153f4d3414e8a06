// perfbench_loadgen: one benchmark run of one workload.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                    --bin-dir DIR --work-dir DIR [--trace-file PATH]
//
// Generates the workload's inputs from the seed, drives crh_serve or
// crh_cli for about S seconds, checks the outputs, and prints as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics of the
// traced in-process run with --trace 1. Exits 1 if any check failed.
// perfbench/run.py builds the programs and calls this; see README.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "client.h"

namespace {

int Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench_loadgen: %s\nusage: perfbench_loadgen --workload NAME --seed N "
               "--seconds S --trace 0|1 --bin-dir DIR --work-dir DIR [--trace-file PATH]\n",
               problem);
  return 2;
}

void PrintJsonLine(bool correct, const perfbench::Report& report) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& metric = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    line += (i > 0 ? ", \"" : "\"") + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, bin_dir, work_dir, trace_file;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--bin-dir") {
      bin_dir = value;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());
  if (seconds <= 0 || (trace != 0 && trace != 1) || bin_dir.empty() || work_dir.empty()) {
    return Usage("--seconds, --trace, --bin-dir and --work-dir are required");
  }
  namespace fs = std::filesystem;
  perfbench::RunContext ctx;
  ctx.bin_dir = fs::absolute(bin_dir).string();
  ctx.seed = seed;
  ctx.seconds = seconds;
  ctx.trace_path = fs::absolute(trace_file.empty() ? work_dir + "/trace.json" : trace_file);
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);
  const fs::path home = fs::current_path();
  fs::current_path(work_dir);

  perfbench::Report report;
  auto in = perfbench::PrepareInputs(*spec, seed);
  std::printf("%s seed %llu: %zu objects, %zu chunks, %llu claims in the batch/cycle input\n",
              spec->name, static_cast<unsigned long long>(seed), in->gen.num_objects(),
              in->chunk_csvs.size(), static_cast<unsigned long long>(in->batch_claims));
  std::fflush(stdout);
  const bool is_serve = spec->kind == perfbench::WorkloadKind::kServe;
  perfbench::ServeResult serve;
  perfbench::BatchResult batch;
  if (is_serve) {
    serve = perfbench::RunServe(*in, ctx, &report);
  } else {
    batch = perfbench::RunBatch(*in, ctx, &report);
  }
  if (report.problems.empty()) {
    if (trace == 1) {
      perfbench::RunTraced(*in, ctx, is_serve ? &serve : nullptr, is_serve ? nullptr : &batch,
                           &report);
    } else {
      perfbench::Score score;
      if (is_serve) {
        perfbench::AddServeMetrics(serve, &report);
        const crh::Dataset universe = perfbench::ReadClaims(in->universe_path);
        const auto reference = perfbench::ReferenceEngine(universe, *in, &score);
        perfbench::CheckServe(*in, serve, *reference, universe, &report);
        std::printf("%zu sessions, %llu chunks (visible p99 %.3f ms), %zu queries (p50 %.1f us, "
                    "p99 %.1f us as the median of %zu 1 s windows), %zu set-ups\n",
                    serve.sessions.size(), static_cast<unsigned long long>(serve.chunks),
                    perfbench::Quantile(serve.visible_ms, 0.99), serve.query_us.size(),
                    perfbench::Quantile(serve.query_us, 0.5),
                    perfbench::Quantile(serve.query_window_p99_us, 0.5),
                    serve.query_window_p99_us.size(), serve.setup_s.size());
        std::printf("wall-clock claims/s %.0f with %.1f%% of the wanted CPU time stolen; "
                    "claims/s of guest time over %zu windows: min %.0f, median %.0f, max %.0f\n",
                    static_cast<double>(serve.claims) / serve.ingest_seconds,
                    serve.ingest_steal.share() * 100, serve.window_claims_per_s.size(),
                    perfbench::Quantile(serve.window_claims_per_s, 0),
                    perfbench::Quantile(serve.window_claims_per_s, 0.5),
                    perfbench::Quantile(serve.window_claims_per_s, 1));
      } else {
        perfbench::AddBatchMetrics(*in, batch, &report);
        const crh::Dataset claims = perfbench::ReadClaims(in->batch_path);
        perfbench::CheckBatch(*in, batch,
                              perfbench::ReferenceFusedCsv(claims, spec->algorithm), &report,
                              &score);
        std::printf("%zu crh_cli runs (visible p99 %.1f ms), %zu one-chunk queries (p50 %.1f "
                    "us, p99 %.1f us), %zu set-ups\n",
                    batch.wall_s.size(), perfbench::Quantile(batch.guest_s, 0.99) * 1e3,
                    batch.query_us.size(),
                    perfbench::Quantile(batch.query_us, 0.5),
                    perfbench::Quantile(batch.query_us, 0.99), batch.setup_s.size());
        std::printf("wall-clock claims/s %.0f with %.1f%% of the wanted CPU time stolen\n",
                    static_cast<double>(in->batch_claims) / perfbench::Quantile(batch.wall_s, 0.5),
                    batch.run_steal.share() * 100);
      }
      perfbench::CheckQuality(score, &report);
      report.Add("mnad", score.mnad(), "ratio");
      std::printf("error rate %.5f over %zu entries (gated, not a bounded metric)\n",
                  score.error_rate(), score.categorical);
      for (const perfbench::Metric& metric : report.metrics) {
        std::printf("  %-16s %16.4f %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
      }
    }
  }
  fs::current_path(home);
  fs::remove_all(work_dir);
  const bool correct = report.problems.empty();
  PrintJsonLine(correct, report);
  return correct ? 0 : 1;
}
