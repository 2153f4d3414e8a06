#include "tools/cli.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/invariants.h"
#include "baselines/baselines.h"
#include "common/fault_injection.h"
#include "core/catd.h"
#include "core/crh.h"
#include "core/dependence.h"
#include "data/csv.h"
#include "eval/metrics.h"
#include "mapreduce/parallel_crh.h"
#include "stream/checkpoint.h"
#include "stream/incremental_crh.h"

namespace crh::cli {

namespace {

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(text);
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

}  // namespace

std::string UsageString() {
  return
      "usage: crh_cli --schema SPEC --input CLAIMS.csv [options]\n"
      "  --schema SPEC        property list, e.g. \"temp:continuous,cond:categorical\"\n"
      "                       (continuous accepts an optional rounding unit:\n"
      "                       \"price:continuous:0.01\"; types: continuous,\n"
      "                       categorical, text)\n"
      "  --input FILE         claim tuples: object_id,property,source_id,value\n"
      "  --truth FILE         optional ground truth: object_id,property,value\n"
      "  --output FILE        optional: write the fused truths as CSV\n"
      "  --algorithm NAME     crh (default), icrh, parallel, catd, dep-aware,\n"
      "                       or a baseline: mean, median, voting, gtm,\n"
      "                       investment, pooledinvestment, 2-estimates,\n"
      "                       3-estimates, truthfinder, accusim\n"
      "  --weights max|sum    CRH weight normalization (default max)\n"
      "  --window N           icrh: timestamps per chunk (object ids must end\n"
      "                       in \"_t<number>\" to carry timestamps)\n"
      "  --decay A            icrh: decay rate in [0,1] (default 0.5)\n"
      "  --reducers N         parallel: reducer count (default 10)\n"
      "  --verify             check algorithmic invariants (loss monotonicity,\n"
      "                       weight constraint, truth-domain validity) during\n"
      "                       the run; exits non-zero on any violation\n"
      "  --checkpoint-dir D   icrh: write crash-recovery checkpoints into D\n"
      "                       (see docs/ROBUSTNESS.md)\n"
      "  --checkpoint-every N icrh: checkpoint every N chunks (default 1)\n"
      "  --resume             icrh: resume from the newest good checkpoint in\n"
      "                       --checkpoint-dir; the finished run is bit-identical\n"
      "                       to one that was never interrupted\n"
      "  --quarantine         icrh: exclude malformed claims (non-finite numbers,\n"
      "                       unknown labels) and report them per source instead\n"
      "                       of failing the stream\n"
      "  --delta-solve M      icrh: fused-truth maintenance: off (default; each\n"
      "                       chunk's truths are frozen at its own weight\n"
      "                       snapshot) or full (every claim so far re-solved\n"
      "                       under the current weights after every chunk)\n";
}

Result<CliOptions> ParseCliArgs(const std::vector<std::string>& args) {
  CliOptions options;
  const auto need_value = [&](size_t i) { return i + 1 < args.size(); };
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto take = [&](std::string* into) -> Status {
      if (!need_value(i)) {
        return Status::InvalidArgument(arg + " requires a value\n" + UsageString());
      }
      *into = args[++i];
      return Status::OK();
    };
    std::string value;
    if (arg == "--schema") {
      CRH_RETURN_NOT_OK(take(&options.schema_spec));
    } else if (arg == "--input") {
      CRH_RETURN_NOT_OK(take(&options.input_path));
    } else if (arg == "--truth") {
      CRH_RETURN_NOT_OK(take(&options.truth_path));
    } else if (arg == "--output") {
      CRH_RETURN_NOT_OK(take(&options.output_path));
    } else if (arg == "--algorithm") {
      CRH_RETURN_NOT_OK(take(&options.algorithm));
      std::transform(options.algorithm.begin(), options.algorithm.end(),
                     options.algorithm.begin(), ::tolower);
    } else if (arg == "--weights") {
      CRH_RETURN_NOT_OK(take(&options.weights));
      if (options.weights != "max" && options.weights != "sum") {
        return Status::InvalidArgument("--weights must be max or sum");
      }
    } else if (arg == "--window") {
      CRH_RETURN_NOT_OK(take(&value));
      options.window = std::atoll(value.c_str());
      if (options.window < 1) return Status::InvalidArgument("--window must be >= 1");
    } else if (arg == "--decay") {
      CRH_RETURN_NOT_OK(take(&value));
      options.decay = std::atof(value.c_str());
      if (options.decay < 0 || options.decay > 1) {
        return Status::InvalidArgument("--decay must be in [0, 1]");
      }
    } else if (arg == "--reducers") {
      CRH_RETURN_NOT_OK(take(&value));
      options.reducers = std::atoi(value.c_str());
      if (options.reducers < 1) return Status::InvalidArgument("--reducers must be >= 1");
    } else if (arg == "--verify") {
      options.verify = true;
    } else if (arg == "--checkpoint-dir") {
      CRH_RETURN_NOT_OK(take(&options.checkpoint_dir));
    } else if (arg == "--checkpoint-every") {
      CRH_RETURN_NOT_OK(take(&value));
      options.checkpoint_every = std::atoll(value.c_str());
      if (options.checkpoint_every < 1) {
        return Status::InvalidArgument("--checkpoint-every must be >= 1");
      }
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--quarantine") {
      options.quarantine = true;
    } else if (arg == "--delta-solve") {
      CRH_RETURN_NOT_OK(take(&options.delta_solve));
      if (options.delta_solve != "off" && options.delta_solve != "full") {
        return Status::InvalidArgument("--delta-solve must be off or full");
      }
    } else {
      return Status::InvalidArgument("unknown flag '" + arg + "'\n" + UsageString());
    }
  }
  if (options.schema_spec.empty() || options.input_path.empty()) {
    return Status::InvalidArgument("--schema and --input are required\n" + UsageString());
  }
  if (options.resume && options.checkpoint_dir.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint-dir");
  }
  if ((!options.checkpoint_dir.empty() || options.resume || options.quarantine ||
       options.delta_solve != "off") &&
      options.algorithm != "icrh") {
    return Status::InvalidArgument(
        "--checkpoint-dir, --resume, --quarantine and --delta-solve apply to "
        "--algorithm icrh only");
  }
  return options;
}

Result<Schema> ParseSchemaSpec(const std::string& spec) {
  Schema schema;
  for (const std::string& field : SplitOn(spec, ',')) {
    const std::vector<std::string> parts = SplitOn(field, ':');
    if (parts.size() < 2 || parts.size() > 3 || parts[0].empty()) {
      return Status::InvalidArgument("bad schema field '" + field +
                                     "' (want name:type[:unit])");
    }
    if (parts[1] == "continuous") {
      const double unit = parts.size() == 3 ? std::atof(parts[2].c_str()) : 0.0;
      CRH_RETURN_NOT_OK(schema.AddContinuous(parts[0], unit));
    } else if (parts[1] == "categorical") {
      if (parts.size() == 3) {
        return Status::InvalidArgument("categorical properties take no unit");
      }
      CRH_RETURN_NOT_OK(schema.AddCategorical(parts[0]));
    } else if (parts[1] == "text") {
      if (parts.size() == 3) {
        return Status::InvalidArgument("text properties take no unit");
      }
      CRH_RETURN_NOT_OK(schema.AddText(parts[0]));
    } else {
      return Status::InvalidArgument("unknown property type '" + parts[1] + "'");
    }
  }
  if (schema.num_properties() == 0) {
    return Status::InvalidArgument("schema spec declares no properties");
  }
  return schema;
}

namespace {

/// Derives timestamps from "..._t<number>" object-id suffixes (for icrh).
Status AttachSuffixTimestamps(Dataset* data) {
  std::vector<int64_t> timestamps(data->num_objects(), 0);
  for (size_t i = 0; i < data->num_objects(); ++i) {
    const std::string& id = data->object_id(i);
    const size_t pos = id.rfind("_t");
    if (pos == std::string::npos || pos + 2 >= id.size()) {
      return Status::InvalidArgument("icrh requires object ids ending in _t<number>; got '" +
                                     id + "'");
    }
    timestamps[i] = std::atoll(id.c_str() + pos + 2);
  }
  return data->set_timestamps(std::move(timestamps));
}

struct AlgorithmOutput {
  ValueTable truths;
  std::vector<double> source_scores;
  /// Human-readable run notes (resume/checkpoint/quarantine summaries).
  std::vector<std::string> notes;
};

Result<AlgorithmOutput> RunAlgorithm(const CliOptions& options, const Dataset& data,
                                     IterationObserver* observer) {
  CrhOptions crh_options;
  crh_options.weight_scheme.kind =
      options.weights == "sum" ? WeightSchemeKind::kLogSum : WeightSchemeKind::kLogMax;
  // Iterative engines check every coordinate-descent step; algorithms
  // without the observer hook (catd, baselines) are covered by the
  // post-hoc truth-domain check in RunCli.
  crh_options.observer = observer;

  if (options.algorithm == "crh") {
    auto result = RunCrh(data, crh_options);
    if (!result.ok()) return result.status();
    return AlgorithmOutput{std::move(result->truths), std::move(result->source_weights), {}};
  }
  if (options.algorithm == "icrh") {
    Dataset stream = data;  // needs timestamps attached
    CRH_RETURN_NOT_OK(AttachSuffixTimestamps(&stream));
    IncrementalCrhOptions icrh_options;
    icrh_options.base = crh_options;
    icrh_options.window_size = options.window;
    icrh_options.decay = options.decay;
    icrh_options.quarantine_bad_claims = options.quarantine;
    if (options.delta_solve == "full") icrh_options.delta_solve = DeltaSolveMode::kFull;
    StreamResilienceOptions resilience;
    resilience.checkpoint_dir = options.checkpoint_dir;
    resilience.checkpoint_every = static_cast<uint64_t>(options.checkpoint_every);
    resilience.resume = options.resume;
    auto result = RunIncrementalCrhResilient(stream, icrh_options, resilience);
    if (!result.ok()) return result.status();
    AlgorithmOutput output{std::move(result->truths), std::move(result->source_weights), {}};
    if (options.resume) {
      output.notes.push_back(
          "resumed from checkpoint: " + std::to_string(result->chunks_resumed) +
          " chunk(s) restored" +
          (result->resumed_from_fallback ? " (fell back past a corrupt newer generation)"
                                         : ""));
    }
    if (!options.checkpoint_dir.empty()) {
      output.notes.push_back("wrote " + std::to_string(result->checkpoints_written) +
                             " checkpoint(s) to " + options.checkpoint_dir);
    }
    if (options.quarantine) {
      uint64_t total = 0;
      std::string per_source;
      for (size_t k = 0; k < result->quarantined_per_source.size(); ++k) {
        const uint64_t q = result->quarantined_per_source[k];
        total += q;
        if (q > 0) {
          if (!per_source.empty()) per_source += ", ";
          per_source += stream.source_id(k) + ": " + std::to_string(q);
        }
      }
      output.notes.push_back("quarantined " + std::to_string(total) +
                             " malformed claim(s)" +
                             (per_source.empty() ? "" : " (" + per_source + ")"));
    }
    return output;
  }
  if (options.algorithm == "parallel") {
    ParallelCrhOptions parallel_options;
    parallel_options.base = crh_options;
    parallel_options.mr.num_reducers = options.reducers;
    auto result = RunParallelCrh(data, parallel_options);
    if (!result.ok()) return result.status();
    return AlgorithmOutput{std::move(result->truths), std::move(result->source_weights), {}};
  }
  if (options.algorithm == "catd") {
    CatdOptions catd_options;
    catd_options.base = crh_options;
    auto result = RunCatd(data, catd_options);
    if (!result.ok()) return result.status();
    return AlgorithmOutput{std::move(result->truths), std::move(result->source_weights), {}};
  }
  if (options.algorithm == "dep-aware") {
    auto result = RunDependenceAwareCrh(data, crh_options);
    if (!result.ok()) return result.status();
    return AlgorithmOutput{std::move(result->truths), std::move(result->adjusted_weights), {}};
  }
  for (const auto& baseline : MakeAllBaselines()) {
    std::string name = baseline->name();
    std::transform(name.begin(), name.end(), name.begin(), ::tolower);
    if (name == options.algorithm) {
      auto result = baseline->Run(data);
      if (!result.ok()) return result.status();
      return AlgorithmOutput{std::move(result->truths), std::move(result->source_scores), {}};
    }
  }
  return Status::InvalidArgument("unknown algorithm '" + options.algorithm + "'\n" +
                                 UsageString());
}

}  // namespace

Status RunCli(const CliOptions& options, std::ostream& out) {
  auto schema = ParseSchemaSpec(options.schema_spec);
  if (!schema.ok()) return schema.status();

  // CSV I/O goes through the retry policy so a transient file-system error
  // (or an injected one) does not kill an otherwise healthy run.
  const RetryPolicy retry;
  Dataset dataset;
  CRH_RETURN_NOT_OK(RetryWithBackoff(retry, "claims CSV load", [&] {
    auto data = ReadObservationsCsv(*schema, options.input_path);
    if (!data.ok()) return data.status();
    dataset = std::move(data).ValueOrDie();
    return Status::OK();
  }));
  out << "loaded " << dataset.num_observations() << " claims: " << dataset.num_objects()
      << " objects x " << dataset.num_properties() << " properties from "
      << dataset.num_sources() << " sources\n";

  if (!options.truth_path.empty()) {
    CRH_RETURN_NOT_OK(RetryWithBackoff(retry, "ground-truth CSV load", [&] {
      return ReadGroundTruthCsv(options.truth_path, &dataset);
    }));
    out << "loaded " << dataset.num_ground_truths() << " ground-truth entries\n";
  }

  InvariantVerifier verifier;
  auto result = RunAlgorithm(options, dataset, options.verify ? &verifier : nullptr);
  if (!result.ok()) return result.status();

  for (const std::string& note : result->notes) out << note << "\n";

  if (options.verify) {
    CRH_RETURN_NOT_OK(CheckTruthDomain(dataset, result->truths));
    out << "verified: " << verifier.steps_verified()
        << " iteration snapshots and the final truth table passed all invariant checks\n";
  }

  out << "\nsource scores (higher = more reliable):\n";
  for (size_t k = 0; k < dataset.num_sources(); ++k) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-24s %10.4f\n", dataset.source_id(k).c_str(),
                  result->source_scores[k]);
    out << line;
  }

  if (dataset.has_ground_truth()) {
    auto eval = Evaluate(dataset, result->truths);
    if (!eval.ok()) return eval.status();
    out << "\nevaluation vs ground truth:\n";
    if (eval->categorical_evaluated > 0) {
      out << "  error rate: " << eval->error_rate << " (" << eval->categorical_errors
          << "/" << eval->categorical_evaluated << " discrete entries wrong)\n";
    }
    if (eval->continuous_evaluated > 0) {
      out << "  MNAD:       " << eval->mnad << " over " << eval->continuous_evaluated
          << " continuous entries\n";
    }
  }

  if (!options.output_path.empty()) {
    // Reuse the ground-truth CSV format for the fused output.
    Dataset fused = dataset;
    fused.set_ground_truth(result->truths);
    CRH_RETURN_NOT_OK(RetryWithBackoff(retry, "fused-truths CSV write", [&] {
      return WriteGroundTruthCsv(fused, options.output_path);
    }));
    out << "\nwrote fused truths to " << options.output_path << "\n";
  }
  return Status::OK();
}

}  // namespace crh::cli
