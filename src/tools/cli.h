#ifndef CRH_TOOLS_CLI_H_
#define CRH_TOOLS_CLI_H_

/// \file cli.h
/// Library behind the `crh_cli` command-line tool: resolve conflicts in a
/// CSV of multi-source claims without writing any C++.
///
///   crh_cli --schema "temp:continuous,cond:categorical"
///           --input claims.csv [--truth truth.csv] [--output fused.csv]
///           [--algorithm crh|icrh|parallel|catd|dep-aware|voting|mean|...]
///           [--weights max|sum] [--window N] [--decay A]
///
/// Input format: the claim-tuple CSV of data/csv.h
/// (object_id,property,source_id,value). With --truth given, the tool also
/// prints Error Rate / MNAD against it. All logic lives here so it is unit
/// testable; the binary is a thin main().

#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/schema.h"

namespace crh::cli {

/// Parsed command-line options.
struct CliOptions {
  std::string schema_spec;
  std::string input_path;
  std::string truth_path;   // optional
  std::string output_path;  // optional
  std::string algorithm = "crh";
  std::string weights = "max";  // "max" or "sum"
  int64_t window = 1;           // icrh chunk size (requires --timestamp-prefix)
  double decay = 0.5;           // icrh decay rate
  int reducers = 10;            // parallel engine
  /// Run under the invariant verifier (analysis/invariants.h): iterative
  /// engines are checked after every coordinate-descent step, and every
  /// algorithm's final truth table is checked for domain validity.
  bool verify = false;
  /// icrh: checkpoint directory (stream/checkpoint.h); empty disables
  /// checkpointing.
  std::string checkpoint_dir;
  /// icrh: write a checkpoint every this many chunks (default 1).
  int64_t checkpoint_every = 1;
  /// icrh: resume from the newest good checkpoint in --checkpoint-dir.
  bool resume = false;
  /// icrh: quarantine malformed claims instead of failing the stream.
  bool quarantine = false;
  /// icrh: fused-truth maintenance — "off" (legacy per-chunk patchwork)
  /// or "full" (cumulative full re-solve per chunk).
  std::string delta_solve = "off";
};

/// Parses argv into CliOptions. Returns InvalidArgument with a usage hint
/// on unknown flags, missing values or missing required options.
[[nodiscard]] Result<CliOptions> ParseCliArgs(const std::vector<std::string>& args);

/// Parses a schema spec "name:type,name:type,..." where type is
/// continuous | categorical | text. An optional ":unit" suffix on
/// continuous properties sets the rounding unit ("price:continuous:0.01").
[[nodiscard]] Result<Schema> ParseSchemaSpec(const std::string& spec);

/// Returns the usage string printed on parse errors and --help.
std::string UsageString();

/// Executes the tool: loads the CSVs, runs the selected algorithm, prints
/// source weights (and metrics when ground truth is given) to `out`, and
/// writes the fused truths CSV when requested. Returns a non-OK status on
/// any failure.
[[nodiscard]] Status RunCli(const CliOptions& options, std::ostream& out);

}  // namespace crh::cli

#endif  // CRH_TOOLS_CLI_H_
