// The benchmark's workloads: their inputs, generated from the seed, and one
// repetition of each — untraced through the library's public entry points,
// or traced through the same cells driven by the benchmark's own spans.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/figures.hpp"
#include "forwarding_scheme.hpp"
#include "ml/dataset.hpp"

namespace perfbench {

enum class Workload { kPaperGrid, kScale10k, kTrainC };

/// Parse "paper-grid" | "scale-10k" | "train-c"; throws on anything else.
Workload parse_workload(const std::string& name);
std::string to_string(Workload workload);

/// Pool threads each workload runs on.
std::size_t workload_threads(Workload workload);

/// Everything one workload needs, generated from the seed during set-up.
struct Inputs {
  Workload workload = Workload::kPaperGrid;
  std::vector<hgc::exec::FigureSweep> figures;  ///< run back to back
  /// train-c: the synthetic CIFAR-10 set the training cells share.
  std::shared_ptr<const hgc::Dataset> data;
  std::size_t cells = 0;   ///< cells per repetition
  std::size_t rounds = 0;  ///< Σ cells × iterations per repetition
};

/// Generate the workload's inputs from `seed`; `small` gives inputs of the
/// same shape that run in well under a second, for the self-test.
Inputs make_inputs(Workload workload, std::uint64_t seed, bool small = false);

/// Result bytes of one repetition, plus what the output check compares.
struct RepResult {
  double seconds = 0.0;                ///< wall time of the repetition
  std::vector<std::string> csv;        ///< one ResultTable CSV per figure
  std::size_t cells = 0;
  /// Cells (ordinal across figures) whose row note is "error: …".
  std::vector<std::size_t> error_rows;
  std::vector<hgc::Vector> params;     ///< train-c final parameters per cell
  std::uint64_t rounds_undecodable = 0;  ///< registry delta
};

/// How a repetition is run.
struct RepOptions {
  std::size_t threads = 1;
  /// true: drive the cells through the lower-level public calls with spans
  /// around each layer (the span recorder must be on).
  bool traced = false;
  /// The caches hgc_sweep defaults to: a shared scheme cache and a
  /// per-cell decoding cache of 256 patterns. false = both off.
  bool caches = true;
};

RepResult run_rep(const Inputs& inputs, const RepOptions& options);

/// Decode counts seen through ForwardingScheme during a traced repetition,
/// per scheme tag (the SchemeKind value).
struct DecodeTally {
  std::map<int, DecodeCounts> counts;
  Certificates certificates;

  DecodeCounts total() const;
};

/// Reset / read the process-wide tally (read only while no sweep runs).
void reset_decode_tally();
DecodeTally decode_tally();

/// Short metric suffix of a scheme tag ("naive", "cyclic", "heter", ...).
std::string scheme_suffix(int tag);

}  // namespace perfbench
