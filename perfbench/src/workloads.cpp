#include "workloads.hpp"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "core/scheme_cache.hpp"
#include "engine/link.hpp"
#include "engine/round.hpp"
#include "engine/scenario.hpp"
#include "linalg/matrix.hpp"
#include "ml/gradient.hpp"
#include "ml/model.hpp"
#include "ml/sgd.hpp"
#include "obs/metrics.hpp"
#include "runtime/sim_trainer.hpp"
#include "runtime/ssp_trainer.hpp"
#include "sim/experiment.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace perfbench {

using hgc::exec::Cell;
using hgc::exec::CellFn;
using hgc::exec::CellResult;
using hgc::exec::FigureSweep;
using hgc::exec::ScenarioKind;
using hgc::exec::ScenarioSpec;
using hgc::exec::SweepGrid;
using hgc::exec::SweepOptions;

namespace {

/// The paper-scale presets paper-grid runs, at their default sizes.
const std::vector<std::string> kPaperPresets = {
    "fig2", "fig3", "fig5", "sigma", "scenarios", "loss", "layerwise",
    "adaptive"};

/// The CI 10k-worker grid (its seed axis is moved by reseed like every
/// preset's).
constexpr const char* kScaleSpec =
    "clusters=scale10000;schemes=naive,cyclic,heter,group;s=2;"
    "delay_factors=2;fluct=0.05;iters=8;scenarios=static,churn";
constexpr const char* kSmallScaleSpec =
    "clusters=scale200;schemes=naive,cyclic,heter,group;s=2;"
    "delay_factors=2;fluct=0.05;iters=4;scenarios=static,churn";

/// Training steps per train-c cell (the fig4 preset defaults to 80).
constexpr std::size_t kTrainIterations = 400;

/// Samples in train-c's synthetic CIFAR-10 set (as in fig4).
constexpr std::size_t kTrainSamples = 1024;

/// Move every seed of a preset grid into the run's own seed range, so the
/// seed argument changes every cell's straggler draws and constructions
/// while the grid keeps its shape.
void reseed(SweepGrid& grid, std::uint64_t seed) {
  for (std::uint64_t& s : grid.seeds) s += 1000 * seed;
  grid.root_seed = hgc::splitmix64_mix(grid.root_seed + seed);
}

// --- train-c: the fig4 cell body -------------------------------------------

/// Curve points → flat metrics, exactly as the fig4 preset emits them.
void emit_trace(const hgc::LossTrace& trace, CellResult& result) {
  for (std::size_t i = 0; i < trace.points.size(); ++i) {
    result.metrics.emplace_back("t" + std::to_string(i),
                                trace.points[i].time);
    result.metrics.emplace_back("loss" + std::to_string(i),
                                trace.points[i].loss);
  }
  result.metrics.emplace_back("final_time", trace.total_time());
  result.metrics.emplace_back("final_loss", trace.final_loss());
}

/// train_bsp_coded, step for step, through the lower-level public calls
/// with a span around each layer. Must return the same bytes.
hgc::BspTrainingResult traced_bsp(hgc::SchemeKind kind,
                                  const hgc::Cluster& cluster,
                                  const hgc::Model& model,
                                  const hgc::Dataset& data, std::size_t k,
                                  std::size_t s,
                                  const hgc::BspTrainingConfig& config);

/// Final parameters of each train-c cell, written by the cell bodies (one
/// slot per cell index) and read after the sweep.
using ParamSlots = std::vector<hgc::Vector>;

CellResult train_c_cell(const Cell& cell, const hgc::Dataset& data,
                        ParamSlots& slots, bool traced) {
  hgc::SoftmaxRegression model(data.dim(), data.num_classes);
  const auto series = static_cast<std::size_t>(cell.custom.at(0));
  const std::size_t iters = cell.experiment.iterations;
  const std::size_t record_every = std::max<std::size_t>(1, iters / 8);
  CellResult result;
  if (series < 4) {
    hgc::BspTrainingConfig config;
    config.iterations = iters;
    config.sgd.learning_rate = 0.4;
    config.straggler_model = cell.experiment.model;
    config.seed = cell.experiment.seed;
    config.record_every = record_every;
    const hgc::SchemeKind kind = hgc::paper_schemes()[series];
    hgc::BspTrainingResult bsp =
        traced ? traced_bsp(kind, *cell.cluster, model, data,
                            cell.experiment.k, cell.experiment.s, config)
               : hgc::train_bsp_coded(kind, *cell.cluster, model, data,
                                      cell.experiment.k, cell.experiment.s,
                                      config);
    emit_trace(bsp.trace, result);
    result.metrics.emplace_back("failed_iters",
                                static_cast<double>(bsp.failed_iterations));
    slots.at(cell.index) = std::move(bsp.final_params);
  } else {
    hgc::SspTrainingConfig config;
    config.iterations = iters;
    config.learning_rate = 0.4;
    config.staleness = 3;
    config.straggler_model = cell.experiment.model;
    config.seed = cell.experiment.seed;
    config.record_every = record_every;
    hgc::SspTrainingResult ssp;
    {
      ScopedSpan span("exec.unsplit");
      ssp = hgc::train_ssp(*cell.cluster, model, data, config);
    }
    emit_trace(ssp.trace, result);
    result.metrics.emplace_back("failed_iters", 0.0);
    slots.at(cell.index) = std::move(ssp.final_params);
  }
  return result;
}

// --- traced cell bodies ----------------------------------------------------

std::mutex g_tally_mu;
DecodeTally g_tally;  // guarded by g_tally_mu

void add(DecodeCounts& into, const DecodeCounts& from) {
  into.checks += from.checks;
  into.successes += from.successes;
  into.solves += from.solves;
  into.registry_solves += from.registry_solves;
}

void add_to_tally(const ForwardingScheme& scheme) {
  std::lock_guard<std::mutex> lock(g_tally_mu);
  add(g_tally.counts[scheme.tag()], scheme.counts());
  g_tally.certificates.merge(scheme.certificates());
}

std::unique_ptr<ForwardingScheme> wrap(
    std::shared_ptr<const hgc::CodingScheme> scheme, int tag,
    std::size_t cache_capacity) {
  ScopedSpan span("bench.wrap");
  return std::make_unique<ForwardingScheme>(std::move(scheme), tag,
                                            cache_capacity);
}

hgc::IterationConditions draw(const hgc::StragglerModel& model, std::size_t m,
                              hgc::Rng& rng) {
  ScopedSpan span("cluster.draw");
  return model.draw(m, rng);
}

/// One timing-only round on the forwarding scheme (which holds the
/// decoding cache, if any, so the engine gets none).
hgc::engine::RoundOutcome traced_round(
    const ForwardingScheme& scheme, const hgc::Cluster& cluster,
    const hgc::IterationConditions& conditions, const hgc::SimParams& sim) {
  hgc::engine::FixedLatencyLink link(sim.comm_latency);
  ScopedSpan span("engine.round", scheme.tag());
  hgc::engine::RoundOutcome round =
      hgc::engine::run_round(scheme, cluster, conditions, link);
  span.set_count(round.events_executed);
  return round;
}

hgc::BspTrainingResult traced_bsp(hgc::SchemeKind kind,
                                  const hgc::Cluster& cluster,
                                  const hgc::Model& model,
                                  const hgc::Dataset& data, std::size_t k,
                                  std::size_t s,
                                  const hgc::BspTrainingConfig& config) {
  const std::size_t m = cluster.size();
  hgc::Rng construction_rng(config.seed);
  hgc::Rng estimation_rng(config.seed + 0x9e37);
  hgc::Rng condition_rng(config.seed + 0x79b9);
  const hgc::Throughputs estimated = hgc::estimate_throughputs(
      cluster.throughputs(), config.estimation_sigma, estimation_rng);
  const int tag = static_cast<int>(kind);
  std::shared_ptr<const hgc::CodingScheme> built;
  {
    ScopedSpan span("core.construct", tag);
    built = hgc::make_scheme(kind, estimated, k, s, construction_rng);
  }
  const auto scheme = wrap(std::move(built), tag, 0);
  const auto partitions =
      hgc::partition_rows(data.size(), scheme->num_partitions());

  hgc::Rng init_rng(config.seed + 0x1111);
  hgc::Vector params = model.init_params(init_rng);
  hgc::SgdOptimizer optimizer(config.sgd, params.size());
  const double inv_n = 1.0 / static_cast<double>(data.size());
  const auto record_loss = [&](double clock, std::size_t iter,
                               hgc::BspTrainingResult& out) {
    ScopedSpan span("ml.loss");
    out.trace.points.push_back(
        {clock, hgc::mean_loss(model, data, params), iter});
  };

  hgc::BspTrainingResult result;
  result.trace.label = scheme->name();
  double clock = 0.0;
  record_loss(0.0, 0, result);
  for (std::size_t iter = 1; iter <= config.iterations; ++iter) {
    const hgc::IterationConditions conditions =
        draw(config.straggler_model, m, condition_rng);
    const hgc::engine::RoundOutcome round =
        traced_round(*scheme, cluster, conditions, config.sim);
    if (!round.decoded) {
      ++result.failed_iterations;
      break;
    }
    const hgc::Vector& coefficients = *round.coefficients;
    clock += round.time;

    std::vector<hgc::Vector> grads;
    {
      ScopedSpan span("ml.gradient");
      grads = hgc::all_partition_gradients(model, data, partitions, params);
    }
    hgc::Vector aggregate;
    {
      ScopedSpan span("core.encode", tag);
      std::vector<hgc::Vector> coded(m);
      for (hgc::WorkerId w = 0; w < m; ++w)
        if (coefficients[w] != 0.0)
          coded[w] = hgc::encode_gradient(*scheme, w, grads);
      aggregate = hgc::combine_coded_gradients(coefficients, coded);
    }
    {
      ScopedSpan span("ml.update");
      hgc::scale(inv_n, aggregate);
      optimizer.step(params, aggregate);
    }
    if (iter % config.record_every == 0 || iter == config.iterations)
      record_loss(clock, iter, result);
  }
  {
    ScopedSpan span("ml.loss");
    result.final_accuracy =
        model.accuracy(data, hgc::all_rows(data.size()), params);
  }
  result.final_params = std::move(params);
  add_to_tally(*scheme);
  return result;
}

/// The sweep's built-in static cell body (run_experiment), split into
/// construction, rounds on the forwarding scheme, and decode checks.
CellResult traced_static_cell(const Cell& cell, const SweepOptions& opts) {
  const hgc::ExperimentConfig& config = cell.experiment;
  const hgc::Cluster& cluster = *cell.cluster;
  const std::size_t m = cluster.size();
  const std::size_t k = hgc::resolve_partitions(config, m);
  if (config.iterations == 0)
    throw std::invalid_argument("need at least one iteration");
  hgc::Rng estimation_rng(config.seed + 0x9e37);
  hgc::Rng condition_rng(config.seed + 0x79b9);
  const hgc::Throughputs estimated = hgc::estimate_throughputs(
      cluster.throughputs(), config.estimation_sigma, estimation_rng);
  const int tag = static_cast<int>(cell.scheme);
  std::shared_ptr<const hgc::CodingScheme> built;
  {
    ScopedSpan span("core.construct", tag);
    if (opts.scheme_cache) {
      built = opts.scheme_cache->get_or_create(cell.scheme, estimated, k,
                                               config.s, config.seed);
    } else {
      hgc::Rng construction_rng(config.seed);
      built = hgc::make_scheme(cell.scheme, estimated, k, config.s,
                               construction_rng);
    }
  }
  const auto scheme = wrap(std::move(built), tag, opts.decoding_cache_capacity);

  hgc::RunningStats time;
  hgc::RunningStats usage;
  std::size_t failures = 0;
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    const hgc::IterationConditions conditions =
        draw(config.model, m, condition_rng);
    const hgc::engine::RoundOutcome round =
        traced_round(*scheme, cluster, conditions, config.sim);
    if (!round.decoded) {
      ++failures;
      continue;
    }
    time.add(round.time);
    usage.add(round.resource_usage);
  }
  add_to_tally(*scheme);

  CellResult result;
  result.stats.emplace_back("time", time);
  result.stats.emplace_back("usage", usage);
  result.metrics.emplace_back("failures", static_cast<double>(failures));
  if (failures > 0) result.note = "fail";
  return result;
}

/// The scenario drivers hide construction and decode inside one call, so a
/// traced scenario cell is one enclosing "engine.scenario" span; its decode
/// work shows only in the registry's counters.
CellResult traced_scenario_cell(const Cell& cell, const ScenarioSpec& scenario,
                                const SweepOptions& opts) {
  const hgc::ExperimentConfig& e = cell.experiment;
  ScopedSpan span("engine.scenario", static_cast<int>(cell.scheme));
  CellResult result;
  if (scenario.kind == ScenarioKind::kChurn) {
    hgc::engine::ChurnConfig config;
    config.iterations = e.iterations;
    config.s = e.s;
    config.k = e.k;
    config.model = e.model;
    config.sim = e.sim;
    config.seed = e.seed;
    config.events = scenario.churn_events;
    config.decoding_cache_capacity = opts.decoding_cache_capacity;
    const hgc::engine::ChurnResult churn =
        hgc::engine::run_churn_scenario(cell.scheme, *cell.cluster, config);
    result.stats.emplace_back("time", churn.iteration_time);
    result.quantiles.emplace_back("latency", churn.latency);
    result.metrics.emplace_back("failures",
                                static_cast<double>(churn.failures));
    result.metrics.emplace_back("reinstantiations",
                                static_cast<double>(churn.reinstantiations));
    result.metrics.emplace_back("total_time", churn.total_time);
  } else if (scenario.kind == ScenarioKind::kTraceReplay) {
    hgc::engine::TraceReplayConfig config;
    config.iterations = e.iterations;
    config.s = e.s;
    config.k = e.k;
    config.sim = e.sim;
    config.seed = e.seed;
    config.decoding_cache_capacity = opts.decoding_cache_capacity;
    const hgc::engine::TraceReplayResult replay = hgc::engine::replay_trace(
        cell.scheme, *cell.cluster, scenario.trace, config);
    result.stats.emplace_back("time", replay.iteration_time);
    result.quantiles.emplace_back("latency", replay.latency);
    result.metrics.emplace_back("failures",
                                static_cast<double>(replay.failures));
    result.metrics.emplace_back("total_time", replay.total_time);
  } else {
    hgc::engine::ScriptConfig config;
    config.iterations = e.iterations;
    config.s = e.s;
    config.k = e.k;
    config.model = e.model;
    config.sim = e.sim;
    config.seed = e.seed;
    config.decoding_cache_capacity = opts.decoding_cache_capacity;
    const hgc::engine::ScriptResult run = hgc::engine::run_script_scenario(
        cell.scheme, *cell.cluster, scenario.script, config);
    result.stats.emplace_back("time", run.iteration_time);
    result.quantiles.emplace_back("latency", run.latency);
    result.metrics.emplace_back("failures", static_cast<double>(run.failures));
    result.metrics.emplace_back("reinstantiations",
                                static_cast<double>(run.reinstantiations));
    result.metrics.emplace_back("bursts",
                                static_cast<double>(run.bursts_started));
    result.metrics.emplace_back("total_time", run.total_time);
  }
  return result;
}

/// The traced body of one figure, wrapped in a per-cell span whose parent
/// is the figure's sweep span.
CellFn traced_body(const Inputs& inputs, const FigureSweep& figure,
                   const SweepOptions& opts, ParamSlots& slots,
                   std::uint64_t sweep_span) {
  CellFn body;
  if (inputs.workload == Workload::kTrainC) {
    const hgc::Dataset& data = *inputs.data;
    body = [&data, &slots](const Cell& cell) {
      return train_c_cell(cell, data, slots, true);
    };
  } else if (figure.fn) {
    // Custom preset bodies (loss, layerwise, adaptive) stay whole.
    body = [&figure](const Cell& cell) {
      ScopedSpan span("exec.unsplit");
      return figure.fn(cell);
    };
  } else {
    body = [&figure, &opts](const Cell& cell) {
      const ScenarioSpec& scenario = figure.grid.scenarios[cell.scenario_index];
      return scenario.kind == ScenarioKind::kStatic
                 ? traced_static_cell(cell, opts)
                 : traced_scenario_cell(cell, scenario, opts);
    };
  }
  return [body = std::move(body), sweep_span](const Cell& cell) {
    ScopedSpan span("exec.cell", -1, sweep_span);
    return body(cell);
  };
}

Inputs inputs_from(Workload workload, std::uint64_t seed,
                   std::vector<FigureSweep> figures,
                   std::shared_ptr<const hgc::Dataset> data) {
  Inputs inputs;
  inputs.workload = workload;
  inputs.figures = std::move(figures);
  inputs.data = std::move(data);
  for (FigureSweep& figure : inputs.figures) {
    reseed(figure.grid, seed);
    inputs.cells += figure.grid.num_cells();
    inputs.rounds += figure.grid.num_cells() * figure.grid.iterations;
  }
  return inputs;
}

/// train-c's figure: the fig4 grid with the benchmark's copy of the fig4
/// body, which also keeps each cell's final parameters for the output check.
FigureSweep train_c_figure(std::size_t iterations,
                           std::shared_ptr<const hgc::Dataset> data,
                           std::shared_ptr<ParamSlots> slots) {
  FigureSweep figure = hgc::exec::fig4_sweep(iterations);
  figure.name = "train-c";
  figure.fn = [data, slots](const Cell& cell) {
    return train_c_cell(cell, *data, *slots, false);
  };
  return figure;
}

std::shared_ptr<const hgc::Dataset> synthetic_cifar10(std::uint64_t seed,
                                                      std::size_t samples) {
  hgc::Rng rng(hgc::splitmix64_mix(seed + 11));
  return std::make_shared<const hgc::Dataset>(
      hgc::make_synthetic_cifar10(samples, rng, 32));
}

// One ParamSlots per process: the train-c body writes into it and run_rep
// copies it out. Repetitions never overlap.
std::shared_ptr<ParamSlots> param_slots() {
  static const auto slots = std::make_shared<ParamSlots>();
  return slots;
}

std::uint64_t undecodable_rounds() {
  return hgc::obs::Registry::global().snapshot().counter(
      "engine.rounds_undecodable");
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "paper-grid") return Workload::kPaperGrid;
  if (name == "scale-10k") return Workload::kScale10k;
  if (name == "train-c") return Workload::kTrainC;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (paper-grid|scale-10k|train-c)");
}

std::string to_string(Workload workload) {
  switch (workload) {
    case Workload::kPaperGrid:
      return "paper-grid";
    case Workload::kScale10k:
      return "scale-10k";
    case Workload::kTrainC:
      return "train-c";
  }
  return "?";
}

std::size_t workload_threads(Workload workload) {
  switch (workload) {
    case Workload::kPaperGrid:
      return 4;
    case Workload::kScale10k:
    case Workload::kTrainC:
      return 1;
  }
  return 1;
}

Inputs make_inputs(Workload workload, std::uint64_t seed, bool small) {
  std::vector<FigureSweep> figures;
  std::shared_ptr<const hgc::Dataset> data;
  switch (workload) {
    case Workload::kPaperGrid:
      if (small) {
        for (const char* name : {"fig3", "scenarios", "loss"})
          figures.push_back(hgc::exec::make_figure(name, 12));
      } else {
        for (const std::string& name : kPaperPresets)
          figures.push_back(hgc::exec::make_figure(name));
      }
      break;
    case Workload::kScale10k: {
      FigureSweep figure;
      figure.name = small ? "scale-200" : "scale-10k";
      figure.grid = hgc::exec::parse_grid_spec(small ? kSmallScaleSpec
                                                     : kScaleSpec);
      figures.push_back(std::move(figure));
      break;
    }
    case Workload::kTrainC:
      data = synthetic_cifar10(seed, kTrainSamples);
      figures.push_back(train_c_figure(small ? 12 : kTrainIterations, data,
                                       param_slots()));
      break;
  }
  return inputs_from(workload, seed, std::move(figures), std::move(data));
}

RepResult run_rep(const Inputs& inputs, const RepOptions& options) {
  const std::shared_ptr<ParamSlots> slots = param_slots();
  slots->assign(inputs.cells, {});
  const std::uint64_t undecodable_before = undecodable_rounds();

  std::vector<hgc::exec::ResultTable> tables;
  RepResult out;
  const std::int64_t start = now_ns();
  {
    ScopedSpan rep_span("rep");
    for (const FigureSweep& figure : inputs.figures) {
      // What hgc_sweep does per invocation: a fresh scheme cache, a
      // 256-pattern decoding cache per cell, the registry snapshot.
      hgc::SchemeCache scheme_cache;
      SweepOptions opts;
      opts.threads = options.threads;
      if (options.caches) {
        opts.scheme_cache = &scheme_cache;
        opts.decoding_cache_capacity = 256;
      }
      hgc::obs::Snapshot metrics;
      opts.metrics_snapshot = &metrics;
      {
        ScopedSpan sweep_span("exec.sweep");
        if (options.traced)
          tables.push_back(hgc::exec::run_sweep(
              figure.grid,
              traced_body(inputs, figure, opts, *slots, sweep_span.id()),
              opts));
        else
          tables.push_back(hgc::exec::run_figure(figure, opts));
      }
      ScopedSpan export_span("exec.export");
      std::ostringstream csv;
      tables.back().to_csv(csv);
      out.csv.push_back(csv.str());
    }
  }
  out.seconds = 1e-9 * static_cast<double>(now_ns() - start);

  for (const hgc::exec::ResultTable& table : tables)
    for (const hgc::exec::ResultRow& row : table.rows()) {
      if (row.note.rfind("error:", 0) == 0) out.error_rows.push_back(out.cells);
      ++out.cells;
    }
  if (inputs.workload == Workload::kTrainC) out.params = *slots;
  out.rounds_undecodable = undecodable_rounds() - undecodable_before;
  return out;
}

void reset_decode_tally() {
  std::lock_guard<std::mutex> lock(g_tally_mu);
  g_tally = DecodeTally{};
}

DecodeCounts DecodeTally::total() const {
  DecodeCounts sum;
  for (const auto& [tag, c] : counts) add(sum, c);
  return sum;
}

DecodeTally decode_tally() {
  std::lock_guard<std::mutex> lock(g_tally_mu);
  return g_tally;
}

std::string scheme_suffix(int tag) {
  switch (static_cast<hgc::SchemeKind>(tag)) {
    case hgc::SchemeKind::kNaive:
      return "naive";
    case hgc::SchemeKind::kCyclic:
      return "cyclic";
    case hgc::SchemeKind::kFractionalRepetition:
      return "fractional";
    case hgc::SchemeKind::kHeterAware:
      return "heter";
    case hgc::SchemeKind::kGroupBased:
      return "group";
  }
  return "scheme" + std::to_string(tag);
}

}  // namespace perfbench
