#include "workloads.h"

#include <atomic>
#include <filesystem>
#include <utility>

#include "data/dataset_sensitivity.h"
#include "data/synthetic_mnist.h"
#include "data/synthetic_purchase.h"
#include "dp/rdp_accountant.h"
#include "obs/audit_ledger.h"
#include "obs/telemetry.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/random.h"

namespace auditbench {

namespace fs = std::filesystem;
using dpaudit::DiExperimentConfig;
using dpaudit::NeighborMode;
using dpaudit::StatusOr;
using dpaudit::SweepCell;
using dpaudit::SweepOptions;

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec>* specs = [] {
    auto* all = new std::vector<WorkloadSpec>();
    // Paper-scale MNIST |D| on the conv/channel-norm/pool net, the Fig. 8
    // grid, one thread: the single-thread per-example conv baseline.
    WorkloadSpec mnist;
    mnist.name = "mnist_conv_serial";
    mnist.threads = 1;
    mnist.tasks.push_back({true, 100, 0, 0, {0.08, 1.1, 2.2, 4.6}});
    mnist.phases.push_back({"fig08", 4});
    all->push_back(mnist);

    // The paper's 600-128-100 Purchase net: dense per-example gradients
    // dominate, and the Hamming neighbour search makes set-up real. Few,
    // long trials on four workers, so the scheduler's tail shows.
    WorkloadSpec purchase;
    purchase.name = "purchase_paper_sweep";
    purchase.threads = 4;
    purchase.tasks.push_back({false, 200, 128, 100, {1.1, 4.6}});
    purchase.phases.push_back({"fig08", 2});
    all->push_back(purchase);

    // Figures 8, 9 and 10 in sequence at bench scale over one trace cache,
    // with the ledger and the checkpoint journal written: record, replay,
    // then extend every recording by a prefix replay plus 12 new trials.
    WorkloadSpec trio;
    trio.name = "trio_cached_audit";
    trio.threads = 4;
    trio.tasks.push_back({true, 30, 0, 0, {0.08, 1.1, 2.2, 4.6}});
    trio.tasks.push_back({false, 40, 48, 30, {0.12, 1.1, 2.2, 4.6}});
    trio.phases = {{"fig08", 12}, {"fig09", 12}, {"fig10", 24}};
    trio.persistent = true;
    all->push_back(trio);
    return all;
  }();
  for (const WorkloadSpec& spec : *specs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<Task> BuildTask(const TaskSpec& spec, uint64_t seed,
                                SpanLog& log) {
  auto task = std::make_unique<Task>();
  task->epsilons = spec.epsilons;
  Dataset all;
  dpaudit::DissimilarityFn dissimilarity;
  // Task-specific streams derived from the workload seed, as in the
  // experiment binaries.
  dpaudit::Rng rng(seed ^ (spec.mnist ? 0x6d6e6973ULL : 0x62617367ULL));
  {
    BenchSpan span(log, "data.generate");
    if (spec.mnist) {
      task->name = "MNIST";
      task->delta = 0.001;
      all = dpaudit::GenerateSyntheticMnist(spec.n * 2,
                                            dpaudit::SyntheticMnistConfig{},
                                            rng);
      dissimilarity = dpaudit::NegativeSsim;
    } else {
      task->name = "Purchase";
      task->delta = 0.01;
      dpaudit::SyntheticPurchaseConfig config;
      config.num_classes = spec.classes;
      dpaudit::SyntheticPurchaseGenerator generator(config,
                                                    seed ^ 0x70757263ULL);
      all = generator.Generate(spec.n * 2, rng);
      dissimilarity = dpaudit::HammingDistance;
    }
  }
  Dataset pool;
  task->d = all.SampleSplit(spec.n, rng, &pool);
  {
    BenchSpan span(log, "data.neighbor_search");
    std::atomic<uint64_t> evals{0};
    dpaudit::DissimilarityFn counted =
        [&evals, &dissimilarity](const dpaudit::Tensor& a,
                                 const dpaudit::Tensor& b) {
          evals.fetch_add(1, std::memory_order_relaxed);
          return dissimilarity(a, b);
        };
    auto ranked = dpaudit::RankBoundedCandidates(task->d, pool, counted);
    DPAUDIT_CHECK_OK(ranked.status());
    task->d_prime = dpaudit::MakeBoundedNeighbor(task->d, pool,
                                                 ranked->front());
    task->dissimilarity_evals = evals.load();
  }
  {
    BenchSpan span(log, "nn.build");
    task->net = spec.mnist
                    ? dpaudit::BuildMnistNetwork(28, 4, 8)
                    : dpaudit::BuildPurchaseNetwork(600, spec.hidden,
                                                    spec.classes);
    task->params = task->net.NumParams();
  }
  return task;
}

namespace {

/// The experiment config of one cell at a calibrated noise multiplier.
DiExperimentConfig CellConfig(double noise_multiplier, SensitivityMode mode,
                              size_t reps, uint64_t seed) {
  DiExperimentConfig config;
  config.dpsgd.epochs = kEpochs;
  config.dpsgd.learning_rate = kLearningRate;
  config.dpsgd.clip_norm = kClipNorm;
  config.dpsgd.noise_multiplier = noise_multiplier;
  config.dpsgd.sensitivity_mode = mode;
  config.dpsgd.neighbor_mode = NeighborMode::kBounded;
  config.repetitions = reps;
  config.seed = seed;
  return config;
}

struct CellLabel {
  const Task* task;
  double epsilon;
  SensitivityMode mode;
};

std::vector<CellLabel> GridCells(const std::vector<const Task*>& tasks) {
  std::vector<CellLabel> labels;
  for (const Task* task : tasks) {
    for (double epsilon : task->epsilons) {
      for (SensitivityMode mode :
           {SensitivityMode::kLocalHat, SensitivityMode::kGlobal}) {
        labels.push_back({task, epsilon, mode});
      }
    }
  }
  return labels;
}

}  // namespace

RoundResult RunRound(const WorkloadSpec& spec,
                     const std::vector<const Task*>& tasks, uint64_t seed,
                     const std::string& round_dir, bool persist,
                     SpanLog& log) {
  std::error_code ec;
  fs::remove_all(round_dir, ec);
  fs::create_directories(round_dir);
  const std::string telemetry_dir = round_dir + "/telemetry";
  std::unique_ptr<dpaudit::TraceStore> store;
  RoundResult result;
  if (spec.persistent) {
    result.trace_dir = round_dir + "/trace";
    store = std::make_unique<dpaudit::TraceStore>(result.trace_dir);
  }
  const std::vector<CellLabel> labels = GridCells(tasks);

  const double cpu_start = ProcessCpuSeconds();
  const uint64_t start_ns = NowNs();
  BenchSpan round_span(log, "round");
  for (const PhaseSpec& phase_spec : spec.phases) {
    PhaseResult phase;
    phase.name = phase_spec.name;
    phase.reps = phase_spec.reps;
    std::vector<double> noise(labels.size(), 0.0);
    std::vector<SweepCell> cells;
    for (size_t i = 0; i < labels.size(); ++i) {
      const CellLabel label = labels[i];
      SweepCell cell;
      cell.architecture = &label.task->net;
      cell.d = &label.task->d;
      cell.d_prime = &label.task->d_prime;
      cell.config.repetitions = phase_spec.reps;
      cell.config.seed = seed;
      double* z = &noise[i];
      const size_t reps = phase_spec.reps;
      cell.configure = [&log, label, reps, seed,
                        z](DiExperimentConfig* config) {
        // Noise calibrated through the RDP accountant so k releases
        // compose to exactly the cell's epsilon at the task's delta.
        StatusOr<double> calibrated = [&] {
          BenchSpan span(log, "dp.calibration");
          return dpaudit::NoiseMultiplierForTargetEpsilon(
              label.epsilon, label.task->delta, kEpochs);
        }();
        if (!calibrated.ok()) return calibrated.status();
        *z = *calibrated;
        DiExperimentConfig base = CellConfig(*z, label.mode, reps, seed);
        base.trace_store = config->trace_store;
        *config = base;
        return dpaudit::Status::Ok();
      };
      cells.push_back(std::move(cell));
    }

    SweepOptions options;
    options.threads = spec.threads;
    options.trace_store = store.get();
    if (persist) {
      fs::create_directories(telemetry_dir);
      phase.journal_path = telemetry_dir + "/" + phase.name + ".sweep.jsonl";
      phase.ledger_path = telemetry_dir + "/" + phase.name + ".ledger.jsonl";
      options.checkpoint = phase.journal_path;
      dpaudit::obs::LedgerManifest manifest;
      manifest.binary = phase.name;
      manifest.simd = dpaudit::obs::ActiveSimdDispatch();
      manifest.threads = spec.threads;
      manifest.batch_lanes = dpaudit::BatchLanesFromEnv();
      manifest.git_commit = dpaudit::obs::BuildGitCommit();
      dpaudit::obs::InitAuditLedger(manifest, telemetry_dir);
    }
    std::vector<StatusOr<DiExperimentSummary>> summaries;
    {
      BenchSpan span(log, "sweep.run");
      summaries = dpaudit::RunSweep(cells, options, &phase.stats);
    }
    for (size_t i = 0; i < labels.size(); ++i) {
      CellResult cell;
      cell.task = labels[i].task;
      cell.epsilon = labels[i].epsilon;
      cell.mode = labels[i].mode;
      cell.noise_multiplier = noise[i];
      result.attempted += phase_spec.reps;
      if (!summaries[i].ok()) {
        result.failed += phase_spec.reps;
        phase.cells.push_back(std::move(cell));
        continue;
      }
      cell.summary = std::move(*summaries[i]);
      result.failed += phase_spec.reps - cell.summary.trials.size();
      if (i < phase.stats.per_cell.size()) {
        cell.trained = phase.stats.per_cell[i].trained;
        cell.replayed = phase.stats.per_cell[i].replayed;
      }
      StatusOr<AuditReport> report = [&] {
        BenchSpan span(log, "auditor.audit");
        return dpaudit::AuditExperiment(cell.summary, cell.task->delta);
      }();
      DPAUDIT_CHECK_OK(report.status());
      cell.report = *report;
      phase.cells.push_back(std::move(cell));
    }
    if (persist) {
      BenchSpan span(log, "ledger.flush");
      dpaudit::obs::FlushAuditLedger();
    }
    result.phases.push_back(std::move(phase));
  }
  result.audit_s = static_cast<double>(NowNs() - start_ns) * 1e-9;
  result.cpu_s = ProcessCpuSeconds() - cpu_start;
  return result;
}

void RerunTrial(const WorkloadSpec& spec, const PhaseResult& phase,
                size_t cell, size_t rep, uint64_t seed,
                dpaudit::DiTrialResult* trial, dpaudit::TrialTrace* record) {
  const CellResult& c = phase.cells[cell];
  DiExperimentConfig config =
      CellConfig(c.noise_multiplier, c.mode, phase.reps, seed);
  config.dpsgd.threads = spec.threads;
  DPAUDIT_CHECK_OK(dpaudit::RunDiTrial(c.task->net, c.task->d,
                                       c.task->d_prime, config, rep, trial,
                                       record));
}

double TraceLoadMs(const WorkloadSpec& spec, const RoundResult& round,
                   const std::string& round_dir, uint64_t seed,
                   SpanLog& log) {
  const dpaudit::TraceStore store(round_dir + "/trace");
  const PhaseResult& phase = round.phases.back();
  const uint64_t start = NowNs();
  BenchSpan span(log, "trace.load");
  for (const CellResult& cell : phase.cells) {
    DiExperimentConfig config =
        CellConfig(cell.noise_multiplier, cell.mode, phase.reps, seed);
    config.dpsgd.threads = spec.threads;
    const dpaudit::TraceFingerprint key = dpaudit::FingerprintExperiment(
        cell.task->net, cell.task->d, cell.task->d_prime, config);
    StatusOr<dpaudit::ExperimentTrace> loaded = store.Load(key);
    if (spec.persistent) DPAUDIT_CHECK_OK(loaded.status());
  }
  return static_cast<double>(NowNs() - start) * 1e-6;
}

}  // namespace auditbench
