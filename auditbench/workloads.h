// Audit workloads: task construction and one audit round, through the
// library's public API only (data generators, RankBoundedCandidates,
// network builders, RunSweep, AuditExperiment, TraceStore, the audit
// ledger and CheckLedgerFile).

#ifndef DPAUDIT_AUDITBENCH_WORKLOADS_H_
#define DPAUDIT_AUDITBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_support.h"
#include "core/auditor.h"
#include "core/experiment.h"
#include "core/sweep_scheduler.h"
#include "core/trace.h"
#include "data/dataset.h"
#include "data/dissimilarity.h"
#include "dp/privacy_params.h"
#include "nn/network.h"

namespace auditbench {

using dpaudit::AuditReport;
using dpaudit::Dataset;
using dpaudit::DiExperimentSummary;
using dpaudit::Network;
using dpaudit::SensitivityMode;
using dpaudit::SweepStats;

// Hyperparameters shared by every workload (paper Table 1).
inline constexpr size_t kEpochs = 30;
inline constexpr double kLearningRate = 0.005;
inline constexpr double kClipNorm = 3.0;

struct TaskSpec {
  bool mnist = true;  // false: Purchase
  size_t n = 0;       // |D|
  size_t hidden = 0;  // Purchase hidden units
  size_t classes = 0; // Purchase classes
  std::vector<double> epsilons;
};

/// One audit phase: one flattened sweep over every (task, epsilon, LS/GS)
/// cell at `reps` repetitions, then AuditExperiment per cell.
struct PhaseSpec {
  std::string name;  // also the ledger and journal file stem
  size_t reps = 0;
};

struct WorkloadSpec {
  std::string name;
  size_t threads = 1;
  std::vector<TaskSpec> tasks;
  std::vector<PhaseSpec> phases;
  /// Phases share one trace cache and write the ledger and the checkpoint
  /// journal on every pass, traced or not.
  bool persistent = false;
};

/// The workload called `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

struct Task {
  std::string name;  // "MNIST" / "Purchase"
  double delta = 0.0;
  Dataset d;
  Dataset d_prime;
  Network net;
  size_t params = 0;
  std::vector<double> epsilons;
  uint64_t dissimilarity_evals = 0;
};

/// Builds a task from the workload seed: synthetic data, the bounded
/// dataset-sensitivity neighbour, and the network. Spans: data.generate,
/// data.neighbor_search, nn.build.
std::unique_ptr<Task> BuildTask(const TaskSpec& spec, uint64_t seed,
                                SpanLog& log);

struct CellResult {
  const Task* task = nullptr;
  double epsilon = 0.0;
  SensitivityMode mode = SensitivityMode::kGlobal;
  double noise_multiplier = 0.0;
  DiExperimentSummary summary;
  AuditReport report;
  size_t trained = 0;   // trials trained live in this phase
  size_t replayed = 0;  // trials replayed from the trace cache
};

struct PhaseResult {
  std::string name;
  size_t reps = 0;
  SweepStats stats;
  std::vector<CellResult> cells;
  std::string ledger_path;   // empty when the ledger was off
  std::string journal_path;  // empty when the journal was off
};

struct RoundResult {
  double audit_s = 0.0;
  double cpu_s = 0.0;
  uint64_t attempted = 0;  // Exp^DI trials trained or replayed
  uint64_t failed = 0;
  std::vector<PhaseResult> phases;
  std::string trace_dir;  // empty when no trace cache was used
};

/// Runs one audit round in a fresh directory `round_dir` (the trace cache,
/// ledger and journal start empty). `persist` turns on the ledger and the
/// checkpoint journal, as `--telemetry` does in the experiment binaries.
RoundResult RunRound(const WorkloadSpec& spec,
                     const std::vector<const Task*>& tasks, uint64_t seed,
                     const std::string& round_dir, bool persist,
                     SpanLog& log);

/// Reruns repetition `rep` of the phase's cell `cell` outside the sweep,
/// through RunDiTrial with the workload's thread count, recording its
/// per-step observables. By the determinism contract the trial equals the
/// sweep's bit for bit.
void RerunTrial(const WorkloadSpec& spec, const PhaseResult& phase,
                size_t cell, size_t rep, uint64_t seed,
                dpaudit::DiTrialResult* trial, dpaudit::TrialTrace* record);

/// Milliseconds to fingerprint every cell of the round's last phase and
/// load its recording from the round's trace cache (a miss on workloads that
/// run without one).
double TraceLoadMs(const WorkloadSpec& spec, const RoundResult& round,
                   const std::string& round_dir, uint64_t seed, SpanLog& log);

}  // namespace auditbench

#endif  // DPAUDIT_AUDITBENCH_WORKLOADS_H_
