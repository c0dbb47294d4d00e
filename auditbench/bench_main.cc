// Audit benchmark binary. Runs one workload for a fixed time and writes
// everything run.py needs to a JSON file: the set-up timestamp, per-round
// wall and CPU time, trial counts, the last round's audit outputs for the
// independent checks, ledger verdicts, and (traced runs) the per-layer
// figures. run.py starts this binary; see README.md for the metrics.
//
//   auditbench_bin --workload NAME --seed N --seconds S --trace 0|1
//                  --out DIR
//
// Untraced runs measure audit rounds with the program's telemetry off. A
// traced run spends the first half of its time on untraced rounds and the
// second half on rounds with the program's spans, metrics, ledger and
// checkpoint journal on (what --telemetry turns on in the experiment
// binaries); the difference of the two medians is the tracing overhead.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support.h"
#include "core/ledger_verify.h"
#include "core/runtime_options.h"
#include "layer_probe.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "util/logging.h"
#include "workloads.h"

namespace auditbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0.0 &&
         !args->workload.empty() && !args->out.empty();
}

/// FNV-1a over every audit output of a round, so run.py can check that
/// repeated rounds of the same inputs give the same bits.
std::string RoundDigest(const RoundResult& round) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((bits >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (const PhaseResult& phase : round.phases) {
    for (const CellResult& cell : phase.cells) {
      add(cell.report.epsilon_from_sensitivities);
      add(cell.report.epsilon_from_belief);
      add(cell.report.epsilon_from_advantage);
      for (const dpaudit::DiTrialResult& t : cell.summary.trials) {
        add(t.trained_on_d ? 1.0 : 0.0);
        add(t.adversary_says_d ? 1.0 : 0.0);
        add(t.final_belief_d);
        add(t.max_belief_d);
        for (double s : t.sigmas) add(s);
        for (double s : t.local_sensitivities) add(s);
      }
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

uint64_t FileLines(const std::string& path) {
  std::ifstream in(path);
  uint64_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  if (dir.empty() || !fs::exists(dir, ec)) return 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += FileBytes(entry.path().string());
  }
  return total;
}

/// Program phase-span time by leaf name, summed over the span tree.
std::map<std::string, double> ProgramSpanSeconds() {
  std::map<std::string, double> seconds;
  for (const auto& stat : dpaudit::obs::SpanRegistry::Global().Collect()) {
    const size_t slash = stat.path.find_last_of('/');
    const std::string leaf =
        slash == std::string::npos ? stat.path : stat.path.substr(slash + 1);
    seconds[leaf] += static_cast<double>(stat.total_ns) * 1e-9;
  }
  return seconds;
}

struct ProgramMetrics {
  double examples = 0.0;
  double lane_fill = 0.0;
};

ProgramMetrics ReadProgramMetrics() {
  ProgramMetrics m;
  for (const auto& snap : dpaudit::obs::MetricsRegistry::Global().Snapshot()) {
    if (snap.name == "dpaudit_per_example_gradients_total") {
      m.examples = snap.value;
    } else if (snap.name == "dpaudit_gradient_engine_lane_fill") {
      m.lane_fill = snap.summary.mean();
    }
  }
  return m;
}

std::string TrialJson(const dpaudit::DiTrialResult& t) {
  return "\"trained_on_d\":" + std::to_string(t.trained_on_d) +
         ",\"says_d\":" + std::to_string(t.adversary_says_d) +
         ",\"final_belief\":" + JsonNumber(t.final_belief_d) +
         ",\"max_belief\":" + JsonNumber(t.max_belief_d) +
         ",\"sigmas\":" + JsonArray(t.sigmas) +
         ",\"ls\":" + JsonArray(t.local_sensitivities);
}

/// One repetition per stream, rerun outside the sweep with its per-step
/// log densities: repetition r of cell r mod cells. Cells share a seed, so
/// repetition r draws the same noise in every cell; one cell per
/// repetition keeps the per-step residuals independent.
std::string RerunJson(const WorkloadSpec& spec, const PhaseResult& phase,
                      uint64_t seed) {
  std::ostringstream os;
  os << "[";
  for (size_t rep = 0; rep < phase.reps; ++rep) {
    const size_t cell = rep % phase.cells.size();
    dpaudit::DiTrialResult trial;
    dpaudit::TrialTrace record;
    RerunTrial(spec, phase, cell, rep, seed, &trial, &record);
    std::vector<double> llr;
    for (const dpaudit::StepTraceRecord& step : record.steps) {
      llr.push_back(step.log_density_d - step.log_density_dprime);
    }
    os << (rep == 0 ? "" : ",") << "{\"phase\":" << JsonString(phase.name)
       << ",\"cell\":" << cell << ",\"rep\":" << rep << ","
       << TrialJson(trial) << ",\"llr\":" << JsonArray(llr) << "}";
  }
  os << "]";
  return os.str();
}

std::string CellJson(const CellResult& cell) {
  std::ostringstream os;
  os << "{\"task\":" << JsonString(cell.task->name)
     << ",\"epsilon\":" << JsonNumber(cell.epsilon) << ",\"mode\":"
     << JsonString(dpaudit::SensitivityModeToString(cell.mode))
     << ",\"delta\":" << JsonNumber(cell.task->delta)
     << ",\"clip_norm\":" << JsonNumber(kClipNorm)
     << ",\"noise_multiplier\":" << JsonNumber(cell.noise_multiplier)
     << ",\"trained\":" << cell.trained << ",\"replayed\":" << cell.replayed
     << ",\"eps_sensitivities\":"
     << JsonNumber(cell.report.epsilon_from_sensitivities)
     << ",\"eps_belief\":" << JsonNumber(cell.report.epsilon_from_belief)
     << ",\"eps_advantage\":"
     << JsonNumber(cell.report.epsilon_from_advantage) << ",\"trials\":[";
  for (size_t i = 0; i < cell.summary.trials.size(); ++i) {
    const dpaudit::DiTrialResult& t = cell.summary.trials[i];
    // The program's own per-trial value, for the per-trial bound check.
    auto trial_eps = dpaudit::EpsilonFromSensitivities(
        t.sigmas, t.local_sensitivities, cell.task->delta);
    DPAUDIT_CHECK_OK(trial_eps.status());
    os << (i == 0 ? "" : ",") << "{" << TrialJson(t)
       << ",\"eps_sensitivities\":" << JsonNumber(*trial_eps) << "}";
  }
  os << "]}";
  return os.str();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: auditbench_bin --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR\n";
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::cerr << "auditbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  dpaudit::RuntimeOptions runtime;
  runtime.threads = spec->threads;
  runtime.log_level = "WARNING";
  dpaudit::InitRuntimeOptions(runtime);
  DPAUDIT_CHECK_OK(dpaudit::ApplyRuntimeOptions(runtime));

  SpanLog log;
  std::vector<std::unique_ptr<Task>> owned;
  std::vector<const Task*> tasks;
  {
    BenchSpan span(log, "setup");
    for (const TaskSpec& task_spec : spec->tasks) {
      owned.push_back(BuildTask(task_spec, args.seed, log));
      tasks.push_back(owned.back().get());
    }
  }
  const double setup_done = NowSeconds();
  const double setup_cpu = ProcessCpuSeconds();

  // Every round's figures, but only the last round's outputs: memory stays
  // the same whatever the number of rounds.
  struct RoundRecord {
    bool traced;
    double audit_s;
    double cpu_s;
    uint64_t attempted;
    uint64_t failed;
    std::string digest;
  };
  const std::string round_dir = args.out + "/round";
  std::vector<RoundRecord> rounds;
  RoundResult last;
  // Whole rounds until the budget is spent: a round starts only while at
  // least half of a typical round still fits, so runs end close to the
  // budget whatever the round length.
  auto run_rounds = [&](double budget, bool trace_pass) {
    const double start = NowSeconds();
    std::vector<double> lengths;
    do {
      log.SetRound(static_cast<int>(rounds.size()));
      last = RunRound(*spec, tasks, args.seed, round_dir,
                      spec->persistent || trace_pass, log);
      log.SetRound(-1);
      rounds.push_back({trace_pass, last.audit_s, last.cpu_s, last.attempted,
                        last.failed, RoundDigest(last)});
      lengths.push_back(last.audit_s);
    } while (NowSeconds() - start + Median(lengths) / 2 < budget);
  };
  run_rounds(args.trace ? args.seconds / 2 : args.seconds, false);
  const double peak_rss_mb = PeakRssMb();
  if (args.trace) {
    dpaudit::obs::EnableTelemetryForTest(true);
    run_rounds(args.seconds / 2, true);
    dpaudit::obs::EnableTelemetryForTest(false);
  }

  // Everything below runs after the timed rounds.
  std::vector<std::string> ledger_rows;
  const uint64_t check_start = NowNs();
  {
    BenchSpan span(log, "ledger.check");
    for (const PhaseResult& phase : last.phases) {
      if (phase.ledger_path.empty()) continue;
      std::ostringstream report;
      const dpaudit::Status status =
          dpaudit::CheckLedgerFile(phase.ledger_path, 1e-9, report);
      ledger_rows.push_back(
          "{\"phase\":" + JsonString(phase.name) +
          ",\"path\":" + JsonString(phase.ledger_path) + ",\"check_ok\":" +
          (status.ok() ? "true" : "false") +
          ",\"message\":" + JsonString(status.message()) + "}");
    }
  }
  const double ledger_check_ms =
      static_cast<double>(NowNs() - check_start) * 1e-6;

  std::ofstream out(args.out + "/result.json");
  out << "{\"workload\":" << JsonString(spec->name)
      << ",\"seed\":" << args.seed << ",\"threads\":" << spec->threads
      << ",\"setup_done_s\":" << JsonNumber(setup_done)
      << ",\"setup_cpu_s\":" << JsonNumber(setup_cpu)
      << ",\"peak_rss_mb\":" << JsonNumber(peak_rss_mb) << ",\"rounds\":[";
  for (size_t r = 0; r < rounds.size(); ++r) {
    out << (r == 0 ? "" : ",") << "{\"traced\":"
        << (rounds[r].traced ? "true" : "false")
        << ",\"audit_s\":" << JsonNumber(rounds[r].audit_s)
        << ",\"cpu_s\":" << JsonNumber(rounds[r].cpu_s)
        << ",\"attempted\":" << rounds[r].attempted
        << ",\"failed\":" << rounds[r].failed
        << ",\"digest\":" << JsonString(rounds[r].digest) << "}";
  }
  out << "],\"tasks\":[";
  for (size_t t = 0; t < tasks.size(); ++t) {
    out << (t == 0 ? "" : ",") << "{\"name\":" << JsonString(tasks[t]->name)
        << ",\"n\":" << tasks[t]->d.size()
        << ",\"params\":" << tasks[t]->params
        << ",\"delta\":" << JsonNumber(tasks[t]->delta)
        << ",\"architecture\":" << JsonString(tasks[t]->net.Describe())
        << "}";
  }
  out << "],\"phases\":[";
  for (size_t p = 0; p < last.phases.size(); ++p) {
    const PhaseResult& phase = last.phases[p];
    out << (p == 0 ? "" : ",") << "{\"name\":" << JsonString(phase.name)
        << ",\"reps\":" << phase.reps << ",\"cells\":[";
    for (size_t c = 0; c < phase.cells.size(); ++c) {
      out << (c == 0 ? "" : ",") << CellJson(phase.cells[c]);
    }
    out << "]}";
  }
  out << "],\"reruns\":" << RerunJson(*spec, last.phases.back(), args.seed)
      << ",\"ledgers\":[";
  for (size_t i = 0; i < ledger_rows.size(); ++i) {
    out << (i == 0 ? "" : ",") << ledger_rows[i];
  }
  out << "]";

  if (args.trace) {
    std::map<std::string, double> per_layer;
    // data/: set-up spans.
    uint64_t evals = 0;
    for (const Task* task : tasks) evals += task->dissimilarity_evals;
    const double search_s = log.Seconds("data.neighbor_search", -1);
    per_layer["data.generate_s"] = log.Seconds("data.generate", -1);
    per_layer["data.neighbor_search_s"] = search_s;
    per_layer["data.dissimilarity_evals"] = static_cast<double>(evals);
    per_layer["data.ns_per_dissimilarity"] =
        evals == 0 ? 0.0 : search_s * 1e9 / static_cast<double>(evals);

    // Program spans and metrics, per traced round.
    double traced_rounds = 0.0;
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    double sweep_wall = 0.0;
    double calibration_s = 0.0;
    double audit_calls_s = 0.0;
    for (size_t r = 0; r < rounds.size(); ++r) {
      (rounds[r].traced ? traced_s : untraced_s).push_back(rounds[r].audit_s);
      if (!rounds[r].traced) continue;
      traced_rounds += 1.0;
      sweep_wall += log.Seconds("sweep.run", static_cast<int>(r));
      calibration_s += log.Seconds("dp.calibration", static_cast<int>(r));
      audit_calls_s += log.Seconds("auditor.audit", static_cast<int>(r));
    }
    const std::map<std::string, double> spans = ProgramSpanSeconds();
    auto span_s = [&](const std::string& name) {
      auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second / traced_rounds;
    };
    const ProgramMetrics metrics = ReadProgramMetrics();
    double coords = 0.0;  // released coordinates per round
    double trained = 0.0;
    double replayed = 0.0;
    double full_hits = 0.0;
    double prefix_hits = 0.0;
    double misses = 0.0;
    for (const PhaseResult& phase : last.phases) {
      for (const CellResult& cell : phase.cells) {
        coords += static_cast<double>(cell.trained * kEpochs *
                                      cell.task->params);
      }
      trained += static_cast<double>(phase.stats.trials_trained);
      replayed += static_cast<double>(phase.stats.trials_replayed);
      full_hits += static_cast<double>(phase.stats.trace_full_hits);
      prefix_hits += static_cast<double>(phase.stats.trace_prefix_hits);
      misses += static_cast<double>(phase.stats.trace_misses);
    }
    const double examples = metrics.examples / traced_rounds;
    const double pe_s = span_s("per_example_gradients");
    per_layer["nn.per_example_gradients_s"] = pe_s;
    per_layer["nn.examples"] = examples;
    per_layer["nn.us_per_example"] = examples > 0 ? pe_s * 1e6 / examples : 0.0;
    per_layer["nn.lane_fill"] = metrics.lane_fill;
    const double perturb_s = span_s("mechanism_perturb");
    const double llr_s = span_s("adversary_llr");
    per_layer["dp.perturb_s"] = perturb_s;
    per_layer["dp.ns_per_coord"] = coords > 0 ? perturb_s * 1e9 / coords : 0.0;
    per_layer["adversary.llr_s"] = llr_s;
    per_layer["adversary.ns_per_coord"] =
        coords > 0 ? llr_s * 1e9 / coords : 0.0;
    per_layer["optimizer.step_s"] = span_s("optimizer_step");
    per_layer["dp.calibration_ms"] = calibration_s * 1e3 / traced_rounds;
    per_layer["auditor.audit_ms"] = audit_calls_s * 1e3 / traced_rounds;
    per_layer["sweep.occupancy"] =
        span_s("repetition") /
        (static_cast<double>(spec->threads) * sweep_wall / traced_rounds);
    per_layer["sweep.trials_trained"] = trained;
    per_layer["sweep.trials_replayed"] = replayed;
    per_layer["trace.full_hits"] = full_hits;
    per_layer["trace.prefix_hits"] = prefix_hits;
    per_layer["trace.misses"] = misses;
    const double trace_bytes =
        static_cast<double>(DirectoryBytes(last.trace_dir));
    per_layer["trace.bytes"] = trace_bytes;
    per_layer["trace.load_ms"] =
        TraceLoadMs(*spec, last, round_dir, args.seed, log);
    double journal_bytes = 0.0;
    double journal_rows = 0.0;
    double ledger_bytes = 0.0;
    double ledger_rows_n = 0.0;
    for (const PhaseResult& phase : last.phases) {
      journal_bytes += static_cast<double>(FileBytes(phase.journal_path));
      journal_rows += static_cast<double>(FileLines(phase.journal_path));
      ledger_bytes += static_cast<double>(FileBytes(phase.ledger_path));
      ledger_rows_n += static_cast<double>(FileLines(phase.ledger_path));
    }
    per_layer["journal.bytes"] = journal_bytes;
    per_layer["journal.rows"] = journal_rows;
    per_layer["ledger.bytes"] = ledger_bytes;
    per_layer["ledger.rows"] = ledger_rows_n;
    per_layer["ledger.check_ms"] = ledger_check_ms;
    per_layer["persist.bytes"] = trace_bytes + journal_bytes + ledger_bytes;
    const double untraced_median = Median(untraced_s);
    per_layer["telemetry.overhead_pct"] =
        100.0 * (Median(traced_s) - untraced_median) / untraced_median;

    // nn/ layers, probed outside the rounds with telemetry off.
    per_layer["nn.clipped_sums_ms_per_step"] =
        ClippedSumsMsPerStep(tasks, args.seed, log);
    const LayerProbeResult probe = RunLayerProbe(tasks, args.seed, log);
    out << ",\"layer_kinds\":{";
    bool first = true;
    for (const std::string& kind : ProbeLayerKinds()) {
      auto it = probe.kinds.find(kind);
      const LayerKindTiming timing =
          it == probe.kinds.end() ? LayerKindTiming{} : it->second;
      const double us = timing.forward_us + timing.backward_us;
      per_layer["nn." + kind + ".forward_us"] = timing.forward_us;
      per_layer["nn." + kind + ".backward_us"] = timing.backward_us;
      per_layer["nn." + kind + ".gflops"] = us > 0 ? timing.flops / us * 1e-3
                                                   : 0.0;
      out << (first ? "" : ",") << JsonString(kind) << ":{\"instances\":"
          << timing.instances << ",\"reference_shapes\":"
          << (timing.reference_shapes ? "true" : "false") << "}";
      first = false;
    }
    out << "},\"finite_differences\":{\"skipped\":" << probe.skipped
        << ",\"samples\":[";
    for (size_t i = 0; i < probe.samples.size(); ++i) {
      const FiniteDifferenceSample& s = probe.samples[i];
      out << (i == 0 ? "" : ",") << "{\"layer\":" << JsonString(s.layer)
          << ",\"wrt\":" << JsonString(s.wrt)
          << ",\"analytic\":" << JsonNumber(s.analytic)
          << ",\"numeric\":" << JsonNumber(s.numeric) << "}";
    }
    out << "]},\"per_layer\":{";
    first = true;
    for (const auto& [name, value] : per_layer) {
      out << (first ? "" : ",") << JsonString(name) << ":" << JsonNumber(value);
      first = false;
    }
    out << "}";
    std::ofstream spans_out(args.out + "/bench_spans.json");
    log.WriteChromeTrace(spans_out);
  }
  out << "}\n";
  out.close();
  return out ? 0 : 1;
}

}  // namespace
}  // namespace auditbench

int main(int argc, char** argv) { return auditbench::Main(argc, argv); }
