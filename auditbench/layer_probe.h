// Layer probe: times each nn layer's public forward and backward entry
// points on a workload's own network shapes and inputs, computes FLOP counts
// from the shapes, and checks every backward pass against central finite
// differences of the forward pass on sampled coordinates.

#ifndef DPAUDIT_AUDITBENCH_LAYER_PROBE_H_
#define DPAUDIT_AUDITBENCH_LAYER_PROBE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace auditbench {

/// The layer kinds the probe reports, in report order.
const std::vector<std::string>& ProbeLayerKinds();

struct LayerKindTiming {
  double forward_us = 0.0;   // per example, summed over the kind's instances
  double backward_us = 0.0;  // per example, summed likewise
  double flops = 0.0;        // forward + backward FLOPs per example (computed)
  size_t instances = 0;
  /// True when the workload's networks lack this kind and the probe ran it
  /// at the MNIST network's shapes instead.
  bool reference_shapes = false;
};

/// One sampled coordinate of one layer's gradient: the backward pass's
/// value against the central difference of <g, forward(x)>.
struct FiniteDifferenceSample {
  std::string layer;  // Layer::Name()
  std::string wrt;    // "input" or "param"
  double analytic = 0.0;
  double numeric = 0.0;
};

struct LayerProbeResult {
  std::map<std::string, LayerKindTiming> kinds;
  std::vector<FiniteDifferenceSample> samples;
  size_t skipped = 0;  // coordinates at a kink of the forward pass
};

LayerProbeResult RunLayerProbe(const std::vector<const Task*>& tasks,
                               uint64_t seed, SpanLog& log);

/// Median milliseconds of one ComputeClippedNeighborSums call (one DPSGD
/// step's per-example gradients for both neighbours, one engine thread),
/// summed over the workload's tasks.
double ClippedSumsMsPerStep(const std::vector<const Task*>& tasks,
                            uint64_t seed, SpanLog& log);

}  // namespace auditbench

#endif  // DPAUDIT_AUDITBENCH_LAYER_PROBE_H_
