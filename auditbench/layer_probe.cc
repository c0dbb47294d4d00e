#include "layer_probe.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/neighbor_sums.h"
#include "data/synthetic_mnist.h"
#include "nn/gradient_engine.h"
#include "nn/layer.h"
#include "nn/loss.h"
#include "util/logging.h"
#include "util/random.h"

namespace auditbench {

using dpaudit::Layer;
using dpaudit::Rng;
using dpaudit::Tensor;

namespace {

constexpr size_t kProbeExamples = 4;
constexpr size_t kInputSamples = 16;
constexpr size_t kParamSamples = 8;
constexpr double kStep = 1e-2;           // finite-difference step
constexpr double kMinProbeSeconds = 0.02;  // per layer and direction
constexpr int kProbeBatches = 7;

std::string KindOf(const std::string& layer_name) {
  return layer_name.substr(0, layer_name.find('('));
}

size_t ParamCount(Layer& layer) {
  size_t total = 0;
  for (Tensor* p : layer.Params()) total += p->size();
  return total;
}

/// Forward + backward FLOPs of one example, computed from the shapes: a
/// multiply-add counts 2; conv and dense backward do two products each (input
/// and weight gradients); elementwise layers count one operation per element
/// and pass, channel norm 4 forward and 8 backward.
double LayerFlops(const std::string& kind, Layer& layer, const Tensor& in,
                  const Tensor& out) {
  const double n_in = static_cast<double>(in.size());
  const double n_out = static_cast<double>(out.size());
  if (kind == "conv2d" || kind == "dense") {
    // Weights per output channel (conv) or unit (dense) are the
    // multiply-adds behind each output element.
    const double cout =
        kind == "conv2d" ? static_cast<double>(out.dim(0)) : n_out;
    const double weights = static_cast<double>(layer.Params()[0]->size());
    const double forward = 2.0 * n_out * weights / cout;
    return 3.0 * forward;
  }
  if (kind == "channel_norm") return 12.0 * n_in;
  return 2.0 * n_in;  // relu, maxpool
}

/// Median per-example seconds of `pass` over kProbeExamples examples.
template <typename Pass>
double TimePerExample(Pass pass) {
  std::vector<double> batches;
  double spent = 0.0;
  size_t repeats = 1;
  while (true) {
    const double t0 = NowSeconds();
    double timed = 0.0;
    for (size_t r = 0; r < repeats; ++r) {
      for (size_t e = 0; e < kProbeExamples; ++e) timed += pass(e);
    }
    const double elapsed = NowSeconds() - t0;
    spent += elapsed;
    if (elapsed < 1e-3 && batches.empty()) {
      repeats *= 4;  // too short to time: grow the batch before sampling
      continue;
    }
    batches.push_back(timed / static_cast<double>(repeats * kProbeExamples));
    if (static_cast<int>(batches.size()) >= kProbeBatches &&
        spent >= kMinProbeSeconds) {
      break;
    }
  }
  return Median(batches);
}

double Contract(const Tensor& g, const Tensor& y) {
  double s = 0.0;
  for (size_t k = 0; k < y.size(); ++k) {
    s += static_cast<double>(g[k]) * static_cast<double>(y[k]);
  }
  return s;
}

/// Central difference of <g, f(x)> along one coordinate, or NaN when the
/// one-sided differences disagree (the step crosses a kink of f).
template <typename Objective>
double CentralDifference(Objective objective, float* coord) {
  const float saved = *coord;
  const double f0 = objective();
  *coord = saved + static_cast<float>(kStep);
  const double up = static_cast<float>(saved + static_cast<float>(kStep));
  const double fp = objective();
  *coord = saved - static_cast<float>(kStep);
  const double down = static_cast<float>(saved - static_cast<float>(kStep));
  const double fm = objective();
  *coord = saved;
  const double h_up = up - static_cast<double>(saved);
  const double h_down = static_cast<double>(saved) - down;
  const double d_up = (fp - f0) / h_up;
  const double d_down = (f0 - fm) / h_down;
  if (std::fabs(d_up - d_down) >
      1e-2 + 1e-2 * std::max(std::fabs(d_up), std::fabs(d_down))) {
    return std::nan("");
  }
  return (fp - fm) / (h_up + h_down);
}

/// Times one layer instance and checks its backward pass against finite
/// differences. `inputs` are the layer's inputs for the probe examples.
void ProbeLayer(Layer& layer, const std::vector<Tensor>& inputs,
                std::vector<Tensor>* outputs, Rng& rng,
                LayerProbeResult* result, LayerKindTiming* timing) {
  const std::string name = layer.Name();
  outputs->assign(kProbeExamples, Tensor());
  for (size_t e = 0; e < kProbeExamples; ++e) {
    layer.ForwardInto(inputs[e], &(*outputs)[e]);
  }
  std::vector<Tensor> grads(kProbeExamples);
  for (size_t e = 0; e < kProbeExamples; ++e) {
    grads[e] = Tensor((*outputs)[e].shape());
    for (size_t k = 0; k < grads[e].size(); ++k) {
      grads[e][k] = static_cast<float>(rng.Gaussian());
    }
  }
  Tensor out;
  Tensor grad_in;
  const double forward = TimePerExample([&](size_t e) {
    const double t0 = NowSeconds();
    layer.ForwardInto(inputs[e], &out);
    return NowSeconds() - t0;
  });
  const double backward = TimePerExample([&](size_t e) {
    layer.ForwardInto(inputs[e], &out);
    const double t0 = NowSeconds();
    layer.BackwardInto(grads[e], &grad_in);
    return NowSeconds() - t0;
  });
  timing->forward_us += forward * 1e6;
  timing->backward_us += backward * 1e6;
  timing->flops += LayerFlops(KindOf(name), layer, inputs[0], (*outputs)[0]);
  ++timing->instances;

  // Analytic gradients of <g, f(x)> for example 0.
  Tensor x = inputs[0];
  const Tensor& g = grads[0];
  layer.ZeroGrads();
  layer.ForwardInto(x, &out);
  layer.BackwardInto(g, &grad_in);
  const Tensor analytic_input = grad_in;
  std::vector<float> analytic_params;
  for (Tensor* grad : layer.Grads()) {
    analytic_params.insert(analytic_params.end(), grad->vec().begin(),
                           grad->vec().end());
  }
  auto objective = [&] {
    layer.ForwardInto(x, &out);
    return Contract(g, out);
  };
  auto record = [&](const char* wrt, double analytic, double numeric) {
    if (std::isnan(numeric)) {
      ++result->skipped;
      return;
    }
    result->samples.push_back({name, wrt, analytic, numeric});
  };
  for (size_t s = 0; s < kInputSamples; ++s) {
    const size_t j = rng.UniformInt(x.size());
    record("input", analytic_input[j], CentralDifference(objective, &x[j]));
  }
  const size_t params = ParamCount(layer);
  for (size_t s = 0; params > 0 && s < kParamSamples; ++s) {
    const size_t index = rng.UniformInt(params);
    size_t j = index;
    float* coord = nullptr;
    for (Tensor* p : layer.Params()) {
      if (j < p->size()) {
        coord = p->data() + j;
        break;
      }
      j -= p->size();
    }
    record("param", analytic_params[index],
           CentralDifference(objective, coord));
  }
}

/// Probes the loss: forward is SoftmaxProbabilities, backward the fused
/// SoftmaxCrossEntropyInto, both on the network's logits.
void ProbeLoss(const std::vector<Tensor>& logits,
               const std::vector<size_t>& labels, Rng& rng,
               LayerProbeResult* result, LayerKindTiming* timing) {
  Tensor grad;
  const double forward = TimePerExample([&](size_t e) {
    const double t0 = NowSeconds();
    const Tensor p = dpaudit::SoftmaxProbabilities(logits[e]);
    return NowSeconds() - t0;
  });
  const double backward = TimePerExample([&](size_t e) {
    const double t0 = NowSeconds();
    dpaudit::SoftmaxCrossEntropyInto(logits[e], labels[e], &grad);
    return NowSeconds() - t0;
  });
  const double classes = static_cast<double>(logits[0].size());
  timing->forward_us += forward * 1e6;
  timing->backward_us += backward * 1e6;
  timing->flops += 9.0 * classes;
  ++timing->instances;

  Tensor z = logits[0];
  dpaudit::SoftmaxCrossEntropyInto(z, labels[0], &grad);
  const Tensor analytic = grad;
  Tensor scratch;
  auto objective = [&] {
    return dpaudit::SoftmaxCrossEntropyInto(z, labels[0], &scratch);
  };
  for (size_t s = 0; s < kInputSamples; ++s) {
    const size_t j = rng.UniformInt(z.size());
    const double numeric = CentralDifference(objective, &z[j]);
    if (std::isnan(numeric)) {
      ++result->skipped;
    } else {
      result->samples.push_back({"loss", "input", analytic[j], numeric});
    }
  }
}

/// Probes every layer of `net` (initialized from `seed`) on the first
/// examples of `data`; with `only`, probes just the kinds in it.
void ProbeNetwork(const Network& architecture, const Dataset& data,
                  uint64_t seed, const std::vector<std::string>* only,
                  LayerProbeResult* result) {
  Network net = architecture.Clone();
  Rng init(seed ^ 0x70726f6265ULL);
  net.Initialize(init);
  Rng rng(seed ^ 0x6664636865ULL);
  std::vector<Tensor> inputs(data.inputs.begin(),
                             data.inputs.begin() + kProbeExamples);
  std::vector<size_t> labels(data.labels.begin(),
                             data.labels.begin() + kProbeExamples);
  // Each layer's inputs stay alive through its backward calls (layers keep
  // a pointer to their input).
  std::vector<std::vector<Tensor>> acts{inputs};
  std::vector<std::unique_ptr<Layer>> layers;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    layers.push_back(net.layer(i).Clone());
    const std::string kind = KindOf(layers.back()->Name());
    std::vector<Tensor> outputs;
    const bool wanted =
        only == nullptr ||
        std::find(only->begin(), only->end(), kind) != only->end();
    if (wanted) {
      LayerKindTiming& timing = result->kinds[kind];
      timing.reference_shapes = only != nullptr;
      ProbeLayer(*layers.back(), acts.back(), &outputs, rng, result, &timing);
    } else {
      outputs.resize(kProbeExamples);
      for (size_t e = 0; e < kProbeExamples; ++e) {
        layers.back()->ForwardInto(acts.back()[e], &outputs[e]);
      }
    }
    acts.push_back(std::move(outputs));
  }
  const bool want_loss =
      only == nullptr ||
      std::find(only->begin(), only->end(), "loss") != only->end();
  if (want_loss) {
    ProbeLoss(acts.back(), labels, rng, result, &result->kinds["loss"]);
  }
}

}  // namespace

const std::vector<std::string>& ProbeLayerKinds() {
  static const std::vector<std::string> kinds = {
      "conv2d", "channel_norm", "relu", "maxpool", "dense", "loss"};
  return kinds;
}

LayerProbeResult RunLayerProbe(const std::vector<const Task*>& tasks,
                               uint64_t seed, SpanLog& log) {
  BenchSpan span(log, "nn.layer_probe");
  LayerProbeResult result;
  for (const Task* task : tasks) {
    ProbeNetwork(task->net, task->d, seed, nullptr, &result);
  }
  std::vector<std::string> missing;
  for (const std::string& kind : ProbeLayerKinds()) {
    if (result.kinds.count(kind) == 0) missing.push_back(kind);
  }
  if (!missing.empty()) {
    // Layers the workload's networks do not use are probed at the MNIST
    // network's shapes, on synthetic digits from the same seed, so every
    // layer reports a figure.
    Rng rng(seed ^ 0x726566ULL);
    const Dataset digits = dpaudit::GenerateSyntheticMnist(
        kProbeExamples, dpaudit::SyntheticMnistConfig{}, rng);
    const Network reference = dpaudit::BuildMnistNetwork(28, 4, 8);
    ProbeNetwork(reference, digits, seed, &missing, &result);
  }
  return result;
}

double ClippedSumsMsPerStep(const std::vector<const Task*>& tasks,
                            uint64_t seed, SpanLog& log) {
  BenchSpan span(log, "nn.clipped_sums_probe");
  double total_ms = 0.0;
  for (const Task* task : tasks) {
    Network net = task->net.Clone();
    Rng init(seed ^ 0x636c6970ULL);
    net.Initialize(init);
    dpaudit::GradientEngine::Options options;
    options.threads = 1;
    dpaudit::GradientEngine engine(net, options);
    engine.SyncParams(net);
    const dpaudit::NeighborOverlap overlap = dpaudit::AnalyzeNeighborOverlap(
        task->d, task->d_prime, dpaudit::NeighborMode::kBounded);
    DPAUDIT_CHECK(overlap.sharable);
    auto step = [&] {
      dpaudit::NeighborSums sums = dpaudit::ComputeClippedNeighborSums(
          engine, task->d, task->d_prime, overlap,
          dpaudit::NeighborMode::kBounded, kClipNorm, false);
      return sums.sum_d.size();
    };
    step();  // warm the engine's workspaces
    std::vector<double> times;
    double spent = 0.0;
    while (times.size() < 5 || (spent < 0.2 && times.size() < 50)) {
      const double t0 = NowSeconds();
      step();
      const double t = NowSeconds() - t0;
      times.push_back(t);
      spent += t;
    }
    total_ms += Median(times) * 1e3;
  }
  return total_ms;
}

}  // namespace auditbench
