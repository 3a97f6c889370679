// Repository benchmark program for the TS3Net forecaster.
//
// One process runs one workload at one seed:
//   train-t96   closed loop: FitForecast rounds on the ETTh1 preset (T=96).
//   infer-t720  closed loop: ModelSnapshot::Predict on [4, 720, 7] batches.
//   serve-t96   open loop: Poisson arrivals at 50 windows/s through a
//               ModelRegistry (batcher, admission control, flight recorder).
//
// Every call into the program goes through its public headers; nothing here
// instruments src/. With --trace 1 the benchmark opens its own spans around
// those calls, runs a set of per-layer probes at the workload's shapes, and
// writes the spans to --trace_out when the run ends. The last stdout line is
// one JSON object; run.py turns it into the benchmark's result line.
//
// Usage (normally through run.py):
//   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--setup_only 1] [--tiny 1] [--trace_out PATH]

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/obs/metrics.h"
#include "common/random.h"
#include "common/threadpool.h"
#include "core/config.h"
#include "core/sgd_layer.h"
#include "core/tf_block.h"
#include "core/ts3net.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "data/timeseries.h"
#include "data/window.h"
#include "models/model_config.h"
#include "models/registry.h"
#include "nn/embedding.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/revin.h"
#include "serve/flight_recorder.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "signal/cwt.h"
#include "signal/cwt_plan.h"
#include "signal/period.h"
#include "signal/trend.h"
#include "signal/wavelet.h"
#include "tensor/autograd_mode.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "train/trainer.h"

namespace ts3net {
namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Clock, statistics, process counters
// ---------------------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// Linear-interpolated quantile (q in [0, 1]); NaN for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

int64_t CounterValue(const std::string& name) {
  const auto values = obs::MetricsRegistry::Global()->CounterValues();
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

/// FNV-1a over the bit patterns of a tensor's floats.
uint64_t HashTensor(const Tensor& t, uint64_t h = 1469598103934665603ULL) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    uint32_t bits = 0;
    std::memcpy(&bits, p + i, sizeof(bits));
    h = (h ^ bits) * 1099511628211ULL;
  }
  return h;
}

bool AllFinite(const Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Sum of squared errors between two equally shaped tensors.
double SquaredError(const Tensor& pred, const Tensor& truth) {
  const float* p = pred.data();
  const float* t = truth.data();
  double s = 0;
  for (int64_t i = 0; i < pred.numel(); ++i) {
    const double d = static_cast<double>(p[i]) - t[i];
    s += d * d;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out when the run ends
// ---------------------------------------------------------------------------

class Tracer {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span under the calling thread's current span; -1 when off.
  int Begin(const char* name, int64_t request_id) {
    if (!enabled()) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, NowNs(), 0, current_, request_id, ThreadIndex()});
    const int idx = static_cast<int>(spans_.size()) - 1;
    current_ = idx;
    return idx;
  }

  void End(int idx) {
    if (idx < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[idx].end_ns = NowNs();
    current_ = spans_[idx].parent;
  }

  /// Wall times (ms) of every closed span named `name`, in start order.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Rec& r : spans_) {
      if (r.end_ns != 0 && name == r.name) {
        out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
      }
    }
    return out;
  }

  /// Writes every span as one JSON object per line. Returns false on I/O
  /// failure.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Rec& r = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRId64
                   ", \"end_ns\": %" PRId64 ", \"parent\": %d, "
                   "\"request_id\": %" PRId64 ", \"thread\": %d}\n",
                   i, r.name, r.start_ns, r.end_ns, r.parent, r.request_id,
                   r.thread);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Rec {
    const char* name;  // string literal
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int64_t request_id;
    int thread;
  };

  static int ThreadIndex() {
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
  }

  // The innermost open span of the calling thread. Thread-local, so it is
  // a static member: spans nest per thread, and each thread has one tracer.
  static thread_local int current_;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Rec> spans_;
};

thread_local int Tracer::current_ = -1;

Tracer g_tracer;

/// RAII span; `Close` ends it early and returns its wall time in ms.
class Span {
 public:
  explicit Span(const char* name, int64_t request_id = -1)
      : idx_(g_tracer.Begin(name, request_id)), start_ns_(NowNs()) {}
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double Close() {
    if (!open_) return ms_;
    open_ = false;
    ms_ = MsSince(start_ns_);
    g_tracer.End(idx_);
    return ms_;
  }

 private:
  int idx_;
  int64_t start_ns_;
  bool open_ = true;
  double ms_ = 0;
};

/// Per-name sample lists gathered by the traced probes (ms unless named
/// otherwise); each metric reads the median of its list.
using Samples = std::map<std::string, std::vector<double>>;

template <typename F>
double Timed(const char* name, F&& f) {
  Span span(name);
  f();
  return span.Close();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  int pool_threads = 2;
  int64_t lookback = 96;
  int64_t horizon = 96;
  int64_t batch = 16;
  double data_fraction = 0.06;  // synthetic ETTh1 length, share of real
  int train_batches = 0;        // train-t96: batches per FitForecast round
  double latency_limit_ms = 0;  // per-operation latency limit (slo_ok_ratio)
  double rate_per_s = 0;        // serve-t96: offered load
  int clients = 1;              // serve-t96: client threads
  int64_t pool_windows = 0;     // distinct inputs drawn from the test split
};

bool MakeSpec(const std::string& name, bool tiny, WorkloadSpec* s) {
  s->name = name;
  if (name == "train-t96") {
    s->pool_threads = 2;
    s->lookback = tiny ? 32 : 96;
    s->horizon = tiny ? 16 : 96;
    s->batch = tiny ? 4 : 16;
    s->data_fraction = 0.15;
    s->train_batches = tiny ? 1 : 2;
    s->latency_limit_ms = 4000;
    s->pool_windows = 0;
  } else if (name == "infer-t720") {
    s->pool_threads = 2;
    s->lookback = tiny ? 64 : 720;
    s->horizon = tiny ? 16 : 96;
    s->batch = 4;
    s->data_fraction = 0.15;
    s->latency_limit_ms = 1000;
    s->pool_windows = 32;  // 8 distinct batches of 4
  } else if (name == "serve-t96") {
    s->pool_threads = 1;
    s->lookback = tiny ? 32 : 96;
    s->horizon = tiny ? 16 : 96;
    s->batch = 1;
    s->latency_limit_ms = 50;
    // At 100/s about half the requests ride in batches of 2-3, whose
    // forward costs 2-3x a single window's, so the median latency sits on
    // the boundary between two modes and jumps between runs. At 50/s it
    // stays in the batch-1 mode while batches still form.
    s->rate_per_s = 50;
    s->clients = 3;
    s->data_fraction = 0.25;
    s->pool_windows = tiny ? 16 : 128;
  } else {
    return false;
  }
  return true;
}

models::ModelConfig MakeConfig(const WorkloadSpec& s, int64_t channels) {
  models::ModelConfig c;
  c.seq_len = s.lookback;
  c.pred_len = s.horizon;
  c.channels = channels;
  c.d_model = 16;
  c.d_ff = 16;
  c.num_layers = 2;
  c.lambda = 6;
  c.dropout = 0.1f;
  return c;
}

/// Scaled 7:1:2 chronological split of the synthetic ETTh1 preset. The
/// series is the preset's own fixed realization; the benchmark seed picks
/// windows, shuffles and arrival times from it. (Its random walk makes the
/// scaled level of each realization differ widely, so a per-seed series
/// would turn `mse` into a measure of the draw rather than of the program.)
struct Data {
  data::SplitSeries scaled;
  int64_t channels = 0;
};

Data PrepareData(const WorkloadSpec& s) {
  auto preset = data::DatasetPreset("ETTh1", s.data_fraction, 0);
  TS3_CHECK(preset.ok()) << preset.status().ToString();
  const data::TimeSeries series = data::GenerateSynthetic(preset.value());
  const data::SplitSeries split =
      data::SplitChronological(series, 0.7, 0.1, s.lookback + s.horizon);
  data::StandardScaler scaler;
  scaler.Fit(split.train.values);
  Data out;
  out.channels = series.channels();
  out.scaled.train.values = scaler.Transform(split.train.values);
  out.scaled.val.values = scaler.Transform(split.val.values);
  out.scaled.test.values = scaler.Transform(split.test.values);
  return out;
}

// Weights are untrained and fixed across benchmark seeds: --seed varies the
// inputs (window choice, training shuffle, arrival schedule), not the model,
// so an output fingerprint like `mse` moves only when the program does.
constexpr uint64_t kModelSeed = 1;

std::shared_ptr<nn::Module> CreateTs3Net(const models::ModelConfig& config) {
  Rng rng(kModelSeed * 7919 + 13);
  auto model = models::CreateModel("TS3Net", config, &rng);
  TS3_CHECK(model.ok()) << model.status().ToString();
  return model.value();
}

/// One held-out window and its ground truth.
struct Window {
  Tensor x;  // [T, C]
  Tensor y;  // [H, C]
};

std::vector<Window> DrawWindows(const data::ForecastDataset& ds, int64_t n,
                                uint64_t seed) {
  Rng rng(seed ^ 0x5EEDF00DULL);
  std::vector<Window> out;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t idx =
        static_cast<int64_t>(rng.NextUint64() % static_cast<uint64_t>(ds.size()));
    Window w;
    ds.Get(idx, &w.x, &w.y);
    out.push_back(std::move(w));
  }
  return out;
}

Tensor StackX(const std::vector<Window>& pool, size_t first, size_t n) {
  std::vector<Tensor> xs;
  for (size_t i = 0; i < n; ++i) xs.push_back(pool[(first + i) % pool.size()].x);
  return StackTensors(xs, 0);
}

struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string error;
  uint64_t checksum = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    if (error.empty()) error = why;
  }
};

/// Everything a workload builds before its first timed operation.
struct Setup {
  Data data;
  models::ModelConfig config;
  std::shared_ptr<nn::Module> model;
  std::shared_ptr<const serve::ModelSnapshot> snapshot;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::vector<Window> pool;
  double setup_s = 0;
  uint64_t checksum = 0;
};

const char kServedName[] = "ts3net";

/// Capture + first Predict per batch size in `warm_batches`, all under spans.
std::shared_ptr<const serve::ModelSnapshot> CaptureAndWarm(
    const Setup& st, const std::vector<size_t>& warm_batches,
    uint64_t* checksum) {
  std::shared_ptr<nn::Module> twin;
  {
    Span span("models.create");
    twin = CreateTs3Net(st.config);
  }
  std::shared_ptr<const serve::ModelSnapshot> snap;
  {
    Span span("serve.capture");
    auto captured = serve::ModelSnapshot::Capture(*st.model, twin);
    TS3_CHECK(captured.ok()) << captured.status().ToString();
    snap = captured.value();
  }
  for (size_t b : warm_batches) {
    Span span("serve.first_predict");
    Tensor out = snap->Predict(StackX(st.pool, 0, b));
    if (b == warm_batches.front()) *checksum = HashTensor(out);
  }
  return snap;
}

int64_t ServeRequests(const WorkloadSpec& s, double seconds) {
  return std::max<int64_t>(1, static_cast<int64_t>(s.rate_per_s * seconds));
}

/// Sizes the process-wide flight recorder to hold `requests` records. Must
/// run before the registry that serves them is created: batchers cache the
/// recorder pointer at construction.
void ConfigureFlightRecorder(int64_t requests) {
  serve::FlightRecorderOptions fo;
  fo.capacity = static_cast<int>(requests + 64);
  serve::FlightRecorder::Configure(fo);
}

/// One train-t96 round: FitForecast for `train_batches` batches, validating
/// on as many batches. Returns the checksum of the validation loss and of
/// every trained parameter, or 0 when the validation loss is not finite.
uint64_t TrainRound(const WorkloadSpec& s, uint64_t seed, const Setup& st,
                    nn::Module* model) {
  const data::ForecastDataset train(st.data.scaled.train.values, s.lookback,
                                    s.horizon);
  const data::ForecastDataset val(st.data.scaled.val.values, s.lookback,
                                  s.horizon);
  train::TrainOptions opt;
  opt.epochs = 1;
  opt.batch_size = s.batch;
  opt.lr = 5e-3f;
  opt.seed = seed;
  opt.max_batches_per_epoch = s.train_batches;
  const train::FitResult fit = train::FitForecast(model, train, val, opt);
  uint64_t h = HashTensor(Tensor::Scalar(fit.best_val));
  for (const Tensor& p : model->Parameters()) h = HashTensor(p, h);
  return std::isfinite(fit.best_val) ? h : 0;
}

Setup DoSetup(const WorkloadSpec& s, uint64_t seed, double seconds) {
  const int64_t start = NowNs();
  Setup st;
  ThreadPool::SetGlobalNumThreads(s.pool_threads);
  {
    Span span("data.prepare");
    st.data = PrepareData(s);
  }
  st.config = MakeConfig(s, st.data.channels);
  {
    Span span("models.create");
    st.model = CreateTs3Net(st.config);
  }
  if (s.pool_windows > 0) {
    data::ForecastDataset test(st.data.scaled.test.values, s.lookback,
                               s.horizon);
    st.pool = DrawWindows(test, s.pool_windows, seed);
  }
  if (s.name == "train-t96") {
    // Warm-up: one full round, whose checksum every timed round must
    // reproduce bit for bit.
    st.checksum = TrainRound(s, seed, st, st.model.get());
  } else if (s.name == "infer-t720") {
    st.snapshot = CaptureAndWarm(st, {static_cast<size_t>(s.batch)},
                                 &st.checksum);
  } else {
    st.snapshot = CaptureAndWarm(st, {1, 2, 3}, &st.checksum);
    ConfigureFlightRecorder(ServeRequests(s, seconds));  // every request
    serve::ModelRegistryOptions ro;
    ro.max_queue = 64;  // admission control on
    st.registry = std::make_unique<serve::ModelRegistry>(ro);
    auto published = st.registry->Publish(kServedName, st.snapshot);
    TS3_CHECK(published.ok()) << published.status().ToString();
  }
  st.setup_s = static_cast<double>(NowNs() - start) / 1e9;
  return st;
}

// ---------------------------------------------------------------------------
// Timed phases
// ---------------------------------------------------------------------------

/// Timing of one timed phase, for windows_per_s and the latency metrics.
struct Phase {
  std::vector<double> latency_ms;  // per operation
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t within_limit = 0;
  int64_t windows = 0;             // windows processed OK
  int64_t windows_per_op = 0;      // closed loops: windows per operation
  double seconds = 0;              // open loop: first arrival to last answer
  double sq_err = 0;               // squared error of answered windows
  int64_t sq_count = 0;            // elements in sq_err
};

void ReportPhase(const Phase& p, Result* r) {
  r->attempted += p.attempted;
  r->failed += p.attempted - p.ok;
  r->Set("ok_ratio", static_cast<double>(p.ok) / std::max<int64_t>(1, p.attempted),
         "ratio");
  // A closed loop reports the rate of its median operation, like every
  // other timing here; the open loop reports what it answered over its span.
  const double windows_per_s =
      p.windows_per_op > 0
          ? static_cast<double>(p.windows_per_op) * 1e3 / Median(p.latency_ms)
          : static_cast<double>(p.windows) / p.seconds;
  r->Set("windows_per_s", windows_per_s, "1/s");
  r->Set("latency_ms_p50", Median(p.latency_ms), "ms");
  r->Set("slo_ok_ratio",
         static_cast<double>(p.within_limit) / std::max<int64_t>(1, p.attempted),
         "ratio");
}

/// train-t96: repeated fixed-length FitForecast rounds from the same initial
/// weights; each must reproduce the warm-up round's checksum. `mse` is the
/// trained model's MSE on the whole validation split, computed once after
/// the timed rounds.
Phase RunTrain(const WorkloadSpec& s, uint64_t seed, const Setup& st,
               double seconds, Result* r) {
  Phase p;
  p.windows_per_op = 2 * s.batch * s.train_batches;  // train + val
  std::shared_ptr<nn::Module> model;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (p.attempted == 0 || NowNs() < deadline) {
    // A fresh model per round: dropout keeps its own RNG inside the module,
    // so only a rebuilt model repeats the round bit for bit.
    model = CreateTs3Net(st.config);
    const int64_t t0 = NowNs();
    uint64_t h = 0;
    {
      Span span("train.round");
      h = TrainRound(s, seed, st, model.get());
    }
    const double ms = MsSince(t0);
    ++p.attempted;
    if (h == 0 || h != st.checksum) {
      r->Fail("train round is not finite or differs from the warm-up round");
      continue;
    }
    ++p.ok;
    p.windows += p.windows_per_op;
    p.latency_ms.push_back(ms);
    if (ms <= s.latency_limit_ms) ++p.within_limit;
  }
  const data::ForecastDataset val(st.data.scaled.val.values, s.lookback,
                                  s.horizon);
  r->Set("mse", train::EvaluateForecast(model.get(), val, s.batch).mse, "mse");  // whole split
  return p;
}

/// infer-t720: Predict on a cycle of distinct [B, T, C] batches; every
/// repeat of a batch must reproduce its first answer bit for bit.
Phase RunInfer(const WorkloadSpec& s, const Setup& st, double seconds,
               Result* r) {
  const size_t b = static_cast<size_t>(s.batch);
  const size_t num_batches = st.pool.size() / b;
  std::vector<Tensor> inputs, first;
  for (size_t i = 0; i < num_batches; ++i) inputs.push_back(StackX(st.pool, i * b, b));
  first.resize(num_batches);

  Phase p;
  p.windows_per_op = s.batch;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t k = 0; k == 0 || NowNs() < deadline; ++k) {
    const size_t i = k % num_batches;
    const int64_t t0 = NowNs();
    Tensor out;
    {
      Span span("serve.predict");
      out = st.snapshot->Predict(inputs[i]);
    }
    const double ms = MsSince(t0);
    ++p.attempted;
    const bool shaped = out.shape() == Shape{s.batch, s.horizon, st.data.channels};
    bool ok = shaped && AllFinite(out);
    if (ok && !first[i].defined()) first[i] = out;
    if (ok && !BitwiseEqual(out, first[i])) {
      r->Fail("repeated Predict on one batch is not bitwise equal");
      ok = false;
    }
    if (!ok) continue;
    ++p.ok;
    p.windows += s.batch;
    p.latency_ms.push_back(ms);
    if (ms <= s.latency_limit_ms) ++p.within_limit;
  }
  // MSE over every distinct answered window (repeats are bitwise equal).
  for (size_t i = 0; i < num_batches; ++i) {
    if (!first[i].defined()) continue;
    for (size_t j = 0; j < b; ++j) {
      const Tensor pred = Squeeze(Slice(first[i], 0, static_cast<int64_t>(j), 1), 0);
      p.sq_err += SquaredError(pred, st.pool[i * b + j].y);
      p.sq_count += pred.numel();
    }
  }
  r->Set("mse", p.sq_err / std::max<int64_t>(1, p.sq_count), "mse");
  return p;
}

/// Results of one open-loop run through the registry.
struct OpenLoop {
  Phase phase;
  std::vector<double> gen_late_us;
  int64_t shed = 0;
  int64_t batch_invariant = 0;
  std::vector<serve::RequestRecord> records;
};

/// Poisson arrivals at `rate` per second for `n` requests, sent by `clients`
/// threads that each take the next due arrival from one shared schedule.
/// Latency runs from when a request was due; answers are compared with
/// batch-1 references (`refs`, one per pool window).
OpenLoop RunOpenLoop(serve::ModelRegistry* registry,
                     const std::vector<Window>& pool,
                     const std::vector<Tensor>& refs, double rate, int64_t n,
                     int clients, double limit_ms, uint64_t seed,
                     const Shape& out_shape) {
  Rng rng(seed ^ 0xA11CE5ULL);
  std::vector<int64_t> due_offset(static_cast<size_t>(n));
  std::vector<size_t> which(static_cast<size_t>(n));
  // Exponential gaps, rescaled so the schedule offers exactly `rate` over
  // n / rate seconds whatever the seed.
  std::vector<double> gaps(static_cast<size_t>(n));
  double total = 0;
  for (int64_t i = 0; i < n; ++i) {
    gaps[i] = -std::log(1.0 - rng.NextDouble());
    total += gaps[i];
    which[i] = static_cast<size_t>(rng.NextUint64() % pool.size());
  }
  const double scale = static_cast<double>(n) / rate / total;
  double t = 0;
  for (int64_t i = 0; i < n; ++i) {
    t += gaps[i] * scale;
    due_offset[i] = static_cast<int64_t>(t * 1e9);
  }

  struct Outcome {
    double latency_ms = 0;
    double late_us = 0;
    bool ok = false;
    bool shed = false;
    bool invariant = false;
    double sq_err = 0;
    int64_t done_ns = 0;
  };
  std::vector<Outcome> outcomes(static_cast<size_t>(n));
  const size_t records_before = serve::FlightRecorder::Global()->Snapshot().size();
  std::atomic<int64_t> next{0};
  const int64_t start = NowNs() + 2000000;  // first arrival 2 ms from now
  auto client = [&]() {
    for (;;) {
      const int64_t i = next.fetch_add(1);
      if (i >= n) return;
      const int64_t due = start + due_offset[i];
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      Outcome& o = outcomes[i];
      const int64_t sent = NowNs();
      o.late_us = static_cast<double>(sent - due) / 1e3;
      const Window& w = pool[which[i]];
      Span span("serve.request", i);
      auto res = registry->Predict(kServedName, w.x);
      span.Close();
      o.done_ns = NowNs();
      o.latency_ms = static_cast<double>(o.done_ns - due) / 1e6;
      if (!res.ok()) {
        o.shed = res.status().code() == StatusCode::kUnavailable;
        continue;
      }
      const Tensor& out = res.value();
      o.ok = out.shape() == out_shape && AllFinite(out);
      if (!o.ok) continue;
      o.invariant = BitwiseEqual(out, refs[which[i]]);
      o.sq_err = SquaredError(out, w.y);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client);
  for (std::thread& th : threads) th.join();

  OpenLoop ol;
  Phase& p = ol.phase;
  int64_t last_done = start;
  for (int64_t i = 0; i < n; ++i) {
    const Outcome& o = outcomes[i];
    ++p.attempted;
    ol.gen_late_us.push_back(o.late_us);
    if (o.shed) ++ol.shed;
    // A shed or failed request counts as missing the latency limit: it
    // enters the latency distribution at ten times the limit.
    p.latency_ms.push_back(o.ok ? o.latency_ms : std::max(o.latency_ms, limit_ms * 10));
    if (!o.ok) continue;
    ++p.ok;
    ++p.windows;
    if (o.latency_ms <= limit_ms) ++p.within_limit;
    if (o.invariant) ++ol.batch_invariant;
    p.sq_err += o.sq_err;
    p.sq_count += out_shape[0] * out_shape[1];
    last_done = std::max(last_done, o.done_ns);
  }
  p.seconds = static_cast<double>(last_done - start) / 1e9;
  ol.records = serve::FlightRecorder::Global()->Snapshot();
  ol.records.erase(ol.records.begin(),
                   ol.records.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(records_before, ol.records.size())));
  return ol;
}

std::vector<Tensor> BatchOneReferences(const serve::ModelSnapshot& snap,
                                       const std::vector<Window>& pool) {
  std::vector<Tensor> refs;
  for (const Window& w : pool) {
    refs.push_back(Squeeze(snap.Predict(Unsqueeze(w.x, 0)), 0));
  }
  return refs;
}

/// The serve-layer breakdown of an open loop: per-request queue wait,
/// execution and batch size from the flight recorder, plus lateness, tail
/// latency, shedding and batch invariance.
void AddServeSamples(const OpenLoop& ol, Samples* sm) {
  for (const serve::RequestRecord& rec : ol.records) {
    if (rec.outcome != serve::RequestOutcome::kOk) continue;
    (*sm)["serve.queue_wait_us"].push_back(static_cast<double>(rec.queue_wait_us));
    (*sm)["serve.exec_us"].push_back(static_cast<double>(rec.exec_us));
    (*sm)["serve.batch_size"].push_back(rec.batch_size);
  }
  (*sm)["serve.gen_late_us"] = ol.gen_late_us;
  (*sm)["serve.latency_ms"] = ol.phase.latency_ms;
  (*sm)["serve.shed_ratio"].push_back(static_cast<double>(ol.shed) /
                                      std::max<int64_t>(1, ol.phase.attempted));
  (*sm)["serve.batch_invariant_ratio"].push_back(
      static_cast<double>(ol.batch_invariant) / std::max<int64_t>(1, ol.phase.ok));
}

/// serve-t96's timed phase; with `samples`, also its serve-layer breakdown.
Phase RunServe(const WorkloadSpec& s, uint64_t seed, const Setup& st,
               const std::vector<Tensor>& refs, double seconds, Result* r,
               Samples* samples) {
  const int64_t n = ServeRequests(s, seconds);
  OpenLoop ol = RunOpenLoop(st.registry.get(), st.pool, refs, s.rate_per_s, n,
                            s.clients, s.latency_limit_ms, seed,
                            {s.horizon, st.data.channels});
  r->Set("mse", ol.phase.sq_err / std::max<int64_t>(1, ol.phase.sq_count), "mse");
  if (samples != nullptr) AddServeSamples(ol, samples);
  return ol.phase;
}

Phase RunTimed(const WorkloadSpec& s, uint64_t seed, const Setup& st,
               const std::vector<Tensor>& refs, double seconds, Result* r,
               Samples* samples) {
  if (s.name == "train-t96") return RunTrain(s, seed, st, seconds, r);
  if (s.name == "infer-t720") return RunInfer(s, st, seconds, r);
  return RunServe(s, seed, st, refs, seconds, r, samples);
}

// ---------------------------------------------------------------------------
// Traced per-layer probes
// ---------------------------------------------------------------------------

/// Repeats `f` at least `min_reps` times and until `min_ms` of wall time
/// has passed (capped at `max_reps`).
void Repeat(int min_reps, double min_ms, int max_reps,
            const std::function<void()>& f) {
  const int64_t start = NowNs();
  for (int i = 0; i < max_reps; ++i) {
    if (i >= min_reps && MsSince(start) >= min_ms) break;
    f();
  }
}

/// The paper's parts as standalone public objects, built with the
/// workload's TS3Net configuration (the same layout TS3Net::Forward uses).
struct CoreParts {
  core::TS3NetOptions opt;
  std::vector<std::unique_ptr<WaveletBank>> banks;
  std::shared_ptr<nn::DataEmbedding> embed;
  std::unique_ptr<core::SpectrumGradientLayer> sgd;
  std::vector<std::shared_ptr<core::TFBlock>> blocks;
  std::shared_ptr<core::PredictionHead> regular_head;
  std::shared_ptr<core::PredictionHead> fluctuant_head;
  std::shared_ptr<core::TrendAutoregression> trend_head;

  CoreParts(const models::ModelConfig& c, uint64_t seed) {
    opt.seq_len = c.seq_len;
    opt.pred_len = c.pred_len;
    opt.channels = c.channels;
    opt.d_model = c.d_model;
    opt.d_ff = c.d_ff;
    opt.num_blocks = c.num_layers;
    opt.lambda = c.lambda;
    opt.num_kernels = c.num_kernels;
    opt.dropout = c.dropout;
    Rng rng(seed * 31 + 7);
    std::vector<const WaveletBank*> ptrs;
    for (int order : opt.branch_orders) {
      WaveletBankOptions bo;
      bo.num_subbands = opt.lambda;
      bo.order = order;
      banks.push_back(std::make_unique<WaveletBank>(WaveletBank::Create(bo)));
      ptrs.push_back(banks.back().get());
    }
    embed = std::make_shared<nn::DataEmbedding>(opt.channels, opt.d_model,
                                                opt.seq_len, &rng, opt.dropout);
    sgd = std::make_unique<core::SpectrumGradientLayer>(banks[0].get(),
                                                        opt.seq_len);
    for (int l = 0; l < opt.num_blocks; ++l) {
      blocks.push_back(std::make_shared<core::TFBlock>(
          ptrs, opt.seq_len, opt.d_model, opt.d_ff, opt.num_kernels,
          opt.tf_mode, &rng));
    }
    regular_head = std::make_shared<core::PredictionHead>(
        opt.seq_len, opt.pred_len, opt.d_model, opt.channels, &rng);
    fluctuant_head = std::make_shared<core::PredictionHead>(
        opt.seq_len, opt.pred_len, opt.d_model, opt.channels, &rng, true);
    trend_head = std::make_shared<core::TrendAutoregression>(
        opt.seq_len, opt.pred_len, &rng);
  }

  void SetTraining(bool on) {
    embed->SetTraining(on);
    for (auto& b : blocks) b->SetTraining(on);
    regular_head->SetTraining(on);
    fluctuant_head->SetTraining(on);
    trend_head->SetTraining(on);
  }

  /// Runs the forward chain once; per-part wall times are added to `ms`.
  /// Returns the forecast. `inputs` (optional) receives each part's input
  /// for the backward probes.
  struct Inputs {
    Tensor seasonal, trend, block_in, h_out, xf;
    int64_t t_f = 0;
  };
  Tensor Forward(const Tensor& x, std::map<std::string, double>* ms,
                 Inputs* inputs) {
    nn::InstanceStats stats;
    Tensor xn;
    (*ms)["core.norm.fwd_ms"] += Timed("core.norm.fwd", [&] {
      stats = nn::ComputeInstanceStats(x);
      xn = nn::InstanceNormalize(x, stats);
    });
    TrendDecomposition td;
    (*ms)["core.trend.fwd_ms"] += Timed("core.trend.fwd", [&] {
      td = DecomposeTrend(xn, opt.trend_kernels);
    });
    int64_t t_f = opt.seq_len / 2;
    (*ms)["core.period.fwd_ms"] += Timed("core.period.fwd", [&] {
      Tensor batch_mean = ts3net::Mean(td.seasonal, {0}).Detach();
      for (const DetectedPeriod& p : DetectTopKPeriods(batch_mean, 3)) {
        if (p.period <= opt.seq_len / 2) {
          t_f = p.period;
          break;
        }
      }
    });
    Tensor h;
    (*ms)["core.embed.fwd_ms"] += Timed("core.embed.fwd", [&] {
      h = embed->Forward(td.seasonal);
    });
    if (inputs != nullptr) {
      inputs->seasonal = td.seasonal;
      inputs->trend = td.trend;
      inputs->block_in = h;
      inputs->t_f = t_f;
    }
    Tensor fluct_acc;
    for (auto& block : blocks) {
      core::SpectrumGradientLayer::Output out;
      (*ms)["core.sgd.fwd_ms"] += Timed("core.sgd.fwd", [&] {
        out = sgd->Decompose(h, t_f);
        fluct_acc = fluct_acc.defined() ? Add(fluct_acc, out.fluctuant_2d)
                                        : out.fluctuant_2d;
      });
      (*ms)["core.tf_block.fwd_ms"] += Timed("core.tf_block.fwd", [&] {
        h = Add(block->Forward(out.regular), out.regular);
      });
    }
    Tensor xf;
    (*ms)["core.iwt.fwd_ms"] += Timed("core.iwt.fwd", [&] {
      xf = IwtOp(fluct_acc, *banks[0]);
    });
    if (inputs != nullptr) {
      inputs->h_out = h;
      inputs->xf = xf;
    }
    Tensor y;
    (*ms)["core.heads.fwd_ms"] += Timed("core.heads.fwd", [&] {
      y = Add(Add(regular_head->Forward(h), fluctuant_head->Forward(xf)),
              trend_head->Forward(td.trend));
    });
    (*ms)["core.norm.fwd_ms"] += Timed("core.norm.fwd", [&] {
      y = nn::InstanceDenormalize(y, stats);
    });
    return y;
  }
};

/// A detached copy of `t` that is a fresh autograd leaf.
Tensor Leaf(const Tensor& t) {
  Tensor c = t.Detach();
  Tensor out = Tensor::FromData(std::vector<float>(c.data(), c.data() + c.numel()),
                                c.shape());
  out.set_requires_grad(true);
  return out;
}

/// Times Backward of Sum(make()) under span `name`; the forward is untimed.
void TimeBackward(Samples* sm, const char* name, const std::string& metric,
                  int reps, const std::function<Tensor()>& make) {
  for (int i = 0; i < reps; ++i) {
    Tensor loss = Sum(make());
    (*sm)[metric].push_back(Timed(name, [&] { loss.Backward(); }));
  }
}

struct ProbeContext {
  const WorkloadSpec* spec;
  uint64_t seed;
  Setup* st;
  bool tiny;
};

void ProbeCommon(Samples* sm) {
  const int threads = ThreadPool::GlobalNumThreads();
  const int64_t n = std::max(2, threads) * 4;
  Repeat(50, 200, 5000, [&] {
    const int64_t t0 = NowNs();
    {
      Span span("common.parallel_for");
      ParallelFor(0, n, 1, [](int64_t, int64_t) {});
    }
    (*sm)["common.parallel_for_us"].push_back(MsSince(t0) * 1e3);
  });
}

/// Kernel-level probes at the workload's TF-Block and dense-CWT shapes.
void ProbeKernels(const ProbeContext& ctx, Samples* sm) {
  const WorkloadSpec& s = *ctx.spec;
  const models::ModelConfig& c = ctx.st->config;
  const int64_t b = s.batch;
  const int64_t t = s.lookback;
  const int64_t d = c.d_model;
  const int64_t lam = c.lambda;
  Rng rng(ctx.seed + 101);
  const int min_reps = ctx.tiny ? 1 : 3;
  const double min_ms = ctx.tiny ? 0 : 300;

  // Signal: the CWT amplitude op the default plan uses, at [B, T, D].
  WaveletBankOptions bo;
  bo.num_subbands = c.lambda;
  bo.order = 1;
  const WaveletBank bank = WaveletBank::Create(bo);
  const bool fft = DefaultCwtImpl() == CwtImpl::kFft;
  auto dense = fft ? nullptr : GetDenseCwtPlan(bank, t);
  auto fftp = fft ? GetFftCwtPlan(bank, t) : nullptr;
  auto cwt = [&](const Tensor& x) {
    return fft ? CwtAmplitudeFftOp(x, fftp) : CwtAmplitudeOp(x, dense->w_re, dense->w_im);
  };
  const Tensor x_btd = Tensor::Randn({b, t, d}, &rng);
  {
    NoGradGuard no_grad;
    Repeat(min_reps, min_ms, 200, [&] {
      (*sm)["signal.cwt.fwd_ms"].push_back(Timed("signal.cwt.fwd", [&] { cwt(x_btd); }));
    });
  }
  TimeBackward(sm, "signal.cwt.bwd", "signal.cwt.bwd_ms", min_reps + 2,
               [&] { return cwt(Leaf(x_btd)); });

  // Tensor: Conv2d and GELU at the TF-Block backbone shape [B, D, lambda, T]
  // (the widest inception kernel is 2 * num_kernels - 1).
  const int64_t k = 2 * c.num_kernels - 1;
  const Tensor planes = Tensor::Randn({b, d, lam, t}, &rng);
  const Tensor w = Tensor::Randn({c.d_ff, d, k, k}, &rng, 0.1f);
  const Tensor bias = Tensor::Randn({c.d_ff}, &rng, 0.1f);
  {
    NoGradGuard no_grad;
    Repeat(min_reps, min_ms, 200, [&] {
      (*sm)["tensor.conv2d.fwd_ms"].push_back(Timed("tensor.conv2d.fwd", [&] {
        Conv2d(planes, w, bias, k / 2, k / 2);
      }));
    });
    Repeat(min_reps, min_ms, 200, [&] {
      (*sm)["tensor.gelu.fwd_ms"].push_back(
          Timed("tensor.gelu.fwd", [&] { Gelu(planes); }));
    });
    // The dense CWT's GEMM, [lambda, T, T] x [B, 1, T, D]. The GEMM has no
    // value-dependent path, so random matrices time it as well as the plan's.
    const Tensor wm = Tensor::Randn({lam, t, t}, &rng);
    const Tensor x4 = Unsqueeze(x_btd, 1);
    Repeat(min_reps, min_ms, 200, [&] {
      (*sm)["tensor.matmul.fwd_ms"].push_back(
          Timed("tensor.matmul.fwd", [&] { MatMul(wm, x4); }));
    });
  }
  const Tensor wl = Leaf(w);
  const Tensor bl = Leaf(bias);
  TimeBackward(sm, "tensor.conv2d.bwd", "tensor.conv2d.bwd_ms", min_reps + 2,
               [&] { return Conv2d(Leaf(planes), wl, bl, k / 2, k / 2); });
  TimeBackward(sm, "tensor.gelu.bwd", "tensor.gelu.bwd_ms", min_reps + 2,
               [&] { return Gelu(Leaf(planes)); });
}

/// The paper's parts, forward and backward, plus the whole TS3Net forward.
void ProbeCore(const ProbeContext& ctx, Samples* sm) {
  const WorkloadSpec& s = *ctx.spec;
  Setup& st = *ctx.st;
  const bool train_mode = s.name == "train-t96";
  data::ForecastDataset ds(st.data.scaled.train.values, s.lookback, s.horizon);
  std::vector<int64_t> idx;
  for (int64_t i = 0; i < s.batch; ++i) idx.push_back((i * 37) % ds.size());
  Tensor x, y;
  ds.GetBatch(idx, &x, &y);

  CoreParts parts(st.config, kModelSeed);
  std::shared_ptr<nn::Module> model = CreateTs3Net(st.config);
  parts.SetTraining(train_mode);
  model->SetTraining(train_mode);
  const int min_reps = ctx.tiny ? 1 : 5;
  const double min_ms = ctx.tiny ? 0 : 1500;
  {
    // Serving reads run without a tape; training forwards record one.
    std::unique_ptr<NoGradGuard> no_grad;
    if (!train_mode) no_grad = std::make_unique<NoGradGuard>();
    Repeat(min_reps, min_ms, 100, [&] {
      std::map<std::string, double> ms;
      parts.Forward(x, &ms, nullptr);
      for (const auto& [name, v] : ms) (*sm)[name].push_back(v);
      (*sm)["core.forward_ms"].push_back(
          Timed("core.forward", [&] { model->Forward(x); }));
    });
  }

  // Backward parts: each part's forward on a fresh leaf, Backward timed.
  CoreParts::Inputs in;
  std::map<std::string, double> unused;
  parts.Forward(x, &unused, &in);
  const int reps = ctx.tiny ? 1 : 3;
  TimeBackward(sm, "core.embed.bwd", "core.embed.bwd_ms", reps,
               [&] { return parts.embed->Forward(Leaf(in.seasonal)); });
  TimeBackward(sm, "core.sgd.bwd", "core.sgd.bwd_ms", reps, [&] {
    auto out = parts.sgd->Decompose(Leaf(in.block_in), in.t_f);
    return Add(Sum(out.regular), Sum(out.fluctuant_2d));
  });
  TimeBackward(sm, "core.tf_block.bwd", "core.tf_block.bwd_ms", reps, [&] {
    Tensor r = Leaf(in.block_in);
    return Add(parts.blocks[0]->Forward(r), r);
  });
  TimeBackward(sm, "core.heads.bwd", "core.heads.bwd_ms", reps, [&] {
    return Add(Add(parts.regular_head->Forward(Leaf(in.h_out)),
                   parts.fluctuant_head->Forward(Leaf(in.xf))),
               parts.trend_head->Forward(Leaf(in.trend)));
  });
}

/// Data, loss, backward and Adam through a training step with public calls;
/// also the allocation and page-fault counts of the workload's operation.
void ProbeTrain(const ProbeContext& ctx, Samples* sm) {
  const WorkloadSpec& s = *ctx.spec;
  Setup& st = *ctx.st;
  data::ForecastDataset train(st.data.scaled.train.values, s.lookback,
                              s.horizon);
  data::ForecastDataset val(st.data.scaled.val.values, s.lookback, s.horizon);
  std::shared_ptr<nn::Module> model = CreateTs3Net(st.config);
  model->SetTraining(true);
  nn::AdamOptions ao;
  ao.lr = 5e-3f;
  nn::Adam adam(model->Parameters(), ao);
  data::BatchSampler sampler(train.size(), s.batch, true, ctx.seed);
  const int reps = ctx.tiny ? 1 : (s.lookback > 96 ? 3 : 8);
  const bool step_is_op = s.name == "train-t96";
  for (int i = 0; i < reps; ++i) {
    std::vector<int64_t> indices;
    if (!sampler.Next(&indices)) {
      sampler.Reset();
      sampler.Next(&indices);
    }
    const int64_t allocs0 = TensorAllocsOnThisThread();
    const int64_t faults0 = MinorFaults();
    Span step("train.step");
    Tensor x, y, loss;
    (*sm)["data.batch_ms"].push_back(
        Timed("data.batch", [&] { train.GetBatch(indices, &x, &y); }));
    adam.ZeroGrad();
    Tensor pred = model->Forward(x);
    (*sm)["nn.loss_ms"].push_back(
        Timed("nn.loss", [&] { loss = nn::MseLoss(pred, y); }));
    (*sm)["nn.backward_ms"].push_back(
        Timed("nn.backward", [&] { loss.Backward(); }));
    (*sm)["nn.adam_ms"].push_back(Timed("nn.adam", [&] {
      nn::ClipGradNorm(model->Parameters(), 5.0f);
      adam.Step();
    }));
    (*sm)["train.step_ms"].push_back(step.Close());
    if (step_is_op) {
      (*sm)["tensor.allocs_per_call"].push_back(
          static_cast<double>(TensorAllocsOnThisThread() - allocs0));
      (*sm)["tensor.minor_faults_per_call"].push_back(
          static_cast<double>(MinorFaults() - faults0));
    }
  }
  model->SetTraining(false);
  for (int i = 0; i < (ctx.tiny ? 1 : 3); ++i) {
    (*sm)["train.eval_ms"].push_back(Timed("train.eval", [&] {
      train::EvaluateForecast(model.get(), val, s.batch, 4);
    }));
  }
}

/// Snapshot-level serve probes: Predict at batch 1 and 3, the operation's
/// allocation/page-fault counts on serving workloads, and (for workloads
/// that bypass the registry) capture and a short open loop at half of the
/// measured single-window capacity.
void ProbeServe(const ProbeContext& ctx, Samples* sm, Result* r) {
  const WorkloadSpec& s = *ctx.spec;
  Setup& st = *ctx.st;
  std::shared_ptr<const serve::ModelSnapshot> snap = st.snapshot;
  if (!snap) {
    data::ForecastDataset test(st.data.scaled.test.values, s.lookback,
                               s.horizon);
    st.pool = DrawWindows(test, 16, ctx.seed);
    uint64_t unused = 0;
    snap = CaptureAndWarm(st, {1, 3}, &unused);
  }
  const int min_reps = ctx.tiny ? 1 : 5;
  const double min_ms = ctx.tiny ? 0 : 500;
  const int64_t compiled0 = CounterValue("serve/compiled_predicts");
  const int64_t fallback0 = CounterValue("serve/fallback_predicts");
  const Tensor b1 = StackX(st.pool, 0, 1);
  const Tensor b3 = StackX(st.pool, 0, 3);
  Repeat(min_reps, min_ms, 500, [&] {
    (*sm)["serve.predict_ms.b1"].push_back(
        Timed("serve.predict.b1", [&] { snap->Predict(b1); }));
  });
  Repeat(min_reps, min_ms, 500, [&] {
    (*sm)["serve.predict_ms.b3"].push_back(
        Timed("serve.predict.b3", [&] { snap->Predict(b3); }));
  });
  if (s.name != "train-t96") {
    const Tensor op = StackX(st.pool, 0, static_cast<size_t>(s.batch));
    Repeat(min_reps, 0, 50, [&] {
      const int64_t allocs0 = TensorAllocsOnThisThread();
      const int64_t faults0 = MinorFaults();
      snap->Predict(op);
      (*sm)["tensor.allocs_per_call"].push_back(
          static_cast<double>(TensorAllocsOnThisThread() - allocs0));
      (*sm)["tensor.minor_faults_per_call"].push_back(
          static_cast<double>(MinorFaults() - faults0));
    });
  }
  // Serving workloads replace this share with their timed phase's own.
  const int64_t compiled = CounterValue("serve/compiled_predicts") - compiled0;
  const int64_t fallback = CounterValue("serve/fallback_predicts") - fallback0;
  (*sm)["serve.compiled_ratio"].push_back(
      static_cast<double>(compiled) / std::max<int64_t>(1, compiled + fallback));

  if (s.name == "serve-t96") return;  // its timed phase is the open loop
  // Open loop through a registry at half the single-window capacity.
  const std::vector<Tensor> refs = BatchOneReferences(*snap, st.pool);
  const int64_t n = ctx.tiny ? 8 : 60;
  ConfigureFlightRecorder(n);
  serve::ModelRegistryOptions ro;
  ro.max_queue = 64;
  serve::ModelRegistry registry(ro);
  TS3_CHECK(registry.Publish(kServedName, snap).ok());
  const double rate = 0.5 * 1000.0 / Median((*sm)["serve.predict_ms.b1"]);
  OpenLoop ol = RunOpenLoop(&registry, st.pool, refs, rate, n, 3,
                            4 * Median((*sm)["serve.predict_ms.b1"]), ctx.seed,
                            {s.horizon, st.data.channels});
  AddServeSamples(ol, sm);
  if (ol.phase.ok != ol.phase.attempted) r->Fail("serve probe request failed");
}

/// Turns the gathered samples into the per-layer metric set.
void ReportLayers(const Samples& sm, const Result& untraced,
                  const Result& traced, const std::map<std::string, double>& setup_counts,
                  Result* r) {
  auto med = [&](const std::string& n) {
    auto it = sm.find(n);
    return it == sm.end() ? std::nan("") : Median(it->second);
  };
  auto q = [&](const std::string& n, double p) {
    auto it = sm.find(n);
    return it == sm.end() ? std::nan("") : Quantile(it->second, p);
  };
  // Setup layers, from the setup spans. data.prepare and models.create take
  // the first span: the cold (plan-building) call a user pays for.
  auto first_span = [](const char* name) {
    const std::vector<double> d = g_tracer.DurationsMs(name);
    return d.empty() ? std::nan("") : d.front();
  };
  r->Set("data.prepare_ms", first_span("data.prepare"), "ms");
  r->Set("models.create_ms", first_span("models.create"), "ms");
  r->Set("serve.capture_ms", Median(g_tracer.DurationsMs("serve.capture")), "ms");
  r->Set("serve.first_predict_ms", Median(g_tracer.DurationsMs("serve.first_predict")),
         "ms");
  r->Set("data.batch_ms", med("data.batch_ms"), "ms");
  for (const auto& [name, v] : setup_counts) r->Set(name, v, name == "common.plan_bytes" ? "bytes" : "count");
  r->Set("common.parallel_for_us", med("common.parallel_for_us"), "us");
  for (const char* name :
       {"signal.cwt.fwd_ms", "signal.cwt.bwd_ms", "tensor.conv2d.fwd_ms",
        "tensor.conv2d.bwd_ms", "tensor.gelu.fwd_ms", "tensor.gelu.bwd_ms",
        "tensor.matmul.fwd_ms", "nn.loss_ms", "nn.backward_ms", "nn.adam_ms",
        "core.embed.bwd_ms", "core.sgd.bwd_ms", "core.tf_block.bwd_ms",
        "core.heads.bwd_ms", "core.forward_ms", "train.eval_ms",
        "serve.predict_ms.b1", "serve.predict_ms.b3"}) {
    r->Set(name, med(name), "ms");
  }
  r->Set("tensor.allocs_per_call", med("tensor.allocs_per_call"), "count");
  r->Set("tensor.minor_faults_per_call", med("tensor.minor_faults_per_call"), "count");
  double parts = 0;
  for (const char* name : {"core.norm.fwd_ms", "core.trend.fwd_ms", "core.period.fwd_ms",
                           "core.embed.fwd_ms", "core.sgd.fwd_ms", "core.tf_block.fwd_ms",
                           "core.heads.fwd_ms", "core.iwt.fwd_ms"}) {
    r->Set(name, med(name), "ms");
    parts += med(name);
  }
  r->Set("core.parts_coverage_ratio", parts / med("core.forward_ms"), "ratio");
  r->Set("train.step_ms_p50", med("train.step_ms"), "ms");
  r->Set("serve.compiled_ratio", med("serve.compiled_ratio"), "ratio");
  r->Set("serve.queue_wait_us_p50", q("serve.queue_wait_us", 0.5), "us");
  r->Set("serve.queue_wait_us_p90", q("serve.queue_wait_us", 0.9), "us");
  r->Set("serve.exec_us_p50", q("serve.exec_us", 0.5), "us");
  r->Set("serve.batch_size_mean", Mean(sm.count("serve.batch_size") ? sm.at("serve.batch_size")
                                                                      : std::vector<double>{}),
         "count");
  r->Set("serve.shed_ratio", med("serve.shed_ratio"), "ratio");
  r->Set("serve.batch_invariant_ratio", med("serve.batch_invariant_ratio"), "ratio");
  r->Set("serve.gen_late_us_p90", q("serve.gen_late_us", 0.9), "us");
  r->Set("serve.latency_ms_p90", q("serve.latency_ms", 0.9), "ms");
  r->Set("serve.latency_ms_p99", q("serve.latency_ms", 0.99), "ms");
  r->Set("bench.trace_overhead_ratio",
         untraced.metrics.at("windows_per_s").first /
             traced.metrics.at("windows_per_s").first,
         "ratio");
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  bool tiny = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--setup_only") a->setup_only = v == "1";
    else if (k == "--tiny") a->tiny = v == "1";
    else if (k == "--trace_out") a->trace_out = v;
    else return false;
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

void PrintResult(const Result& r, double setup_s) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"checksum\": \"%016" PRIx64 "\", \"setup_s\": %.9g, \"error\": \"%s\", "
              "\"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed, r.checksum,
              setup_s, r.error.c_str());
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    if (std::isfinite(vu.first)) {
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ",
                  name.c_str(), vu.first, vu.second.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}", first ? "" : ", ",
                  name.c_str(), vu.second.c_str());
    }
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !MakeSpec(args.workload, args.tiny, &spec)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload train-t96|infer-t720|serve-t96 "
                 "--seed N --seconds S [--trace 0|1] [--setup_only 0|1] "
                 "[--tiny 0|1] [--trace_out PATH]\n");
    return 2;
  }
  // A traced run traces its setup too (a handful of spans), so the setup
  // layers are measured on the same cold caches a user pays for.
  g_tracer.set_enabled(args.trace);
  Setup st = DoSetup(spec, args.seed, args.seconds);
  Result result;
  result.checksum = st.checksum;
  if (args.setup_only) {
    PrintResult(result, st.setup_s);
    return 0;
  }
  // Harness-only work after setup: batch-1 references for serving answers.
  std::vector<Tensor> refs;
  if (st.registry) refs = BatchOneReferences(*st.snapshot, st.pool);

  if (!args.trace) {
    const Phase p = RunTimed(spec, args.seed, st, refs, args.seconds, &result, nullptr);
    ReportPhase(p, &result);
    result.Set("setup_s", st.setup_s, "s");
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    PrintResult(result, st.setup_s);
    return result.correct ? 0 : 1;
  }

  // Traced run: plan-cache counts as set-up left them, then the timed phase
  // as an untraced and a traced half (for the overhead ratio), then the
  // layer probes.
  std::map<std::string, double> setup_counts = {
      {"common.plan_cache_hits", static_cast<double>(CounterValue("cache/plan/hits"))},
      {"common.plan_cache_misses", static_cast<double>(CounterValue("cache/plan/misses"))},
      {"common.plan_bytes", static_cast<double>(CounterValue("cache/plan/bytes"))},
  };
  Samples sm;
  Result untraced, traced;
  g_tracer.set_enabled(false);
  const Phase pu = RunTimed(spec, args.seed, st, refs, args.seconds / 2, &untraced, nullptr);
  ReportPhase(pu, &untraced);
  g_tracer.set_enabled(true);
  const int64_t compiled0 = CounterValue("serve/compiled_predicts");
  const int64_t fallback0 = CounterValue("serve/fallback_predicts");
  const Phase pt = RunTimed(spec, args.seed, st, refs, args.seconds / 2, &traced, &sm);
  ReportPhase(pt, &traced);
  const int64_t compiled = CounterValue("serve/compiled_predicts") - compiled0;
  const int64_t fallback = CounterValue("serve/fallback_predicts") - fallback0;
  for (const Result* part : {&untraced, &traced}) {
    result.attempted += part->attempted;
    result.failed += part->failed;
    if (!part->correct) result.Fail(part->error);
  }

  ProbeContext ctx{&spec, args.seed, &st, args.tiny};
  ProbeCommon(&sm);
  ProbeKernels(ctx, &sm);
  ProbeCore(ctx, &sm);
  ProbeTrain(ctx, &sm);
  ProbeServe(ctx, &sm, &result);
  if (spec.name != "train-t96") {
    // The workload's own compiled share comes from its timed phase.
    sm["serve.compiled_ratio"] = {static_cast<double>(compiled) /
                                  std::max<int64_t>(1, compiled + fallback)};
  }
  ReportLayers(sm, untraced, traced, setup_counts, &result);
  if (!args.trace_out.empty() && !g_tracer.Write(args.trace_out)) {
    result.Fail("cannot write trace file " + args.trace_out);
  }
  PrintResult(result, st.setup_s);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace ts3net

int main(int argc, char** argv) { return ts3net::perfbench::Main(argc, argv); }
