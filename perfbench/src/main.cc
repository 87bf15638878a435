// The repository benchmark: times whole track joins through the public API
// on a seeded workload, checks every join against a single-node reference,
// and prints the metrics named in BENCHMARK.json.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale F] [--trace-dir DIR] [--wrong-reference]
//
// --trace 0 prints the end-to-end metrics, measured with no spans and the
// library tracer off. --trace 1 is the separate traced run: spans around
// set-up, the join calls and a replay of each layer's public functions on
// the same data, from which the per-layer metrics are computed; the spans
// are written to DIR/<workload>-seed<N>.json when --trace-dir is given.
// --scale multiplies every input size (tests run tiny workloads), and
// --wrong-reference perturbs the reference digest so tests can see the
// check fail. The last stdout line is one JSON object: correct, attempted,
// failed, metrics. Any failed join exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kMinJoinsPerInput = 1;
constexpr int kMinTracedRounds = 2;
constexpr int kHalfSizeJoins = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  double scale = 1.0;
  std::string trace_dir;
  bool wrong_reference = false;
};

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

bool ParsePositive(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0)) return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--wrong-reference") {
      args->wrong_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      ok = ParseUint(value, &args->seed);
      have_seed = true;
    } else if (flag == "--seconds") {
      ok = ParsePositive(value, &args->seconds);
      have_seconds = true;
    } else if (flag == "--trace") {
      ok = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args->trace = std::strcmp(value, "1") == 0;
      have_trace = true;
    } else if (flag == "--scale") {
      ok = ParsePositive(value, &args->scale) && args->scale <= 1.0;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (!ok) {
      *error = "invalid value '" + std::string(value) + "' for " + flag;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    *error = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Peak resident set of the process so far, in MiB.
double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// "final merge-join R->S" -> "final_merge_join_r_s".
std::string Slug(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

/// Phase names of barrier 4TJ and stage names of pipelined 4TJ, in
/// execution order. Every traced run reports each of them, so the metric
/// set is the same on every workload.
const std::vector<std::string>& BarrierPhases() {
  static const std::vector<std::string> phases = {
      "sort local R tuples",
      "sort local S tuples",
      "aggregate keys",
      "hash partition & transfer keys",
      "merge received keys",
      "generate schedules & send locations",
      "selective broadcast & migrate",
      "merge received tuples",
      "final merge-join R->S",
      "final merge-join S->R",
  };
  return phases;
}
const std::vector<std::string>& PipelinedStages() {
  static const std::vector<std::string> stages = {"source", "track",
                                                  "schedule", "transfer",
                                                  "join"};
  return stages;
}

/// A generated input: the seed and scale it was generated from (which
/// name its reference) and its tables.
struct Input {
  InputKey key;
  tj::Workload data;
};

/// Outcome of every join a run attempted. Row counts are checked as joins
/// finish; digests are checked in Finish against each input's reference,
/// which is computed outside every timing and after the peak memory of the
/// timed joins has been read.
class JoinChecks {
 public:
  void Add(const tj::Result<tj::JoinResult>& result, const Input& input,
           const char* what) {
    ++attempted_;
    if (!result.ok()) {
      Fail(std::string(what) + ": " + result.status().ToString());
      return;
    }
    const tj::JoinResult& join = result.value();
    const uint64_t expected = input.data.expected_output_rows;
    if (join.output_rows != expected ||
        join.checksum.count() != join.output_rows) {
      Fail(std::string(what) + ": " + std::to_string(join.output_rows) +
           " rows, expected " + std::to_string(expected));
      return;
    }
    pending_.push_back(
        Pending{input.key, expected, join.checksum.digest(), what});
  }

  /// Checks every recorded digest against `reference(key)`.
  template <typename ReferenceFn>
  void Finish(ReferenceFn&& reference) {
    for (const Pending& p : pending_) {
      const Reference ref = reference(p.key);
      if (ref.rows != p.expected_rows) {
        Fail(std::string(p.what) + ": reference has " +
             std::to_string(ref.rows) + " rows, generator expects " +
             std::to_string(p.expected_rows));
      } else if (p.digest != ref.digest) {
        Fail(std::string(p.what) + ": digest differs from the reference");
      }
    }
    pending_.clear();
  }

  void Fail(const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "perfbench: join failed: %s\n", why.c_str());
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  struct Pending {
    InputKey key;
    uint64_t expected_rows;
    uint64_t digest;
    const char* what;
  };
  std::vector<Pending> pending_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

class Run {
 public:
  Run(const Args& args, const WorkloadDef& def)
      : args_(args), def_(def),
        recorder_(def.name + "-seed" + std::to_string(args.seed)) {
    if (def.threads > 0) pool_ = std::make_unique<tj::ThreadPool>(def.threads);
    config_ = MakeConfig(def, pool_.get());
    recorder_.set_enabled(args.trace);
  }

  int Main();

 private:
  Input MakeInput(InputKey key) {
    return Input{key, Generate(def_, key.seed, key.scale)};
  }
  /// One join of `input` with `pipelined`'s driver; the host seconds of the
  /// call, timed around it only.
  double TimedJoin(bool pipelined, const Input& input,
                   const tj::JoinConfig& config, const char* what,
                   std::optional<tj::JoinResult>* last);
  void EndToEnd();
  void Traced();
  /// The input's reference, computed once; `input` is regenerated from its
  /// key when null.
  Reference ReferenceFor(InputKey key, const Input* input);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }

  const Args& args_;
  const WorkloadDef& def_;
  std::unique_ptr<tj::ThreadPool> pool_;
  tj::JoinConfig config_;
  SpanRecorder recorder_;
  JoinChecks checks_;
  std::map<InputKey, Reference> references_;
  std::vector<Metric> metrics_;
  std::vector<std::string> replay_errors_;
};

double Run::TimedJoin(bool pipelined, const Input& input,
                      const tj::JoinConfig& config, const char* what,
                      std::optional<tj::JoinResult>* last) {
  const Clock::time_point start = Clock::now();
  tj::Result<tj::JoinResult> result = RunJoin(pipelined, input.data, config);
  const double seconds = SecondsBetween(start, Clock::now());
  checks_.Add(result, input, what);
  if (result.ok() && last != nullptr) last->emplace(std::move(result).value());
  return seconds;
}

Reference Run::ReferenceFor(InputKey key, const Input* input) {
  auto it = references_.find(key);
  if (it == references_.end()) {
    std::optional<Input> regenerated;
    if (input == nullptr) input = &regenerated.emplace(MakeInput(key));
    ScopedSpan span(&recorder_, "reference");
    Reference ref = ComputeReference(input->data);
    // Test hook: a wrong reference must make the run fail.
    if (args_.wrong_reference) ref.digest ^= 1;
    it = references_.emplace(key, ref).first;
  }
  return it->second;
}

void Run::EndToEnd() {
  // Join time varies with the input (the pipelined driver's by ~10% from
  // seed to seed), so a run measures several inputs, one after another,
  // each for an equal share of --seconds, and averages their medians.
  std::vector<double> setup_times, join_times;
  double network_bytes = 0, max_nic_bytes = 0, modeled_s = 0;
  const double share = args_.seconds / def_.inputs;
  for (uint32_t i = 0; i < def_.inputs; ++i) {
    Clock::time_point start = Clock::now();
    const Input input = MakeInput({InputSeed(args_.seed, i), args_.scale});
    setup_times.push_back(SecondsBetween(start, Clock::now()));
    if (i == 0) {
      TimedJoin(def_.pipelined, input, config_, "warm-up join", nullptr);
    }

    std::optional<tj::JoinResult> last;
    std::vector<double> times;
    start = Clock::now();
    while (times.size() < kMinJoinsPerInput ||
           SecondsBetween(start, Clock::now()) < share) {
      times.push_back(
          TimedJoin(def_.pipelined, input, config_, "timed join", &last));
    }
    join_times.push_back(Median(times));
    if (last.has_value()) {
      network_bytes += static_cast<double>(last->traffic.TotalNetworkBytes());
      max_nic_bytes += static_cast<double>(last->traffic.MaxNodeBytes());
      // The barrier fabric models no CPU time: its modeled time is the sum
      // of the phases' modeled transfer seconds.
      modeled_s += def_.pipelined ? last->makespan_seconds
                                  : last->profile.TotalNetSeconds();
    }
    std::printf("input %u (seed %llu): %zu joins, median %.6f host s:", i,
                static_cast<unsigned long long>(input.key.seed), times.size(),
                join_times.back());
    for (double t : times) std::printf(" %.4f", t);
    std::printf("\n");
  }
  // Read before any reference join runs, so none of them sets the peak.
  const double peak_rss_mib = PeakRssMib();

  const double k = def_.inputs;
  Add("setup_s", Median(setup_times), "s");
  Add("join_s", Mean(join_times), "host_s");
  Add("network_bytes", network_bytes / k, "bytes");
  Add("max_nic_bytes", max_nic_bytes / k, "bytes");
  Add("modeled_makespan_s", modeled_s / k, "modeled_s");
  Add("peak_rss_mib", peak_rss_mib, "MiB");
}

void Run::Traced() {
  const bool own = def_.pipelined;
  const InputKey key{InputSeed(args_.seed, 0), args_.scale};
  std::optional<Input> generated;
  {
    ScopedSpan span(&recorder_, "setup");
    generated.emplace(MakeInput(key));
  }
  const Input& input = *generated;
  std::optional<tj::JoinResult> own_result;
  TimedJoin(own, input, config_, "warm-up join", nullptr);

  // Rounds of three join modes, rotating which goes first: with the
  // benchmark's span around the call, with plain timing only, and with the
  // library's own tracer enabled.
  std::vector<double> spanned, plain, tracer_on;
  std::map<std::string, std::vector<double>> phase_host;
  std::vector<double> unaccounted;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < kMinTracedRounds ||
                      SecondsBetween(start, Clock::now()) < args_.seconds;
       ++round) {
    for (int k = 0; k < 3; ++k) {
      const int mode = (round + k) % 3;
      if (mode == 0) {
        ScopedSpan span(&recorder_, "join");
        tj::Result<tj::JoinResult> result = RunJoin(own, input.data, config_);
        spanned.push_back(span.Stop());
        checks_.Add(result, input, "spanned join");
      } else if (mode == 1) {
        const double seconds =
            TimedJoin(own, input, config_, "plain join", &own_result);
        plain.push_back(seconds);
        if (!own && own_result.has_value()) {
          double phases = 0;
          for (const tj::StepRecord& step : own_result->profile.steps) {
            phase_host[step.phase].push_back(step.wall_seconds);
            phases += step.wall_seconds;
          }
          unaccounted.push_back(seconds - phases);
        }
      } else {
        tj::Tracer& tracer = tj::Tracer::Global();
        tracer.Clear();
        tracer.Enable();
        tracer_on.push_back(
            TimedJoin(own, input, config_, "library-traced join", nullptr));
        tracer.Disable();
        tracer.Clear();
      }
    }
  }
  const double own_s = Median(plain);

  // The other driver on the same input. Its blame report and the metrics
  // registry's credit-stall histogram give the pipelined fabric's modeled
  // waits; the pipelined call is timed with blame collection on.
  tj::JoinConfig other_config = config_;
  other_config.collect_blame = true;
  std::optional<tj::JoinResult> other;
  tj::Histogram& stalls =
      tj::MetricsRegistry::Global().histogram("pipeline.credit_stall_seconds");
  const double stalls_before = stalls.Sum();
  double other_s = 0;
  {
    ScopedSpan span(&recorder_, own ? "join.barrier" : "join.pipelined");
    tj::Result<tj::JoinResult> result = RunJoin(!own, input.data, other_config);
    other_s = span.Stop();
    checks_.Add(result, input, "counterpart join");
    if (result.ok()) other.emplace(std::move(result).value());
  }
  std::optional<tj::JoinResult> blamed;
  if (own) {
    ScopedSpan span(&recorder_, "join.blame");
    tj::Result<tj::JoinResult> result = RunJoin(true, input.data, other_config);
    checks_.Add(result, input, "blame join");
    if (result.ok()) blamed.emplace(std::move(result).value());
  }
  const double credit_stall_s = stalls.Sum() - stalls_before;
  auto ptr = [](const std::optional<tj::JoinResult>& r) {
    return r.has_value() ? &*r : nullptr;
  };
  const tj::JoinResult* pipelined_run = own ? ptr(blamed) : ptr(other);
  const tj::JoinResult* barrier_run = own ? ptr(other) : ptr(own_result);
  const double pipelined_s = own ? own_s : other_s;
  const double barrier_s = own ? other_s : own_s;

  // Scaling: the same workload at half size.
  std::optional<Input> half;
  {
    ScopedSpan span(&recorder_, "setup.half");
    half.emplace(MakeInput({key.seed, key.scale * 0.5}));
  }
  std::vector<double> half_times;
  for (int i = 0; i < kHalfSizeJoins; ++i) {
    ScopedSpan span(&recorder_, "join.half");
    tj::Result<tj::JoinResult> result = RunJoin(own, half->data, config_);
    half_times.push_back(span.Stop());
    checks_.Add(result, *half, "half-size join");
  }

  LayerReplay replay = ReplayLayers(input.data, config_,
                                    ReferenceFor(key, &input), &recorder_);
  replay_errors_ = replay.errors;

  metrics_.insert(metrics_.end(), replay.metrics.begin(),
                  replay.metrics.end());
  Add("core.pipelined_over_barrier",
      barrier_s > 0 ? pipelined_s / barrier_s : 0, "ratio");
  const tj::TrafficMatrix traffic =
      own_result.has_value() ? own_result->traffic : tj::TrafficMatrix();
  auto class_bytes = [&](tj::TrafficClass cls) {
    return static_cast<double>(traffic.NetworkBytes(cls));
  };
  Add("net.keys_counts_bytes", class_bytes(tj::TrafficClass::kKeysAndCounts),
      "bytes");
  Add("net.keys_nodes_bytes", class_bytes(tj::TrafficClass::kKeysAndNodes),
      "bytes");
  Add("net.r_tuple_bytes", class_bytes(tj::TrafficClass::kRTuples), "bytes");
  Add("net.s_tuple_bytes", class_bytes(tj::TrafficClass::kSTuples), "bytes");
  Add("net.local_bytes", static_cast<double>(traffic.TotalLocalBytes()),
      "bytes");
  Add("net.credit_stall_s", credit_stall_s, "modeled_s");
  double hol_share = 0;
  if (pipelined_run != nullptr && pipelined_run->blame.has_value() &&
      pipelined_run->blame->makespan_us > 0) {
    hol_share = static_cast<double>(pipelined_run->blame->hol_us) /
                static_cast<double>(pipelined_run->blame->makespan_us);
  }
  Add("net.hol_share", hol_share, "ratio");

  // Per-phase host time of barrier 4TJ (medians of the plain joins, or the
  // counterpart run on pipelined-4tj) and modeled stage time of pipelined
  // 4TJ (deterministic per input).
  for (const std::string& phase : BarrierPhases()) {
    double value = 0;
    if (!own) {
      value = Median(phase_host[phase]);
    } else if (barrier_run != nullptr) {
      value = barrier_run->profile.WallSeconds(phase);
    }
    Add("phase." + Slug(phase) + ".host_s", value, "host_s");
  }
  double unaccounted_s = Median(unaccounted);
  if (own && barrier_run != nullptr) {
    unaccounted_s = barrier_s - barrier_run->profile.TotalWallSeconds();
  }
  Add("phase.unaccounted_s", unaccounted_s, "host_s");
  for (const std::string& stage : PipelinedStages()) {
    const double value = pipelined_run != nullptr
                             ? pipelined_run->profile.WallSeconds(stage)
                             : 0;
    Add("stage." + stage + ".modeled_s", value, "modeled_s");
  }

  const double half_s = Median(half_times);
  Add("scaling.join_s_ratio", half_s > 0 ? Median(spanned) / half_s : 0,
      "ratio");
  const double modeled_makespan =
      pipelined_run != nullptr ? pipelined_run->makespan_seconds : 0;
  Add("costmodel.modeled_over_host",
      pipelined_s > 0 ? modeled_makespan / pipelined_s : 0, "ratio");
  Add("obs.tracer_overhead", own_s > 0 ? Median(tracer_on) / own_s - 1 : 0,
      "ratio");
  Add("bench.span_overhead", own_s > 0 ? Median(spanned) / own_s : 0, "ratio");
  std::printf("traced run %s: %zu spanned, %zu plain, %zu library-traced joins"
              " (median %.6f / %.6f / %.6f host s)\n",
              recorder_.run_id().c_str(), spanned.size(), plain.size(),
              tracer_on.size(), Median(spanned), own_s, Median(tracer_on));
}

int Run::Main() {
  if (args_.trace) {
    Traced();
  } else {
    EndToEnd();
  }
  checks_.Finish([this](InputKey key) { return ReferenceFor(key, nullptr); });
  for (const std::string& error : replay_errors_) {
    std::fprintf(stderr, "perfbench: layer replay: %s\n", error.c_str());
  }

  for (const Metric& m : metrics_) {
    std::printf("metric %-44s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("metric %-44s %.17g ratio\n", "join_failures",
              checks_.attempted() > 0
                  ? static_cast<double>(checks_.failed()) /
                        static_cast<double>(checks_.attempted())
                  : 0.0);
  if (args_.trace) {
    std::printf("%-34s %6s %14s %14s\n", "span", "count", "total_s", "self_s");
    for (const SpanTotals& t : recorder_.Totals()) {
      std::printf("%-34s %6llu %14.6f %14.6f\n", t.name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_s,
                  t.self_s);
    }
    if (!args_.trace_dir.empty()) {
      const std::string path = args_.trace_dir + "/" + recorder_.run_id() +
                               ".json";
      std::ofstream file(path);
      file << recorder_.ToChromeJson();
      if (!file) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("spans written to %s\n", path.c_str());
    }
  }

  const bool correct = checks_.failed() == 0 && replay_errors_.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks_.attempted());
  json += ", \"failed\": " + std::to_string(checks_.failed());
  json += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const perfbench::WorkloadDef* def = perfbench::FindWorkload(args.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (one of %s)\n",
                 args.workload.c_str(), perfbench::WorkloadNames().c_str());
    return 2;
  }
  perfbench::Run run(args, *def);
  return run.Main();
}
