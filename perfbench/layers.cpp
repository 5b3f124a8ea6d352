// Per-layer driver for the campaign benchmark.
//
// Times calls into each module's public functions (no instrumentation inside
// src/) for one campaign configuration, records a span around every call and
// every per-experiment observer event, and writes:
//   --json-out  raw per-layer figures, exact counts and per-experiment
//               service times (run.py derives percentiles and self times);
//   --trace-out the spans as Chrome-trace JSON.
//
//   perfbench_layers --program 356.sp --injections 24 --seed 7 --workers 2
//                    [--static-prune] [--taint] [--adaptive --ci-width W]
//                    [--layers sassim,nvbit,core,analysis,bench,...]
//                    --work DIR --json-out FILE --trace-out FILE
//
// Kept apart from the CLI on purpose: if a refactor removes an API used here,
// only this driver stops building; the end-to-end benchmark still runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/engine.h"
#include "adaptive/stratum.h"
#include "analysis/anatomy.h"
#include "analysis/json.h"
#include "analysis/result_store.h"
#include "core/campaign.h"
#include "core/campaign_spec.h"
#include "service/adaptive_runner.h"
#include "staticanalysis/static_site.h"
#include "trace/taint_tracker.h"
#include "workloads/workloads.h"

using namespace nvbitfi;  // NOLINT: driver brevity
namespace json = analysis::json;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double Now() { return std::chrono::duration<double>(Clock::now() - kEpoch).count(); }

// ---------------------------------------------------------------------------
// Spans, kept in memory and written once at exit.

struct Span {
  std::string name;
  std::string layer;
  double start = 0;
  double end = 0;
  int tid = 0;
  int id = 0;
  int parent = -1;
};

class Tracer {
 public:
  bool enabled = true;

  // Records a span that starts at `start`; its end is set by Close.  Does
  // nothing, not even read the clock or take the lock, when disabled.
  int Add(std::string name, std::string layer, double start, int parent) {
    if (!enabled) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] =
        tids_.emplace(std::this_thread::get_id(), static_cast<int>(tids_.size()));
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), std::move(layer), start, start, it->second, id, parent});
    return id;
  }
  int Open(const std::string& name, const std::string& layer, int parent) {
    if (!enabled) return -1;
    return Add(name, layer, Now(), parent);
  }
  void Close(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = Now();
  }
  bool Write(const std::string& path) const {
    json::Value events = json::Value::Array();
    for (const Span& s : spans_) {
      json::Value args = json::Value::Object();
      args.Set("id", s.id);
      args.Set("parent", s.parent);
      json::Value event = json::Value::Object();
      event.Set("name", s.name);
      event.Set("cat", s.layer);
      event.Set("ph", "X");
      event.Set("pid", 1);
      event.Set("tid", s.tid);
      event.Set("ts", s.start * 1e6);
      event.Set("dur", (s.end - s.start) * 1e6);
      event.Set("args", std::move(args));
      events.Push(std::move(event));
    }
    json::Value root = json::Value::Object();
    root.Set("traceEvents", std::move(events));
    root.Set("displayTimeUnit", "ms");
    std::ofstream out(path);
    out << root.Dump() << "\n";
    return static_cast<bool>(out);
  }

 private:
  std::mutex mu_;
  std::map<std::thread::id, int> tids_;
  std::vector<Span> spans_;
};

Tracer g_tracer;

// Span around a call made on the current thread.
class Scoped {
 public:
  Scoped(const std::string& name, const std::string& layer, int parent = -1)
      : id_(g_tracer.Open(name, layer, parent)), start_(Now()) {}
  ~Scoped() { g_tracer.Close(id_); }
  int id() const { return id_; }
  double Seconds() const { return Now() - start_; }

 private:
  int id_;
  double start_;
};

template <typename F>
double Timed(const std::string& name, const std::string& layer, F&& fn) {
  const Scoped span(name, layer);
  fn();
  return span.Seconds();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double RssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atof(line.c_str() + 6) * 1024.0;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string program;
  int injections = 24;
  std::uint64_t seed = 1;
  int workers = 2;
  bool static_prune = false;
  bool taint = false;
  bool adaptive = false;
  double ci_width = 0.15;
  std::set<std::string> layers = {"sassim", "nvbit", "core", "analysis"};
  std::string work = ".";
  std::string json_out;
  std::string trace_out;
};

std::optional<Options> ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--program") o.program = value();
    else if (arg == "--injections") o.injections = std::atoi(value().c_str());
    else if (arg == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--workers") o.workers = std::atoi(value().c_str());
    else if (arg == "--static-prune") o.static_prune = true;
    else if (arg == "--taint") o.taint = true;
    else if (arg == "--adaptive") o.adaptive = true;
    else if (arg == "--ci-width") o.ci_width = std::atof(value().c_str());
    else if (arg == "--work") o.work = value();
    else if (arg == "--json-out") o.json_out = value();
    else if (arg == "--trace-out") o.trace_out = value();
    else if (arg == "--layers") {
      o.layers.clear();
      std::stringstream list(value());
      for (std::string layer; std::getline(list, layer, ',');) o.layers.insert(layer);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (o.program.empty() || o.injections <= 0 || o.json_out.empty()) return std::nullopt;
  return o;
}

// ---------------------------------------------------------------------------
// Campaign execution with per-experiment spans and store appends.

struct PoolStats {
  std::vector<double> exp_ms;  // per-experiment service time
  double service_s = 0;        // sum of service times
  double wall_s = 0;           // sum over pool drains
  double tail_idle_s = 0;      // last drain: worker-seconds idle at the end
  double barrier_idle_s = 0;   // earlier drains (adaptive round barriers)
  double append_s = 0;
  std::size_t appends = 0;
};

class CampaignDriver {
 public:
  CampaignDriver(const fi::CampaignRunner& runner, const fi::RunArtifacts& golden,
                 analysis::ResultStore* store, PoolStats* stats)
      : runner_(runner), golden_(golden), store_(store), stats_(stats) {}

  // One pool drain: RunTransientCampaign over config's experiments.
  fi::TransientCampaignResult Run(fi::TransientCampaignConfig config, int parent) {
    std::map<std::thread::id, double> last;
    std::mutex mu;
    const Scoped call("RunTransientCampaign", "core", parent);
    const double start = Now();
    config.on_run_complete = [&](std::size_t i, const fi::InjectionRun& run) {
      double begin;
      {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = last.find(std::this_thread::get_id());
        begin = it == last.end() ? start : it->second;
      }
      const int exp = g_tracer.Add("experiment", "core", begin, call.id());
      if (store_ != nullptr) {
        const Scoped append("AppendTransient", "analysis", exp);
        std::optional<analysis::SdcAnatomy> anatomy;
        if (!run.trivially_masked && run.classification.outcome == fi::Outcome::kSdc) {
          anatomy = analysis::AnalyzeSdc(golden_, run.artifacts, anatomy_config_);
        }
        store_->AppendTransient(i, run, anatomy.has_value() ? &*anatomy : nullptr);
        std::lock_guard<std::mutex> lock(mu);
        stats_->append_s += append.Seconds();
        ++stats_->appends;
      }
      g_tracer.Close(exp);
      const double end = Now();
      std::lock_guard<std::mutex> lock(mu);
      last[std::this_thread::get_id()] = end;
      stats_->exp_ms.push_back((end - begin) * 1e3);
      stats_->service_s += end - begin;
    };
    fi::TransientCampaignResult result = runner_.RunTransientCampaign(config);
    const double end = Now();
    stats_->wall_s += end - start;
    stats_->barrier_idle_s += stats_->tail_idle_s;  // the previous drain was a barrier
    stats_->tail_idle_s = 0;
    for (const auto& [tid, at] : last) stats_->tail_idle_s += end - at;
    // A worker that completed nothing idled for the whole drain.
    for (std::size_t w = last.size(); w < static_cast<std::size_t>(result.workers); ++w) {
      stats_->tail_idle_s += end - start;
    }
    return result;
  }

 private:
  const fi::CampaignRunner& runner_;
  const fi::RunArtifacts& golden_;
  analysis::ResultStore* store_;
  PoolStats* stats_;
  analysis::AnatomyConfig anatomy_config_;
};

// ---------------------------------------------------------------------------
// JSON output

class JsonOut {
 public:
  void Metric(const std::string& name, double value) { metrics_.Set(name, value); }
  void Exact(const std::string& name, double value) {
    metrics_.Set(name, value);
    exact_.Set(name, value);
  }
  void Error(const std::string& message) { errors_.Push(message); }
  void Samples(const std::string& name, const std::vector<double>& values) {
    json::Value array = json::Value::Array();
    for (const double v : values) array.Push(v);
    samples_.Set(name, std::move(array));
  }
  bool Write(const std::string& path) const {
    json::Value root = json::Value::Object();
    root.Set("metrics", metrics_);
    root.Set("exact", exact_);
    root.Set("samples", samples_);
    root.Set("errors", errors_);
    std::ofstream out(path);
    out << root.Dump() << "\n";
    return static_cast<bool>(out);
  }

 private:
  json::Value metrics_ = json::Value::Object();
  json::Value exact_ = json::Value::Object();
  json::Value samples_ = json::Value::Object();
  json::Value errors_ = json::Value::Array();
};

constexpr int kRepeats = 3;

// A run measures only the layers it is given.  "staticanalysis" alone builds
// the oracle and stops; every other layer needs the campaign.  "bench" runs
// the campaign as kRepeats untraced/traced pairs to measure tracing overhead.
const std::set<std::string> kLayers = {"sassim", "nvbit", "core", "analysis", "trace",
                                       "staticanalysis", "staticprune", "adaptive",
                                       "bench"};

int Main(const Options& o) {
  const fi::TargetProgram* program = workloads::FindWorkload(o.program);
  if (program == nullptr) {
    std::fprintf(stderr, "unknown program '%s'\n", o.program.c_str());
    return 2;
  }
  for (const std::string& layer : o.layers) {
    if (kLayers.count(layer) == 0) {
      std::fprintf(stderr, "unknown layer '%s'\n", layer.c_str());
      return 2;
    }
  }
  const auto has = [&](const char* layer) { return o.layers.count(layer) != 0; };
  JsonOut out;
  const sim::DeviceProps device;
  const auto finish = [&] {
    if (!o.trace_out.empty() && !g_tracer.Write(o.trace_out)) {
      std::fprintf(stderr, "cannot write '%s'\n", o.trace_out.c_str());
      return 1;
    }
    if (!out.Write(o.json_out)) {
      std::fprintf(stderr, "cannot write '%s'\n", o.json_out.c_str());
      return 1;
    }
    return 0;
  };

  // The static oracle: built kRepeats times when its layer is measured, once
  // when only the campaign needs it.
  std::optional<staticanalysis::StaticSiteAnalysis> oracle;
  const auto build_oracle = [&] {
    std::vector<double> build_s;
    for (int r = 0; r < (has("staticanalysis") ? kRepeats : 1); ++r) {
      build_s.push_back(Timed("StaticSiteAnalysis::ForProgram", "staticanalysis", [&] {
        oracle.emplace(staticanalysis::StaticSiteAnalysis::ForProgram(*program, device));
      }));
    }
    if (has("staticanalysis")) out.Metric("staticanalysis.build_s", Median(build_s));
  };
  if (o.layers == std::set<std::string>{"staticanalysis"}) {
    build_oracle();
    return finish();
  }

  fi::CampaignSpec spec;
  spec.program = o.program;
  spec.seed = o.seed;
  spec.num_injections = o.injections;
  spec.trace = o.taint;
  spec.static_mode = o.static_prune ? "prune" : "off";
  spec.adaptive = o.adaptive;
  spec.adaptive_target_width = o.ci_width;

  // Set-up calls, each timed on its own (uncached) and then once more into
  // the cache the campaign reuses.  Checkpoint recording runs first, so its
  // RSS growth is measured before other runs have grown the heap.
  fi::RunCache cache;
  const fi::CampaignRunner runner(*program, &cache);
  const fi::CampaignRunner uncached(*program);
  {
    const double rss_before = RssBytes();
    const double record_s = Timed("RunGoldenCheckpointed", "sassim",
                                  [&] { runner.GoldenCheckpointed(device); });
    out.Metric("sassim.checkpoint_record_s", record_s);
    out.Metric("sassim.checkpoint_rss_mb", (RssBytes() - rss_before) / 1e6);
  }
  const fi::RunArtifacts golden = runner.GoldenCheckpointed(device).run;
  if (has("sassim") || has("nvbit")) {
    std::vector<double> golden_s, profile_s;
    for (int r = 0; r < kRepeats; ++r) {
      golden_s.push_back(Timed("RunGolden", "sassim", [&] { uncached.RunGolden(device); }));
    }
    for (int r = 0; r < kRepeats; ++r) {
      profile_s.push_back(Timed("RunProfiler", "nvbit", [&] {
        uncached.RunProfiler(fi::ProfilerTool::Mode::kExact, device, nullptr);
      }));
    }
    out.Metric("sassim.golden_s", Median(golden_s));
    out.Metric("sassim.golden_minstr_per_s",
               static_cast<double>(golden.thread_instructions) / Median(golden_s) / 1e6);
    out.Metric("nvbit.profile_s", Median(profile_s));
    out.Metric("nvbit.profile_overhead_x", Median(profile_s) / Median(golden_s));
  }

  fi::RunArtifacts profiling_run;
  const fi::ProgramProfile profile =
      runner.Profile(fi::ProfilerTool::Mode::kExact, device, &profiling_run);
  fi::TransientCampaignConfig config = spec.ToConfig();
  config.num_workers = o.workers;

  if (o.static_prune || o.adaptive || has("staticanalysis")) build_oracle();
  if (o.static_prune) {
    config.static_mode = fi::StaticSiteMode::kPrune;
    config.static_oracle = &*oracle;
  }
  if (o.taint) {
    config.tool_factory = [](std::size_t, const fi::TransientFaultParams& params) {
      return std::make_unique<trace::TaintTracker>(params);
    };
  }

  // The pool the campaign draws from, previewed without running anything.
  std::vector<fi::TransientDraw> draws;
  Timed("PreviewTransientFaults", "core", [&] {
    draws = fi::PreviewTransientFaults(profile, config, program->name());
  });
  std::uint64_t pruned_preview = 0;
  if (o.static_prune) {
    for (const fi::TransientDraw& draw : draws) {
      if (!draw.params.has_value()) continue;
      const fi::StaticSiteVerdict verdict = oracle->Evaluate(profile, *draw.params);
      if (verdict.resolved && (verdict.statically_dead || verdict.flip_dead)) {
        ++pruned_preview;
      }
    }
  }
  if (has("staticprune")) {
    if (!o.static_prune) out.Error("the staticprune layer needs --static-prune");
    out.Exact("staticanalysis.pruned_frac",
              static_cast<double>(pruned_preview) / static_cast<double>(draws.size()));
  }

  // The campaign itself, followed by reloading its store.
  struct Pass {
    bool traced = false;
    std::vector<fi::TransientCampaignResult> drains;  // one per round
    PoolStats pool;
    double wall_s = 0;
    double load_s = 0;
    double header_bytes = 0;
    std::uint64_t rounds = 0;
    double plan_s = 0;
  };
  const auto run_pass = [&](bool traced, const std::string& store_path) {
    Pass pass;
    pass.traced = traced;
    g_tracer.enabled = traced;
    const Scoped flow("campaign+load", "bench");
    std::remove(store_path.c_str());
    const analysis::StoreMeta meta = analysis::TransientStoreMeta(
        program->name(), config, golden, profiling_run.cycles, profile);
    std::string error;
    std::unique_ptr<analysis::ResultStore> store;
    Timed("ResultStore::Open", "analysis", [&] {
      store = analysis::ResultStore::Open(store_path, meta, false, &error);
    });
    if (store == nullptr) {
      out.Error("cannot open store: " + error);
      return pass;
    }
    std::ifstream header(store_path, std::ios::ate | std::ios::binary);
    pass.header_bytes = static_cast<double>(header.tellg());
    CampaignDriver driver(runner, golden, store.get(), &pass.pool);
    if (o.adaptive) {
      // Round loop as the adaptive job runs it: plan, execute the round's
      // index set (a pool drain, then a barrier), observe, repeat.
      adaptive::Stratification strata;
      pass.plan_s += Timed("StratifyPool", "adaptive", [&] {
        strata = adaptive::StratifyPool(profile, draws, &*oracle);
      });
      adaptive::AdaptiveEngine engine(strata, service::PolicyFromSpec(spec));
      for (;;) {
        adaptive::RoundRecord round;
        pass.plan_s += Timed("PlanRound", "adaptive", [&] { round = engine.PlanRound(); });
        if (round.indexes.empty()) break;
        std::vector<std::size_t> indexes;
        for (const std::uint64_t i : round.indexes) indexes.push_back(static_cast<std::size_t>(i));
        fi::TransientCampaignConfig round_config = config;
        round_config.index_set = &indexes;
        fi::TransientCampaignResult result = driver.Run(round_config, flow.id());
        for (const std::size_t i : indexes) {
          engine.Observe(i, result.injections[i].classification);
        }
        pass.drains.push_back(std::move(result));
        ++pass.rounds;
      }
    } else {
      pass.drains.push_back(driver.Run(config, flow.id()));
    }
    store.reset();
    pass.load_s = Timed("LoadResultStore+RebuildTransientResult", "analysis", [&] {
      const std::optional<analysis::LoadedStore> loaded =
          analysis::LoadResultStore(store_path, &error);
      if (!loaded.has_value()) {
        out.Error("cannot load store: " + error);
        return;
      }
      const fi::TransientCampaignResult rebuilt = analysis::RebuildTransientResult(*loaded);
      std::uint64_t ran = 0;
      for (const fi::TransientCampaignResult& drain : pass.drains) {
        ran += drain.counts.total();
      }
      if (rebuilt.counts.total() != ran) {
        out.Error("reloaded store disagrees with the campaign's outcome counts");
      }
    });
    pass.wall_s = flow.Seconds();
    return pass;
  };
  // With "bench", kRepeats pairs of an untraced and a traced pass, in
  // alternating order because host speed drifts over seconds; the tracing
  // overhead is the median difference within a pair.  Otherwise one traced
  // pass.  The per-layer figures come from the first traced pass (service
  // times from every traced pass), and every pass must agree with it on
  // every exact count.
  std::vector<Pass> passes;
  std::vector<double> traced_s, untraced_s, overhead_s;
  for (int r = 0; r < (has("bench") ? kRepeats : 0); ++r) {
    const bool traced_first = r % 2 == 1;
    passes.push_back(run_pass(traced_first, o.work + "/layers-first.jsonl"));
    passes.push_back(run_pass(!traced_first, o.work + "/layers-second.jsonl"));
    const Pass& t = passes[passes.size() - (traced_first ? 2 : 1)];
    const Pass& u = passes[passes.size() - (traced_first ? 1 : 2)];
    traced_s.push_back(t.wall_s);
    untraced_s.push_back(u.wall_s);
    overhead_s.push_back(t.wall_s - u.wall_s);
  }
  if (passes.empty()) passes.push_back(run_pass(true, o.work + "/layers-traced.jsonl"));
  const Pass& traced =
      *std::find_if(passes.begin(), passes.end(), [](const Pass& p) { return p.traced; });
  const PoolStats& pool = traced.pool;

  // Exact counts over every drain of a pass.
  struct Counts {
    std::uint64_t attempted = 0, simulated = 0, pruned = 0, live_instr = 0;
    std::uint64_t tracked = 0, tainted = 0, ff_launches = 0, fallbacks = 0;
    double inject_cpu = 0, ff_cpu = 0;
    int workers = 1;
    bool operator==(const Counts& o) const {
      return attempted == o.attempted && simulated == o.simulated && pruned == o.pruned &&
             live_instr == o.live_instr && tracked == o.tracked && tainted == o.tainted &&
             ff_launches == o.ff_launches && fallbacks == o.fallbacks;
    }
  };
  const auto count = [](const Pass& pass) {
    Counts c;
    for (const fi::TransientCampaignResult& result : pass.drains) {
      for (std::size_t i = 0; i < result.injections.size(); ++i) {
        if (!result.RunCompleted(i)) continue;
        ++c.attempted;
        const fi::InjectionRun& run = result.injections[i];
        if (run.trivially_masked || run.statically_masked) continue;
        ++c.simulated;
        c.live_instr += run.artifacts.thread_instructions;
        if (run.propagation.has_value()) {
          c.tracked += run.propagation->dynamic_instructions;
          c.tainted += run.propagation->tainted_instructions;
        }
      }
      c.live_instr -= result.replay_instructions_saved;
      c.pruned += result.statically_pruned;
      c.ff_launches += result.replay_launches;
      c.fallbacks += result.replay_fallbacks;
      c.inject_cpu += result.phases.SecondsFor(telemetry::Phase::kInject);
      c.ff_cpu += result.phases.SecondsFor(telemetry::Phase::kFastForward);
      c.workers = result.workers;
    }
    return c;
  };
  const Counts c = count(traced);
  for (const Pass& pass : passes) {
    if (!(count(pass) == c) || pass.header_bytes != traced.header_bytes ||
        pass.rounds != traced.rounds) {
      out.Error("nondeterminism: two passes of one seed disagree on exact counts");
      break;
    }
  }
  if (o.static_prune && pruned_preview != c.pruned) {
    out.Error("the campaign pruned a different number of sites than the oracle predicts");
  }
  const double per_exp = c.attempted ? 1.0 / static_cast<double>(c.attempted) : 0.0;
  const double per_sim = c.simulated ? 1.0 / static_cast<double>(c.simulated) : 0.0;

  if (has("bench")) {
    out.Metric("bench.flow_untraced_s", Median(untraced_s));
    out.Metric("bench.flow_traced_s", Median(traced_s));
    out.Metric("bench.tracing_overhead_s", Median(overhead_s));
  }
  out.Metric("bench.experiments", static_cast<double>(c.attempted));
  if (has("sassim")) {
    out.Exact("sassim.live_minstr_per_exp", static_cast<double>(c.live_instr) * per_exp / 1e6);
    out.Metric("sassim.inject_minstr_per_s",
               c.inject_cpu > 0 ? static_cast<double>(c.live_instr) / c.inject_cpu / 1e6 : 0);
    out.Exact("sassim.ff_launches_per_exp",
              static_cast<double>(c.ff_launches) * per_exp);
    out.Metric("sassim.ff_cpu_s", c.ff_cpu);
    out.Exact("sassim.replay_fallbacks", static_cast<double>(c.fallbacks));
  }
  if (has("core")) {
    // Service times pool every traced pass: more samples for the tail.
    std::vector<double> exp_ms;
    for (const Pass& pass : passes) {
      if (!pass.traced) continue;
      exp_ms.insert(exp_ms.end(), pass.pool.exp_ms.begin(), pass.pool.exp_ms.end());
    }
    out.Samples("core.exp_ms", exp_ms);
    out.Metric("core.inject_cpu_s_per_exp", c.inject_cpu * per_sim);
    out.Exact("core.simulated_frac", static_cast<double>(c.simulated) * per_exp);
    out.Metric("core.pool_busy_frac",
               pool.wall_s > 0 ? pool.service_s / (pool.wall_s * c.workers) : 0);
    out.Metric("core.tail_idle_s", pool.tail_idle_s);
  }
  if (has("analysis")) {
    out.Metric("analysis.append_ms_per_exp",
               pool.appends ? pool.append_s * 1e3 / static_cast<double>(pool.appends) : 0);
    out.Exact("analysis.header_kb", traced.header_bytes / 1024.0);
    out.Metric("analysis.load_s", traced.load_s);
  }
  if (has("trace")) {
    if (!o.taint) out.Error("the trace layer needs --taint");
    out.Metric("trace.inject_cpu_s_per_exp", c.inject_cpu * per_sim);
    out.Exact("trace.tracked_minstr_per_exp", static_cast<double>(c.tracked) * per_sim / 1e6);
    out.Exact("trace.tainted_frac",
              c.tracked ? static_cast<double>(c.tainted) / static_cast<double>(c.tracked) : 0);
  }
  if (has("adaptive")) {
    if (!o.adaptive) out.Error("the adaptive layer needs --adaptive");
    out.Metric("adaptive.plan_s", traced.plan_s);
    out.Exact("adaptive.scheduled_frac", static_cast<double>(c.attempted) / o.injections);
    out.Exact("adaptive.rounds", static_cast<double>(traced.rounds));
    out.Metric("adaptive.barrier_idle_s", pool.barrier_idle_s);
  }

  return finish();
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> options = ParseOptions(argc, argv);
  if (!options.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench_layers --program P --injections N --seed S "
                 "--json-out FILE [--trace-out FILE] [--work DIR] [--workers N] "
                 "[--static-prune] [--taint] [--adaptive --ci-width W] "
                 "[--layers a,b,...]\n");
    return 2;
  }
  return Main(*options);
}
