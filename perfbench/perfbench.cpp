// perfbench.cpp — host-time measurement program for the three simulator
// modes (README.md in this directory documents workloads and metrics).
//
//   mclat_perfbench --workload W --seed S --seconds T --phase timed|traced
//                   [--size full|tiny] [--spans FILE]
//
// Every call into the simulator goes through its public API; this file
// only times those calls from outside. It prints one JSON document as the
// last line of stdout holding raw per-trial records, the isolated layer
// drives and build facts. run.py reduces that to the run's figures, checks
// every trial and prints the benchmark result; nothing is judged here.
//
// A trial is a fixed amount of simulated work: set-up (timed as setup_s),
// then the simulator call (timed as run_s). The first trial is an untimed
// warm-up. Trials repeat until the time budget is spent, with a floor on
// their number so medians and quartiles always have samples.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/lru_store.h"
#include "cluster/end_to_end.h"
#include "cluster/trace_replay.h"
#include "cluster/workload_driven.h"
#include "core/config.h"
#include "core/theorem1.h"
#include "dist/distribution.h"
#include "dist/exponential.h"
#include "dist/rng.h"
#include "hashing/consistent_hash.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "workload/key_table.h"
#include "workload/request_stream.h"
#include "workload/size_model.h"

namespace {

using namespace mclat;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds consumed by the whole process (every thread) so far.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------- output --

/// Minimal JSON object writer: doubles print with all 17 significant
/// digits (run.py needs the raw measurement, not a rounded one).
class Obj {
 public:
  Obj& num(const std::string& k, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(k, buf);
  }
  Obj& u64(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Obj& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return raw(k, q + "\"");
  }
  Obj& raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + k + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string array_of(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? "," : "") + items[i];
  }
  return out + "]";
}

// ----------------------------------------------------------------- spans --

/// Spans around the benchmark's own calls into each layer (name, start,
/// end, parent), kept in memory and written when the run ends. A null
/// tracer records nothing, so the timed phase carries no tracing cost.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int trial = 0;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  void open(const std::string& name) {
    spans_.push_back({name, now(), 0.0, stack_.empty() ? -1 : stack_.back(),
                      trial_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end = now();
    stack_.pop_back();
  }
  void set_trial(int trial) { trial_ = trial; }

  /// Sum of span durations named `name` within trial `trial`.
  [[nodiscard]] double total(const std::string& name, int trial) const {
    double s = 0.0;
    for (const Span& sp : spans_) {
      if (sp.trial == trial && sp.name == name) s += sp.end - sp.start;
    }
    return s;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << Obj{}
                 .u64("id", i)
                 .str("name", s.name)
                 .num("start_s", s.start)
                 .num("end_s", s.end)
                 .raw("parent", std::to_string(s.parent))
                 .raw("trial", std::to_string(s.trial))
                 .json()
          << '\n';
    }
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int trial_ = 0;
};

/// RAII span; a no-op when the tracer is null.
class Scope {
 public:
  Scope(Tracer* t, const std::string& name) : t_(t) {
    if (t_ != nullptr) t_->open(name);
  }
  ~Scope() {
    if (t_ != nullptr) t_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

// ------------------------------------------------------------ fingerprint --

/// Order-sensitive 64-bit digest of simulated outputs (bit patterns, so a
/// last-ulp change shows). Host-time quantities never enter it.
class Digest {
 public:
  void add(std::uint64_t v) {
    h_ ^= v + 0x9E3779B97F4A7C15ull + (h_ << 6) + (h_ >> 2);
    h_ *= 0xff51afd7ed558ccdull;
    h_ ^= h_ >> 33;
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const stats::MeanCI& ci) {
    add(ci.mean);
    add(ci.halfwidth);
    add(ci.count);
  }
  /// 32 bits, so the value survives a round trip through a JSON double.
  [[nodiscard]] std::uint64_t value() const { return h_ >> 32; }

 private:
  std::uint64_t h_ = 0x6a09e667f3bcc908ull;
};

// ---------------------------------------------------------------- trials --

/// One trial's raw record. Host times are seconds; simulated latencies µs.
struct Trial {
  std::string variant;  ///< warmup | timed | spans | registry | k1 | k3
  double setup_s = 0.0;
  double run_s = 0.0;
  double run_cpu_s = 0.0;  ///< process CPU seconds of the run, all threads
  double peak_rss_mb = 0.0;  ///< process peak RSS during this trial
  std::uint64_t keys = 0;        ///< simulated keys completed
  std::uint64_t requests = 0;    ///< end-user requests completed
  std::uint64_t expect_keys = 0;      ///< keys the input holds (0 = n/a)
  std::uint64_t expect_requests = 0;  ///< requests the input holds (0 = n/a)
  std::uint64_t events = 0;      ///< kernel events (0 = not exposed)
  std::uint64_t misses = 0;      ///< miss_ratio × miss denominator
  std::uint64_t db_fetches = 0;
  std::uint64_t delayed_hits = 0;
  double miss_ratio = 0.0;
  double util_max = 0.0;
  double busiest_share = 0.0;  ///< busiest server's share of keys
  double t_mean_us = 0.0;
  std::uint64_t fingerprint = 0;
  std::map<std::string, double> spans;    ///< traced variants only
  std::map<std::string, double> registry; ///< registry variant only

  [[nodiscard]] std::string json() const {
    Obj o;
    o.str("variant", variant)
        .num("setup_s", setup_s)
        .num("run_s", run_s)
        .num("run_cpu_s", run_cpu_s)
        .num("peak_rss_mb", peak_rss_mb)
        .u64("keys", keys)
        .u64("requests", requests)
        .u64("expect_keys", expect_keys)
        .u64("expect_requests", expect_requests)
        .u64("events", events)
        .u64("misses", misses)
        .u64("db_fetches", db_fetches)
        .u64("delayed_hits", delayed_hits)
        .num("miss_ratio", miss_ratio)
        .num("util_max", util_max)
        .num("busiest_share", busiest_share)
        .num("t_mean_us", t_mean_us)
        .u64("fingerprint", fingerprint);
    Obj s;
    for (const auto& [k, v] : spans) s.num(k, v);
    Obj r;
    for (const auto& [k, v] : registry) r.num(k, v);
    o.raw("spans", s.json()).raw("registry", r.json());
    return o.json();
  }
};

void set_utilization(Trial& t, const std::vector<double>& util) {
  double sum = 0.0;
  for (const double u : util) {
    sum += u;
    t.util_max = std::max(t.util_max, u);
  }
  // Homogeneous service rates: a server's busy fraction is proportional to
  // the keys it served, so the shares follow from the utilisations.
  t.busiest_share = sum > 0.0 ? t.util_max / sum : 0.0;
}

/// Reads the registry facts a traced trial reports: the P² p99 of the
/// request total and of the worst server's queue wait, and the miss counter
/// (the conservation law's third witness).
std::map<std::string, double> registry_facts(const obs::Registry& reg) {
  std::map<std::string, double> out;
  double wait_p99 = 0.0;
  for (const auto& [name, stat] : reg.latencies()) {
    if (name == "stage.total_us") out["t_p99_us"] = stat.p99();
    if (name.rfind("server.", 0) == 0 &&
        name.size() > 8 && name.compare(name.size() - 8, 8, ".wait_us") == 0 &&
        stat.count() > 0) {
      wait_p99 = std::max(wait_p99, stat.p99());
    }
  }
  out["wait_p99_us"] = wait_p99;
  for (const auto& [name, c] : reg.counters()) {
    if (name == "db.misses") {
      out["misses_counter"] = static_cast<double>(c.value());
    }
  }
  return out;
}

template <class F>
double time_it(F&& f) {
  const auto t0 = Clock::now();
  f();
  return since(t0);
}

/// Layer facts from isolated drives of each layer's public API.
using Layers = std::map<std::string, double>;

/// Median ns per call of `op` over `reps` repetitions of `n` calls.
template <class Op>
double ns_per_call(std::uint64_t n, int reps, Op&& op) {
  std::vector<double> per;
  for (int r = 0; r < reps; ++r) {
    per.push_back(time_it([&] { op(n); }) * 1e9 / static_cast<double>(n));
  }
  std::sort(per.begin(), per.end());
  return per[per.size() / 2];
}

volatile double g_sink = 0.0;  // keeps isolated-drive results observable

/// Median ns per draw from `law` through its virtual interface, as the
/// simulator's stations and sources draw.
double ns_per_sample(const dist::ContinuousDistribution& law, dist::Rng& rng) {
  return ns_per_call(1u << 20, 5, [&](std::uint64_t k) {
    double acc = 0.0;
    for (std::uint64_t i = 0; i < k; ++i) acc += law.sample(rng);
    g_sink = acc;
  });
}

/// Simulated seconds of the set-up probe runs: long enough to be a valid
/// window, short enough that next to no events fire.
constexpr double kProbeHorizon = 1e-6;

// -------------------------------------------------------------- workloads --

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool tiny = false;
  std::string spans_path;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Real preparation before the first simulated event (timed: setup_s).
  virtual void setup(obs::Recorder rec, std::size_t shards, Tracer* tr) = 0;
  /// The simulator call (timed: run_s); fills the trial's outputs.
  virtual void run(Trial& t, Tracer* tr) = 0;
  /// Isolated drives of each layer on this workload's own inputs.
  virtual void layers(Layers& out, Layers& descriptors) = 0;
  /// Shard count of the timed cell (1 = serial loop).
  [[nodiscard]] virtual std::size_t shards() const { return 1; }
};

// Mode A — the Table-3 testbed (M=4, N=150, GPD bursts): per-server
// GI^X/M/1 simulations into sojourn pools, then request assembly. Single
// threaded; touches no cache, hashing or KeyTable code.
class TestbedSweep final : public Workload {
 public:
  TestbedSweep(std::uint64_t seed, bool tiny) : seed_(seed) {
    cfg_.system = core::SystemConfig::facebook();
    cfg_.common.seed = seed;
    cfg_.common.warmup_time = tiny ? 0.02 : 0.2;
    cfg_.common.measure_time = tiny ? 0.1 : 2.0;
    requests_ = tiny ? 500 : 20'000;
  }

  void setup(obs::Recorder rec, std::size_t, Tracer* tr) override {
    Scope s(tr, "setup");
    // The sweep cell's Theorem-1 oracle, which every testbed point is
    // compared against, and the simulator it validates.
    const core::LatencyModel model(cfg_.system);
    g_sink = model.estimate().total.upper;
    // Preparation the simulator does inside run() (stations, sources, pool
    // buffers) is reached from outside by a run with a negligible horizon.
    cfg_.recorder = rec;
    cluster::WorkloadDrivenConfig probe = cfg_;
    probe.common.warmup_time = 0.0;
    probe.common.measure_time = kProbeHorizon;
    probe.recorder = obs::Recorder();
    g_sink = static_cast<double>(
        cluster::WorkloadDrivenSim(probe).run().total_keys);
    sim_.emplace(cfg_);
  }

  void run(Trial& t, Tracer* tr) override {
    Scope s(tr, "cluster.run");
    cluster::MeasurementPools pools;
    {
      Scope p(tr, "cluster.pools");
      pools = sim_->run();
    }
    dist::Rng rng(seed_ ^ 0xa55e3b1eull);
    cluster::AssembledRequests req;
    {
      Scope a(tr, "cluster.assemble");
      req = cluster::assemble_requests(pools, cfg_.system, requests_,
                                       cfg_.system.keys_per_request, rng,
                                       cfg_.recorder);
    }
    t.keys = pools.total_keys;
    t.requests = req.total.size();
    t.expect_requests = requests_;
    t.db_fetches = pools.db_fetches;
    t.delayed_hits = pools.db_delayed_hits;
    t.miss_ratio = pools.measured_miss_rate_hz / cfg_.system.total_key_rate;
    set_utilization(t, pools.server_utilization);
    const stats::MeanCI total = req.total_ci();
    t.t_mean_us = total.mean * 1e6;
    Digest d;
    for (const auto& pool : pools.server_sojourns) {
      d.add(static_cast<std::uint64_t>(pool.size()));
    }
    for (const double u : pools.server_utilization) d.add(u);
    d.add(pools.total_keys);
    d.add(pools.measured_miss_rate_hz);
    for (const double x : req.total) d.add(x);
    for (const double x : req.database) d.add(x);
    t.fingerprint = d.value();
  }

  void layers(Layers& out, Layers& desc) override {
    const core::SystemConfig& sys = cfg_.system;
    const workload::ArrivalSpec spec = sys.arrival_for_share(
        1.0 / static_cast<double>(sys.servers));
    dist::Rng rng(seed_);
    const dist::Exponential service(sys.service_rate);
    const dist::DistributionPtr gap = spec.make_gap();
    const dist::GeometricBatch batch = spec.make_batch();
    out["dist.service_ns"] = ns_per_sample(service, rng);
    out["dist.gap_ns"] = ns_per_sample(*gap, rng);
    const std::uint64_t n = 1u << 20;
    std::uint64_t drawn = 0;
    for (std::uint64_t i = 0; i < n; ++i) drawn += batch.sample(rng);
    desc["mode_a.mean_batch"] =
        static_cast<double>(drawn) / static_cast<double>(n);
  }

 private:
  std::uint64_t seed_;
  cluster::WorkloadDrivenConfig cfg_;
  std::uint64_t requests_;
  std::optional<cluster::WorkloadDrivenSim> sim_;
};

// Mode C — a synthetic Zipf trace replayed through real per-server LRU
// caches behind a consistent-hash ring with miss coalescing: the
// LRU-behind-consistent-hashing regime. Every arrival is scheduled up
// front, so the calendar is as deep as the trace.
class ReplayRealCache final : public Workload {
 public:
  ReplayRealCache(std::uint64_t seed, bool tiny) : seed_(seed) {
    cfg_.system = core::SystemConfig::facebook();
    cfg_.system.servers = tiny ? 16 : 128;
    cfg_.system.keys_per_request = 100;
    cfg_.system.total_key_rate =
        static_cast<double>(cfg_.system.servers) * 2'000.0;
    cfg_.mapper = cluster::MapperKind::kRing;
    cfg_.miss_mode = cluster::MissMode::kRealCache;
    cfg_.common.seed = seed;
    cfg_.common.coalescing = cluster::MissCoalescing::kPerServer;
    cfg_.common.cache_bytes_per_server = tiny ? 16u << 10 : 128u << 10;
    scfg_.request_rate = cfg_.system.total_key_rate /
                         static_cast<double>(cfg_.system.keys_per_request);
    scfg_.keys_per_request = cfg_.system.keys_per_request;
    scfg_.keyspace_size = tiny ? 20'000 : 200'000;
    scfg_.zipf_exponent = 0.99;
    requests_ = tiny ? 200 : 10'000;
  }

  void setup(obs::Recorder rec, std::size_t, Tracer* tr) override {
    Scope s(tr, "setup");
    trace_.reset();
    stream_.reset();
    {
      Scope b(tr, "workload.trace_build");
      stream_ = std::make_unique<workload::RequestStream>(scfg_,
                                                          dist::Rng(seed_));
      trace_ = std::make_unique<workload::Trace>(
          stream_->generate_trace(requests_));
    }
    cfg_.recorder = rec;
    sim_.emplace(cfg_);
  }

  void run(Trial& t, Tracer* tr) override {
    cluster::TraceReplayResult r;
    {
      Scope s(tr, "cluster.run");
      r = sim_->run(*trace_, stream_->keyspace());
    }
    t.keys = r.keys_completed;
    t.requests = r.requests_completed;
    t.expect_keys = trace_->size();
    t.expect_requests = trace_->request_count();
    t.miss_ratio = r.measured_miss_ratio;
    t.misses = static_cast<std::uint64_t>(
        std::llround(r.measured_miss_ratio *
                     static_cast<double>(r.keys_completed)));
    t.db_fetches = r.db_fetches;
    t.delayed_hits = r.delayed_hits;
    set_utilization(t, r.server_utilization);
    t.t_mean_us = r.total.mean * 1e6;
    Digest d;
    for (const auto* ci : {&r.network, &r.server, &r.database, &r.total}) {
      d.add(*ci);
    }
    d.add(r.keys_completed);
    d.add(r.requests_completed);
    d.add(r.measured_miss_ratio);
    d.add(r.db_fetches);
    d.add(r.delayed_hits);
    d.add(r.horizon);
    for (const double u : r.server_utilization) d.add(u);
    t.fingerprint = d.value();
  }

  void layers(Layers& out, Layers& desc) override {
    const std::vector<workload::TraceRecord>& recs = trace_->records();
    const workload::KeySpace& keys = stream_->keyspace();
    const std::size_t servers = cfg_.system.servers;

    // Distinct ranks touched: the share of the keyspace the trace reaches.
    std::vector<bool> seen(keys.size(), false);
    std::uint64_t distinct = 0;
    for (const auto& rec : recs) {
      if (!seen[rec.key_rank]) {
        seen[rec.key_rank] = true;
        ++distinct;
      }
    }
    desc["replay.distinct_rank_share"] =
        static_cast<double>(distinct) / static_cast<double>(keys.size());

    std::vector<double> builds;
    for (int i = 0; i < 5; ++i) {
      builds.push_back(time_it([&] {
        const hashing::ConsistentHashRing ring(servers);
        g_sink = static_cast<double>(ring.points().size());
      }));
    }
    std::sort(builds.begin(), builds.end());
    out["hashing.ring_build_s"] = builds[builds.size() / 2];

    // The replay's own key-table construction: ring mapper, the refill
    // value-size column (the replay's fixed Facebook size law, capped at
    // max_value_bytes), lazy chunks built on first touch.
    const hashing::ConsistentHashRing ring(servers);
    const workload::ValueSizeModel values(214.476, 0.348238, 1,
                                          cfg_.common.max_value_bytes);
    workload::KeyTable table(keys, ring, &values);
    std::vector<workload::KeyTable::View> views;
    views.reserve(recs.size());
    out["workload.keytable_ns"] =
        time_it([&] {
          for (const auto& rec : recs) views.push_back(table.view(rec.key_rank));
        }) * 1e9 / static_cast<double>(recs.size());
    out["hashing.ring_ns"] =
        ns_per_call(recs.size(), 3, [&](std::uint64_t) {
          std::size_t acc = 0;
          for (const auto& v : views) acc += ring.server_for(v.key);
          g_sink = static_cast<double>(acc);
        });

    std::vector<std::uint64_t> per_server(servers, 0);
    for (const auto& v : views) ++per_server[v.server];
    desc["replay.busiest_server_key_share"] =
        static_cast<double>(
            *std::max_element(per_server.begin(), per_server.end())) /
        static_cast<double>(recs.size());

    out["dist.zipf_ns"] = ns_per_call(1u << 20, 5, [&](std::uint64_t k) {
      dist::Rng rng(seed_);
      std::uint64_t acc = 0;
      for (std::uint64_t i = 0; i < k; ++i) acc += keys.sample_rank(rng);
      g_sink = static_cast<double>(acc);
    });

    cache_drive(views, recs, out);
  }

 private:
  /// Replays the trace's key sequence through one LruStore per server,
  /// configured as the simulator configures its real caches. Refills of a
  /// block's misses land after the block's lookups — a stand-in for the
  /// database round trip during which a missing key keeps missing. Gets
  /// and sets are timed per block, so each gets its own ns/op.
  void cache_drive(const std::vector<workload::KeyTable::View>& views,
                   const std::vector<workload::TraceRecord>& recs,
                   Layers& out) const {
    const std::size_t bytes = cfg_.common.cache_bytes_per_server;
    cache::SlabAllocator::Config scfg;
    scfg.memory_limit = bytes;
    scfg.page_size = std::min<std::size_t>(
        64 * 1024, std::max<std::size_t>(bytes / 32, 8 * 1024));
    scfg.growth_factor = 2.0;
    std::vector<std::unique_ptr<cache::LruStore>> stores;
    for (std::size_t j = 0; j < cfg_.system.servers; ++j) {
      stores.push_back(std::make_unique<cache::LruStore>(scfg));
    }
    constexpr std::size_t kBlock = 1024;
    std::vector<std::size_t> missed;
    double get_s = 0.0;
    double set_s = 0.0;
    for (std::size_t b = 0; b < views.size(); b += kBlock) {
      const std::size_t e = std::min(views.size(), b + kBlock);
      missed.clear();
      get_s += time_it([&] {
        for (std::size_t i = b; i < e; ++i) {
          const auto& v = views[i];
          if (!stores[v.server]->get(v.key, v.hash, recs[i].time)) {
            missed.push_back(i);
          }
        }
      });
      set_s += time_it([&] {
        for (const std::size_t i : missed) {
          const auto& v = views[i];
          stores[v.server]->set_sized_hashed(v.key, v.hash, v.value_bytes,
                                             recs[i].time);
        }
      });
    }
    cache::StoreStats agg;
    cache::IndexStats idx;
    for (const auto& s : stores) {
      agg.gets += s->stats().gets;
      agg.hits += s->stats().hits;
      agg.sets += s->stats().sets;
      agg.evictions += s->stats().evictions;
      idx.merge(s->index_stats());
    }
    out["cache.gets"] = static_cast<double>(agg.gets);
    out["cache.sets"] = static_cast<double>(agg.sets);
    out["cache.evictions"] = static_cast<double>(agg.evictions);
    out["cache.hit_ratio"] = agg.hit_ratio();
    out["cache.get_ns"] = get_s * 1e9 / static_cast<double>(agg.gets);
    out["cache.set_ns"] =
        agg.sets == 0 ? 0.0 : set_s * 1e9 / static_cast<double>(agg.sets);
    out["cache.probe_len"] = idx.mean_probe();
  }

  std::uint64_t seed_;
  cluster::TraceReplayConfig cfg_;
  workload::RequestStreamConfig scfg_;
  std::uint64_t requests_;
  std::unique_ptr<workload::RequestStream> stream_;
  std::unique_ptr<workload::Trace> trace_;
  std::optional<cluster::TraceReplaySim> sim_;
};

// Mode B — the event-driven fork-join cluster on the sharded engine:
// 128 servers, Bernoulli misses, 1 ms network (0.5 ms lookahead),
// shard_jobs=2 (three worker threads).
class E2eSharded final : public Workload {
 public:
  E2eSharded(std::uint64_t seed, bool tiny) : seed_(seed) {
    cfg_.system = core::SystemConfig::facebook();
    cfg_.system.servers = tiny ? 16 : 128;
    cfg_.system.total_key_rate =
        static_cast<double>(cfg_.system.servers) * 20'000.0;
    cfg_.system.keys_per_request = 10;
    cfg_.system.network_latency = 1e-3;
    cfg_.common.seed = seed;
    cfg_.common.warmup_time = tiny ? 0.005 : 0.025;
    cfg_.common.measure_time = tiny ? 0.05 : 0.25;
  }

  void setup(obs::Recorder rec, std::size_t shards, Tracer* tr) override {
    Scope s(tr, "setup");
    cfg_.common.shard_jobs = shards;
    cfg_.recorder = rec;
    // The engine's own preparation (partitioning, per-server streams,
    // calendars, worker threads) happens inside run(); a run with a
    // negligible horizon reaches it from outside.
    cluster::EndToEndConfig probe = cfg_;
    probe.common.warmup_time = 0.0;
    probe.common.measure_time = kProbeHorizon;
    probe.recorder = obs::Recorder();
    g_sink = static_cast<double>(
        cluster::EndToEndSim(probe).run().keys_completed);
    sim_.emplace(cfg_);
  }

  void run(Trial& t, Tracer* tr) override {
    cluster::EndToEndResult r;
    {
      Scope s(tr, "cluster.run");
      r = sim_->run();
    }
    t.keys = r.keys_completed;
    t.requests = r.requests_completed;
    t.events = r.events_executed;
    t.miss_ratio = r.measured_miss_ratio;
    t.db_fetches = r.measured_db_fetches;
    t.delayed_hits = r.measured_delayed_hits;
    // The miss ratio's denominator is the measured window's keys: every
    // measured request's N keys (keys_completed also counts warm-up keys).
    t.misses = static_cast<std::uint64_t>(std::llround(
        r.measured_miss_ratio * static_cast<double>(r.requests_completed) *
        cfg_.system.keys_per_request));
    set_utilization(t, r.server_utilization);
    t.t_mean_us = r.total.mean * 1e6;
    Digest d;
    for (const auto* ci : {&r.network, &r.server, &r.database, &r.total}) {
      d.add(*ci);
    }
    for (const double x : r.total_samples) d.add(x);
    d.add(r.keys_completed);
    d.add(r.requests_completed);
    d.add(r.measured_miss_ratio);
    d.add(r.measured_db_fetches);
    d.add(r.measured_delayed_hits);
    for (const double u : r.server_utilization) d.add(u);
    t.fingerprint = d.value();
  }

  void layers(Layers& out, Layers&) override {
    dist::Rng rng(seed_);
    const dist::Exponential service(cfg_.system.service_rate);
    const dist::Exponential arrivals(cfg_.effective_request_rate());
    out["dist.service_ns"] = ns_per_sample(service, rng);
    out["dist.gap_ns"] = ns_per_sample(arrivals, rng);
  }

  [[nodiscard]] std::size_t shards() const override { return 2; }

 private:
  std::uint64_t seed_;
  cluster::EndToEndConfig cfg_;
  std::optional<cluster::EndToEndSim> sim_;
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "testbed_sweep") {
    return std::make_unique<TestbedSweep>(o.seed, o.tiny);
  }
  if (o.workload == "replay_realcache") {
    return std::make_unique<ReplayRealCache>(o.seed, o.tiny);
  }
  if (o.workload == "e2e_sharded") {
    return std::make_unique<E2eSharded>(o.seed, o.tiny);
  }
  throw std::invalid_argument("unknown --workload '" + o.workload + "'");
}

// ------------------------------------------------------------------- main --

/// The process's peak RSS (VmHWM) in MiB since start or the last
/// reset_peak_rss().
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

/// Lowers VmHWM to the current RSS, so the next peak_rss_mb() is one
/// trial's peak. Across trials the process peak also depends on how the
/// allocator happened to reuse freed memory; the per-trial peak does not.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

Trial one_trial(Workload& w, const std::string& variant, std::size_t shards,
                Tracer* tr, int index) {
  Trial t;
  t.variant = variant;
  obs::Registry reg;
  const obs::Recorder rec =
      variant == "registry" ? obs::Recorder(reg) : obs::Recorder();
  if (tr != nullptr) tr->set_trial(index);
  reset_peak_rss();
  {
    Scope root(tr, "trial");
    t.setup_s = time_it([&] { w.setup(rec, shards, tr); });
    const double cpu0 = process_cpu_s();
    t.run_s = time_it([&] { w.run(t, tr); });
    t.run_cpu_s = process_cpu_s() - cpu0;
  }
  t.peak_rss_mb = peak_rss_mb();
  if (tr != nullptr) {
    for (const char* name : {"setup", "workload.trace_build", "cluster.run",
                             "cluster.pools", "cluster.assemble"}) {
      t.spans[name] = tr->total(name, index);
    }
  }
  if (rec.enabled()) {
    for (const auto& [k, v] : registry_facts(reg)) t.registry[k] = v;
  }
  return t;
}

int run_benchmark(const Options& o) {
  const auto start = Clock::now();
  std::unique_ptr<Workload> w = make_workload(o);
  std::unique_ptr<Tracer> tracer;
  if (o.traced) tracer = std::make_unique<Tracer>(start);
  const std::size_t k = w->shards();

  std::vector<Trial> trials;
  int index = 0;
  trials.push_back(one_trial(*w, "warmup", k, nullptr, index++));
  // Timed phase: fixed-work trials until the budget is spent. The traced
  // phase interleaves plain, span-traced and registry-attached trials (and
  // the serial K=1 cell on the sharded workload) round by round, so slow
  // drift of the host hits every variant alike.
  std::vector<std::string> round = {"timed"};
  if (o.traced) {
    round = {"timed", "spans", "registry"};
    if (k > 1) round.push_back("k1");
  }
  const int min_rounds = o.traced ? 3 : 5;
  for (int r = 0; r < min_rounds || since(start) < o.seconds; ++r) {
    for (const std::string& v : round) {
      Tracer* tr = v == "spans" ? tracer.get() : nullptr;
      trials.push_back(one_trial(*w, v, v == "k1" ? 1 : k, tr, index++));
    }
  }
  Layers layers;
  Layers desc;
  if (o.traced) {
    if (k > 1) {
      // K-invariance witness: the same cell on one more shard must give
      // bit-identical simulated outputs. This one trial runs K+2 threads.
      trials.push_back(one_trial(*w, "k3", k + 1, nullptr, index++));
    }
    w->layers(layers, desc);
    if (!o.spans_path.empty()) tracer->write(o.spans_path);
  }

  std::vector<std::string> items;
  for (const Trial& t : trials) items.push_back(t.json());
  Obj lay;
  for (const auto& [name, v] : layers) lay.num(name, v);
  Obj d;
  for (const auto& [name, v] : desc) d.num(name, v);
  Obj build;
  build.str("build_type", MCLAT_PERFBENCH_BUILD_TYPE)
      .str("cxx_flags", MCLAT_PERFBENCH_CXX_FLAGS)
      .str("compiler", MCLAT_PERFBENCH_COMPILER);
  Obj doc;
  doc.str("workload", o.workload)
      .u64("seed", o.seed)
      .str("phase", o.traced ? "traced" : "timed")
      .str("size", o.tiny ? "tiny" : "full")
      .u64("threads_timed", k > 1 ? k + 1 : 1)
      .raw("build", build.json())
      .raw("trials", array_of(items))
      .raw("layers", lay.json())
      .raw("descriptors", d.json())
      .num("wall_s", since(start));
  std::printf("%s\n", doc.json().c_str());
  return 0;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--phase") {
      const std::string p = value();
      if (p != "timed" && p != "traced") {
        throw std::invalid_argument("--phase must be timed or traced");
      }
      o.traced = p == "traced";
    } else if (a == "--size") {
      const std::string s = value();
      if (s != "full" && s != "tiny") {
        throw std::invalid_argument("--size must be full or tiny");
      }
      o.tiny = s == "tiny";
    } else if (a == "--spans") {
      o.spans_path = value();
    } else {
      throw std::invalid_argument("unknown argument '" + a + "'");
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_benchmark(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mclat_perfbench: %s\n", e.what());
    return 2;
  }
}
