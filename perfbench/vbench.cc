// The vsplice benchmark program.
//
//   vbench --workload NAME --seed N --seconds S --trace 0|1 --digest HEX
//
// Runs one workload of scenario simulations serially on one thread,
// checks its outputs, and prints its metrics as the last line of stdout:
// one JSON object with `correct`, `attempted`, `failed` and `metrics`.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, which add one traced round (profiler and spans on).
//
// An operation is one experiments::run_scenario call. The workload's
// scenarios form a round; untraced rounds repeat until --seconds have
// passed, so every run attempts whole rounds. wall_ref_s is the median
// round's time at the reference machine speed (speed.h). --digest must
// equal the source digest compiled in (run.py passes it), which ties
// the numbers to the sources run.py hashed.
//
// The benchmark measures the program from outside: it times its own
// calls into video::make_paper_video, core::make_splicer(...)->splice,
// core::make_pool_policy and experiments::run_scenario, and reads what
// run_scenario returns. See README.md for the workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "speed.h"
#include "core/pool_policy.h"
#include "core/segment_sizing.h"
#include "core/splicer.h"
#include "experiments/content_cache.h"
#include "experiments/paper_setup.h"
#include "obs/profiler.h"
#include "video/encoder.h"

namespace vbench {
namespace {

using Clock = std::chrono::steady_clock;
using vsplice::experiments::ScenarioConfig;
using vsplice::experiments::ScenarioResult;

/// Taken during static initialization, before main: set-up time counts
/// from here.
const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The paper's video seed; every scenario streams this one video.
constexpr std::uint64_t kVideoSeed = 2015;

/// Scenario seed `index` of a workload run with --seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;  // splitmix64
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) % 1000000007ull;
}

Rate kbs(double v) { return Rate::kilobytes_per_second(v); }

// ----------------------------------------------------------- workloads

/// Figures 2/3 (splicers x bandwidth), 4 (500 ms seeder latency) and 5
/// (pool policies), three seeds per cell: 132 twenty-node runs.
std::vector<RunSpec> paper_figures(std::uint64_t seed) {
  struct Grid {
    const char* name;
    std::vector<double> bandwidths;
    std::vector<std::pair<std::string, std::string>> series;  // splicer, policy
    Duration seeder_delay;
  };
  const std::vector<Grid> grids{
      {"fig2",
       {128, 256, 512, 768},
       {{"gop", "adaptive"}, {"2s", "adaptive"}, {"4s", "adaptive"},
        {"8s", "adaptive"}},
       Duration::millis(25)},
      {"fig4",
       {128, 256, 512, 1024},
       {{"2s", "adaptive"}, {"4s", "adaptive"}, {"8s", "adaptive"}},
       Duration::millis(475)},
      {"fig5",
       {128, 256, 512, 768},
       {{"4s", "adaptive"}, {"4s", "fixed:2"}, {"4s", "fixed:4"},
        {"4s", "fixed:8"}},
       Duration::millis(25)},
  };
  std::vector<RunSpec> specs;
  for (const Grid& grid : grids) {
    for (std::size_t b = 0; b < grid.bandwidths.size(); ++b) {
      for (std::size_t s = 0; s < grid.series.size(); ++s) {
        for (std::uint64_t rep = 0; rep < 3; ++rep) {
          RunSpec spec;
          spec.grid = grid.name;
          spec.bandwidth_index = b;
          spec.series_index = s;
          spec.config.splicer = grid.series[s].first;
          spec.config.policy = grid.series[s].second;
          spec.config.bandwidth = kbs(grid.bandwidths[b]);
          spec.config.seeder_delay = grid.seeder_delay;
          spec.config.seed = derive_seed(seed, rep);
          specs.push_back(std::move(spec));
        }
      }
    }
  }
  return specs;
}

/// Scenario seeds per round of the large-swarm workloads. One swarm's
/// mean stall time moves by 13-17 % from seed to seed in these chaotic
/// regimes, so each round averages several seeds to keep the workload's
/// QoE steady across --seed: with 5 and 4 seeds the stall time still
/// spread by 0.087 and 0.098 of its median over ten --seed values.
constexpr std::uint64_t kSwarm500Seeds = 7;
constexpr std::uint64_t kJoinWaveSeeds = 6;

/// 500 nodes at 256 kB/s, played to completion.
std::vector<RunSpec> swarm_500(std::uint64_t seed) {
  std::vector<RunSpec> specs;
  for (std::uint64_t rep = 0; rep < kSwarm500Seeds; ++rep) {
    RunSpec spec;
    spec.grid = "swarm_500";
    spec.config.nodes = 500;
    spec.config.splicer = "4s";
    spec.config.policy = "adaptive";
    spec.config.bandwidth = kbs(256);
    spec.config.seed = derive_seed(seed, rep);
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// 4,499 viewers arriving at 60 joins/s over a 75 s simulated slice: a
/// 1 s control epoch and 20 announce peers, as at the scale frontier.
std::vector<RunSpec> join_wave(std::uint64_t seed) {
  std::vector<RunSpec> specs;
  for (std::uint64_t rep = 0; rep < kJoinWaveSeeds; ++rep) {
    RunSpec spec;
    spec.grid = "join_wave";
    spec.config.nodes = 4500;
    spec.config.splicer = "4s";
    spec.config.policy = "adaptive";
    spec.config.bandwidth = kbs(256);
    spec.config.join_spread = Duration::seconds(75.0);
    spec.config.time_limit = Duration::seconds(75.0);
    spec.config.announce_max_peers = 20;
    spec.config.control_epoch = Duration::seconds(1.0);
    spec.config.seed = derive_seed(seed, rep);
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Churn runs: 200 nodes, 60 s mean lifetime, several seeds.
constexpr std::uint64_t kChurnSeeds = 16;

std::vector<RunSpec> churn(std::uint64_t seed) {
  std::vector<RunSpec> specs;
  for (std::uint64_t rep = 0; rep < kChurnSeeds; ++rep) {
    RunSpec spec;
    spec.grid = "churn";
    spec.config.nodes = 200;
    spec.config.splicer = "4s";
    spec.config.policy = "adaptive";
    spec.config.bandwidth = kbs(256);
    spec.config.churn = true;
    spec.config.churn_mean_lifetime = Duration::seconds(60.0);
    spec.config.seed = derive_seed(seed, rep);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<RunSpec> make_workload(const std::string& name,
                                   std::uint64_t seed) {
  if (name == "paper_figures") return paper_figures(seed);
  if (name == "swarm_500") return swarm_500(seed);
  if (name == "join_wave") return join_wave(seed);
  if (name == "churn") return churn(seed);
  return {};
}

// ------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// Sums of every profile entry with one scope name, across all parents.
struct ScopeTotals {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

ScopeTotals scope(const std::vector<ScenarioResult>& runs, const char* name) {
  ScopeTotals t;
  for (const ScenarioResult& r : runs) {
    for (const auto& e : r.profile.entries) {
      if (e.name != name) continue;
      t.count += e.count;
      t.total_ms += static_cast<double>(e.total_ns) * 1e-6;
      t.self_ms += static_cast<double>(e.self_ns) * 1e-6;
    }
  }
  return t;
}

/// One waterfall phase over all runs: span count, summed seconds, and the
/// count-weighted mean of the per-run p50/p95 (exact for one run).
struct Phase {
  double count = 0;
  double total_s = 0;
  double p50_s = 0;
  double p95_s = 0;
  [[nodiscard]] double mean_s() const { return ratio(total_s, count); }
};

Phase phase(const std::vector<ScenarioResult>& runs, const char* name) {
  Phase p;
  for (const ScenarioResult& r : runs) {
    for (const auto& row : r.waterfall) {
      if (row.phase != name) continue;
      const double n = static_cast<double>(row.count);
      p.count += n;
      p.total_s += row.total_s;
      p.p50_s += row.p50_s * n;
      p.p95_s += row.p95_s * n;
    }
  }
  p.p50_s = ratio(p.p50_s, p.count);
  p.p95_s = ratio(p.p95_s, p.count);
  return p;
}

/// The viewer outcomes every end-to-end QoE metric is built from.
struct Qoe {
  double viewers = 0;
  double started = 0;
  double stall_s = 0;
  double startup_s = 0;
  double stalls = 0;
};

Qoe qoe(const std::vector<ScenarioResult>& runs) {
  Qoe q;
  for (const ScenarioResult& r : runs) {
    for (const auto& v : r.viewers) {
      q.viewers += 1;
      q.stall_s += v.total_stall_duration.as_seconds();
      q.stalls += static_cast<double>(v.stall_count);
      if (v.started) {
        q.started += 1;
        q.startup_s += v.startup_time.as_seconds();
      }
    }
  }
  return q;
}

/// Memory rows reported per workload; absent rows read 0. These are the
/// subsystems ScenarioResult::memory fills on an untraced run.
const char* const kMemoryRows[] = {"content",   "net",       "p2p.pool",
                                    "p2p.sched", "p2p.swarm", "sim"};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ----------------------------------------------------------- the run

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string digest;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have[5] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have[1] = *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have[2] = *end == '\0' && args.seconds > 0;
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      have[3] = args.trace || std::strcmp(value, "0") == 0;
    } else if (key == "--digest") {
      args.digest = value;
      have[4] = true;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         std::all_of(std::begin(have), std::end(have), [](bool b) {
           return b;
         });
}

/// Runs every scenario of a round; a run that throws is recorded in
/// `threw` and leaves a default result behind.
std::vector<ScenarioResult> run_round(const std::vector<RunSpec>& specs,
                                      std::vector<bool>& threw,
                                      bool traced) {
  std::vector<ScenarioResult> results(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ScenarioConfig config = specs[i].config;
    if (traced) {
      config.profile = true;
      config.spans = true;
      config.span_capacity = std::numeric_limits<std::size_t>::max();
    }
    try {
      results[i] = vsplice::experiments::run_scenario(config);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "run %zu threw: %s\n", i, e.what());
      threw[i] = true;
    }
  }
  return results;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
}

int run(const Args& args) {
  std::vector<RunSpec> specs = make_workload(args.workload, args.seed);
  if (specs.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // --- Set-up: synthesize and splice the content for every splicer
  // used (timed per layer), then build every swarm of the workload and
  // run it to a zero-second horizon, which also fills the program's
  // content cache. Nothing lazy is left for the timed rounds.
  Evidence ev;
  auto t = Clock::now();
  const vsplice::video::VideoStream stream =
      vsplice::video::make_paper_video(kVideoSeed);
  const double encode_ms = seconds_since(t) * 1e3;
  std::set<std::string> splicers;
  for (const RunSpec& spec : specs) splicers.insert(spec.config.splicer);
  double splice_ms = 0;
  Bytes frame_total = 0;
  std::size_t frame_count = 0;
  Duration frame_time = Duration::zero();
  for (const auto& gop : stream.gops()) {
    for (const auto& frame : gop.frames()) {
      frame_total += frame.size;
      frame_time += frame.duration;
      ++frame_count;
    }
  }
  for (const std::string& splicer : splicers) {
    t = Clock::now();
    const vsplice::core::SegmentIndex index =
        vsplice::core::make_splicer(splicer)->splice(stream);
    splice_ms += seconds_since(t) * 1e3;
    SpliceFacts facts;
    facts.splicer = splicer;
    facts.gop_aligned = splicer == "gop";
    facts.frame_total = frame_total;
    facts.frame_count = frame_count;
    facts.video_duration = frame_time;
    facts.segments = index.segments();
    facts.total_size = index.total_size();
    facts.media_size = index.total_media_size();
    ev.splices.push_back(std::move(facts));
  }
  for (const RunSpec& spec : specs) {
    ScenarioConfig config = spec.config;
    config.time_limit = Duration::zero();
    (void)vsplice::experiments::run_scenario(config);
  }
  const double setup_raw_s = seconds_since(kProcessStart);
  auto& cache = vsplice::experiments::ContentCache::global();

  // --- Untraced rounds, whole rounds until --seconds have passed. The
  // speed sampler times its reference kernel every 100 ms of each round
  // and turns the round's time into seconds at the reference speed
  // (speed.h); set-up is scaled by the kernel's time right after it.
  std::vector<bool> threw(specs.size(), false);
  std::vector<RoundTime> round_times;
  const auto measure_start = Clock::now();
  SpeedSampler sampler;
  const double setup_s = sampler.normalize_now(setup_raw_s);
  do {
    sampler.begin_round();
    std::vector<ScenarioResult> results = run_round(specs, threw, false);
    round_times.push_back(sampler.end_round());
    std::vector<std::uint64_t> prints;
    for (const ScenarioResult& r : results) prints.push_back(fingerprint(r));
    ev.fingerprints.push_back(std::move(prints));
    if (ev.untraced.empty()) ev.untraced = std::move(results);
  } while (seconds_since(measure_start) < args.seconds);
  std::vector<double> normalized_s;
  std::vector<double> raw_s;
  double pass_s = 0;
  std::size_t samples = 0;
  for (const RoundTime& round : round_times) {
    normalized_s.push_back(round.normalized_s);
    raw_s.push_back(round.raw_s);
    pass_s += round.mean_pass_s * static_cast<double>(round.samples);
    samples += round.samples;
  }
  const double wall_ref_s = median(normalized_s);
  const double wall_raw_s = *std::min_element(raw_s.begin(), raw_s.end());
  const double rss_mb = peak_rss_mb();
  const std::uint64_t cache_hits = cache.stats().hits();

  // --- Traced round: profiler and spans on, every span kept. The
  // content cache is emptied first so the content build is profiled.
  RoundTime traced_round;
  if (args.trace) {
    cache.clear();
    sampler.begin_round();
    ev.traced = run_round(specs, threw, true);
    traced_round = sampler.end_round();
  }

  // Runs that threw are failed operations; the checks see the rest.
  std::size_t threw_count = 0;
  for (std::size_t i = specs.size(); i-- > 0;) {
    if (!threw[i]) continue;
    ++threw_count;
    specs.erase(specs.begin() + static_cast<std::ptrdiff_t>(i));
    ev.untraced.erase(ev.untraced.begin() + static_cast<std::ptrdiff_t>(i));
    if (!ev.traced.empty()) {
      ev.traced.erase(ev.traced.begin() + static_cast<std::ptrdiff_t>(i));
    }
    for (auto& round : ev.fingerprints) {
      round.erase(round.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  ev.specs = specs;

  // --- Checks, then the self-test on doctored evidence.
  const auto adaptive = vsplice::core::make_pool_policy("adaptive");
  ev.pool_size = [&adaptive](Rate b, Duration t_buf, Bytes w) {
    return adaptive->pool_size(b, t_buf, w);
  };
  ev.max_segment = [](Rate b, Duration t_buf) {
    return vsplice::core::max_stall_free_segment_size(b, t_buf);
  };
  bool correct = true;
  std::set<std::size_t> failed_runs;
  for (const Check& check : all_checks()) {
    const Outcome outcome = check.run(ev);
    const char* verdict = outcome.verdict == Verdict::kPass   ? "pass"
                          : outcome.verdict == Verdict::kFail ? "FAIL"
                                                              : "n/a";
    std::string self_test;
    if (outcome.verdict == Verdict::kFail) {
      correct = false;
      failed_runs.insert(outcome.failed_runs.begin(),
                         outcome.failed_runs.end());
    } else if (outcome.verdict == Verdict::kPass) {
      Evidence doctored = ev;
      check.doctor(doctored);
      const bool rejected = check.run(doctored).verdict == Verdict::kFail;
      self_test = rejected ? "doctored copy rejected"
                           : "SELF-TEST FAILED: doctored copy accepted";
      correct = correct && rejected;
    }
    std::printf("check %-40s %-4s %s%s%s\n", check.name, verdict,
                outcome.detail.c_str(), outcome.detail.empty() ? "" : "; ",
                self_test.c_str());
  }

  // --- Metrics.
  const std::vector<ScenarioResult>& runs = ev.untraced;
  const Qoe q = qoe(runs);
  std::vector<Metric> metrics;
  const auto add = [&metrics](std::string name, double value,
                              const char* unit) {
    metrics.push_back({std::move(name), value, unit});
  };
  if (!args.trace) {
    add("wall_ref_s", wall_ref_s, "s");
    add("setup_s", setup_s, "s");
    add("peak_rss_mb", rss_mb, "MB");
    add("viewer_stall_s", ratio(q.stall_s, q.viewers), "s/viewer");
    add("viewer_startup_s", ratio(q.startup_s, q.started), "s");
    add("viewers_started", q.started, "count");
  } else {
    double events = 0, high_water = 0, compactions = 0;
    double reallocations = 0, retouched = 0, active_integral = 0;
    double aborted = 0, served = 0, choked = 0, picks = 0, scanned = 0;
    double routed = 0, seeder_up = 0, peers_up = 0, digests = 0;
    double departures = 0, wasted = 0, downloaded = 0, spans = 0;
    double bytes_per_peer = 0;
    std::map<std::string, double> memory;
    for (const ScenarioResult& r : runs) {
      events += static_cast<double>(r.events_fired);
      high_water = std::max(high_water, static_cast<double>(r.heap_high_water));
      compactions += static_cast<double>(r.heap_compactions);
      reallocations += static_cast<double>(r.reallocations);
      retouched += static_cast<double>(r.flows_retouched);
      if (r.reallocate_touched_flows_ratio > 0) {
        active_integral += static_cast<double>(r.flows_retouched) /
                           r.reallocate_touched_flows_ratio;
      }
      aborted += static_cast<double>(r.pieces_aborted);
      served += static_cast<double>(r.requests_served);
      choked += static_cast<double>(r.requests_choked);
      picks += static_cast<double>(r.segment_picks + r.holder_picks);
      scanned += static_cast<double>(r.candidates_scanned);
      routed += static_cast<double>(r.messages_routed);
      seeder_up += static_cast<double>(r.seeder_uploaded);
      peers_up += static_cast<double>(r.peers_uploaded);
      digests += static_cast<double>(r.control_digests_sent);
      departures += static_cast<double>(r.churn_departures);
      for (const auto& v : r.viewers) {
        wasted += static_cast<double>(v.bytes_wasted);
        downloaded += static_cast<double>(v.bytes_downloaded);
      }
      bytes_per_peer = std::max(bytes_per_peer, r.memory_bytes_per_peer);
      for (const auto& [name, bytes] : r.memory.subsystems) {
        memory[name] = std::max(memory[name], static_cast<double>(bytes));
      }
    }
    for (const ScenarioResult& r : ev.traced) {
      spans += static_cast<double>(r.spans_recorded);
    }
    const ScopeTotals fire = scope(ev.traced, "sim.fire");
    const ScopeTotals schedule = scope(ev.traced, "sim.schedule");
    add("sim.events", events, "count");
    add("sim.ns_per_event", ratio(wall_ref_s * 1e9, events), "ns");
    add("sim.fire_self_ms", fire.self_ms, "ms");
    add("sim.schedule_calls", static_cast<double>(schedule.count), "count");
    add("sim.schedule_ms", schedule.total_ms, "ms");
    add("sim.heap_high_water", high_water, "count");
    add("sim.heap_compactions", compactions, "count");
    add("net.reallocations", reallocations, "count");
    add("net.flows_retouched", retouched, "count");
    add("net.touched_ratio", ratio(retouched, active_integral), "ratio");
    add("net.reallocate_ms", scope(ev.traced, "net.reallocate").total_ms,
        "ms");
    add("net.star_allocate_ms",
        scope(ev.traced, "net.star_allocate").total_ms, "ms");
    add("net.pieces_aborted", aborted, "count");
    add("p2p.requests", served + choked, "count");
    add("p2p.requests_choked", choked, "count");
    add("p2p.requests_per_segment", ratio(served + choked, served), "ratio");
    add("p2p.candidates_per_pick", ratio(scanned, picks), "ratio");
    add("p2p.messages_routed", routed, "count");
    add("p2p.seeder_share", ratio(seeder_up, seeder_up + peers_up), "ratio");
    add("p2p.control_digests", digests, "count");
    add("p2p.departures", departures, "count");
    add("p2p.wasted_bytes", wasted, "B");
    add("p2p.unaccounted_bytes", seeder_up + peers_up - downloaded, "B");
    add("p2p.deliver_self_ms", scope(ev.traced, "swarm.deliver").self_ms,
        "ms");
    add("p2p.schedule_ms", scope(ev.traced, "p2p.schedule").total_ms, "ms");
    add("p2p.pick_holder_ms", scope(ev.traced, "p2p.pick_holder").total_ms,
        "ms");
    add("p2p.pick_segment_ms",
        scope(ev.traced, "p2p.pick_segment").total_ms, "ms");
    const Phase segment = phase(ev.traced, "segment");
    double children_s = 0;
    for (const char* child :
         {"request_decision", "choke_wait", "request_send", "server_queue",
          "piece_transfer", "verify", "buffer_insert"}) {
      children_s += phase(ev.traced, child).total_s;
    }
    add("streaming.segment_p50_s", segment.p50_s, "s");
    add("streaming.segment_p95_s", segment.p95_s, "s");
    add("streaming.choke_wait_s", phase(ev.traced, "choke_wait").mean_s(),
        "s");
    add("streaming.request_send_s",
        phase(ev.traced, "request_send").mean_s(), "s");
    add("streaming.piece_transfer_p50_s",
        phase(ev.traced, "piece_transfer").p50_s, "s");
    add("streaming.server_queue_s",
        phase(ev.traced, "server_queue").mean_s(), "s");
    add("streaming.announce_p50_s", phase(ev.traced, "announce").p50_s, "s");
    add("streaming.segment_unexplained_s",
        ratio(segment.total_s - children_s, segment.count), "s");
    add("streaming.stalls", q.stalls, "count");
    add("video.encode_ms", encode_ms, "ms");
    add("core.splice_ms", splice_ms, "ms");
    for (const char* spec : {"gop", "2s", "4s", "8s"}) {
      const vsplice::core::SegmentIndex index =
          vsplice::core::make_splicer(spec)->splice(stream);
      add(std::string("core.duration_overhead.") + spec,
          ratio(static_cast<double>(index.total_size() -
                                    index.total_media_size()),
                static_cast<double>(index.total_media_size())),
          "ratio");
    }
    add("experiments.content_build_ms",
        scope(ev.traced, "content.build").total_ms, "ms");
    add("experiments.content_cache_hits", static_cast<double>(cache_hits),
        "count");
    add("obs.trace_overhead", ratio(traced_round.normalized_s, wall_ref_s),
        "ratio");
    add("obs.unattributed_share", ratio(fire.self_ms, fire.total_ms),
        "ratio");
    add("obs.spans_recorded", spans, "count");
    add("bench.wall_raw_s", wall_raw_s, "s");
    add("bench.setup_raw_s", setup_raw_s, "s");
    add("bench.kernel_pass_ms",
        ratio(pass_s, static_cast<double>(samples)) * 1e3, "ms");
    add("mem.bytes_per_peer", bytes_per_peer, "B");
    for (const char* row : kMemoryRows) {
      add(std::string("mem.") + row + "_bytes", memory[row], "B");
    }
    for (const auto& [name, bytes] : memory) {
      const bool listed = std::any_of(
          std::begin(kMemoryRows), std::end(kMemoryRows),
          [&name = name](const char* row) { return name == row; });
      if (!listed) {
        std::printf("note: unlisted memory row %s = %.0f B\n", name.c_str(),
                    bytes);
      }
    }
  }

  // --- Result line.
  const std::size_t rounds = ev.fingerprints.size();
  const std::size_t per_round = specs.size() + threw_count;
  const std::size_t attempted =
      rounds * per_round + (args.trace ? per_round : 0);
  const std::size_t failed =
      threw_count * (rounds + (args.trace ? 1 : 0)) +
      failed_runs.size() * rounds;
  std::printf("workload %s seed %llu: set-up %.4f s (%.4f s at reference "
              "speed); %zu untraced rounds of %zu runs, s as measured "
              "(at reference speed):",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), setup_raw_s,
              setup_s, rounds, per_round);
  for (const RoundTime& round : round_times) {
    std::printf(" %.3f (%.3f)", round.raw_s, round.normalized_s);
  }
  std::printf("; kernel pass %.3f ms over %zu samples",
              ratio(pass_s, static_cast<double>(samples)) * 1e3, samples);
  if (args.trace) {
    std::printf("; traced round %.3f (%.3f) s", traced_round.raw_s,
                traced_round.normalized_s);
  }
  std::printf("\n");
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace vbench

int main(int argc, char** argv) {
  vbench::Args args;
  if (!vbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: vbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --digest HEX\n");
    return 2;
  }
  if (args.digest != VBENCH_SOURCE_DIGEST) {
    std::fprintf(stderr,
                 "vbench was built from sources with digest %s, not %s\n",
                 VBENCH_SOURCE_DIGEST, args.digest.c_str());
    return 2;
  }
  try {
    return vbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbench: %s\n", e.what());
    return 1;
  }
}
