#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>

#include "streaming/metrics.h"

namespace vbench {

namespace {

using vsplice::experiments::ScenarioResult;
using vsplice::streaming::QoeMetrics;

Outcome pass(std::string detail = {}) {
  return Outcome{Verdict::kPass, std::move(detail), {}};
}
Outcome fail(std::string detail, std::vector<std::size_t> runs = {}) {
  return Outcome{Verdict::kFail, std::move(detail), std::move(runs)};
}
Outcome not_applicable() { return Outcome{}; }

/// Per-run outcome from the list of runs that broke a property.
Outcome per_run(std::size_t checked, std::vector<std::size_t> failed,
                const char* what) {
  if (checked == 0) return not_applicable();
  if (failed.empty()) return pass();
  char buf[160];
  std::snprintf(buf, sizeof buf, "%zu of %zu runs break %s (first: run %zu)",
                failed.size(), checked, what, failed.front());
  return fail(buf, std::move(failed));
}

const SpliceFacts* splice_for(const Evidence& ev, const std::string& spec) {
  for (const SpliceFacts& facts : ev.splices) {
    if (facts.splicer == spec) return &facts;
  }
  return nullptr;
}

SpliceFacts* splice_for(Evidence& ev, bool gop_aligned) {
  for (SpliceFacts& facts : ev.splices) {
    if (facts.gop_aligned == gop_aligned) return &facts;
  }
  return nullptr;
}

Bytes viewers_downloaded(const ScenarioResult& r) {
  Bytes sum = 0;
  for (const QoeMetrics& v : r.viewers) sum += v.bytes_downloaded;
  return sum;
}

Bytes uploaded(const ScenarioResult& r) {
  return r.seeder_uploaded + r.peers_uploaded;
}

// ------------------------------------------------------ paper findings

/// A paper-grid cell folded from per-viewer QoE by the benchmark itself:
/// mean over repetitions of total stalls, total stall seconds, and the
/// mean startup of the viewers that started.
struct Cell {
  double stalls = 0;
  double stall_s = 0;
  double startup_s = 0;
};

std::optional<Cell> cell(const Evidence& ev, const char* grid, std::size_t b,
                         std::size_t s) {
  Cell c;
  int reps = 0;
  for (std::size_t i = 0; i < ev.specs.size(); ++i) {
    const RunSpec& spec = ev.specs[i];
    if (spec.grid != grid || spec.bandwidth_index != b ||
        spec.series_index != s) {
      continue;
    }
    double stalls = 0;
    double stall_s = 0;
    double startup = 0;
    int started = 0;
    for (const QoeMetrics& v : ev.untraced[i].viewers) {
      stalls += static_cast<double>(v.stall_count);
      stall_s += v.total_stall_duration.as_seconds();
      if (v.started) {
        startup += v.startup_time.as_seconds();
        ++started;
      }
    }
    c.stalls += stalls;
    c.stall_s += stall_s;
    c.startup_s += started > 0 ? startup / started : 0.0;
    ++reps;
  }
  if (reps == 0) return std::nullopt;
  c.stalls /= reps;
  c.stall_s /= reps;
  c.startup_s /= reps;
  return c;
}

/// Grid coordinates, in the order vbench.cc builds them.
constexpr std::size_t kBw128 = 0, kBw256 = 1, kBwTop = 3;
constexpr std::size_t kGop = 0, kTwo = 1, kFour = 2, kEight = 3;  // fig2
constexpr std::size_t kFig4Series = 3;                             // 2s/4s/8s

/// Applies `mutate` to every untraced result of one grid cell.
template <typename F>
void doctor_cell(Evidence& ev, const char* grid, std::size_t b,
                 std::size_t s, F mutate) {
  for (std::size_t i = 0; i < ev.specs.size(); ++i) {
    const RunSpec& spec = ev.specs[i];
    if (spec.grid == grid && spec.bandwidth_index == b &&
        spec.series_index == s) {
      mutate(ev.untraced[i]);
    }
  }
}

void add_stalls(ScenarioResult& r, std::size_t count, Duration each) {
  for (QoeMetrics& v : r.viewers) {
    v.stall_count += count;
    v.total_stall_duration += each * static_cast<double>(count);
  }
}

void clear_stalls(ScenarioResult& r) {
  for (QoeMetrics& v : r.viewers) {
    v.stall_count = 0;
    v.total_stall_duration = Duration::zero();
  }
}

/// GOP splicing stalls longest at 256 kB/s (Fig. 3's total stall time;
/// the stall *count* ordering of GOP vs 4 s flips on some seeds).
Outcome gop_stalls_most(const Evidence& ev) {
  const auto gop = cell(ev, "fig2", kBw256, kGop);
  const auto four = cell(ev, "fig2", kBw256, kFour);
  const auto eight = cell(ev, "fig2", kBw256, kEight);
  if (!gop || !four || !eight) return not_applicable();
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "stall s @256 kB/s: gop %.1f, 4s %.1f, 8s %.1f", gop->stall_s,
                four->stall_s, eight->stall_s);
  return gop->stall_s > four->stall_s && gop->stall_s > eight->stall_s
             ? pass(buf)
             : fail(buf);
}

void doctor_gop_stalls_most(Evidence& ev) {
  doctor_cell(ev, "fig2", kBw256, kGop, clear_stalls);
}

Outcome two_stalls_more_low(const Evidence& ev) {
  const auto two = cell(ev, "fig2", kBw128, kTwo);
  const auto four = cell(ev, "fig2", kBw128, kFour);
  if (!two || !four) return not_applicable();
  char buf[128];
  std::snprintf(buf, sizeof buf, "stalls @128 kB/s: 2s %.2f, 4s %.2f",
                two->stalls, four->stalls);
  return two->stalls > four->stalls ? pass(buf) : fail(buf);
}

void doctor_two_stalls_more_low(Evidence& ev) {
  doctor_cell(ev, "fig2", kBw128, kTwo, clear_stalls);
}

Outcome falls_with_bandwidth(const Evidence& ev) {
  bool any = false;
  for (std::size_t s = 0; s < 4; ++s) {
    const auto low = cell(ev, "fig2", kBw128, s);
    const auto high = cell(ev, "fig2", kBwTop, s);
    if (!low || !high) continue;
    any = true;
    if (!(high->stalls < low->stalls && high->stall_s < low->stall_s)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "series %zu: stalls %.2f -> %.2f, stall s %.1f -> %.1f "
                    "from 128 kB/s to 768 kB/s",
                    s, low->stalls, high->stalls, low->stall_s, high->stall_s);
      return fail(buf);
    }
  }
  return any ? pass() : not_applicable();
}

void doctor_falls_with_bandwidth(Evidence& ev) {
  doctor_cell(ev, "fig2", kBwTop, kFour, [](ScenarioResult& r) {
    add_stalls(r, 1000, Duration::seconds(1.0));
  });
}

Outcome larger_segments_start_slower(const Evidence& ev) {
  bool any = false;
  for (std::size_t b = 0; b < 4; ++b) {
    double previous = -1.0;
    for (std::size_t s = 0; s < kFig4Series; ++s) {
      const auto c = cell(ev, "fig4", b, s);
      if (!c) return any ? fail("fig4 grid incomplete") : not_applicable();
      any = true;
      if (!(c->startup_s > previous)) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "bandwidth %zu: series %zu starts in %.3f s, not "
                      "after %.3f s",
                      b, s, c->startup_s, previous);
        return fail(buf);
      }
      previous = c->startup_s;
    }
  }
  return pass();
}

void doctor_larger_segments_start_slower(Evidence& ev) {
  // The 2-second segments now start as late as a 10-minute wait.
  doctor_cell(ev, "fig4", kBw128, 0, [](ScenarioResult& r) {
    for (QoeMetrics& v : r.viewers) {
      v.startup_time = Duration::seconds(600.0);
    }
  });
}

// ------------------------------------------------- Eq. 1 / Section IV

struct PoolPoint {
  std::int64_t rate_bps;  // whole bytes per second
  std::int64_t buffered_us;
  Bytes segment;
};

/// The benchmark's own (B, T, W) grid: whole kB/s, half-second buffer
/// steps (B*T is then an exact integer), segment sizes from 1 kB up past
/// the paper's largest GOP segment, and points where B*T is an exact
/// multiple of W so the floor is tested on its boundary.
std::vector<PoolPoint> pool_grid() {
  std::vector<PoolPoint> grid;
  const std::int64_t rates_kbs[] = {32, 64, 128, 256, 512, 768, 1024, 4096};
  const std::int64_t buffered_ms[] = {0,    500,  1000,  1500,  2000, 3000,
                                      4000, 6000, 8000, 12000, 16000, 30000};
  const Bytes segments[] = {1000,   64000,  125000,  128000,
                            256000, 500000, 1000000, 2048000};
  for (const std::int64_t kbs : rates_kbs) {
    for (const std::int64_t ms : buffered_ms) {
      for (const Bytes w : segments) {
        grid.push_back({kbs * 1000, ms * 1000, w});
      }
      // Boundary: W divides B*T exactly, k = 1..5.
      const std::int64_t budget = kbs * ms;  // bytes = B[B/s] * T[ms] / 1000
      for (std::int64_t k = 1; k <= 5 && budget > 0; ++k) {
        if (budget % k == 0) grid.push_back({kbs * 1000, ms * 1000, budget / k});
      }
    }
  }
  return grid;
}

/// floor(B*T / W) in exact integer arithmetic, T in microseconds.
std::int64_t exact_budget_bytes(const PoolPoint& p) {
  return p.rate_bps * p.buffered_us / 1000000;  // exact: T is whole ms
}

Outcome eq1_pool_size(const Evidence& ev) {
  for (const PoolPoint& p : pool_grid()) {
    const std::int64_t k =
        std::max<std::int64_t>(exact_budget_bytes(p) / p.segment, 1);
    const int got = ev.pool_size(
        Rate::bytes_per_second(static_cast<double>(p.rate_bps)),
        Duration::micros(p.buffered_us), p.segment);
    if (got != k) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "B=%lld B/s T=%lld us W=%lld B: pool %d, Eq. 1 gives %lld",
                    static_cast<long long>(p.rate_bps),
                    static_cast<long long>(p.buffered_us),
                    static_cast<long long>(p.segment), got,
                    static_cast<long long>(k));
      return fail(buf);
    }
  }
  return pass();
}

void doctor_eq1_pool_size(Evidence& ev) {
  ev.pool_size = [inner = ev.pool_size](Rate b, Duration t, Bytes w) {
    const int k = inner(b, t, w);
    return k >= 2 ? k + 1 : k;
  };
}

Outcome sec4_max_segment(const Evidence& ev) {
  for (const PoolPoint& p : pool_grid()) {
    const Bytes got = ev.max_segment(
        Rate::bytes_per_second(static_cast<double>(p.rate_bps)),
        Duration::micros(p.buffered_us));
    if (got != exact_budget_bytes(p)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "B=%lld B/s T=%lld us: W_max %lld, B*T = %lld",
                    static_cast<long long>(p.rate_bps),
                    static_cast<long long>(p.buffered_us),
                    static_cast<long long>(got),
                    static_cast<long long>(exact_budget_bytes(p)));
      return fail(buf);
    }
  }
  return pass();
}

void doctor_sec4_max_segment(Evidence& ev) {
  ev.max_segment = [inner = ev.max_segment](Rate b, Duration t) {
    const Bytes w = inner(b, t);
    return w > 0 ? w - 1 : w;
  };
}

// ------------------------------------------------------------ splicing

Outcome gop_bytes(const Evidence& ev) {
  bool any = false;
  for (const SpliceFacts& f : ev.splices) {
    if (!f.gop_aligned) continue;
    any = true;
    Bytes sum = 0;
    for (const auto& s : f.segments) sum += s.size;
    if (f.total_size != f.frame_total || f.media_size != f.frame_total ||
        sum != f.frame_total) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s: %lld transfer / %lld media / %lld summed bytes vs "
                    "%lld frame bytes",
                    f.splicer.c_str(), static_cast<long long>(f.total_size),
                    static_cast<long long>(f.media_size),
                    static_cast<long long>(sum),
                    static_cast<long long>(f.frame_total));
      return fail(buf);
    }
  }
  return any ? pass() : not_applicable();
}

void doctor_gop_bytes(Evidence& ev) {
  if (SpliceFacts* f = splice_for(ev, true)) {
    f->segments.front().size += 1;
    f->total_size += 1;
  }
}

Outcome duration_bytes(const Evidence& ev) {
  bool any = false;
  for (const SpliceFacts& f : ev.splices) {
    if (f.gop_aligned) continue;
    any = true;
    Bytes sum = 0;
    for (const auto& s : f.segments) sum += s.size;
    if (!(f.total_size >= f.frame_total) || f.media_size != f.frame_total ||
        sum != f.total_size) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s: %lld transfer / %lld media / %lld summed bytes vs "
                    "%lld frame bytes",
                    f.splicer.c_str(), static_cast<long long>(f.total_size),
                    static_cast<long long>(f.media_size),
                    static_cast<long long>(sum),
                    static_cast<long long>(f.frame_total));
      return fail(buf);
    }
  }
  return any ? pass() : not_applicable();
}

void doctor_duration_bytes(Evidence& ev) {
  if (SpliceFacts* f = splice_for(ev, false)) {
    const Bytes cut = f->total_size - f->frame_total + 1;
    f->segments.front().size -= cut;
    f->total_size -= cut;
  }
}

Outcome tiling(const Evidence& ev) {
  for (const SpliceFacts& f : ev.splices) {
    Duration at = Duration::zero();
    std::size_t frames = 0;
    for (const auto& s : f.segments) {
      if (s.start != at || s.duration <= Duration::zero()) {
        return fail(f.splicer + ": segment " + std::to_string(s.index) +
                    " does not start where its predecessor ends");
      }
      at = s.end();
      frames += s.frame_count;
    }
    if (at != kVideoLength || f.video_duration != kVideoLength ||
        frames != f.frame_count) {
      return fail(f.splicer + ": segments cover " + at.to_string() +
                  " and " + std::to_string(frames) + " frames of " +
                  f.video_duration.to_string() + " / " +
                  std::to_string(f.frame_count));
    }
  }
  return ev.splices.empty() ? not_applicable() : pass();
}

void doctor_tiling(Evidence& ev) {
  if (ev.splices.empty()) return;
  auto& segments = ev.splices.front().segments;
  segments[segments.size() / 2].start += Duration::micros(1);
}

Outcome content_match(const Evidence& ev) {
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < ev.untraced.size(); ++i) {
    const SpliceFacts* f = splice_for(ev, ev.specs[i].config.splicer);
    const ScenarioResult& r = ev.untraced[i];
    if (f == nullptr || r.total_transfer_bytes != f->total_size ||
        r.media_bytes != f->media_size ||
        r.segment_count != f->segments.size()) {
      failed.push_back(i);
    }
  }
  return per_run(ev.untraced.size(), std::move(failed),
                 "the splicing the benchmark made of the same video");
}

void doctor_content_match(Evidence& ev) {
  ev.untraced.front().total_transfer_bytes += 1;
}

// ------------------------------------------------------ viewer identities

Outcome playback_identity(const Evidence& ev) {
  std::size_t checked = 0;
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < ev.untraced.size(); ++i) {
    bool any = false;
    bool ok = true;
    for (const QoeMetrics& v : ev.untraced[i].viewers) {
      if (!v.finished) continue;
      any = true;
      ok = ok && v.completion_time ==
                     v.startup_time + kVideoLength + v.total_stall_duration;
    }
    checked += any ? 1 : 0;
    if (!ok) failed.push_back(i);
  }
  return per_run(checked, std::move(failed),
                 "completion = startup + 120 s + stall time");
}

/// The first finished viewer of any run, or nullptr.
QoeMetrics* first_finished(Evidence& ev) {
  for (ScenarioResult& r : ev.untraced) {
    for (QoeMetrics& v : r.viewers) {
      if (v.finished) return &v;
    }
  }
  return nullptr;
}

void doctor_playback_identity(Evidence& ev) {
  if (QoeMetrics* v = first_finished(ev)) {
    v->completion_time += Duration::micros(1);
  }
}

/// Wire bytes of one PIECE frame ahead of its payload: u32 frame length,
/// u8 type, u32 segment, u64 payload length. The playlist is fetched
/// before the player exists, so it is not in the viewer's byte counts.
constexpr Bytes kPieceFrameBytes = 4 + 1 + 4 + 8;

Outcome viewer_bytes(const Evidence& ev) {
  std::size_t checked = 0;
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < ev.untraced.size(); ++i) {
    const SpliceFacts* f = splice_for(ev, ev.specs[i].config.splicer);
    const Bytes piece_frames =
        f != nullptr ? kPieceFrameBytes * static_cast<Bytes>(f->segments.size())
                     : 0;
    bool any = false;
    bool ok = f != nullptr;
    for (const QoeMetrics& v : ev.untraced[i].viewers) {
      if (!v.finished || f == nullptr) continue;
      any = true;
      ok = ok && v.bytes_downloaded - v.bytes_wasted ==
                     f->total_size + piece_frames;
    }
    checked += any ? 1 : 0;
    if (!ok) failed.push_back(i);
  }
  return per_run(checked, std::move(failed),
                 "downloaded - wasted = the splicing's transfer bytes plus "
                 "PIECE frames for every finished viewer");
}

void doctor_viewer_bytes(Evidence& ev) {
  if (QoeMetrics* v = first_finished(ev)) v->bytes_downloaded += 1;
}

Outcome swarm_bytes(const Evidence& ev) {
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < ev.untraced.size(); ++i) {
    const ScenarioResult& r = ev.untraced[i];
    const Bytes down = viewers_downloaded(r);
    const Bytes up = uploaded(r);
    const bool ok = r.churn_departures == 0 ? up == down : up >= down;
    if (!ok) failed.push_back(i);
  }
  return per_run(ev.untraced.size(), std::move(failed),
                 "uploaded = downloaded (>= under departures)");
}

void doctor_swarm_bytes(Evidence& ev) {
  ScenarioResult& r = ev.untraced.front();
  r.seeder_uploaded = 0;
  r.peers_uploaded = 0;
}

/// Runs where every viewer finished and no piece was aborted: then each
/// viewer was served each segment exactly once.
bool complete_and_clean(const ScenarioResult& r) {
  return r.pieces_aborted == 0 && r.finished_viewers == r.viewers.size() &&
         !r.viewers.empty();
}

Outcome request_count(const Evidence& ev) {
  std::size_t checked = 0;
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < ev.untraced.size(); ++i) {
    const ScenarioResult& r = ev.untraced[i];
    if (!complete_and_clean(r)) continue;
    ++checked;
    std::size_t finished = 0;
    for (const QoeMetrics& v : r.viewers) finished += v.finished ? 1 : 0;
    if (r.requests_served != finished * r.segment_count) failed.push_back(i);
  }
  return per_run(checked, std::move(failed),
                 "requests served = finished viewers x segments");
}

void doctor_request_count(Evidence& ev) {
  for (ScenarioResult& r : ev.untraced) {
    if (complete_and_clean(r)) {
      r.requests_served += 1;
      return;
    }
  }
}

// ------------------------------------------------------------ join wave

/// Started viewers must stay above this share of the viewers expected to
/// have arrived at least one mean startup time before the horizon.
constexpr double kAdmissionShare = 0.9;

Outcome join_admission(const Evidence& ev) {
  std::size_t checked = 0;
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < ev.untraced.size(); ++i) {
    if (ev.specs[i].grid != "join_wave") continue;
    ++checked;
    const auto& config = ev.specs[i].config;
    const ScenarioResult& r = ev.untraced[i];
    double started = 0;
    double startup_sum = 0;
    for (const QoeMetrics& v : r.viewers) {
      if (!v.started) continue;
      started += 1;
      startup_sum += v.startup_time.as_seconds();
    }
    const double mean_startup = started > 0 ? startup_sum / started : 0.0;
    // Joins are uniform over join_spread, so the expected number of
    // viewers that joined before (horizon - mean startup) is linear.
    const double window = std::clamp(
        config.time_limit.as_seconds() - mean_startup, 0.0,
        config.join_spread.as_seconds());
    const double arrived_early = static_cast<double>(r.viewers.size()) *
                                 window / config.join_spread.as_seconds();
    if (!(started > 0 && started >= kAdmissionShare * arrived_early)) {
      failed.push_back(i);
    }
  }
  return per_run(checked, std::move(failed),
                 "started >= 0.9 x viewers arrived one startup before the "
                 "horizon");
}

void doctor_join_admission(Evidence& ev) {
  for (std::size_t i = 0; i < ev.specs.size(); ++i) {
    if (ev.specs[i].grid != "join_wave") continue;
    auto& viewers = ev.untraced[i].viewers;
    for (std::size_t v = viewers.size() / 2; v < viewers.size(); ++v) {
      viewers[v].started = false;
    }
    return;
  }
}

// ------------------------------------------------- tracing, determinism

Outcome trace_identity(const Evidence& ev) {
  if (ev.traced.empty()) return not_applicable();
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < ev.traced.size(); ++i) {
    if (fingerprint(ev.traced[i]) != fingerprint(ev.untraced[i])) {
      failed.push_back(i);
    }
  }
  return per_run(ev.traced.size(), std::move(failed),
                 "traced QoE and counters = untraced");
}

void doctor_trace_identity(Evidence& ev) {
  if (!ev.traced.empty()) ev.traced.back().events_fired += 1;
}

Outcome trace_complete(const Evidence& ev) {
  if (ev.traced.empty()) return not_applicable();
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < ev.traced.size(); ++i) {
    const ScenarioResult& r = ev.traced[i];
    if (r.spans_dropped != 0 || r.spans_recorded == 0 || r.profile.empty()) {
      failed.push_back(i);
    }
  }
  return per_run(ev.traced.size(), std::move(failed),
                 "every span kept (spans_dropped = 0) and a profile taken");
}

void doctor_trace_complete(Evidence& ev) {
  if (!ev.traced.empty()) ev.traced.front().spans_dropped = 1;
}

Outcome rounds_identical(const Evidence& ev) {
  if (ev.fingerprints.empty()) return not_applicable();
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < ev.untraced.size(); ++i) {
    bool ok = ev.fingerprints.front()[i] == fingerprint(ev.untraced[i]);
    for (const auto& round : ev.fingerprints) {
      ok = ok && round[i] == ev.fingerprints.front()[i];
    }
    if (!ok) failed.push_back(i);
  }
  return per_run(ev.untraced.size(), std::move(failed),
                 "identical outputs in every round of one seed");
}

void doctor_rounds_identical(Evidence& ev) {
  ev.fingerprints.back().back() ^= 1;
}

}  // namespace

std::uint64_t fingerprint(const ScenarioResult& r) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto mix_signed = [&mix](std::int64_t v) {
    mix(static_cast<std::uint64_t>(v));
  };
  for (const QoeMetrics& v : r.viewers) {
    mix(v.started);
    mix(v.finished);
    mix_signed(v.startup_time.count_micros());
    mix(v.stall_count);
    mix_signed(v.total_stall_duration.count_micros());
    mix_signed(v.completion_time.count_micros());
    mix_signed(v.bytes_downloaded);
    mix_signed(v.bytes_wasted);
  }
  mix_signed(r.wall_time.count_micros());
  mix(r.events_fired);
  mix(r.heap_high_water);
  mix(r.heap_compactions);
  mix(r.requests_served);
  mix(r.requests_choked);
  mix(r.pieces_aborted);
  mix(r.messages_routed);
  mix(r.churn_departures);
  mix_signed(r.seeder_uploaded);
  mix_signed(r.peers_uploaded);
  mix(r.reallocations);
  mix(r.flows_retouched);
  mix(r.segment_picks);
  mix(r.holder_picks);
  mix(r.candidates_scanned);
  mix(r.control_digests_sent);
  return h;
}

const std::vector<Check>& all_checks() {
  static const std::vector<Check> checks{
      {"paper.gop_stalls_longest_at_256", gop_stalls_most,
       doctor_gop_stalls_most},
      {"paper.2s_stalls_more_than_4s_at_128", two_stalls_more_low,
       doctor_two_stalls_more_low},
      {"paper.stalls_fall_with_bandwidth", falls_with_bandwidth,
       doctor_falls_with_bandwidth},
      {"paper.larger_segments_start_slower", larger_segments_start_slower,
       doctor_larger_segments_start_slower},
      {"eq1.pool_size", eq1_pool_size, doctor_eq1_pool_size},
      {"sec4.max_segment", sec4_max_segment, doctor_sec4_max_segment},
      {"splice.gop_bytes", gop_bytes, doctor_gop_bytes},
      {"splice.duration_bytes", duration_bytes, doctor_duration_bytes},
      {"splice.tiling", tiling, doctor_tiling},
      {"splice.content_match", content_match, doctor_content_match},
      {"qoe.playback_identity", playback_identity, doctor_playback_identity},
      {"bytes.viewer", viewer_bytes, doctor_viewer_bytes},
      {"bytes.swarm", swarm_bytes, doctor_swarm_bytes},
      {"bytes.requests", request_count, doctor_request_count},
      {"join.admission", join_admission, doctor_join_admission},
      {"trace.identity", trace_identity, doctor_trace_identity},
      {"trace.complete", trace_complete, doctor_trace_complete},
      {"rounds.identical", rounds_identical, doctor_rounds_identical},
  };
  return checks;
}

}  // namespace vbench
