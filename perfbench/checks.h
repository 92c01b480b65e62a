// Output checks of the vsplice benchmark.
//
// Every check compares what the program produced with a value the
// benchmark computes apart from it (frame sums, Eq. 1 on its own grid,
// paper aggregates folded from per-viewer QoE) or with a property the
// method must have (playback-time identity, byte conservation, seeded
// determinism). Each check also carries a doctor: a mutation of the
// evidence that breaks exactly the property the check guards. The
// self-test runs every check that passed on the real evidence again on a
// doctored copy and requires a rejection, so a check that cannot fail is
// itself reported as a failure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/segment.h"
#include "experiments/paper_setup.h"

namespace vbench {

using vsplice::Bytes;
using vsplice::Duration;
using vsplice::Rate;

/// One scenario of a workload, tagged with its place in the paper's
/// grids ("fig2", "fig4", "fig5") so the findings can be recomputed.
struct RunSpec {
  vsplice::experiments::ScenarioConfig config;
  std::string grid;
  std::size_t bandwidth_index = 0;
  std::size_t series_index = 0;
};

/// A splicing the benchmark made itself from the encoded stream, next to
/// the frame facts it summed itself.
struct SpliceFacts {
  std::string splicer;
  bool gop_aligned = false;
  Bytes frame_total = 0;
  std::size_t frame_count = 0;
  Duration video_duration = Duration::zero();
  std::vector<vsplice::core::Segment> segments;
  /// SegmentIndex::total_size() / total_media_size() of the splice.
  Bytes total_size = 0;
  Bytes media_size = 0;
};

/// Everything the checks look at. `untraced[i]` and `traced[i]` belong to
/// `specs[i]`; `traced` is empty when the run was not traced.
struct Evidence {
  std::vector<RunSpec> specs;
  std::vector<vsplice::experiments::ScenarioResult> untraced;
  std::vector<vsplice::experiments::ScenarioResult> traced;
  /// fingerprints[round][i]: digest of run i's deterministic outputs in
  /// each untraced round.
  std::vector<std::vector<std::uint64_t>> fingerprints;
  std::vector<SpliceFacts> splices;
  /// The program's Eq. 1 and Section IV bound, as called by the checks.
  std::function<int(Rate, Duration, Bytes)> pool_size;
  std::function<Bytes(Rate, Duration)> max_segment;
};

enum class Verdict { kPass, kFail, kNotApplicable };

struct Outcome {
  Verdict verdict = Verdict::kNotApplicable;
  std::string detail;
  /// Runs (indices into specs) that broke a per-run property.
  std::vector<std::size_t> failed_runs;
};

struct Check {
  const char* name;
  Outcome (*run)(const Evidence&);
  /// Breaks the property `run` guards; applied to a copy.
  void (*doctor)(Evidence&);
};

[[nodiscard]] const std::vector<Check>& all_checks();

/// Digest of a result's deterministic outputs: per-viewer QoE, event and
/// protocol counters. Wall-clock fields, the profile, the span waterfall
/// and the memory gauges are left out, so a traced and an untraced run
/// of one scenario must agree on it.
[[nodiscard]] std::uint64_t fingerprint(
    const vsplice::experiments::ScenarioResult& result);

/// The paper video's fixed length, which every splicing must tile.
inline constexpr Duration kVideoLength = Duration::seconds(120.0);

}  // namespace vbench
