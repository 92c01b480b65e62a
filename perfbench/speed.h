// Machine-speed calibration for the vsplice benchmark.
//
// The benchmark runs on shared hosts whose speed moves by tens of
// percent within seconds as other tenants come and go: the same round of
// simulations can take 5.0 s or 7.1 s a minute later. A fixed reference
// kernel, which calls nothing in the program, is timed every 100 ms
// while a round runs (from a timer signal, on the measuring thread), and
// each stretch of program time between two samples is divided by the
// kernel's mean time at its two ends. The sum, times the kernel's time
// on a reference machine, is the round's wall time at the reference
// speed. The program's own speed still moves it; the host's does not.

#ifndef VSPLICE_PERFBENCH_SPEED_H_
#define VSPLICE_PERFBENCH_SPEED_H_

#include <cstddef>

namespace vbench {

/// One round's program time, as measured and at the reference speed.
/// Both exclude the time spent in the reference kernel.
struct RoundTime {
  double raw_s = 0;
  double normalized_s = 0;
  /// Samples of the kernel taken while the round ran, ends included.
  std::size_t samples = 0;
  /// Mean time of one kernel pass over those samples.
  double mean_pass_s = 0;
};

/// Samples the reference kernel while a round runs. One instance at a
/// time; it owns the process's SIGALRM disposition while it lives.
class SpeedSampler {
 public:
  SpeedSampler();
  ~SpeedSampler();
  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

  /// Takes a sample now and starts the 100 ms sampling timer.
  void begin_round();
  /// Stops the timer, takes a closing sample and returns the round's
  /// times.
  RoundTime end_round();

  /// Scales a time measured just before this sampler was made (the
  /// set-up) to the reference speed, by the kernel's time now.
  [[nodiscard]] double normalize_now(double seconds) const;

 private:
  std::size_t first_ = 0;
};

}  // namespace vbench

#endif  // VSPLICE_PERFBENCH_SPEED_H_
